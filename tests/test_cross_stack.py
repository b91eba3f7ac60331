"""Cross-stack validation: the functional layer must *execute* the same
operation structure the performance model *counts*.

We instrument the NTT engine, run functional CKKS operations at toy
parameters, and check the number of forward/inverse NTT passes against the
closed forms the cost model is built on.  This is the strongest link
between the two halves of the library: if the model assumed an operation
structure the implementation doesn't have, these tests break.
"""

import contextlib

import numpy as np
import pytest

from repro.kernels.ntt import BatchNttKernel
from repro.numth.ntt import NttContext
from repro.params import toy_params
from repro.ckks import (
    CkksContext,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
)


@contextlib.contextmanager
def ntt_counter(monkeypatch):
    """Count forward/inverse NTT limb-passes process-wide.

    Both engines are instrumented in the same unit — one transformed
    limb — so the closed forms hold whichever path the ring layer picks:
    the pure-Python oracle does one call per limb, the batched int64
    kernel one call per basis (counted at ``num_limbs`` passes) through
    either its public ``forward``/``inverse`` or the ring layer's
    ``forward_rows``/``inverse_rows`` entry points.
    """
    counts = {"forward": 0, "inverse": 0}
    original_forward = NttContext.forward
    original_inverse = NttContext.inverse
    kernel_entry_points = {
        name: getattr(BatchNttKernel, name)
        for name in ("forward", "inverse", "forward_rows", "inverse_rows")
    }

    def counting_forward(self, coeffs):
        counts["forward"] += 1
        return original_forward(self, coeffs)

    def counting_inverse(self, evals):
        counts["inverse"] += 1
        return original_inverse(self, evals)

    def counting_kernel(name):
        original = kernel_entry_points[name]
        direction = "forward" if name.startswith("forward") else "inverse"

        def counting(self, rows):
            counts[direction] += self.num_limbs
            return original(self, rows)

        return counting

    monkeypatch.setattr(NttContext, "forward", counting_forward)
    monkeypatch.setattr(NttContext, "inverse", counting_inverse)
    for name in kernel_entry_points:
        monkeypatch.setattr(BatchNttKernel, name, counting_kernel(name))
    try:
        yield counts
    finally:
        monkeypatch.undo()


@pytest.fixture(scope="module")
def env():
    params = toy_params(log_n=4, log_q=30, max_limbs=6, dnum=3)
    ctx = CkksContext(params, seed=3)
    kg = KeyGenerator(ctx)
    return {
        "params": params,
        "ctx": ctx,
        "enc": Encryptor(ctx, secret_key=kg.secret_key),
        "dec": Decryptor(ctx, kg.secret_key),
        "ev": Evaluator(
            ctx,
            relin_key=kg.relinearization_key(),
            rotation_keys={s: kg.rotation_key(s) for s in (1, 2, 3)},
        ),
    }


def _keyswitch_ntt_counts(params, limbs):
    """Closed-form NTT passes of one KeySwitch at ``limbs`` limbs.

    Decomp+ModUp: each digit of size d is iNTT'd (d passes) and extended to
    ``limbs + k`` limbs (``limbs + k - d`` forward passes).  The ModDown
    pair: ``k`` inverse + ``limbs`` forward passes per polynomial.
    """
    k = params.num_special_limbs
    digit_sizes = []
    remaining = limbs
    while remaining > 0:
        digit_sizes.append(min(params.alpha, remaining))
        remaining -= params.alpha
    inverse = sum(digit_sizes) + 2 * k
    forward = sum(limbs + k - d for d in digit_sizes) + 2 * limbs
    return forward, inverse


class TestRotateStructure:
    def test_ntt_passes_match_model(self, env, monkeypatch):
        params = env["params"]
        limbs = params.max_limbs
        ct = env["enc"].encrypt_values([0.1] * 8)
        with ntt_counter(monkeypatch) as counts:
            env["ev"].rotate(ct, 1)
        forward, inverse = _keyswitch_ntt_counts(params, limbs)
        # Rotate = automorph (0 NTTs) + KeySwitch of c1.
        assert counts["inverse"] == inverse
        assert counts["forward"] == forward


class TestMultStructure:
    def test_standard_mult_ntt_passes(self, env, monkeypatch):
        params = env["params"]
        limbs = params.max_limbs
        ct1 = env["enc"].encrypt_values([0.1] * 8)
        ct2 = env["enc"].encrypt_values([0.2] * 8)
        with ntt_counter(monkeypatch) as counts:
            env["ev"].mult(ct1, ct2)
        ks_forward, ks_inverse = _keyswitch_ntt_counts(params, limbs)
        # Mult adds a Rescale of both polynomials: per polynomial, 1 inverse
        # (the dropped limb) + (limbs - 1) forward (its images).
        assert counts["inverse"] == ks_inverse + 2
        assert counts["forward"] == ks_forward + 2 * (limbs - 1)

    def test_merged_mod_down_saves_ntt_passes(self, env, monkeypatch):
        """Fig. 4: the merged ModDown eliminates the separate rescale pass."""
        ct1 = env["enc"].encrypt_values([0.1] * 8)
        ct2 = env["enc"].encrypt_values([0.2] * 8)
        with ntt_counter(monkeypatch) as standard:
            env["ev"].mult(ct1, ct2)
        standard_total = standard["forward"] + standard["inverse"]
        with ntt_counter(monkeypatch) as merged:
            env["ev"].mult(ct1, ct2, merged_mod_down=True)
        merged_total = merged["forward"] + merged["inverse"]
        assert merged_total < standard_total


class TestHoistingStructure:
    def test_hoisted_rotations_share_mod_up(self, env, monkeypatch):
        """Fig. 5: k hoisted rotations perform the Decomp+ModUp NTT work
        once, then only the per-rotation ModDown passes."""
        params = env["params"]
        limbs = params.max_limbs
        k = params.num_special_limbs
        ct = env["enc"].encrypt_values([0.1] * 8)
        steps = [1, 2, 3]

        with ntt_counter(monkeypatch) as hoisted:
            env["ev"].rotations_hoisted(ct, steps)
        with ntt_counter(monkeypatch) as single:
            env["ev"].rotate(ct, 1)

        # Sequential: 3x full KeySwitch.  Hoisted: 1x (Decomp+ModUp) +
        # 3x ModDown pair (k inverse + limbs forward per polynomial).
        sequential_total = 3 * (single["forward"] + single["inverse"])
        expected_hoisted = (
            single["forward"]
            + single["inverse"]
            + 2 * (2 * (k + limbs))  # two extra rotations' ModDown pairs
        )
        hoisted_total = hoisted["forward"] + hoisted["inverse"]
        assert hoisted_total == expected_hoisted
        assert hoisted_total < sequential_total

    def test_hoisting_savings_grow_with_rotation_count(self, env, monkeypatch):
        ct = env["enc"].encrypt_values([0.1] * 8)
        with ntt_counter(monkeypatch) as two:
            env["ev"].rotations_hoisted(ct, [1, 2])
        with ntt_counter(monkeypatch) as three:
            env["ev"].rotations_hoisted(ct, [1, 2, 3])
        params = env["params"]
        per_extra = 2 * (params.num_special_limbs + params.max_limbs)
        assert (
            three["forward"] + three["inverse"]
            - (two["forward"] + two["inverse"])
            == per_extra
        )


class TestEncryptionStructure:
    def test_fresh_encryption_ntt_budget(self, env, monkeypatch):
        """Symmetric encryption: NTT the error and message polynomials."""
        limbs = env["params"].max_limbs
        with ntt_counter(monkeypatch) as counts:
            env["enc"].encrypt_values([0.0] * 8)
        # e and m are built in coefficient form and NTT'd over every limb;
        # `a` is sampled directly in the evaluation domain.
        assert counts["forward"] == 2 * limbs
        assert counts["inverse"] == 0
