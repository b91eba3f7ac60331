"""The benchmark's three workloads.

Each workload is a closed loop with one client: ``op(i)`` runs op ``i``
and returns its raw output, ``check(i, out)`` decides whether that output
is correct and how many bits of precision it carries.  Inputs come from a
pool drawn from the workload seed at set-up; op ``i`` uses pool entry
``i % pool``, so ``precision_bits`` over a run that covers the pool is a
pure function of the seed.

* ``bootstrap`` - functional CKKS bootstrap: the deep-chain server
  pipeline (ring pointwise loops, key switching, the four bootstrap
  stages).  Its op never samples or CRT-decodes; it encodes only the
  plaintext constants of its PtMults.
* ``request``   - a client/server round trip at a wider ring and a
  shallow chain: client sampling, encoding, encryption, CRT decoding,
  plus one Mult and four rotations on the server.
* ``simfhe``    - one analytical study (Table 5 search, Fig. 2 memsim
  ladder, ``mixed`` serve scenario); it runs no functional code.
"""

from __future__ import annotations

import math
import random
from typing import Any, Optional, Tuple

import numpy as np

# float64 mantissa: the precision of two quantities that agree exactly.
EXACT_BITS = 53.0
# Keys are the system's, not the workload's: one fixed key seed, so the
# workload seed only draws inputs and encryption randomness.
KEY_SEED = 2023


def precision_bits(error: float) -> float:
    """``-log2(error)``, capped at :data:`EXACT_BITS` for exact results."""
    return EXACT_BITS if error <= 0 else min(EXACT_BITS, -math.log2(error))


# ----------------------------------------------------------------------
# bootstrap
# ----------------------------------------------------------------------
# 22 limbs of 29 bits, dnum 3, 30-bit special primes, a Hamming-weight-4
# secret, degree-63 EvalMod and fftIter 3; inputs at 1 limb, scale 2^26.
BOOT_LIMBS, BOOT_LOG_Q, BOOT_DNUM, BOOT_LOG_SPECIAL = 22, 29, 3, 30
BOOT_HAMMING_WEIGHT, BOOT_MOD_DEGREE, BOOT_FFT_ITER = 4, 63, 3
BOOT_INPUT_SCALE_BITS = 26


class BootstrapWorkload:
    name = "bootstrap"
    imports = ("repro.ckks", "repro.params")

    # Worst precision at seeds 0-9 was 10.5 bits; the floor leaves 2.5.
    def __init__(self, seed: int, log_n: int = 9, pool: int = 3,
                 floor_bits: float = 8.0):
        self.seed = seed
        self.log_n = log_n
        self.pool = pool
        self.floor_bits = floor_bits

    def setup(self) -> None:
        from repro.ckks import (
            Bootstrapper, CkksContext, Decryptor, Encryptor, KeyGenerator,
        )
        from repro.params import toy_params

        params = toy_params(
            log_n=self.log_n, log_q=BOOT_LOG_Q, max_limbs=BOOT_LIMBS,
            dnum=BOOT_DNUM, fft_iter=BOOT_FFT_ITER, log_special=BOOT_LOG_SPECIAL,
        )
        ctx = CkksContext(params, scale_bits=BOOT_LOG_Q, seed=KEY_SEED)
        keygen = KeyGenerator(ctx, hamming_weight=BOOT_HAMMING_WEIGHT)
        self.bootstrapper = Bootstrapper(
            ctx, keygen, mod_degree=BOOT_MOD_DEGREE, fft_iter=BOOT_FFT_ITER
        )
        ctx.rng = random.Random(self.seed)
        encryptor = Encryptor(ctx, secret_key=keygen.secret_key)
        self.decryptor = Decryptor(ctx, keygen.secret_key)
        rng = np.random.default_rng(self.seed)
        self.inputs = [
            0.25 * (rng.uniform(-1, 1, ctx.slots)
                    + 1j * rng.uniform(-1, 1, ctx.slots))
            for _ in range(self.pool)
        ]
        self.ciphertexts = [
            encryptor.encrypt_values(
                z, scale=2.0**BOOT_INPUT_SCALE_BITS, limbs=1
            )
            for z in self.inputs
        ]
        ev = self.bootstrapper.evaluator
        keys = [ev.relin_key, ev.conjugation_key, *ev.rotation_keys.values()]
        self.keys_bytes = sum(key.stored_bytes() for key in keys)

    def op(self, i: int) -> Any:
        return self.bootstrapper.bootstrap(self.ciphertexts[i % self.pool])

    def check(self, i: int, out: Any) -> Tuple[bool, Optional[float]]:
        values = self.decryptor.decrypt_values(out)
        bits = precision_bits(
            float(np.max(np.abs(values - self.inputs[i % self.pool])))
        )
        return bits >= self.floor_bits, bits


# ----------------------------------------------------------------------
# request
# ----------------------------------------------------------------------
ROTATIONS = (1, 2, 4, 8)


# 12 limbs of 29 bits, dnum 3, 30-bit special primes.
REQ_LIMBS, REQ_LOG_Q, REQ_DNUM, REQ_LOG_SPECIAL = 12, 29, 3, 30


class RequestWorkload:
    name = "request"
    imports = ("repro.ckks", "repro.params")

    # Worst precision at seeds 0-9 was 9.1 bits; the floor leaves 3.1.
    def __init__(self, seed: int, log_n: int = 12, pool: int = 8,
                 floor_bits: float = 6.0):
        self.seed = seed
        self.log_n = log_n
        self.pool = pool
        self.floor_bits = floor_bits

    def setup(self) -> None:
        from repro.ckks import (
            CkksContext, Decryptor, Encryptor, Evaluator, KeyGenerator,
        )
        from repro.params import toy_params

        params = toy_params(
            log_n=self.log_n, log_q=REQ_LOG_Q, max_limbs=REQ_LIMBS,
            dnum=REQ_DNUM, log_special=REQ_LOG_SPECIAL,
        )
        self.context = ctx = CkksContext(params, scale_bits=REQ_LOG_Q, seed=KEY_SEED)
        keygen = KeyGenerator(ctx)
        self.encryptor = Encryptor(ctx, public_key=keygen.public_key())
        self.decryptor = Decryptor(ctx, keygen.secret_key)
        self.evaluator = Evaluator(
            ctx,
            relin_key=keygen.relinearization_key(),
            rotation_keys={step: keygen.rotation_key(step) for step in ROTATIONS},
        )
        rng = np.random.default_rng(self.seed)
        self.inputs = [
            (rng.uniform(-1, 1, ctx.slots), rng.uniform(-1, 1, ctx.slots))
            for _ in range(self.pool)
        ]
        # Rotate-and-sum by 1, 2, 4, 8 sums each window of 16 slots.
        self.expected = [
            sum(np.roll(a * b, -k) for k in range(2 * ROTATIONS[-1]))
            for a, b in self.inputs
        ]
        ev = self.evaluator
        keys = [ev.relin_key, *ev.rotation_keys.values()]
        self.keys_bytes = sum(key.stored_bytes() for key in keys)

    def op(self, i: int) -> Any:
        # Client randomness depends only on the pool entry, so a run's
        # precision does not depend on how many ops it completed.
        self.context.rng = random.Random(self.seed * 1_000_003 + i % self.pool)
        a, b = self.inputs[i % self.pool]
        ct_a = self.encryptor.encrypt_values(a)
        ct_b = self.encryptor.encrypt_values(b)
        ev = self.evaluator
        acc = ev.mult(ct_a, ct_b)
        for step in ROTATIONS:
            acc = ev.add(acc, ev.rotate(acc, step))
        return self.decryptor.decrypt_values(acc)

    def check(self, i: int, out: Any) -> Tuple[bool, Optional[float]]:
        bits = precision_bits(
            float(np.max(np.abs(out - self.expected[i % self.pool])))
        )
        return bits >= self.floor_bits, bits


# ----------------------------------------------------------------------
# simfhe
# ----------------------------------------------------------------------
# (log N, log q, L, dnum, fftIter) of the Table 5 optimum at log q = 50.
TABLE5_BEST = (17, 50, 45, 2, 4)
SIMFHE_LOG_Q = 50


class SimfheWorkload:
    name = "simfhe"
    imports = ("repro.hardware", "repro.search", "repro.memsim.validate",
               "repro.serve.scenario")
    pool = 1

    def __init__(self, seed: int, candidates: Optional[int] = None,
                 primitives: Optional[Tuple[str, ...]] = None,
                 scenario: str = "mixed",
                 expected_best: Tuple[int, ...] = TABLE5_BEST):
        """``candidates=None`` searches every log q = 50 candidate;
        ``primitives=None`` runs the whole memsim ladder."""
        self.seed = seed
        self.n_candidates = candidates
        self.primitives = primitives
        self.scenario = scenario
        self.expected_best = expected_best

    def setup(self) -> None:
        from repro.hardware import PRIOR_DESIGNS, mad_counterpart
        from repro.search import enumerate_parameter_space

        candidates = tuple(
            enumerate_parameter_space(log_q_choices=(SIMFHE_LOG_Q,))
        )
        self.candidates = candidates[: self.n_candidates]
        self.design = mad_counterpart(PRIOR_DESIGNS["GPU [Jung et al.]"])
        self.keys_bytes = 0
        # One untimed study: set-up pays the first-call costs (first-use
        # caches) a cold `repro table5` process pays; ops time a warm one.
        self.op(-1)

    def op(self, i: int) -> Any:
        from repro.memsim.validate import run_validation, validate_memsim_report
        from repro.search import find_optimal_parameters
        from repro.serve.scenario import SCENARIOS, run_scenario

        best = find_optimal_parameters(
            self.design, candidates=self.candidates, top=1
        )[0]
        report = run_validation(primitives=self.primitives)
        validate_memsim_report(report)
        fleets = run_scenario(SCENARIOS[self.scenario], seed=self.seed)
        return best, report, fleets

    def check(self, i: int, out: Any) -> Tuple[bool, Optional[float]]:
        best, report, fleets = out
        p = best.params
        found = (p.log_n, p.log_q, p.max_limbs, p.dnum, p.fft_iter)
        served = all(
            fleet.completed == fleet.offered
            and sum(t.offered for t in fleet.tenants) == fleet.offered
            for fleet in fleets
        )
        # Bits to which simulated and analytical DRAM traffic agree on
        # every ladder cell the model expects to fit.
        worst = max(
            (
                cell["max_abs_rel_error"]
                for run in report["runs"]
                for cell in run["primitives"]
                if not cell["expected_fit_break"]
            ),
            default=0.0,
        )
        ok = found == self.expected_best and report["passed"] and served
        return ok, precision_bits(worst)


WORKLOADS = {
    "bootstrap": BootstrapWorkload,
    "request": RequestWorkload,
    "simfhe": SimfheWorkload,
}
