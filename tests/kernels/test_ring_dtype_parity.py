"""int64 vs object residue matrices: every ring op is bit-identical.

A ring element's matrix dtype selects its path: int64 on the fast path,
object (exact Python integers, pure-Python NTT and conversion oracles)
under :func:`repro.kernels.oracle_only` or when a modulus exceeds the
int64 bound.  Each test builds the same element both ways, applies one
ring op on each path and requires identical values, with each result in
the dtype its path promises.

Tier-1 covers N = 2^4 .. 2^12.  Other degrees are selected with the
``REPRO_PARITY_LOG_N`` environment variable (comma-separated ``log2 N``
values), e.g. ``REPRO_PARITY_LOG_N=14,15`` for the big-N CI step.
"""

import os
import random

import numpy as np
import pytest

from repro import kernels
from repro.numth import find_ntt_primes
from repro.numth.crt import crt_reconstruct
from repro.numth.modular import centered_mod
from repro.ring import (
    Representation,
    RnsBasis,
    RnsPolynomial,
    mod_down,
    mod_up,
    p_mod_up,
    rescale,
)

LOG_NS = [
    int(v) for v in os.environ.get("REPRO_PARITY_LOG_N", "").split(",") if v
] or list(range(4, 13))


def _moduli(degree, mix):
    """Boundary bases: the largest NTT primes below 2^30, or 30/40-bit mixed."""
    small = find_ntt_primes(30, degree, 3)
    if mix == "30bit":
        return small[:2], small[2:]
    big = find_ntt_primes(40, degree, 1)
    return small[:2], big  # int64 source limbs, an oversized extension


def _rows(moduli, degree, seed):
    rng = random.Random(f"parity:{seed}:{degree}")
    rows = [[rng.randrange(q) for _ in range(degree)] for q in moduli]
    for row, q in zip(rows, moduli):
        row[0], row[1], row[-1] = 0, q - 1, q - 1
    return rows


def _pair(basis, rows, representation):
    fast = RnsPolynomial(basis, rows, representation)
    with kernels.oracle_only():
        reference = RnsPolynomial(basis, rows, representation)
    return fast, reference


def _check(fast, reference, op=""):
    fits = kernels.moduli_fit(fast.basis.moduli)
    assert fast.limbs.dtype == (np.int64 if fits else object), op
    assert reference.limbs.dtype == object, op
    assert fast.limbs.flags["C_CONTIGUOUS"], op
    assert fast.basis == reference.basis, op
    assert fast.representation is reference.representation, op
    assert np.array_equal(fast.limbs, reference.limbs), op


def _both(op, fast, reference):
    out = op(fast)
    with kernels.oracle_only():
        ref_out = op(reference)
    return out, ref_out


@pytest.fixture(params=LOG_NS, ids=lambda log_n: f"N=2^{log_n}")
def degree(request):
    return 1 << request.param


@pytest.fixture(params=["30bit", "30/40bit"])
def bases(request, degree):
    source, extension = _moduli(degree, request.param)
    return RnsBasis(degree, source), extension


@pytest.mark.parametrize("form", list(Representation))
def test_pointwise_and_automorph(degree, form):
    moduli = find_ntt_primes(30, degree, 3)
    basis = RnsBasis(degree, moduli)
    a, a_ref = _pair(basis, _rows(moduli, degree, 1), form)
    b, b_ref = _pair(basis, _rows(moduli, degree, 2), form)
    big = (1 << 200) + 12345
    ops = {
        "add": lambda x, y: x + y,
        "sub": lambda x, y: x - y,
        "neg": lambda x, y: -x,
        "mul": lambda x, y: x.to_eval() * y.to_eval(),
        "scalar_mul": lambda x, y: x.scalar_mul(big),
        "limb_scalar_mul": lambda x, y: x.limb_scalar_mul([-1, big, 7]),
        "automorph": lambda x, y: x.automorph(2 * degree - 3),
        "automorph_5": lambda x, y: x.automorph(5),
    }
    for name, op in ops.items():
        out = op(a, b)
        with kernels.oracle_only():
            ref_out = op(a_ref, b_ref)
        _check(out, ref_out, name)


def test_mod_up(bases):
    basis, extension = bases
    rows = _rows(basis.moduli, basis.degree, 3)
    fast, reference = _pair(basis, rows, Representation.EVAL)
    _check(*_both(lambda p: mod_up(p, extension), fast, reference))


def test_mod_down_and_rescale(bases):
    basis, extension = bases
    raised = basis.extended(extension)
    rows = _rows(raised.moduli, basis.degree, 4)
    fast, reference = _pair(raised, rows, Representation.EVAL)
    _check(*_both(lambda p: mod_down(p, len(extension)), fast, reference))
    _check(*_both(rescale, fast, reference))


def test_p_mod_up(bases):
    basis, extension = bases
    rows = _rows(basis.moduli, basis.degree, 5)
    fast, reference = _pair(basis, rows, Representation.EVAL)
    _check(*_both(lambda p: p_mod_up(p, extension), fast, reference))


def test_to_int_coeffs(bases):
    basis, extension = bases
    full = basis.extended(extension)
    rows = _rows(full.moduli, basis.degree, 6)
    fast, reference = _pair(full, rows, Representation.EVAL)
    got, want = _both(lambda p: p.to_int_coeffs(), fast, reference)
    assert got == want
    assert all(type(v) is int for v in got)
    # The scalar CRT oracle agrees coefficient by coefficient.
    coeff_rows = reference.to_coeff().limbs.tolist()
    total = full.modulus
    for j in (0, 1, basis.degree - 1):
        column = [row[j] for row in coeff_rows]
        value = crt_reconstruct(column, list(full.moduli))
        assert got[j] == centered_mod(value, total)


class TestMutationIsolation:
    """Writing into a derived element never changes its source matrix."""

    def _poly(self):
        basis = RnsBasis(16, find_ntt_primes(30, 16, 3))
        return RnsPolynomial(basis, _rows(basis.moduli, 16, 7), Representation.EVAL)

    def test_clone_owns_its_rows(self):
        poly = self._poly()
        before = poly.limbs.copy()
        copy = poly.clone()
        copy.limbs[:] = 0
        assert np.array_equal(poly.limbs, before)

    def test_select_owns_its_rows(self):
        poly = self._poly()
        before = poly.limbs.copy()
        prefix = RnsBasis(16, poly.basis.moduli[:2])
        for rows in (slice(0, 2), [0, 1]):
            part = poly.select(rows, prefix)
            part.limbs[:] = 0
        assert np.array_equal(poly.limbs, before)

    def test_select_checks_the_basis(self):
        poly = self._poly()
        with pytest.raises(ValueError, match="do not match"):
            poly.select([1, 0], RnsBasis(16, poly.basis.moduli[:2]))

    def test_key_restriction_owns_its_rows(self):
        from repro.ckks import CkksContext, KeyGenerator
        from repro.params import toy_params

        ctx = CkksContext(toy_params(log_n=4, log_q=30, max_limbs=4, dnum=2))
        key = KeyGenerator(ctx).relinearization_key()
        b_full, a_full = key.digits[0]
        before = (b_full.limbs.copy(), a_full.limbs.copy())
        for b_poly, a_poly in key.restricted(2, ctx):
            b_poly.limbs[:] = 0
            a_poly.limbs[:] = 0
        assert np.array_equal(b_full.limbs, before[0])
        assert np.array_equal(a_full.limbs, before[1])
