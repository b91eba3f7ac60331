"""Differential contract: BatchNttKernel is bit-exact vs the oracle.

The kernels reimplement the negacyclic NTT with a very different
algorithm (radix-4 lazy-reduction Stockham vs the oracle's canonical
radix-2 Cooley-Tukey), so these tests pin the *whole output*, not a
tolerance: every row must equal the pure-Python
:class:`repro.numth.ntt.NttContext` result exactly, across ring degrees
up to ``2**15`` and for limb moduli up to the largest NTT prime below
``2**30``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.kernels import BatchNttKernel, FAST_MODULUS_BOUND
from repro.numth import NttContext, find_ntt_primes
from repro.ring import Representation, RnsBasis, RnsPolynomial


def _random_rows(primes, degree, seed):
    rng = random.Random(seed)
    return [[rng.randrange(q) for _ in range(degree)] for q in primes]


class TestForwardInverseParity:
    # 2**15 with 3 limbs keeps the pure-Python reference affordable while
    # still exercising every radix-4 stage count parity (odd and even).
    @pytest.mark.parametrize("log_n", range(4, 16))
    def test_bit_exact_across_sizes(self, log_n):
        degree = 1 << log_n
        primes = find_ntt_primes(30, degree, 3)
        contexts = [NttContext(degree, q) for q in primes]
        kernel = BatchNttKernel(degree, primes, contexts)
        rows = _random_rows(primes, degree, seed=log_n)

        fwd = kernel.forward(rows)
        assert fwd.tolist() == [
            ctx.forward(row) for ctx, row in zip(contexts, rows)
        ]
        back = kernel.inverse(fwd)
        assert back.tolist() == rows

    def test_largest_prime_below_bound(self):
        # The boundary moduli are where the lazy-reduction ranges are
        # tightest (4q just below 2**32).
        degree = 256
        primes = find_ntt_primes(30, degree, 4)
        assert max(primes) > FAST_MODULUS_BOUND - (1 << 16)
        contexts = [NttContext(degree, q) for q in primes]
        kernel = BatchNttKernel(degree, primes, contexts)
        # Worst-case rows: every residue at its maximum.
        rows = [[q - 1] * degree for q in primes]
        assert kernel.forward(rows).tolist() == [
            ctx.forward(row) for ctx, row in zip(contexts, rows)
        ]
        rows = _random_rows(primes, degree, seed=99)
        assert kernel.inverse(rows).tolist() == [
            ctx.inverse(row) for ctx, row in zip(contexts, rows)
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        log_n=st.integers(1, 9),
        num_limbs=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    def test_random_transforms_match_oracle(self, log_n, num_limbs, seed):
        degree = 1 << log_n
        primes = find_ntt_primes(30, degree, num_limbs)
        contexts = [NttContext(degree, q) for q in primes]
        kernel = BatchNttKernel(degree, primes, contexts)
        rows = _random_rows(primes, degree, seed)
        assert kernel.forward(rows).tolist() == [
            ctx.forward(row) for ctx, row in zip(contexts, rows)
        ]
        assert kernel.inverse(rows).tolist() == [
            ctx.inverse(row) for ctx, row in zip(contexts, rows)
        ]

    def test_unreduced_and_negative_inputs_canonicalised(self):
        degree = 64
        primes = find_ntt_primes(30, degree, 2)
        kernel = BatchNttKernel(degree, primes)
        contexts = [NttContext(degree, q) for q in primes]
        rows = _random_rows(primes, degree, seed=5)
        dirty = [
            [v - q if j % 2 else v + q for j, v in enumerate(row)]
            for row, q in zip(rows, primes)
        ]
        assert kernel.forward(dirty).tolist() == [
            ctx.forward(row) for ctx, row in zip(contexts, rows)
        ]


class TestNegacyclicMultiply:
    @settings(max_examples=20, deadline=None)
    @given(
        log_n=st.integers(2, 8),
        num_limbs=st.integers(1, 3),
        seed=st.integers(0, 2**32),
    )
    def test_matches_oracle(self, log_n, num_limbs, seed):
        degree = 1 << log_n
        primes = find_ntt_primes(30, degree, num_limbs)
        contexts = [NttContext(degree, q) for q in primes]
        kernel = BatchNttKernel(degree, primes, contexts)
        a = _random_rows(primes, degree, seed)
        b = _random_rows(primes, degree, seed + 1)
        assert kernel.negacyclic_multiply(a, b).tolist() == [
            ctx.negacyclic_multiply(ra, rb)
            for ctx, ra, rb in zip(contexts, a, b)
        ]

    def test_wraps_negacyclically(self):
        # x^(n-1) * x = -1 mod (x^n + 1): the sign flip distinguishes the
        # negacyclic convolution from a plain cyclic one.
        degree = 16
        primes = find_ntt_primes(30, degree, 1)
        kernel = BatchNttKernel(degree, primes)
        a = [[0] * (degree - 1) + [1]]
        b = [[0, 1] + [0] * (degree - 2)]
        got = kernel.negacyclic_multiply(a, b).tolist()
        assert got == [[primes[0] - 1] + [0] * (degree - 1)]


class TestBatchedVsSingle:
    def test_batched_equals_per_limb_kernels(self):
        degree = 128
        primes = find_ntt_primes(30, degree, 5)
        batched = BatchNttKernel(degree, primes)
        rows = _random_rows(primes, degree, seed=11)
        fwd = batched.forward(rows)
        for i, q in enumerate(primes):
            single = BatchNttKernel(degree, [q])
            assert single.forward([rows[i]]).tolist() == [fwd[i].tolist()]
            assert (
                single.inverse([rows[i]]).tolist()
                == [batched.inverse(rows)[i].tolist()]
            )

    def test_rows_entry_points_take_and_return_int64_matrices(self):
        degree = 32
        primes = find_ntt_primes(30, degree, 2)
        kernel = BatchNttKernel(degree, primes)
        rows = np.asarray(_random_rows(primes, degree, seed=3), dtype=np.int64)
        out = kernel.forward_rows(rows)
        assert isinstance(out, np.ndarray) and out.dtype == np.int64
        assert np.array_equal(out, kernel.forward(rows))
        assert np.array_equal(kernel.inverse_rows(out), rows)
        # An object matrix (the reference dtype) is accepted and copied.
        back = kernel.inverse_rows(out.astype(object))
        assert back.dtype == np.int64 and np.array_equal(back, rows)


class TestValidation:
    def test_rejects_empty_moduli(self):
        with pytest.raises(ValueError):
            BatchNttKernel(16, [])

    def test_rejects_oversized_modulus(self):
        degree = 16
        big = find_ntt_primes(40, degree, 1)
        with pytest.raises(ValueError, match="fast-path bound"):
            BatchNttKernel(degree, big)

    def test_rejects_mismatched_contexts(self):
        degree = 16
        primes = find_ntt_primes(30, degree, 2)
        contexts = [NttContext(degree, q) for q in reversed(primes)]
        with pytest.raises(ValueError, match="contexts"):
            BatchNttKernel(degree, primes, contexts)

    def test_rejects_wrong_shape(self):
        degree = 16
        primes = find_ntt_primes(30, degree, 2)
        kernel = BatchNttKernel(degree, primes)
        with pytest.raises(ValueError, match="residue matrix"):
            kernel.forward([[0] * degree])


class TestRingDispatch:
    """The ring layer picks the fast path and stays bit-exact."""

    def _poly(self, degree=32, limbs=3, seed=7):
        basis = RnsBasis(degree, find_ntt_primes(30, degree, limbs))
        rows = _random_rows(basis.moduli, degree, seed)
        return RnsPolynomial(basis, rows, Representation.COEFF)

    def test_fast_kernel_gated_by_toggle(self):
        poly = self._poly()
        assert poly.basis.fast_kernel() is not None
        with kernels.oracle_only():
            assert poly.basis.fast_kernel() is None
        assert poly.basis.fast_kernel() is not None

    def test_fast_kernel_none_for_big_moduli(self):
        degree = 32
        basis = RnsBasis(degree, find_ntt_primes(40, degree, 2))
        assert basis.fast_kernel() is None

    def test_to_eval_matches_oracle_path(self):
        poly = self._poly()
        fast = poly.to_eval()
        with kernels.oracle_only():
            slow = poly.to_eval()
        assert fast == slow
        assert fast.to_coeff() == poly

    def test_kernel_cache_shared_across_equal_bases(self):
        poly = self._poly()
        other = RnsBasis(poly.basis.degree, poly.basis.moduli)
        assert poly.basis.fast_kernel() is other.fast_kernel()
