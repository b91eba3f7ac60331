import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ring import Representation, RnsBasis, RnsPolynomial


@pytest.fixture(scope="module")
def basis():
    return RnsBasis.generate(16, 30, 3)


def _random_poly(basis, seed=0, bound=1000):
    rng = random.Random(seed)
    coeffs = [rng.randrange(-bound, bound) for _ in range(basis.degree)]
    return coeffs, RnsPolynomial.from_int_coeffs(coeffs, basis)


def _naive_negacyclic(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            if k >= n:
                out[k - n] -= ai * bj
            else:
                out[k] += ai * bj
    return out


class TestConstruction:
    def test_zero(self, basis):
        z = RnsPolynomial.zero(basis)
        assert all(all(c == 0 for c in row) for row in z.limbs)

    def test_limb_count_checked(self, basis):
        with pytest.raises(ValueError):
            RnsPolynomial(basis, [[0] * 16], Representation.COEFF)

    def test_limb_length_checked(self, basis):
        with pytest.raises(ValueError):
            RnsPolynomial(basis, [[0] * 8] * 3, Representation.COEFF)

    def test_from_int_coeffs_reduces_mod_each_limb(self, basis):
        coeffs = [-1] + [0] * 15
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis)
        for row, q in zip(poly.limbs, basis):
            assert row[0] == q - 1

    def test_clone_is_deep(self, basis):
        _, poly = _random_poly(basis)
        copy = poly.clone()
        copy.limbs[0][0] = (copy.limbs[0][0] + 1) % basis.moduli[0]
        assert copy != poly


class TestCrtRoundTrip:
    def test_round_trip_centered(self, basis):
        coeffs, poly = _random_poly(basis, seed=1)
        assert poly.to_int_coeffs() == coeffs

    def test_round_trip_after_eval(self, basis):
        coeffs, poly = _random_poly(basis, seed=2)
        assert poly.to_eval().to_int_coeffs() == coeffs

    @settings(max_examples=20)
    @given(st.lists(st.integers(-(2**20), 2**20), min_size=16, max_size=16))
    def test_round_trip_property(self, coeffs):
        basis = RnsBasis.generate(16, 30, 3)
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis)
        assert poly.to_int_coeffs() == coeffs


class TestRepresentation:
    def test_eval_coeff_round_trip(self, basis):
        _, poly = _random_poly(basis, seed=3)
        assert poly.to_eval().to_coeff() == poly

    def test_idempotent_conversions(self, basis):
        _, poly = _random_poly(basis, seed=4)
        ev = poly.to_eval()
        assert ev.to_eval() is ev
        assert poly.to_coeff() is poly


class TestArithmetic:
    def test_addition_matches_integers(self, basis):
        ca, pa = _random_poly(basis, seed=5)
        cb, pb = _random_poly(basis, seed=6)
        assert (pa + pb).to_int_coeffs() == [a + b for a, b in zip(ca, cb)]

    def test_subtraction_matches_integers(self, basis):
        ca, pa = _random_poly(basis, seed=7)
        cb, pb = _random_poly(basis, seed=8)
        assert (pa - pb).to_int_coeffs() == [a - b for a, b in zip(ca, cb)]

    def test_negation(self, basis):
        ca, pa = _random_poly(basis, seed=9)
        assert (-pa).to_int_coeffs() == [-a for a in ca]

    def test_multiplication_is_negacyclic(self, basis):
        ca, pa = _random_poly(basis, seed=10, bound=50)
        cb, pb = _random_poly(basis, seed=11, bound=50)
        product = (pa.to_eval() * pb.to_eval()).to_int_coeffs()
        assert product == _naive_negacyclic(ca, cb, 16)

    def test_multiplication_requires_eval_form(self, basis):
        _, pa = _random_poly(basis, seed=12)
        with pytest.raises(ValueError):
            _ = pa * pa

    def test_mixed_representation_rejected(self, basis):
        _, pa = _random_poly(basis, seed=13)
        with pytest.raises(ValueError):
            _ = pa + pa.to_eval()

    def test_scalar_mul(self, basis):
        ca, pa = _random_poly(basis, seed=14)
        assert pa.scalar_mul(7).to_int_coeffs() == [7 * a for a in ca]

    def test_scalar_mul_commutes_with_ntt(self, basis):
        _, pa = _random_poly(basis, seed=15)
        assert pa.scalar_mul(5).to_eval() == pa.to_eval().scalar_mul(5)

    def test_limb_scalar_mul(self, basis):
        _, pa = _random_poly(basis, seed=16)
        scalars = [3, 5, 7]
        result = pa.limb_scalar_mul(scalars)
        for row, orig, s, q in zip(result.limbs, pa.limbs, scalars, basis):
            assert row.tolist() == [a * s % q for a in orig]

    def test_limb_scalar_mul_length_checked(self, basis):
        _, pa = _random_poly(basis, seed=17)
        with pytest.raises(ValueError):
            pa.limb_scalar_mul([1, 2])


class TestAutomorphism:
    def test_identity_automorphism(self, basis):
        _, pa = _random_poly(basis, seed=18)
        assert pa.automorph(1) == pa

    def test_rejects_even_index(self, basis):
        _, pa = _random_poly(basis, seed=19)
        with pytest.raises(ValueError):
            pa.automorph(2)

    def test_coeff_automorph_on_monomial(self, basis):
        # x -> x^3 should map the monomial x to x^3.
        coeffs = [0, 1] + [0] * 14
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis)
        result = poly.automorph(3).to_int_coeffs()
        expected = [0] * 16
        expected[3] = 1
        assert result == expected

    def test_coeff_automorph_wraps_negacyclically(self, basis):
        # x^15 -> x^45 = x^45 mod (x^16+1): 45 = 2*16+13 -> +x^13? 45 mod 32 = 13 < 16.
        coeffs = [0] * 16
        coeffs[15] = 1
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis)
        result = poly.automorph(3).to_int_coeffs()
        expected = [0] * 16
        expected[13] = 1
        assert result == expected

    def test_eval_and_coeff_automorph_agree(self, basis):
        _, pa = _random_poly(basis, seed=20)
        for t in (3, 5, 9, 31):
            via_coeff = pa.automorph(t).to_eval()
            via_eval = pa.to_eval().automorph(t)
            assert via_coeff == via_eval

    def test_automorphisms_compose(self, basis):
        _, pa = _random_poly(basis, seed=21)
        assert pa.automorph(3).automorph(5) == pa.automorph(15)

    def test_automorphism_inverse(self, basis):
        _, pa = _random_poly(basis, seed=22)
        # 3 * 11 = 33 = 1 mod 32, so automorph(11) inverts automorph(3).
        assert pa.automorph(3).automorph(11) == pa

    def test_automorphism_is_additive(self, basis):
        _, pa = _random_poly(basis, seed=23)
        _, pb = _random_poly(basis, seed=24)
        assert (pa + pb).automorph(5) == pa.automorph(5) + pb.automorph(5)

    def test_automorphism_is_multiplicative(self, basis):
        _, pa = _random_poly(basis, seed=25, bound=50)
        _, pb = _random_poly(basis, seed=26, bound=50)
        ea, eb = pa.to_eval(), pb.to_eval()
        assert (ea * eb).automorph(7) == ea.automorph(7) * eb.automorph(7)


class TestCrtDecode:
    """The vectorized decode agrees with the scalar CRT oracle."""

    def test_centering_boundary_matches_scalar_oracle(self, basis):
        from repro.numth.crt import crt_reconstruct
        from repro.numth.modular import centered_mod

        total = basis.modulus
        half = total // 2  # Q is odd: the centered range is [-half, half]
        edges = [half, half + 1, half - 1, -half, -half - 1, total - 1, 0, 1]
        coeffs = edges + [(-1) ** k * (half - k) for k in range(8)]
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis)
        columns = zip(*poly.limbs.tolist())
        expected = [
            centered_mod(crt_reconstruct(list(col), list(basis.moduli)), total)
            for col in columns
        ]
        assert poly.to_int_coeffs() == expected
        assert expected[:2] == [half, -half]
        assert poly.to_int_coeffs(centered=False) == [c % total for c in coeffs]


class TestLargeCoefficients:
    """Coefficients beyond int64 reduce exactly (large-scale plaintexts)."""

    def test_coefficients_at_and_above_2_63(self, basis):
        big = [2**63, -(2**63) - 1, 2**100 + 7, -(2**200)]
        coeffs = big + [2**63 - 1, -(2**63)] + list(range(10))
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis)
        assert poly.limbs.dtype == np.int64
        for row, q in zip(poly.limbs.tolist(), basis):
            assert row == [c % q for c in coeffs]

    def test_int64_boundary_takes_one_remainder(self, basis):
        coeffs = [2**63 - 1, -(2**63)] + [0] * 14
        poly = RnsPolynomial.from_int_coeffs(np.array(coeffs), basis)
        for row, q in zip(poly.limbs.tolist(), basis):
            assert row == [c % q for c in coeffs]
