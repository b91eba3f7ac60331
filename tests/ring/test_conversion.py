import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.numth import find_ntt_primes
from repro.ring import (
    Representation,
    RnsBasis,
    RnsPolynomial,
    mod_down,
    mod_up,
    new_limb,
    p_mod_up,
    rescale,
)


@pytest.fixture(scope="module")
def basis():
    return RnsBasis.generate(16, 30, 3)


@pytest.fixture(scope="module")
def extension(basis):
    return find_ntt_primes(30, 16, 2, exclude=basis.moduli)


def _poly_from(coeffs, basis):
    return RnsPolynomial.from_int_coeffs(coeffs, basis)


class TestNewLimb:
    def test_exact_for_small_values(self, basis):
        # For x with tiny residue contributions the conversion is exact.
        coeffs = [5] + [0] * 15
        poly = _poly_from(coeffs, basis)
        row = new_limb(poly.limbs, basis, 97 * 32 + 1 if False else 577)
        # 577 = 1 mod 32, prime.
        assert row[0] % 577 in {5 % 577, (5 + basis.modulus) % 577,
                                (5 + 2 * basis.modulus) % 577}

    def test_congruence_up_to_q_multiple(self, basis):
        rng = random.Random(42)
        coeffs = [rng.randrange(basis.modulus) for _ in range(16)]
        poly = _poly_from(coeffs, basis)
        target = find_ntt_primes(30, 16, 1, exclude=basis.moduli)[0]
        row = new_limb(poly.limbs, basis, target)
        big_q = basis.modulus
        for out, x in zip(row, coeffs):
            # Output is x + u*Q mod target for some 0 <= u < num_limbs.
            assert any(
                out == (x + u * big_q) % target for u in range(len(basis) + 1)
            )

    def test_row_count_checked(self, basis):
        with pytest.raises(ValueError):
            new_limb([[0] * 16], basis, 577)


class TestModUp:
    def test_preserves_original_limbs(self, basis, extension):
        rng = random.Random(1)
        coeffs = [rng.randrange(-500, 500) for _ in range(16)]
        poly = _poly_from(coeffs, basis).to_eval()
        raised = mod_up(poly, extension)
        assert raised.limbs[: len(basis)].tolist() == poly.limbs.tolist()
        assert raised.basis.moduli == basis.moduli + tuple(extension)

    def test_output_in_eval_form(self, basis, extension):
        poly = RnsPolynomial.zero(basis)
        raised = mod_up(poly, extension)
        assert raised.representation is Representation.EVAL

    def test_new_limbs_congruent(self, basis, extension):
        rng = random.Random(2)
        coeffs = [rng.randrange(basis.modulus) for _ in range(16)]
        poly = _poly_from(coeffs, basis).to_eval()
        raised = mod_up(poly, extension).to_coeff()
        big_q = basis.modulus
        for limb_idx, p in enumerate(extension):
            row = raised.limbs[len(basis) + limb_idx]
            for out, x in zip(row, coeffs):
                assert any(
                    out == (x + u * big_q) % p for u in range(len(basis) + 1)
                )

    def test_requires_eval_form(self, basis, extension):
        poly = RnsPolynomial.zero(basis, Representation.COEFF)
        with pytest.raises(ValueError):
            mod_up(poly, extension)

    def test_requires_nonempty_extension(self, basis):
        with pytest.raises(ValueError):
            mod_up(RnsPolynomial.zero(basis), [])


class TestModDown:
    def test_inverts_p_mod_up_approximately(self, basis, extension):
        rng = random.Random(3)
        coeffs = [rng.randrange(-10**6, 10**6) for _ in range(16)]
        poly = _poly_from(coeffs, basis).to_eval()
        raised = p_mod_up(poly, extension)
        lowered = mod_down(raised, len(extension))
        error = [
            got - want
            for got, want in zip(lowered.to_int_coeffs(), coeffs)
        ]
        # Approximate conversion may undershoot by at most the number of
        # dropped limbs.
        assert all(abs(e) <= len(extension) for e in error)

    def test_division_semantics(self, basis, extension):
        # mod_down(P * x + small) ~= x.
        p_product = 1
        for p in extension:
            p_product *= p
        merged = basis.extended(extension)
        xs = list(range(-8, 8))
        scaled = _poly_from([x * p_product for x in xs], merged).to_eval()
        lowered = mod_down(scaled, len(extension))
        error = [got - x for got, x in zip(lowered.to_int_coeffs(), xs)]
        assert all(abs(e) <= len(extension) for e in error)

    def test_limb_bounds(self, basis):
        poly = RnsPolynomial.zero(basis)
        with pytest.raises(ValueError):
            mod_down(poly, 3)
        with pytest.raises(ValueError):
            mod_down(poly, 0)

    def test_requires_eval_form(self, basis):
        poly = RnsPolynomial.zero(basis, Representation.COEFF)
        with pytest.raises(ValueError):
            mod_down(poly, 1)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(-(2**15), 2**15), min_size=16, max_size=16))
    def test_round_trip_property(self, coeffs):
        basis = RnsBasis.generate(16, 30, 3)
        extension = find_ntt_primes(30, 16, 2, exclude=basis.moduli)
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis).to_eval()
        lowered = mod_down(p_mod_up(poly, extension), len(extension))
        error = [g - w for g, w in zip(lowered.to_int_coeffs(), coeffs)]
        assert all(abs(e) <= len(extension) for e in error)


class TestRescale:
    def test_divides_by_last_limb(self, basis):
        q_last = basis.moduli[-1]
        xs = list(range(16))
        poly = _poly_from([x * q_last for x in xs], basis).to_eval()
        scaled = rescale(poly)
        assert scaled.basis.moduli == basis.moduli[:-1]
        error = [got - x for got, x in zip(scaled.to_int_coeffs(), xs)]
        assert all(abs(e) <= 1 for e in error)

    def test_rejects_single_limb(self, basis):
        single = RnsPolynomial.zero(basis.prefix(1))
        with pytest.raises(ValueError):
            rescale(single)


class TestPModUp:
    def test_new_limbs_are_zero(self, basis, extension):
        rng = random.Random(4)
        coeffs = [rng.randrange(-100, 100) for _ in range(16)]
        poly = _poly_from(coeffs, basis).to_eval()
        raised = p_mod_up(poly, extension)
        for row in raised.limbs[len(basis):]:
            assert all(c == 0 for c in row)

    def test_value_is_p_times_x(self, basis, extension):
        coeffs = [3, -7] + [0] * 14
        poly = _poly_from(coeffs, basis)
        raised = p_mod_up(poly, extension)
        p_product = 1
        for p in extension:
            p_product *= p
        assert raised.to_int_coeffs() == [p_product * c for c in coeffs]

    def test_preserves_representation(self, basis, extension):
        poly = RnsPolynomial.zero(basis, Representation.COEFF)
        assert p_mod_up(poly, extension).representation is Representation.COEFF
        poly_eval = RnsPolynomial.zero(basis, Representation.EVAL)
        assert p_mod_up(poly_eval, extension).representation is Representation.EVAL

    def test_is_purely_limb_wise(self, basis, extension):
        # PModUp commutes with the NTT: scaling in either domain agrees.
        rng = random.Random(5)
        coeffs = [rng.randrange(-100, 100) for _ in range(16)]
        poly = _poly_from(coeffs, basis)
        via_coeff = p_mod_up(poly, extension).to_eval()
        via_eval = p_mod_up(poly.to_eval(), extension)
        assert via_coeff == via_eval

    def test_requires_nonempty_extension(self, basis):
        with pytest.raises(ValueError):
            p_mod_up(RnsPolynomial.zero(basis), [])
