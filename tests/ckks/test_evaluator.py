import numpy as np
import pytest

from repro.ckks import Ciphertext


@pytest.fixture()
def z1(rng):
    return rng.normal(size=8) + 1j * rng.normal(size=8)


@pytest.fixture()
def z2(rng):
    return rng.normal(size=8) + 1j * rng.normal(size=8)


def _err(decryptor, ct, want):
    return np.max(np.abs(decryptor.decrypt_values(ct) - want))


class TestAdditive:
    def test_add(self, encryptor, decryptor, evaluator, z1, z2):
        ct = evaluator.add(
            encryptor.encrypt_values(z1), encryptor.encrypt_values(z2)
        )
        assert _err(decryptor, ct, z1 + z2) < 1e-4

    def test_sub(self, encryptor, decryptor, evaluator, z1, z2):
        ct = evaluator.sub(
            encryptor.encrypt_values(z1), encryptor.encrypt_values(z2)
        )
        assert _err(decryptor, ct, z1 - z2) < 1e-4

    def test_negate(self, encryptor, decryptor, evaluator, z1):
        ct = evaluator.negate(encryptor.encrypt_values(z1))
        assert _err(decryptor, ct, -z1) < 1e-4

    def test_pt_add(self, encryptor, decryptor, evaluator, z1, z2):
        ct = evaluator.pt_add(encryptor.encrypt_values(z1), list(z2))
        assert _err(decryptor, ct, z1 + z2) < 1e-4

    def test_pt_add_leaves_c1_untouched(self, encryptor, evaluator, z1, z2):
        ct = encryptor.encrypt_values(z1)
        out = evaluator.pt_add(ct, list(z2))
        assert out.c1 == ct.c1

    def test_add_mixed_levels_aligns(self, encryptor, decryptor, evaluator, z1, z2):
        ct1 = encryptor.encrypt_values(z1, limbs=5)
        ct2 = encryptor.encrypt_values(z2, limbs=3)
        out = evaluator.add(ct1, ct2)
        assert out.num_limbs == 3
        assert _err(decryptor, out, z1 + z2) < 1e-4

    def test_add_scale_mismatch_rejected(self, encryptor, evaluator, z1):
        ct1 = encryptor.encrypt_values(z1)
        ct2 = encryptor.encrypt_values(z1, scale=2.0**20)
        with pytest.raises(ValueError):
            evaluator.add(ct1, ct2)


class TestMultiplicative:
    def test_pt_mult(self, encryptor, decryptor, evaluator, z1, z2):
        ct = evaluator.pt_mult(encryptor.encrypt_values(z1), list(z2))
        assert _err(decryptor, ct, z1 * z2) < 1e-3

    def test_pt_mult_consumes_level(self, encryptor, evaluator, z1, z2):
        ct = encryptor.encrypt_values(z1)
        out = evaluator.pt_mult(ct, list(z2))
        assert out.num_limbs == ct.num_limbs - 1

    def test_pt_mult_no_rescale(self, encryptor, decryptor, evaluator, z1, z2):
        ct = encryptor.encrypt_values(z1)
        out = evaluator.pt_mult(ct, list(z2), rescale=False)
        assert out.num_limbs == ct.num_limbs
        assert out.scale == pytest.approx(ct.scale * evaluator.context.scale)
        assert _err(decryptor, out, z1 * z2) < 1e-3

    def test_mult(self, encryptor, decryptor, evaluator, z1, z2):
        ct = evaluator.mult(
            encryptor.encrypt_values(z1), encryptor.encrypt_values(z2)
        )
        assert _err(decryptor, ct, z1 * z2) < 1e-3

    def test_mult_merged_mod_down_matches(self, encryptor, decryptor, evaluator, z1, z2):
        ct1 = encryptor.encrypt_values(z1)
        ct2 = encryptor.encrypt_values(z2)
        standard = evaluator.mult(ct1, ct2)
        merged = evaluator.mult(ct1, ct2, merged_mod_down=True)
        assert merged.num_limbs == standard.num_limbs
        assert merged.scale == pytest.approx(standard.scale)
        assert _err(decryptor, merged, z1 * z2) < 1e-3

    def test_mult_without_rescale_keeps_level(self, encryptor, evaluator, z1, z2):
        out = evaluator.mult(
            encryptor.encrypt_values(z1),
            encryptor.encrypt_values(z2),
            rescale=False,
        )
        assert out.num_limbs == evaluator.context.max_limbs

    def test_merged_requires_rescale(self, encryptor, evaluator, z1, z2):
        with pytest.raises(ValueError):
            evaluator.mult(
                encryptor.encrypt_values(z1),
                encryptor.encrypt_values(z2),
                rescale=False,
                merged_mod_down=True,
            )

    def test_mult_requires_relin_key(self, ctx, encryptor, z1, z2):
        from repro.ckks import Evaluator

        bare = Evaluator(ctx)
        with pytest.raises(ValueError):
            bare.mult(
                encryptor.encrypt_values(z1), encryptor.encrypt_values(z2)
            )

    def test_depth_two_circuit(self, encryptor, decryptor, evaluator, z1, z2):
        ct1 = encryptor.encrypt_values(z1)
        ct2 = encryptor.encrypt_values(z2)
        # (z1 * z2) * z1
        out = evaluator.mult(evaluator.mult(ct1, ct2), ct1)
        assert _err(decryptor, out, z1 * z2 * z1) < 5e-3


class TestRescaleAndLevels:
    def test_rescale_drops_limb_and_scale(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        ct = evaluator.pt_mult(ct, [1.0] * 8, rescale=False)
        out = evaluator.rescale(ct)
        assert out.num_limbs == ct.num_limbs - 1
        dropped = ct.basis.moduli[-1]
        assert out.scale == pytest.approx(ct.scale / dropped)

    def test_reduce_level(self, encryptor, decryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        out = evaluator.reduce_level(ct, 2)
        assert out.num_limbs == 2
        assert _err(decryptor, out, z1) < 1e-4

    def test_reduce_level_validates(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1, limbs=3)
        with pytest.raises(ValueError):
            evaluator.reduce_level(ct, 4)
        with pytest.raises(ValueError):
            evaluator.reduce_level(ct, 0)

    def test_pt_mult_at_lands_on_target_scale(
        self, encryptor, decryptor, evaluator, z1, z2
    ):
        ct = encryptor.encrypt_values(z1)
        # A target no rescale prime would naturally produce.
        target = ct.scale * 1.07
        out = evaluator.pt_mult_at(ct, list(z2), target)
        assert out.scale == target
        assert out.num_limbs == ct.num_limbs - 1
        assert _err(decryptor, out, z1 * z2) < 1e-4

    def test_pt_mult_at_requires_spare_level(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1, limbs=1)
        with pytest.raises(ValueError):
            evaluator.pt_mult_at(ct, [1.0] * 8, ct.scale)

    def test_match_scale_repairs_drifted_addition(
        self, encryptor, decryptor, evaluator, z1, z2
    ):
        ct1 = encryptor.encrypt_values(z1)
        # Drift ct2's scale well past the tolerance: the raw add must
        # reject the pair, the matched add must decrypt correctly.
        drifted = Ciphertext(ct1.c0, ct1.c1, ct1.scale * 1.2)
        ct2 = encryptor.encrypt_values(z2)
        with pytest.raises(ValueError):
            evaluator.add(ct2, drifted)
        out = evaluator.add(
            ct2, evaluator.match_scale(drifted, ct2.scale)
        )
        # drifted's declared scale overstates the encoding by 1.2x, so
        # its decrypted contribution is z1 / 1.2.
        assert _err(decryptor, out, z2 + z1 / 1.2) < 1e-4

    def test_match_scale_is_noop_within_tolerance(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        nearly = ct.scale * (1.0 + evaluator.scale_rtol / 2)
        assert evaluator.match_scale(ct, nearly) is ct

    def test_match_scale_tight_rtol_forces_exact_landing(
        self, encryptor, decryptor, evaluator, z1
    ):
        # A drift inside the additive 5% window but outside the caller's
        # tighter budget must spend a level and land exactly on target.
        ct = encryptor.encrypt_values(z1)
        target = ct.scale * 1.01
        out = evaluator.match_scale(ct, target, rtol=1e-9)
        assert out is not ct
        assert out.scale == target
        assert out.num_limbs == ct.num_limbs - 1
        assert _err(decryptor, out, z1) < 1e-2


class TestKeySwitchNoiseHeadroom:
    @staticmethod
    def _rotation_error(log_special):
        from repro.ckks import CkksContext, Decryptor, Encryptor, KeyGenerator
        from repro.ckks.evaluator import Evaluator
        from repro.params import toy_params

        params = toy_params(
            log_n=6, log_q=29, max_limbs=12, dnum=3, log_special=log_special
        )
        ctx = CkksContext(params, scale_bits=29, seed=7)
        kg = KeyGenerator(ctx, hamming_weight=4)
        enc = Encryptor(ctx, secret_key=kg.secret_key)
        dec = Decryptor(ctx, kg.secret_key)
        ev = Evaluator(ctx, rotation_keys={1: kg.rotation_key(1)})
        rng = np.random.default_rng(3)
        n = ctx.slots
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        ct = enc.encrypt_values(z, scale=ctx.scale, limbs=params.max_limbs)
        got = dec.decrypt_values(ev.rotate(ct, 1))
        return np.max(np.abs(np.asarray(got) - np.roll(z, -1)))

    def test_wider_special_primes_shave_key_switch_noise(self):
        # With special primes the same width as the limbs, P is barely as
        # large as the biggest digit, so the approximate-ModUp overflow
        # (up to alpha * B * e) survives ModDown almost undamped.  One
        # extra bit per special prime gives P an alpha-bit margin over B
        # and the digit noise collapses; deep big-ring circuits (the
        # N=2^14 bootstrap) depend on this headroom.
        baseline = self._rotation_error(None)
        headroom = self._rotation_error(30)
        assert headroom < baseline / 3
    @pytest.mark.parametrize("steps", [1, 2, 3, 7])
    def test_rotate(self, encryptor, decryptor, evaluator, z1, steps):
        ct = evaluator.rotate(encryptor.encrypt_values(z1), steps)
        assert _err(decryptor, ct, np.roll(z1, -steps)) < 1e-3

    def test_rotate_zero_is_identity(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        assert evaluator.rotate(ct, 0) is ct

    def test_rotate_full_cycle(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        assert evaluator.rotate(ct, 8) is ct

    def test_missing_key_raises(self, ctx, encryptor, z1):
        from repro.ckks import Evaluator

        bare = Evaluator(ctx)
        with pytest.raises(ValueError):
            bare.rotate(encryptor.encrypt_values(z1), 1)

    def test_conjugate(self, encryptor, decryptor, evaluator, z1):
        ct = evaluator.conjugate(encryptor.encrypt_values(z1))
        assert _err(decryptor, ct, np.conj(z1)) < 1e-3

    def test_double_conjugate_is_identity(self, encryptor, decryptor, evaluator, z1):
        ct = evaluator.conjugate(
            evaluator.conjugate(encryptor.encrypt_values(z1))
        )
        assert _err(decryptor, ct, z1) < 1e-3

    def test_rotate_composes(self, encryptor, decryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        composed = evaluator.rotate(evaluator.rotate(ct, 1), 2)
        assert _err(decryptor, composed, np.roll(z1, -3)) < 1e-3

    def test_rotate_at_low_level(self, encryptor, decryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1, limbs=2)
        out = evaluator.rotate(ct, 1)
        assert out.num_limbs == 2
        assert _err(decryptor, out, np.roll(z1, -1)) < 1e-3


class TestHoistedRotations:
    def test_matches_individual_rotations(self, encryptor, decryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        hoisted = evaluator.rotations_hoisted(ct, [1, 2, 3])
        for steps, rotated in hoisted.items():
            assert _err(decryptor, rotated, np.roll(z1, -steps)) < 1e-3

    def test_includes_identity(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        hoisted = evaluator.rotations_hoisted(ct, [0, 1])
        assert hoisted[0] is ct

    def test_missing_key_raises(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        evaluator_keys = dict(evaluator.rotation_keys)
        try:
            del evaluator.rotation_keys[3]
            with pytest.raises(ValueError):
                evaluator.rotations_hoisted(ct, [3])
        finally:
            evaluator.rotation_keys = evaluator_keys


class TestKeySwitchInternals:
    def test_decompose_digit_count(self, ctx, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        digits = evaluator.decompose(ct.c1)
        import math

        assert len(digits) == math.ceil(ct.num_limbs / ctx.params.alpha)

    def test_decompose_preserves_rows(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        digits = evaluator.decompose(ct.c1)
        reassembled = [row for digit in digits for row in digit.limbs.tolist()]
        assert reassembled == ct.c1.limbs.tolist()

    def test_raised_digits_live_over_raised_basis(self, ctx, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1, limbs=4)
        raised = evaluator.raise_digits(ct.c1)
        target = ctx.raised_basis(4)
        for digit in raised:
            assert digit.basis == target

    def test_key_switch_decrypts_to_product(self, ctx, keygen, encryptor, evaluator, z1):
        # key_switch(c1, rlk) should produce an encryption of c1 * s^2.
        ct = encryptor.encrypt_values(z1)
        u, v = evaluator.key_switch(ct.c1, evaluator.relin_key)
        basis = ct.basis
        s = keygen.secret_key.poly(basis)
        lhs = (u + v * s).to_int_coeffs()
        rhs = (ct.c1 * s * s).to_int_coeffs()
        scale = max(abs(x) for x in rhs) or 1
        worst = max(abs(a - b) for a, b in zip(lhs, rhs))
        assert worst / scale < 1e-5
