"""Key material: secret/public keys and hybrid switching keys.

Switching keys follow the Han-Ki structure the paper models (Eq. 2): a
``2 x dnum`` matrix of polynomials over the raised ring ``R_PQ``.  Digit
``i``'s column encrypts ``P * U_i * s_from`` under the decryption key ``s``,
where ``U_i`` is the CRT selector that is 1 on digit ``i``'s moduli and 0 on
every other limb modulus.  Because a congruence system restricted to the
live moduli stays valid, one key serves every ciphertext level.

Key compression (Section 3.2 of the paper): the first row of every switching
key is a uniformly random ring element, so instead of storing/transferring
it we store a PRNG seed and re-expand on demand — halving key traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ring import Representation, RnsBasis, RnsPolynomial
from repro.ckks.context import CkksContext


class SecretKey:
    """A ternary secret key, materialisable over any basis of the context."""

    def __init__(self, context: CkksContext, coeffs: List[int]):
        if len(coeffs) != context.degree:
            raise ValueError(
                f"expected {context.degree} coefficients, got {len(coeffs)}"
            )
        if any(c not in (-1, 0, 1) for c in coeffs):
            raise ValueError("secret key coefficients must be ternary")
        self.context = context
        self.coeffs = list(coeffs)
        self._cache: Dict[Tuple[int, ...], RnsPolynomial] = {}

    def poly(self, basis: RnsBasis) -> RnsPolynomial:
        """The secret as an evaluation-form element of the given basis."""
        key = basis.moduli
        poly = self._cache.get(key)
        if poly is None:
            poly = RnsPolynomial.from_int_coeffs(self.coeffs, basis).to_eval()
            self._cache[key] = poly
        return poly


@dataclass
class PublicKey:
    """Standard RLWE public key ``(pk0, pk1) = (-a*s + e, a)`` over ``Q_L``."""

    pk0: RnsPolynomial
    pk1: RnsPolynomial


@dataclass
class SwitchingKey:
    """Hybrid switching key: per digit, a pair ``(b_i, a_i)`` over ``R_PQ``.

    When ``seeds`` is set the ``a_i`` rows were PRNG-expanded from the
    stored seeds (key compression); they are kept materialised here for
    computation but :meth:`stored_bytes` reflects the compressed footprint.
    """

    digits: List[Tuple[RnsPolynomial, RnsPolynomial]]
    seeds: Optional[List[int]] = None
    _restricted: Dict[int, List[Tuple[RnsPolynomial, RnsPolynomial]]] = field(
        default_factory=dict, repr=False
    )

    @property
    def dnum(self) -> int:
        return len(self.digits)

    @property
    def is_compressed(self) -> bool:
        return self.seeds is not None

    def stored_bytes(self, word_bytes: int = 8) -> int:
        """Bytes this key occupies in storage/DRAM.

        Compressed keys store one polynomial per digit plus a seed; full
        keys store both polynomials.
        """
        limbs, degree = self.digits[0][0].limbs.shape
        per_poly = limbs * degree * word_bytes
        rows = 1 if self.is_compressed else 2
        return rows * self.dnum * per_poly

    def restricted(
        self, live_limbs: int, context: CkksContext
    ) -> List[Tuple[RnsPolynomial, RnsPolynomial]]:
        """Key restricted to the live basis ``{q_1..q_l, p_1..p_alpha}``.

        Evaluation-form rows are independent per modulus, so restriction is
        row selection.  Results are cached per level.
        """
        cached = self._restricted.get(live_limbs)
        if cached is not None:
            return cached
        full = context.max_limbs
        basis = context.raised_basis(live_limbs)
        keep = list(range(live_limbs)) + list(
            range(full, full + len(context.special_moduli))
        )
        restricted = [
            (b_poly.select(keep, basis), a_poly.select(keep, basis))
            for b_poly, a_poly in self.digits
        ]
        self._restricted[live_limbs] = restricted
        return restricted


class KeyGenerator:
    """Generates secret, public, relinearisation, and Galois keys."""

    def __init__(
        self,
        context: CkksContext,
        compress_keys: bool = True,
        hamming_weight: Optional[int] = None,
    ):
        """Args:
            context: the scheme context.
            compress_keys: store switching-key ``a`` rows as PRNG seeds.
            hamming_weight: if given, sample a sparse ternary secret with
                exactly this many non-zero coefficients.  Sparse secrets
                bound the ``I(x)`` term in bootstrapping, which keeps the
                EvalMod approximation range (and degree) small.
        """
        self.context = context
        self.compress_keys = compress_keys
        if hamming_weight is None:
            coeffs = context.sample_ternary_coeffs()
        else:
            if not 1 <= hamming_weight <= context.degree:
                raise ValueError(
                    f"hamming_weight must be in [1, {context.degree}]"
                )
            coeffs = [0] * context.degree
            positions = context.rng.sample(range(context.degree), hamming_weight)
            for pos in positions:
                coeffs[pos] = context.rng.choice((-1, 1))
        self.secret_key = SecretKey(context, coeffs)

    # ------------------------------------------------------------------
    def public_key(self) -> PublicKey:
        ctx = self.context
        basis = ctx.basis_at(ctx.max_limbs)
        s = self.secret_key.poly(basis)
        a = RnsPolynomial(
            basis, ctx.sample_uniform_rows(basis), Representation.EVAL
        )
        e = RnsPolynomial.from_int_coeffs(ctx.sample_error_coeffs(), basis).to_eval()
        return PublicKey(pk0=-(a * s) + e, pk1=a)

    # ------------------------------------------------------------------
    def switching_key(self, source_poly: RnsPolynomial) -> SwitchingKey:
        """Key switching *from* the key ``source_poly`` *to* ``secret_key``.

        ``source_poly`` must live over the full raised basis in evaluation
        form (e.g. ``s^2`` for relinearisation, ``automorph(s, t)`` for a
        Galois key).
        """
        ctx = self.context
        basis = ctx.raised_basis(ctx.max_limbs)
        if source_poly.basis != basis:
            raise ValueError("source key must live over the full raised basis")
        s = self.secret_key.poly(basis)
        p_product = ctx.p_product
        digits = []
        seeds = [] if self.compress_keys else None
        for i in range(ctx.num_digits):
            seed = ctx.rng.randrange(2**62) if self.compress_keys else None
            a = RnsPolynomial(
                basis,
                ctx.sample_uniform_rows(basis, seed=seed),
                Representation.EVAL,
            )
            e = RnsPolynomial.from_int_coeffs(
                ctx.sample_error_coeffs(), basis
            ).to_eval()
            selector = p_product * ctx.digit_selector(i)
            b = -(a * s) + e + source_poly.scalar_mul(selector)
            digits.append((b, a))
            if seeds is not None:
                seeds.append(seed)
        return SwitchingKey(digits=digits, seeds=seeds)

    # ------------------------------------------------------------------
    def relinearization_key(self) -> SwitchingKey:
        """Switching key from ``s^2`` to ``s`` (used by ``Mult``)."""
        ctx = self.context
        basis = ctx.raised_basis(ctx.max_limbs)
        s = self.secret_key.poly(basis)
        return self.switching_key(s * s)

    def galois_key(self, t: int) -> SwitchingKey:
        """Switching key from ``s(x^t)`` to ``s`` (used by Rotate/Conjugate)."""
        ctx = self.context
        basis = ctx.raised_basis(ctx.max_limbs)
        s = self.secret_key.poly(basis)
        return self.switching_key(s.automorph(t))

    def rotation_key(self, steps: int) -> SwitchingKey:
        return self.galois_key(self.context.encoder.rotation_automorphism(steps))

    def conjugation_key(self) -> SwitchingKey:
        return self.galois_key(self.context.encoder.conjugation_automorphism)
