"""RNS basis-change algorithms: NewLimb, ModUp, ModDown, Rescale, PModUp.

These are exact-arithmetic implementations of Equations (1) and Algorithms
1, 2 and 5 of the MAD paper.  ``new_limb`` is the *approximate* fast basis
conversion standard in full-RNS CKKS (Cheon et al., SAC 2018): its output is
``x + u*Q (mod p)`` for some small ``0 <= u < l``; the excess ``u*Q`` is
absorbed into ciphertext noise exactly as in production FHE libraries.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence

from repro import kernels
from repro.ring.basis import RnsBasis
from repro.ring.polynomial import Representation, RnsPolynomial


def new_limb(
    coeff_rows: Any,
    source_basis: RnsBasis,
    target_modulus: int,
) -> List[int]:
    """Fast basis conversion of a coefficient-form element to a new modulus.

    Implements Eq. (1):  ``[x]_p = sum_i [[x]_{q_i} * Q~_i]_{q_i} * Q*_i mod p``.

    This is the paper's *slot-wise* operation: each output coefficient needs
    the matching coefficient from every source limb.  It is the pure-Python
    reference of :func:`repro.kernels.new_limbs_matrix`.

    Args:
        coeff_rows: one residue row per source limb, in coefficient form.
        source_basis: the basis the rows live over.
        target_modulus: the modulus ``p`` of the limb to synthesise.

    Returns:
        The new limb's residue row modulo ``target_modulus``.
    """
    if len(coeff_rows) != len(source_basis):
        raise ValueError(
            f"got {len(coeff_rows)} rows for a {len(source_basis)}-limb basis"
        )
    degree = source_basis.degree
    q_hat_inv = source_basis.q_hat_inverses()
    q_star = source_basis.q_stars_mod(target_modulus)
    out = [0] * degree
    for row, q, hat_inv, star in zip(
        coeff_rows, source_basis, q_hat_inv, q_star
    ):
        for j, c in enumerate(map(int, row)):
            out[j] += c * hat_inv % q * star
    return [v % target_modulus for v in out]


def _new_limb_rows(
    coeff_rows: Any, source_basis: RnsBasis, target_basis: RnsBasis
) -> Any:
    """All of ``target_basis``' new limbs at once, kernel-dispatched.

    The vectorized path (:func:`repro.kernels.new_limbs_matrix`) needs
    both bases on the fast path; otherwise each target limb runs the
    pure-Python :func:`new_limb`.  Both produce identical canonical rows.
    """
    if source_basis.fast_path and target_basis.fast_path:
        return kernels.new_limbs_matrix(
            coeff_rows,
            source_basis.q_col,
            *source_basis.conversion_constants(target_basis.moduli),
        )
    rows = coeff_rows.tolist()
    return kernels.canonical_matrix(
        [new_limb(rows, source_basis, t) for t in target_basis],
        target_basis.q_col,
    )


def mod_up(poly: RnsPolynomial, extension: Sequence[int]) -> RnsPolynomial:
    """Extend the RNS basis of ``poly`` by ``extension`` moduli (Algorithm 1).

    Input and output are in evaluation representation; the original limbs
    pass through untouched (the "no need to NTT the input limbs" note of
    Algorithm 1) and each new limb costs one slot-wise conversion plus one
    limb-wise NTT.
    """
    if poly.representation is not Representation.EVAL:
        raise ValueError("mod_up expects evaluation representation")
    if not extension:
        raise ValueError("extension basis must be non-empty")
    coeff = poly.to_coeff()
    ext_basis = RnsBasis(poly.basis.degree, extension)
    new_rows = ext_basis.ntt_forward(
        _new_limb_rows(coeff.limbs, poly.basis, ext_basis)
    )
    return RnsPolynomial._wrap(
        poly.basis.extended(extension),
        kernels.concat_rows(poly.limbs, new_rows),
        Representation.EVAL,
    )


def mod_down(poly: RnsPolynomial, drop: int) -> RnsPolynomial:
    """Drop the last ``drop`` limbs while dividing by their product (Alg. 2).

    For input ``[x]_{B∪B'}`` with ``P = prod(B')``, returns ``[P^{-1} x]_B``
    up to the small rounding error inherent to approximate basis conversion.
    Input and output are in evaluation representation.
    """
    if poly.representation is not Representation.EVAL:
        raise ValueError("mod_down expects evaluation representation")
    if not 1 <= drop < poly.num_limbs:
        raise ValueError(
            f"cannot drop {drop} of {poly.num_limbs} limbs"
        )
    keep = poly.num_limbs - drop
    target_basis = poly.basis.prefix(keep)
    dropped_basis = RnsBasis(poly.basis.degree, poly.basis.moduli[keep:])

    # Line 1 (optimised): only the dropped limbs need coefficient form.
    dropped_coeff = dropped_basis.ntt_inverse(poly.limbs[keep:])

    # Line 3: slot-wise conversion of the dropped part into every kept limb.
    hats = _new_limb_rows(dropped_coeff, dropped_basis, target_basis)
    hat_evals = target_basis.ntt_forward(hats)

    # Line 4: (x - x_hat) * P^{-1} mod q, pointwise in evaluation form.
    rows = kernels.sub_scale_mod(
        poly.limbs[:keep],
        hat_evals,
        target_basis.p_inverse_column(dropped_basis.moduli),
        target_basis.q_col,
    )
    return RnsPolynomial._wrap(target_basis, rows, Representation.EVAL)


def rescale(poly: RnsPolynomial) -> RnsPolynomial:
    """Divide by the last limb modulus and drop it (specialised ModDown).

    This is the CKKS ``Rescale``: shrinking the scaling factor from
    ``Delta^2`` back to ``~Delta`` after a multiplication.
    """
    if poly.num_limbs < 2:
        raise ValueError("cannot rescale a single-limb element")
    return mod_down(poly, 1)


def p_mod_up(poly: RnsPolynomial, extension: Sequence[int]) -> RnsPolynomial:
    """Lift ``x in R_Q`` to ``P*x in R_PQ`` without basis conversion (Alg. 5).

    Multiplies each existing limb by ``P mod q_i`` and appends all-zero limbs
    for the extension moduli (since ``P*x = 0 mod p`` for each ``p | P``).
    Purely limb-wise — this is what makes "linear functions in the raised
    basis" cheap and enables the ModDown merge/hoisting optimizations.
    """
    if not extension:
        raise ValueError("extension basis must be non-empty")
    scaled = poly.scalar_mul(math.prod(extension))
    merged = poly.basis.extended(extension)
    zero_rows = kernels.zeros(len(extension), poly.basis.degree, merged.q_col)
    return RnsPolynomial._wrap(
        merged, kernels.concat_rows(scaled.limbs, zero_rows), poly.representation
    )
