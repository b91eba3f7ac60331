"""Vectorized slot-wise RNS basis conversion (the fast ``NewLimb`` path).

The pure-Python :func:`repro.ring.conversion.new_limb` accumulates
``sum_i [[x]_{q_i} * Q~_i]_{q_i} * Q*_i`` in unbounded Python integers
and reduces once at the end.  The int64 kernel instead reduces the
accumulator after every source limb — identical modulo the target, and
necessary because ``L`` unreduced ``2**60``-scale terms would overflow a
signed 64-bit word.  Like the NTT kernel, every intermediate value is a
canonical residue, which keeps the fast path bit-exact against the
oracle.

All precomputed constants (``Q~_i`` inverses, ``Q*_i`` residues,
``P^{-1}`` factors) are derived by the caller with exact Python-integer
arithmetic (:class:`repro.ring.RnsBasis`); this module only vectorizes
the per-coefficient work.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.kernels.reduce import mul_mod

__all__ = ["new_limbs_matrix", "sub_scale_mod"]


def _column(values: Any, dtype: Any = None) -> np.ndarray:
    """Per-limb constants (a sequence or an ``(L, 1)`` column) as a column."""
    return np.asarray(values, dtype=dtype).reshape(-1, 1)


def new_limbs_matrix(
    coeff_rows: Any,
    moduli: Any,
    q_hat_inverses: Any,
    q_stars: Any,
    targets: Any,
) -> np.ndarray:
    """Fast basis conversion of ``L`` source limbs into ``T`` new limbs.

    Implements Eq. (1) of the paper for every target modulus at once:
    ``out[t][j] = sum_i [[x_j]_{q_i} * Q~_i]_{q_i} * [Q*_i]_{p_t}``
    modulo ``p_t``.

    Args:
        coeff_rows: ``(L, N)`` canonical residues in coefficient form.
        moduli: the ``L`` source limb moduli (a sequence or a column).
        q_hat_inverses: ``(Q/q_i)^{-1} mod q_i`` per source limb.
        q_stars: ``(T, L)`` matrix of ``(Q/q_i) mod p_t`` residues.
        targets: the ``T`` target moduli ``p_t``.

    Returns:
        The ``(T, N)`` int64 matrix of canonical residues.
    """
    x = np.asarray(coeff_rows, dtype=np.int64)
    q_col = _column(moduli, np.int64)
    hat_inv = _column(q_hat_inverses, np.int64)
    stars = np.asarray(q_stars, dtype=np.int64)
    t_col = _column(targets, np.int64)

    # [[x]_{q_i} * Q~_i]_{q_i}: still per-source-limb residues.
    scaled = mul_mod(x, hat_inv, q_col)  # (L, N)

    out = np.zeros((t_col.shape[0], x.shape[1]), dtype=np.int64)
    for i in range(x.shape[0]):
        term = mul_mod(scaled[i][np.newaxis, :], stars[:, i][:, np.newaxis], t_col)
        out += term  # both canonical: the sum stays below 2 * p_t < 2**31
        np.subtract(out, t_col, out=out, where=out >= t_col)
    return out


def sub_scale_mod(
    minuend_rows: Any,
    subtrahend_rows: Any,
    scales: Any,
    moduli: Any,
) -> np.ndarray:
    """Fused ModDown tail: ``(a - h) * P^{-1} mod q`` per limb, vectorized.

    ``a - h`` lies in ``(-q, q)`` and the per-limb scale is below ``q``,
    so for int64 residues the product magnitude stays under ``2**60``;
    ``np.remainder`` matches Python ``%`` on negative operands, keeping
    the result equal to the oracle's ``(a - h) * p_inv % q``.  Object
    operands (the exact reference dtype) run the same expression.
    """
    a = np.asarray(minuend_rows)
    h = np.asarray(subtrahend_rows)
    diff = np.subtract(a, h)
    return np.remainder(np.multiply(diff, _column(scales)), _column(moduli))
