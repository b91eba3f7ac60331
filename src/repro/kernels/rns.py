"""Residue matrices: the storage and pointwise algebra of RNS ring elements.

A ring element over an ``L``-limb basis is one C-contiguous ``(L, N)``
numpy matrix; row ``i`` holds the residues modulo ``q_i``.  The matrix
dtype selects the arithmetic:

* ``int64`` when every modulus is below
  :data:`~repro.kernels.reduce.FAST_MODULUS_BOUND` — a product of two
  residues stays below ``2**60``, so each op below is exact;
* ``object`` (exact Python integers) otherwise, and whenever the caller
  asks for the reference path (:func:`repro.kernels.oracle_only`).

Every function here is a vectorized expression that is valid for both
dtypes.  New matrices take the dtype of the ``(L, 1)`` modulus column
``q_col`` the caller passes (:attr:`repro.ring.RnsBasis.q_col`); mixed
operands promote to ``object``, which is always exact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.kernels.reduce import mul_mod, neg_mod

__all__ = [
    "automorph_coeff",
    "automorph_eval",
    "canonical_matrix",
    "column",
    "concat_rows",
    "crt_decode",
    "matrix",
    "reduce_coeffs",
    "residue_matrix",
    "rows_equal",
    "zeros",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    # Constants are cached and shared by every caller: make them read-only.
    a.flags.writeable = False
    return a


def column(values: Sequence[int], dtype: Any) -> np.ndarray:
    """Per-limb constants as a read-only ``(L, 1)`` column of ``dtype``."""
    return _frozen(np.array(values, dtype=dtype).reshape(-1, 1))


def matrix(rows: Sequence[Sequence[int]], dtype: Any) -> np.ndarray:
    """A read-only constant table (e.g. ``Q*_i mod p_t``) of ``dtype``."""
    return _frozen(np.array(rows, dtype=dtype))


def _exact(values: Any) -> np.ndarray:
    """``values`` as int64 when every entry fits, else as Python integers."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def residue_matrix(rows: Any, q_col: np.ndarray) -> np.ndarray:
    """Fresh canonical copy of arbitrary integer ``rows``: ``rows[i] mod q_i``.

    Entries may be negative or exceed 64 bits; those rows reduce exactly
    in Python integers first.  The result has ``q_col``'s dtype.
    """
    x = _exact(rows)
    if x.dtype == np.int64 and q_col.dtype == np.int64:
        return np.remainder(x, q_col)
    return np.remainder(x.astype(object), q_col.astype(object)).astype(
        q_col.dtype
    )


def canonical_matrix(rows: Any, q_col: np.ndarray) -> np.ndarray:
    """Rows already in ``[0, q_i)`` as a C-contiguous matrix of ``q_col``'s dtype.

    A matrix that already qualifies is returned as is, not copied.
    """
    return np.ascontiguousarray(rows, dtype=q_col.dtype)


def reduce_coeffs(coeffs: Any, q_col: np.ndarray) -> np.ndarray:
    """The ``(L, N)`` residues of one integer coefficient vector.

    Coefficients below ``2**63`` in magnitude reduce in one int64
    ``np.remainder``; larger ones (large-scale plaintexts) reduce
    exactly in Python integers.
    """
    return residue_matrix(_exact(coeffs)[np.newaxis, :], q_col)


def zeros(count: int, degree: int, like: np.ndarray) -> np.ndarray:
    """An all-zero ``(count, degree)`` matrix of ``like``'s dtype."""
    return np.zeros((count, degree), dtype=like.dtype)


def concat_rows(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """Stack two residue matrices limb-wise (a basis extension)."""
    return np.concatenate((top, bottom), axis=0)


def rows_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Value equality of two residue matrices, whatever their dtypes."""
    return bool(np.array_equal(a, b))


# ----------------------------------------------------------------------
# Galois automorphisms f(x) -> f(x^t)
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _eval_source(degree: int, t: int) -> np.ndarray:
    """Source slot of every output slot of an evaluation-form automorphism.

    Forward-NTT slot ``k`` holds ``f(psi^(2k+1))`` (the natural-order
    Cooley-Tukey output of both the kernel and the oracle), so output
    slot ``k`` of ``f(x^t)`` reads the slot evaluating at
    ``psi^((2k+1) t mod 2N)``.
    """
    k = np.arange(degree, dtype=np.int64)
    return _frozen((((2 * k + 1) * t) % (2 * degree) - 1) // 2)


@lru_cache(maxsize=None)
def _coeff_tables(degree: int, t: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gather index and negated positions of a coefficient-form automorphism.

    ``x^j -> x^(jt mod 2N)`` and ``x^N = -1``: coefficient ``j`` lands on
    ``e = jt mod N`` with a sign flip when ``jt mod 2N >= N``.  Odd ``t``
    makes ``j -> e`` a permutation, returned in gather form.
    """
    j = np.arange(degree, dtype=np.int64)
    e = (j * t) % (2 * degree)
    dest = e % degree
    source = np.empty(degree, dtype=np.int64)
    source[dest] = j
    negated = np.zeros(degree, dtype=bool)
    negated[dest] = e >= degree
    return _frozen(source), _frozen(np.flatnonzero(negated))


def automorph_eval(a: np.ndarray, t: int) -> np.ndarray:
    """``f(x^t)`` in evaluation form: one gather of every row."""
    return np.take(a, _eval_source(a.shape[1], t), axis=1)


def automorph_coeff(a: np.ndarray, t: int, q_col: np.ndarray) -> np.ndarray:
    """``f(x^t)`` in coefficient form: a gather plus negated columns."""
    source, negated = _coeff_tables(a.shape[1], t)
    out = np.take(a, source, axis=1)
    out[:, negated] = neg_mod(out[:, negated], q_col)
    return out


# ----------------------------------------------------------------------
# CRT decoding
# ----------------------------------------------------------------------
def crt_decode(
    a: np.ndarray,
    q_col: np.ndarray,
    q_hat_inv_col: np.ndarray,
    q_hat_col: np.ndarray,
    modulus: int,
    centered: bool,
) -> List[int]:
    """Integer coefficients of a coefficient-form residue matrix.

    One exact pass: ``x = sum_i [r_i * (Q/q_i)^{-1}]_{q_i} * (Q/q_i) mod Q``
    with ``q_hat_col`` holding the Python integers ``Q/q_i``.  With
    ``centered`` the result lies in ``(-Q/2, Q/2]``, matching
    :func:`repro.numth.modular.centered_mod`.
    """
    scaled = mul_mod(a, q_hat_inv_col, q_col).astype(object)
    x = np.remainder((scaled * q_hat_col).sum(axis=0), modulus)
    if centered:
        x = np.where(x > modulus // 2, x - modulus, x)
    values: List[int] = x.tolist()
    return values
