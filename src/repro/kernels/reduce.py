"""Vectorized modular reduction on int64 numpy arrays.

Every kernel in this package works on residues in the canonical range
``[0, q)`` for NTT-friendly primes ``q < 2**30``.  That bound is what
makes int64 arithmetic exact end to end:

* a product of two residues is ``< 2**60`` and fits a signed 64-bit word;
* a Shoup quotient ``w' = floor(w * 2**32 / q)`` is ``< 2**32``, so the
  high-half product ``x * w'`` is ``< 2**62`` and fits an unsigned word.

Multiplication by a *precomputed* constant (twiddle factors, ``psi``
powers, ``Q~_i`` factors) uses Shoup's reduction — the vectorized
single-word equivalent of Barrett reduction with the quotient
precomputed per constant — so the butterfly inner loops contain no
division at transform time.  Products of two *data* vectors (pointwise
products of evaluations) use a plain int64 multiply followed by
``np.remainder``, which is exact below ``2**63``.

The pointwise helpers (:func:`add_mod`, :func:`sub_mod`, :func:`neg_mod`,
:func:`mul_mod`) also accept ``object`` arrays of Python integers, the
exact reference dtype of the ring layer (:mod:`repro.kernels.rns`); mixed
operands promote to ``object``.

Everything here returns canonical residues, which is what keeps the
fast path bit-exact against the pure-Python oracle
(:class:`repro.numth.ntt.NttContext`): both sides only ever materialise
values in ``[0, q)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "FAST_MODULUS_BOUND",
    "SHOUP_SHIFT",
    "moduli_fit",
    "shoup_precompute",
    "mul_mod_shoup",
    "mul_mod",
    "add_mod",
    "sub_mod",
    "neg_mod",
]

#: Largest limb modulus (exclusive) the int64 kernels accept.  Products of
#: residues below this bound stay under ``2**60`` and never overflow.
FAST_MODULUS_BOUND = 1 << 30

#: The Shoup/Barrett quotient scale ``beta = 2**SHOUP_SHIFT``.
SHOUP_SHIFT = 32


def moduli_fit(moduli: Sequence[int]) -> bool:
    """True when every modulus is inside the int64 fast-path bound."""
    return all(1 < int(q) < FAST_MODULUS_BOUND for q in moduli)


def shoup_precompute(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-constant Shoup quotients ``floor(w * 2**32 / q)`` as uint64.

    ``w`` holds constants in ``[0, q)``; ``q`` broadcasts against it.
    ``w << 32`` is below ``2**62`` for ``w < 2**30``, so the shifted
    dividend itself still fits a signed 64-bit word.
    """
    return ((w.astype(np.int64) << SHOUP_SHIFT) // q).astype(np.uint64)


def mul_mod_shoup(
    x: np.ndarray, w: np.ndarray, w_shoup: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """``x * w mod q`` via Shoup reduction; all inputs/outputs in ``[0, q)``.

    The estimated quotient ``hi = floor(x * w' / 2**32)`` is off by at
    most one from ``floor(x * w / q)``, so ``x*w - hi*q`` lands in
    ``[0, 2q)`` and one conditional subtraction restores the canonical
    range — no division anywhere.
    """
    hi = x.astype(np.uint64)
    hi *= w_shoup
    hi >>= SHOUP_SHIFT
    quot = hi.view(np.int64)  # < 2**32, so the reinterpretation is exact
    quot *= q
    r = x * w
    r -= quot
    np.subtract(r, q, out=r, where=r >= q)
    return r


def mul_mod(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pointwise ``a * b mod q`` for two data vectors (no precomputation).

    Valid for int64 residues (the product stays below ``2**60``) and for
    object arrays of Python integers alike.
    """
    return np.remainder(np.multiply(a, b), q)


def _fold(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``[0, 2q) -> [0, q)`` in place: ``x = min(x, x - q)`` in uint64.

    When ``x < q`` the subtraction wraps past ``2**64`` and loses the
    min — one branchless pass instead of a division.  Object arrays
    (exact Python integers) take ``np.remainder`` instead.
    """
    if x.dtype != np.int64 or q.dtype != np.int64:
        return np.remainder(x, q)
    xu = x.view(np.uint64)
    np.minimum(xu, xu - q.view(np.uint64), out=xu)
    return x


def add_mod(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``a + b mod q`` for canonical residues, via conditional subtraction."""
    return _fold(np.add(a, b), q)


def sub_mod(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``a - b mod q`` for canonical residues, via conditional addition."""
    return _fold(np.add(np.subtract(a, b), q), q)


def neg_mod(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``-a mod q`` for canonical residues (``0`` stays ``0``)."""
    return _fold(np.subtract(q, a), q)
