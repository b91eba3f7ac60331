"""Vectorized compute kernels for the functional RNS-CKKS layer.

This package holds every array operation of the exact-arithmetic stack.
A ring element is one ``(L, N)`` residue matrix (:mod:`repro.kernels.rns`
stores it and runs its pointwise algebra and automorphisms); its dtype
selects the path.  ``int64`` matrices — every limb modulus below
``2**30`` — run batched negacyclic NTTs and RNS basis conversion
(:mod:`repro.kernels.ntt`, :mod:`repro.kernels.conversion`).  ``object``
matrices of Python integers are the reference path: the ring layer runs
the pure-Python oracles of :mod:`repro.numth` and
:func:`repro.ring.conversion.new_limb` on them.  The int64 path is
required to be bit-exact against the oracles (the same contract
:mod:`repro.memsim` holds against :mod:`repro.perf`), and the ring layer
falls back to them whenever a modulus exceeds the bound or the fast path
is disabled.

Disabling (for differential tests and A/B timing):

>>> from repro import kernels
>>> with kernels.oracle_only():
...     ...  # new matrices are object dtype; every NTT/conversion runs
...     ...  # on the pure-Python oracle

The module-level switch is process-global, mirroring how
:mod:`repro.obs.state` scopes its registries.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.kernels.conversion import new_limbs_matrix, sub_scale_mod
from repro.kernels.ntt import BatchNttKernel
from repro.kernels.reduce import (
    FAST_MODULUS_BOUND,
    SHOUP_SHIFT,
    add_mod,
    moduli_fit,
    mul_mod,
    mul_mod_shoup,
    neg_mod,
    shoup_precompute,
    sub_mod,
)
from repro.kernels.rns import (
    automorph_coeff,
    automorph_eval,
    canonical_matrix,
    column,
    concat_rows,
    crt_decode,
    matrix,
    reduce_coeffs,
    residue_matrix,
    rows_equal,
    zeros,
)

__all__ = [
    "BatchNttKernel",
    "FAST_MODULUS_BOUND",
    "SHOUP_SHIFT",
    "add_mod",
    "automorph_coeff",
    "automorph_eval",
    "canonical_matrix",
    "column",
    "concat_rows",
    "crt_decode",
    "enabled",
    "matrix",
    "moduli_fit",
    "mul_mod",
    "mul_mod_shoup",
    "neg_mod",
    "new_limbs_matrix",
    "oracle_only",
    "reduce_coeffs",
    "residue_matrix",
    "rows_equal",
    "set_enabled",
    "shoup_precompute",
    "sub_mod",
    "sub_scale_mod",
    "zeros",
]

#: ``REPRO_KERNELS=off`` (or ``0``/``false``) starts the process on the
#: pure-Python oracle everywhere — the escape hatch for debugging and for
#: measuring the fast path against its reference.
_enabled: bool = os.environ.get("REPRO_KERNELS", "on").lower() not in (
    "0",
    "off",
    "false",
)


def enabled() -> bool:
    """Whether the int64 fast path is currently selected."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Switch the fast path on/off; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


@contextmanager
def oracle_only() -> Iterator[None]:
    """Context manager forcing the pure-Python oracle within its scope."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)
