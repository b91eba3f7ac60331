"""RNS bases: ordered sets of NTT-friendly prime limb moduli."""

from __future__ import annotations

import math
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import kernels
from repro.kernels.ntt import BatchNttKernel
from repro.numth import NttContext, find_ntt_primes
from repro.numth.modular import mod_inverse

# NTT plans are expensive to build; share them process-wide per (n, q).
_NTT_CACHE: Dict[Tuple[int, int], NttContext] = {}

# Batched int64 kernels, keyed by (degree, moduli tuple).  The cache is
# keyed independently of RnsBasis identity so derived bases (prefixes,
# extensions, the dropped tail of a ModDown) reuse plans too.
_KERNEL_CACHE: Dict[Tuple[int, Tuple[int, ...]], BatchNttKernel] = {}

# Conversion and CRT constants, keyed by moduli tuple for the same reason:
# one dict of derived values per distinct limb set, shared by every equal
# basis.  Entries that feed array kernels are keyed by path as well, since
# their dtype follows the path (`RnsBasis.q_col`).
_CONSTANTS: Dict[Tuple[int, ...], Dict[Hashable, Any]] = {}


def _ntt_for(degree: int, modulus: int) -> NttContext:
    key = (degree, modulus)
    ctx = _NTT_CACHE.get(key)
    if ctx is None:
        ctx = NttContext(degree, modulus)
        _NTT_CACHE[key] = ctx
    return ctx


def _kernel_for(degree: int, moduli: Tuple[int, ...]) -> BatchNttKernel:
    key = (degree, moduli)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        contexts = [_ntt_for(degree, q) for q in moduli]
        kernel = BatchNttKernel(degree, moduli, contexts)
        _KERNEL_CACHE[key] = kernel
    return kernel


class RnsBasis:
    """An ordered RNS basis ``{q_1, ..., q_l}`` for ring degree ``N``.

    A basis is immutable; deriving related bases (dropping the last limb for
    a rescale, extending by special primes for a ModUp) returns new objects.
    """

    def __init__(self, degree: int, moduli: Sequence[int]):
        if degree < 2 or degree & (degree - 1):
            raise ValueError(f"degree must be a power of two, got {degree}")
        if not moduli:
            raise ValueError("a basis needs at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ValueError("basis moduli must be distinct")
        for q in moduli:
            if (q - 1) % (2 * degree) != 0:
                raise ValueError(
                    f"modulus {q} is not NTT-friendly for degree {degree}"
                )
        self.degree = degree
        self.moduli: Tuple[int, ...] = tuple(moduli)
        self._constants = _CONSTANTS.setdefault(self.moduli, {})
        self._fits: bool = self._cached(
            "fits", lambda: kernels.moduli_fit(self.moduli)
        )

    def _cached(self, key: Hashable, build: Callable[[], Any]) -> Any:
        value = self._constants.get(key)
        if value is None:
            value = self._constants[key] = build()
        return value

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        degree: int,
        limb_bits: int,
        count: int,
        exclude: Iterable[int] = (),
    ) -> "RnsBasis":
        """Generate a fresh basis of ``count`` primes of ``limb_bits`` bits."""
        return cls(degree, find_ntt_primes(limb_bits, degree, count, list(exclude)))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RnsBasis)
            and self.degree == other.degree
            and self.moduli == other.moduli
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.moduli))

    def __repr__(self) -> str:
        bits = [q.bit_length() for q in self.moduli]
        return f"RnsBasis(degree={self.degree}, limbs={len(self)}, bits={bits})"

    # ------------------------------------------------------------------
    @property
    def modulus(self) -> int:
        """The full modulus ``Q``: product of all limb moduli."""
        modulus: int = self._cached("modulus", lambda: math.prod(self.moduli))
        return modulus

    @property
    def fast_path(self) -> bool:
        """Whether this basis runs the int64 kernels.

        True when the fast path is switched on (:func:`repro.kernels.enabled`)
        and every limb modulus is inside the int64 bound.  Otherwise its
        elements are object matrices and NTTs and conversions run the
        pure-Python oracles, which are bit-exact equal by the kernels'
        differential contract.
        """
        return self._fits and kernels.enabled()

    @property
    def q_col(self) -> Any:
        """The ``(L, 1)`` modulus column; its dtype is the element dtype.

        int64 on the :attr:`fast_path`, object otherwise.
        """
        fast = self.fast_path
        return self._cached(
            ("q_col", fast),
            lambda: kernels.column(self.moduli, "int64" if fast else object),
        )

    def column(self, values: Sequence[int]) -> Any:
        """Per-limb constants, reduced mod each ``q_i``, as a ``q_col`` column."""
        return kernels.column(
            [v % q for v, q in zip(values, self.moduli)], self.q_col.dtype
        )

    def ntt(self, index: int) -> NttContext:
        """The NTT plan for limb ``index``."""
        return _ntt_for(self.degree, self.moduli[index])

    def fast_kernel(self) -> Optional[BatchNttKernel]:
        """The batched int64 NTT kernel for this basis on the fast path."""
        if not self.fast_path:
            return None
        return _kernel_for(self.degree, self.moduli)

    def ntt_forward(self, rows: Any) -> Any:
        """Forward NTT of every row of a canonical ``(L, N)`` matrix."""
        kernel = self.fast_kernel()
        if kernel is not None:
            return kernel.forward_rows(rows)
        return kernels.canonical_matrix(
            [self.ntt(i).forward(row) for i, row in enumerate(rows.tolist())],
            self.q_col,
        )

    def ntt_inverse(self, rows: Any) -> Any:
        """Inverse NTT of every row of a canonical ``(L, N)`` matrix."""
        kernel = self.fast_kernel()
        if kernel is not None:
            return kernel.inverse_rows(rows)
        return kernels.canonical_matrix(
            [self.ntt(i).inverse(row) for i, row in enumerate(rows.tolist())],
            self.q_col,
        )

    # ------------------------------------------------------------------
    # Derived bases
    # ------------------------------------------------------------------
    def prefix(self, count: int) -> "RnsBasis":
        """The sub-basis of the first ``count`` limbs."""
        if not 1 <= count <= len(self):
            raise ValueError(f"prefix length {count} outside [1, {len(self)}]")
        return RnsBasis(self.degree, self.moduli[:count])

    def drop_last(self, count: int = 1) -> "RnsBasis":
        """Drop the last ``count`` limbs (the shape of a rescale)."""
        if not 1 <= count < len(self):
            raise ValueError(
                f"cannot drop {count} of {len(self)} limbs (at least one must remain)"
            )
        return RnsBasis(self.degree, self.moduli[:-count])

    def extended(self, extra: Sequence[int]) -> "RnsBasis":
        """The basis ``B ∪ B'`` with ``extra`` appended (the shape of a ModUp)."""
        return RnsBasis(self.degree, self.moduli + tuple(extra))

    # ------------------------------------------------------------------
    # Fast-basis-conversion precomputation (Eq. 1 of the paper)
    # ------------------------------------------------------------------
    def q_hat_inverses(self) -> List[int]:
        """``(Q/q_i)^{-1} mod q_i`` for each limb — the ``Q~_i`` of Eq. 1."""
        return list(self._cached("q_hat_inv", self._q_hat_inverses))

    def _q_hat_inverses(self) -> Tuple[int, ...]:
        total = self.modulus
        return tuple(mod_inverse(total // q % q, q) for q in self.moduli)

    def q_stars_mod(self, target: int) -> List[int]:
        """``(Q/q_i) mod target`` for each limb — the ``Q*_i`` of Eq. 1."""
        total = self.modulus
        return list(
            self._cached(
                ("q_star", target),
                lambda: tuple(total // q % target for q in self.moduli),
            )
        )

    def conversion_constants(
        self, targets: Tuple[int, ...]
    ) -> Tuple[Any, Any, Any]:
        """int64 ``(Q~ column, (T, L) Q* matrix, target column)`` of Eq. 1.

        The constant operands of :func:`repro.kernels.new_limbs_matrix`
        for a conversion from this basis into ``targets``; both bases
        must be on the fast path.
        """
        def build() -> Tuple[Any, Any, Any]:
            return (
                kernels.column(self.q_hat_inverses(), "int64"),
                kernels.matrix([self.q_stars_mod(t) for t in targets], "int64"),
                kernels.column(targets, "int64"),
            )

        return self._cached(("conversion", targets), build)

    def crt_constants(self) -> Tuple[Any, Any]:
        """The ``(Q~ column, Q/q_i column)`` pair of CRT decoding.

        ``Q~`` follows :attr:`q_col`'s dtype; ``Q/q_i`` is always exact.
        """
        total = self.modulus

        def build() -> Tuple[Any, Any]:
            return (
                self.column(self.q_hat_inverses()),
                kernels.column([total // q for q in self.moduli], object),
            )

        return self._cached(("crt", self.fast_path), build)

    def p_inverse_column(self, dropped: Tuple[int, ...]) -> Any:
        """``P^{-1} mod q_i`` per limb, as a :meth:`column`.

        ``P`` is the product of the ``dropped`` moduli: the per-limb
        scale of a ModDown from ``B ∪ dropped`` onto this basis.
        """
        def build() -> Any:
            p_product = math.prod(dropped)
            return self.column(
                [mod_inverse(p_product % q, q) for q in self.moduli]
            )

        return self._cached(("p_inv", dropped, self.fast_path), build)
