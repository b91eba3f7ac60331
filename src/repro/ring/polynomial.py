"""RNS ring elements with limb-wise and slot-wise views.

An :class:`RnsPolynomial` stores one element of ``R_Q = Z_Q[x]/(x^N + 1)`` as
one ``(l, N)`` residue matrix (row ``i`` holds the residues modulo ``q_i``),
either in coefficient or evaluation ("NTT") representation.  This mirrors
exactly the data layout whose movement the performance model accounts for:
a *limb-wise* access touches one whole row, a *slot-wise* access (basis
conversion) touches one column across all rows.

The matrix is int64 on the basis's fast path and object (exact Python
integers) otherwise — :attr:`RnsBasis.q_col` picks it.  Every ring op below
is one vectorized expression from :mod:`repro.kernels` valid for both.
"""

from __future__ import annotations

import enum
from typing import Any, List, Sequence, Union

from repro import kernels
from repro.ring.basis import RnsBasis


class Representation(enum.Enum):
    """Which domain the limb vectors live in."""

    COEFF = "coeff"
    EVAL = "eval"


class RnsPolynomial:
    """One ring element in RNS form.

    Attributes:
        basis: the :class:`RnsBasis` the limbs live over.
        limbs: the C-contiguous ``(len(basis), basis.degree)`` matrix of
            canonical residues.
        representation: whether rows hold coefficients or NTT evaluations.
    """

    __slots__ = ("basis", "limbs", "representation")

    def __init__(
        self,
        basis: RnsBasis,
        limbs: Any,
        representation: Representation,
    ):
        if len(limbs) != len(basis):
            raise ValueError(
                f"expected {len(basis)} limbs, got {len(limbs)}"
            )
        for row in limbs:
            if len(row) != basis.degree:
                raise ValueError(
                    f"limb length {len(row)} does not match degree {basis.degree}"
                )
        self.basis = basis
        self.limbs = kernels.residue_matrix(limbs, basis.q_col)
        self.representation = representation

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _wrap(
        cls,
        basis: RnsBasis,
        rows: Any,
        representation: Representation,
    ) -> "RnsPolynomial":
        """Trusted constructor for a matrix that is already canonical.

        Internal call sites (NTT outputs, kernel results, row selections)
        always produce residues in ``[0, q)`` with the right shape, so the
        public constructor's reduction pass would be pure overhead.  Only
        the dtype is brought to the basis's (:attr:`RnsBasis.q_col`): mixed
        operands promote to object, and a basis change can cross the int64
        bound.  The wrapped object takes ownership of ``rows``.
        """
        poly = cls.__new__(cls)
        poly.basis = basis
        poly.limbs = kernels.canonical_matrix(rows, basis.q_col)
        poly.representation = representation
        return poly

    @classmethod
    def zero(
        cls, basis: RnsBasis, representation: Representation = Representation.EVAL
    ) -> "RnsPolynomial":
        rows = kernels.zeros(len(basis), basis.degree, basis.q_col)
        return cls._wrap(basis, rows, representation)

    @classmethod
    def from_int_coeffs(
        cls, coeffs: Sequence[int], basis: RnsBasis
    ) -> "RnsPolynomial":
        """Build from integer coefficients (possibly negative), coeff form."""
        if len(coeffs) != basis.degree:
            raise ValueError(
                f"expected {basis.degree} coefficients, got {len(coeffs)}"
            )
        rows = kernels.reduce_coeffs(coeffs, basis.q_col)
        return cls._wrap(basis, rows, Representation.COEFF)

    def clone(self) -> "RnsPolynomial":
        return RnsPolynomial._wrap(
            self.basis, self.limbs.copy(), self.representation
        )

    def select(
        self, rows: Union[slice, Sequence[int]], basis: RnsBasis
    ) -> "RnsPolynomial":
        """The limbs ``rows`` (a slice or index list) as an element of ``basis``.

        Residues are independent per modulus in both representations, so
        dropping, reordering or restricting limbs is row selection.
        ``basis`` must list exactly the selected limbs' moduli, in order.
        The result owns a copy of its rows.
        """
        if isinstance(rows, slice):
            moduli = self.basis.moduli[rows]
        else:
            moduli = tuple(self.basis.moduli[i] for i in rows)
        if moduli != basis.moduli:
            raise ValueError(
                f"selected limbs {moduli} do not match the basis {basis.moduli}"
            )
        return RnsPolynomial._wrap(
            basis, self.limbs[rows].copy(), self.representation
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_limbs(self) -> int:
        num: int = self.limbs.shape[0]
        return num

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RnsPolynomial)
            and self.basis == other.basis
            and self.representation == other.representation
            and kernels.rows_equal(self.limbs, other.limbs)
        )

    def __repr__(self) -> str:
        return (
            f"RnsPolynomial(limbs={self.num_limbs}, degree={self.basis.degree}, "
            f"form={self.representation.value})"
        )

    def to_int_coeffs(self, centered: bool = True) -> List[int]:
        """CRT-reconstruct the integer coefficient vector (coeff form only).

        One exact pass over the whole matrix; with ``centered`` the values
        lie in ``(-Q/2, Q/2]``.
        """
        poly = self.to_coeff()
        basis = poly.basis
        hat_inv, hat = basis.crt_constants()
        return kernels.crt_decode(
            poly.limbs, basis.q_col, hat_inv, hat, basis.modulus, centered
        )

    # ------------------------------------------------------------------
    # Representation changes
    # ------------------------------------------------------------------
    def to_eval(self) -> "RnsPolynomial":
        """Return this element in evaluation form (l limb-wise NTTs).

        Runs the batched int64 kernel on the basis's fast path, the
        pure-Python oracle otherwise; both produce bit-identical rows.
        """
        if self.representation is Representation.EVAL:
            return self
        rows = self.basis.ntt_forward(self.limbs)
        return RnsPolynomial._wrap(self.basis, rows, Representation.EVAL)

    def to_coeff(self) -> "RnsPolynomial":
        """Return this element in coefficient form (l limb-wise iNTTs).

        Same kernel/oracle dispatch as :meth:`to_eval`.
        """
        if self.representation is Representation.COEFF:
            return self
        rows = self.basis.ntt_inverse(self.limbs)
        return RnsPolynomial._wrap(self.basis, rows, Representation.COEFF)

    # ------------------------------------------------------------------
    # Arithmetic (limb-wise)
    # ------------------------------------------------------------------
    def _check_operand(self, other: "RnsPolynomial") -> None:
        if self.basis != other.basis:
            raise ValueError("operands live over different bases")
        if self.representation is not other.representation:
            raise ValueError(
                f"representation mismatch: {self.representation} vs "
                f"{other.representation}"
            )

    def _like(self, rows: Any) -> "RnsPolynomial":
        return RnsPolynomial._wrap(self.basis, rows, self.representation)

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_operand(other)
        return self._like(
            kernels.add_mod(self.limbs, other.limbs, self.basis.q_col)
        )

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_operand(other)
        return self._like(
            kernels.sub_mod(self.limbs, other.limbs, self.basis.q_col)
        )

    def __neg__(self) -> "RnsPolynomial":
        return self._like(kernels.neg_mod(self.limbs, self.basis.q_col))

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Ring multiplication; both operands must be in evaluation form."""
        if self.representation is not Representation.EVAL:
            raise ValueError("ring multiplication requires evaluation form")
        self._check_operand(other)
        return self._like(
            kernels.mul_mod(self.limbs, other.limbs, self.basis.q_col)
        )

    def scalar_mul(self, scalar: int) -> "RnsPolynomial":
        """Multiply by an integer scalar (valid in either representation)."""
        return self._scaled([scalar] * self.num_limbs)

    def limb_scalar_mul(self, scalars: Sequence[int]) -> "RnsPolynomial":
        """Multiply limb ``i`` by ``scalars[i]`` (per-limb constants)."""
        if len(scalars) != self.num_limbs:
            raise ValueError(
                f"expected {self.num_limbs} scalars, got {len(scalars)}"
            )
        return self._scaled(scalars)

    def _scaled(self, scalars: Sequence[int]) -> "RnsPolynomial":
        column = self.basis.column(scalars)
        return self._like(
            kernels.mul_mod(self.limbs, column, self.basis.q_col)
        )

    # ------------------------------------------------------------------
    # Galois automorphisms
    # ------------------------------------------------------------------
    def automorph(self, t: int) -> "RnsPolynomial":
        """Apply the Galois automorphism ``f(x) -> f(x^t)`` for odd ``t``.

        In coefficient form this permutes coefficients with sign flips
        (``x^j -> ± x^{jt mod N}``); in evaluation form it is a pure
        permutation of the evaluation points — which is why the paper's
        ``Automorph`` sub-operation costs zero modular operations.
        """
        t = t % (2 * self.basis.degree)
        if t % 2 == 0:
            raise ValueError(f"automorphism index must be odd, got {t}")
        if self.representation is Representation.COEFF:
            rows = kernels.automorph_coeff(self.limbs, t, self.basis.q_col)
        else:
            rows = kernels.automorph_eval(self.limbs, t)
        return self._like(rows)
