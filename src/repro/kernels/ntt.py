"""Limb-major batched negacyclic NTT on contiguous int64 arrays.

:class:`BatchNttKernel` is the vectorized counterpart of the pure-Python
oracle :class:`repro.numth.ntt.NttContext`.  One kernel instance holds
the plans for a whole RNS basis and transforms all limbs in a single
forward/inverse pass over an ``(L, N)`` int64 matrix — the *limb-major*
layout whose movement the MAD performance model accounts for.

The kernel evaluates exactly the oracle's transform but organises the
butterflies differently; three standard techniques stack up to the
order-of-magnitude speedup the functional bootstrap needs:

* **Stockham self-sorting stages.**  Instead of bit-reversing the input
  and permuting in place, every stage reads two contiguous halves and
  writes an interleaved ping-pong buffer.  Input and output are both in
  natural order and no index-gather pass exists at all.  Crucially the
  butterfly outputs are *computed into contiguous temporaries* and the
  interleave happens in one streaming ``copyto`` from a transposed
  view: writing the interleaved buffer directly from several strided
  ufunc calls would reload every output cache line once per call, which
  profiling showed dominated the whole transform.
* **Radix-4 stage fusion.**  Two radix-2 levels are fused into one pass
  over the data.  A fused stage costs roughly the same number of array
  passes as a single radix-2 stage (the dominant cost on a
  bandwidth-bound transform) but retires two of the ``log2 N`` levels,
  so the stage loop runs in about half the time.  An odd ``log2 N`` is
  handled by one leading radix-2 stage.
* **Lazy (Harvey-style) reduction.**  Between stages, values live in
  ``[0, 4q)`` rather than ``[0, q)``.  Only the two summand operands of
  each butterfly are conditionally reduced — branchlessly, as
  ``min(x, x - 2q)`` in uint64, where the subtraction wraps for small
  ``x`` and loses the min — the twiddle products come out of the lazy
  Shoup multiply in ``[0, 2q)`` with *no* correction pass, and a single
  canonicalisation runs after the last stage.

Why int64 stays exact (``q < 2**30``, so ``4q < 2**32``):

* lazy stage values ``x < 4q < 2**32``, so the Shoup high product
  ``x * w'`` is below ``2**64`` in a uint64 and the low product
  ``x * w`` is below ``2**62`` in an int64;
* the lazy Shoup result ``x*w - q*floor(x*w' / 2**32)`` lies in
  ``[0, 2q)`` for *any* ``x < 2**32`` — the classical bound
  ``r < q*(1 + x/2**32)``;
* butterfly outputs ``u + v`` and ``u - v + 2q`` with ``u, v < 2q``
  land back inside ``[0, 4q)``, restoring the invariant.

Bit-exactness against the oracle is structural, and pinned by the
differential test suite: the twiddle tables are *copied from oracle
instances* (never re-derived), so both paths evaluate the same
polynomial at the same roots of unity, and the final canonicalisation
maps the lazy residues onto exactly the oracle's canonical outputs.
The ``1/N`` factor of the inverse transform is folded into the
``psi^{-i}`` untwist table — identical mod ``q`` to the oracle's
two-step scaling — which also makes the inverse's last multiply the
canonicalisation pass.

Only moduli below :data:`repro.kernels.reduce.FAST_MODULUS_BOUND` are
accepted; callers (e.g. :meth:`repro.ring.RnsBasis.fast_kernel`) fall
back to the oracle for larger limbs.  Instances own ping-pong and mask
scratch buffers, so a single kernel must not be shared across threads;
the repo's parallelism (sweep/serve) is process-based, which is safe.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.kernels.reduce import (
    FAST_MODULUS_BOUND,
    SHOUP_SHIFT,
    moduli_fit,
    mul_mod,
    shoup_precompute,
)
from repro.numth.ntt import NttContext
from repro.obs import state as obs

__all__ = ["BatchNttKernel"]

#: Accepted input type for the matrix entry points.
Rows = Union[np.ndarray, Sequence[Sequence[int]]]


class BatchNttKernel:
    """Precomputed batched NTT plan for ring degree ``n`` over ``L`` moduli.

    Building one costs ``O(L * n)`` numpy work on top of the oracle
    plans it mirrors (which are cached process-wide by
    :mod:`repro.ring.basis`).  The instance owns scratch buffers — share
    it freely across calls, but not across threads.

    Args:
        degree: the ring degree ``N`` (power of two, >= 2).
        moduli: the limb moduli; every modulus must satisfy
            ``q < 2**30`` and ``q = 1 (mod 2N)``.
        contexts: optional pre-built oracle plans (one per modulus, same
            order) to copy twiddle tables from; freshly built when absent.
    """

    def __init__(
        self,
        degree: int,
        moduli: Sequence[int],
        contexts: Optional[Sequence[NttContext]] = None,
    ):
        if not moduli:
            raise ValueError("a batched kernel needs at least one modulus")
        if not moduli_fit(moduli):
            raise ValueError(
                f"moduli {list(moduli)} exceed the int64 fast-path bound "
                f"{FAST_MODULUS_BOUND} (2**30)"
            )
        if contexts is None:
            contexts = [NttContext(degree, int(q)) for q in moduli]
        if len(contexts) != len(moduli) or any(
            ctx.n != degree or ctx.q != int(q)
            for ctx, q in zip(contexts, moduli)
        ):
            raise ValueError("oracle contexts do not match (degree, moduli)")

        self.degree = degree
        self.moduli = tuple(int(q) for q in moduli)
        limbs = len(self.moduli)
        q = np.asarray(self.moduli, dtype=np.int64)
        self._q_col = q[:, np.newaxis]  # (L, 1): broadcasts over (L, N)
        self._q_cube = q[:, np.newaxis, np.newaxis]  # (L, 1, 1): stage views
        self._two_q_cube = self._q_cube << 1
        # uint64 reinterpretations for the branchless min-reduction.
        self._q_col_u = self._q_col.view(np.uint64)
        self._two_q_col = self._q_col << 1
        self._two_q_col_u = self._two_q_col.view(np.uint64)
        self._two_q_cube_u = self._two_q_cube.view(np.uint64)

        # psi^i twist (forward) and psi^{-i}/N untwist (inverse), with the
        # 1/N factor folded into the inverse table — identical mod q to the
        # oracle's two-step `v * n_inv % q * ip % q`.
        psi = np.asarray(
            [ctx._psi_powers for ctx in contexts], dtype=np.int64
        )
        unpsi = np.asarray(
            [
                [ip * ctx._n_inv % ctx.q for ip in ctx._inv_psi_powers]
                for ctx in contexts
            ],
            dtype=np.int64,
        )
        self._psi = psi
        self._psi_shoup = shoup_precompute(psi, self._q_col)
        self._unpsi = unpsi
        self._unpsi_shoup = shoup_precompute(unpsi, self._q_col)

        # Per-stage twiddle matrices: stage s covers butterflies whose
        # twiddle index rides a run of length 2**s, so its table is
        # (L, 2**s) — copied verbatim from the oracle plans.
        self._fwd_tw: List[np.ndarray] = []
        self._fwd_tw_shoup: List[np.ndarray] = []
        self._inv_tw: List[np.ndarray] = []
        self._inv_tw_shoup: List[np.ndarray] = []
        stages = degree.bit_length() - 1
        for stage in range(stages):
            for tables, shoups, attr in (
                (self._fwd_tw, self._fwd_tw_shoup, "_stage_twiddles"),
                (self._inv_tw, self._inv_tw_shoup, "_inv_stage_twiddles"),
            ):
                tw = np.asarray(
                    [getattr(ctx, attr)[stage] for ctx in contexts],
                    dtype=np.int64,
                )
                tables.append(tw)
                shoups.append(shoup_precompute(tw, self._q_col))

        # Scratch: one uint64 buffer serving both the Shoup high products
        # and the min-reduction (their uses never overlap in time), four
        # quarter-sized int64 temporaries for the fused radix-4 stage, a
        # contiguous staging buffer the butterfly outputs accumulate in
        # before the single interleave pass, and the ping-pong partner.
        self._u64 = np.empty(limbs * degree, dtype=np.uint64)
        quarter = max(limbs * degree // 4, limbs)
        self._tmp = tuple(
            np.empty(quarter, dtype=np.int64) for _ in range(4)
        )
        self._stack = np.empty((4, quarter), dtype=np.int64)
        self._pong = np.empty((limbs, degree), dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def num_limbs(self) -> int:
        return len(self.moduli)

    def _as_matrix(self, rows: Rows, canonical: bool = False) -> np.ndarray:
        """A fresh int64 copy of ``rows``; downstream stages mutate it freely.

        Unless the caller vouches that ``rows`` are ``canonical``, they are
        reduced (numpy remainder matches Python ``%`` sign semantics),
        mirroring the oracle's ``c % q`` on entry.
        """
        x = np.array(rows, dtype=np.int64)
        if x.shape != (self.num_limbs, self.degree):
            raise ValueError(
                f"expected a {self.num_limbs}x{self.degree} residue matrix, "
                f"got shape {x.shape}"
            )
        if not canonical:
            np.remainder(x, self._q_col, out=x)
        return x

    # -- lazy building blocks ------------------------------------------
    def _mul_lazy(
        self,
        x: np.ndarray,
        w: np.ndarray,
        w_shoup: np.ndarray,
        q: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """``x * w - q * floor(x * w' / 2**32)`` into ``out``; in ``[0, 2q)``.

        Valid for any non-negative ``x < 2**32`` — no correction pass.
        ``x`` must have a contiguous last axis (every stage view does) so
        the same-itemsize uint64 reinterpretation is copy-free.
        """
        hi = self._u64[: x.size].reshape(x.shape)
        np.multiply(x.view(np.uint64), w_shoup, out=hi)
        hi >>= SHOUP_SHIFT
        quot = hi.view(np.int64)
        quot *= q
        np.multiply(x, w, out=out)
        out -= quot
        return out

    def _fix(self, x: np.ndarray, bound_u: np.ndarray) -> None:
        """Branchless ``[0, 2*bound) -> [0, bound)`` in place.

        ``x = min(x, x - bound)`` in uint64: when ``x >= bound`` the
        subtraction is the reduced value; when ``x < bound`` it wraps
        past ``2**64`` and loses the min.  Two plain SIMD passes — no
        mask, no ``where=``, no data-dependent branch.
        """
        xu = x.view(np.uint64)
        t = self._u64[: x.size].reshape(x.shape)
        np.subtract(xu, bound_u, out=t)
        np.minimum(xu, t, out=xu)

    def _stages(
        self,
        a: np.ndarray,
        tables: List[np.ndarray],
        shoups: List[np.ndarray],
    ) -> np.ndarray:
        """The Stockham stage loop; input canonical, output in ``[0, 4q)``.

        ``a`` must be a fresh full-size C-contiguous matrix owned by the
        kernel: the loop ping-pongs between it and ``self._pong`` and
        transfers ownership of whichever buffer it does not return.
        """
        limbs, n = a.shape
        b = self._pong
        stages = n.bit_length() - 1
        q = self._q_cube
        two_q = self._two_q_cube
        two_q_u = self._two_q_cube_u
        m, run, s = n, 1, 0
        if stages % 2:
            # One radix-2 stage so the remaining count is even.  The lazy
            # product v is in [0, 2q) and the canonical input in [0, q),
            # so s/d land in [0, 4q) without a fix-up.  Outputs accumulate
            # in the contiguous staging buffer (v itself lives in slot 0)
            # and interleave in one streaming copy.
            half = m // 2
            size = limbs * half * run
            av = a.reshape(limbs, m, run)
            lo = av[:, :half, :]
            hi = av[:, half:, :]
            st = self._stack.reshape(-1)[: 2 * size].reshape(
                2, limbs, half, run
            )
            v = self._mul_lazy(
                hi, tables[0][:, np.newaxis, :],
                shoups[0][:, np.newaxis, :], q, st[0],
            )
            np.subtract(lo, v, out=st[1])
            st[1] += two_q
            np.add(lo, v, out=st[0])
            np.copyto(
                b.reshape(limbs, half, 2, run), st.transpose(1, 2, 0, 3)
            )
            a, b = b, a
            m, run, s = half, run * 2, 1
        while s < stages:
            # Fused radix-4 stage: levels s and s+1 in one pass.  Level-s
            # twiddles ride the current run; level-(s+1) twiddles split
            # into the halves serving the interleaved sum/difference
            # outputs of level s.
            t_a = tables[s][:, np.newaxis, :]
            t_a_sh = shoups[s][:, np.newaxis, :]
            t_b0 = tables[s + 1][:, np.newaxis, :run]
            t_b0_sh = shoups[s + 1][:, np.newaxis, :run]
            t_b1 = tables[s + 1][:, np.newaxis, run:]
            t_b1_sh = shoups[s + 1][:, np.newaxis, run:]
            quarter = m // 4
            size = limbs * quarter * run
            shape = (limbs, quarter, run)
            va0, va1, sa0, da0 = (
                t[:size].reshape(shape) for t in self._tmp
            )
            av = a.reshape(limbs, 4, quarter, run)
            x0, x1, x2, x3 = av[:, 0], av[:, 1], av[:, 2], av[:, 3]
            self._fix(x0, two_q_u)
            self._fix(x1, two_q_u)
            self._mul_lazy(x2, t_a, t_a_sh, q, va0)
            self._mul_lazy(x3, t_a, t_a_sh, q, va1)
            np.add(x0, va0, out=sa0)
            np.subtract(x0, va0, out=da0)
            da0 += two_q
            st = self._stack.reshape(-1)[: 4 * size].reshape(
                4, limbs, quarter, run
            )
            # da1 goes straight into staging slot 1, whose lazy multiply
            # below reads and rewrites it element-aligned (safe); sa1
            # overwrites x1, which is dead once da1 exists.
            da1 = np.subtract(x1, va1, out=st[1])
            da1 += two_q
            sa1 = np.add(x1, va1, out=x1)
            self._fix(sa0, two_q_u)
            self._fix(da0, two_q_u)
            vb0 = self._mul_lazy(sa1, t_b0, t_b0_sh, q, st[0])
            vb1 = self._mul_lazy(da1, t_b1, t_b1_sh, q, st[1])
            np.subtract(sa0, vb0, out=st[2])
            st[2] += two_q
            np.subtract(da0, vb1, out=st[3])
            st[3] += two_q
            np.add(sa0, vb0, out=st[0])
            np.add(da0, vb1, out=st[1])
            np.copyto(
                b.reshape(limbs, quarter, 2, 2, run),
                st.reshape(2, 2, limbs, quarter, run).transpose(2, 3, 0, 1, 4),
            )
            a, b = b, a
            m, run, s = quarter, run * 4, s + 2
        self._pong = b
        return a

    # ------------------------------------------------------------------
    def forward(self, rows: Rows) -> np.ndarray:
        """Batched forward negacyclic NTT of an ``(L, N)`` residue matrix."""
        obs.count("kernels.ntt.forward")
        return self._forward(self._as_matrix(rows))

    def _forward(self, x: np.ndarray) -> np.ndarray:
        # psi twist, made canonical so the stage invariant holds on entry.
        twisted = np.empty_like(x)
        self._mul_lazy(x, self._psi, self._psi_shoup, self._q_col, twisted)
        self._fix(twisted, self._q_col_u)
        out = self._stages(twisted, self._fwd_tw, self._fwd_tw_shoup)
        self._fix(out, self._two_q_col_u)
        self._fix(out, self._q_col_u)
        return out

    def inverse(self, rows: Rows) -> np.ndarray:
        """Batched inverse negacyclic NTT of an ``(L, N)`` residue matrix."""
        obs.count("kernels.ntt.inverse")
        return self._inverse(self._as_matrix(rows))

    def _inverse(self, x: np.ndarray) -> np.ndarray:
        lazy = self._stages(x, self._inv_tw, self._inv_tw_shoup)
        # The untwist multiply doubles as canonicalisation: the lazy Shoup
        # product of the [0, 4q) stage output is in [0, 2q), one
        # conditional subtract away from canonical.
        out = np.empty_like(lazy)
        self._mul_lazy(lazy, self._unpsi, self._unpsi_shoup, self._q_col, out)
        self._fix(out, self._q_col_u)
        return out

    def negacyclic_multiply(self, a: Rows, b: Rows) -> np.ndarray:
        """Limb-wise product of two coefficient-form ``(L, N)`` matrices."""
        obs.count("kernels.ntt.negacyclic_multiply")
        ea = self.forward(a)
        eb = self.forward(b)
        return self.inverse(mul_mod(ea, eb, self._q_col))

    # ------------------------------------------------------------------
    # Ring-layer entry points: canonical residue matrices in and out.
    # ------------------------------------------------------------------
    def forward_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`forward` of a canonical matrix, skipping the re-reduction.

        ``rows`` must already hold residues in ``[0, q_i)`` (the ring
        layer's invariant); an object matrix is converted, never shared.
        """
        obs.count("kernels.ntt.forward")
        return self._forward(self._as_matrix(rows, canonical=True))

    def inverse_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`inverse` of a canonical matrix, skipping the re-reduction."""
        obs.count("kernels.ntt.inverse")
        return self._inverse(self._as_matrix(rows, canonical=True))
