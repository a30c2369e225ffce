"""Numpy-native lowered execution of compiled TorQ plans.

A :class:`LoweredPlan` is what :func:`repro.lower.lower_compiled` builds
from a frozen :class:`~repro.torq.compile.ExecutionPlan`: one lowered
step per plan step, each a raw-NumPy kernel over *split real/imaginary
planes* (two float arrays of shape ``(batch, 2, ..., 2)``) instead of
autodiff tensors.  The lowered executor serves the measured (tape-free)
path of :class:`~repro.torq.layer.QuantumLayer` — forward statevector
simulation plus the adjoint reverse sweep — at a configurable precision
tier.

Correctness contract, per tier:

* **float64** — every lowered kernel mirrors the seed arithmetic
  operation-for-operation (the same ufunc calls on the same memory
  layouts), so amplitudes, ⟨Z⟩ readouts, and adjoint gradients are
  **bitwise identical** to the seed Tensor/complex128 path.  The fused
  single-qubit step reuses the seed's own symbolic matrix composition
  (under ``no_grad``) and its exact pack → 4×4 GEMM → slice sequence;
  the float64 adjoint sweep *is* the seed ``adjoint_step`` code.
* **float32** — state-sized work runs in float32/complex64.  All
  parameter-space algebra (2×2 factor matrices, prefix/suffix products,
  gradient contractions against the overlap matrix) stays float64, so
  the tier's deviation is bounded by the documented amplitude budget
  (:mod:`repro.lower.budget`) and gradients lose no more than the
  carriers themselves.

Backends per step (reported by :meth:`LoweredPlan.describe`):

* ``soa``   — every fused single-qubit run: the planes are packed into
  one contiguous ``(batch, pre, 4, post)`` buffer and the whole fused
  run is ONE real 4×4 GEMM,
* ``numpy`` — every other step (phase masks, permutations, unfused
  gates): elementwise plane arithmetic and gathers.

Steps read the private precomputed index/factor fields of the seed plan
steps — the two modules evolve together by design.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .. import obs
from ..autodiff import Tensor, no_grad
from ..torq import compile as torq_compile
from ..torq.adjoint import _z_weight_mask
from ..torq.state import zero_state

__all__ = ["LoweredPlan", "build_lowered_steps"]

_INV = float(1.0 / np.sqrt(2.0))


# ----------------------------------------------------------------------
# Small numeric helpers (parameter-space: always float64 internally)
# ----------------------------------------------------------------------

def _np_value(resolve, ref: int) -> np.ndarray:
    """Resolve one flat parameter to a float64 scalar or ``(batch,)``."""
    v = resolve(ref)
    return np.asarray(getattr(v, "data", v), dtype=np.float64)


def _bcast(theta: np.ndarray, bshape: tuple) -> np.ndarray:
    """Mirror of the seed angle broadcast: per-batch 1-D angles gain the
    trailing singleton axes ``bshape``; scalars pass through."""
    if theta.ndim == 0:
        return theta
    if theta.ndim != 1:
        raise ValueError("angles must be scalar or per-batch 1-D")
    return theta.reshape((theta.shape[0],) + bshape)


def _compose_factors(factors, resolve) -> np.ndarray:
    """Numerically compose a fused run's 2×2 unitary from its factor
    list (float64; shape ``(2, 2)`` or ``(batch, 2, 2)``)."""
    u = None
    for kind, payload in factors:
        if kind == "const":
            f = payload
        else:
            f, _ = torq_compile._np_factor_mats(kind, _np_value(resolve, payload))
        u = f if u is None else np.matmul(f, u)
    return u


def _block44(u: np.ndarray) -> np.ndarray:
    """Real block form ``[[Ur, −Ui], [Ui, Ur]]`` of a complex 2×2 (or
    per-batch ``(B, 2, 2)``) matrix, ready to broadcast through matmul."""
    ur, ui = u.real, u.imag
    top = np.concatenate([ur, -ui], axis=-1)
    bot = np.concatenate([ui, ur], axis=-1)
    m = np.concatenate([top, bot], axis=-2)
    if m.ndim == 3:
        return m.reshape(-1, 1, 4, 4)
    return m


def _pack_planes(re: np.ndarray, im: np.ndarray, pack_shape: tuple) -> np.ndarray:
    """SoA packing: one contiguous ``(batch, pre, 4, post)`` buffer with
    the real rows stacked above the imaginary rows (exactly the seed's
    ``concatenate`` layout — copying values verbatim keeps the float64
    tier bitwise).  Explicit allocate-and-assign rather than
    ``np.concatenate``: concatenate layout-matches its inputs, so a
    strided carrier (e.g. downstream of a flip) would propagate a
    non-contiguous pack straight into the GEMM."""
    pr = re.reshape(pack_shape)
    out = np.empty(pr.shape[:2] + (4,) + pr.shape[3:], dtype=pr.dtype)
    out[:, :, 0:2] = pr
    out[:, :, 2:4] = im.reshape(pack_shape)
    return out


def _apply_block(packed: np.ndarray, m: np.ndarray, fast: bool = False):
    """One real GEMM ``m @ packed`` (the fused-block hot loop).

    ``fast=True`` (float32 tier only — never the bitwise float64 path,
    whose FP sequence must mirror the seed's broadcasted matmul exactly)
    reshapes small-``post`` packs into a single ``(4, N)`` GEMM: the
    broadcasted form degenerates into ``batch*pre`` tiny ``(4, post)``
    multiplies whose dispatch overhead dwarfs the flops when ``post``
    shrinks (the last qubits of the register).
    """
    # The pack step just concatenated, so this must already be dense —
    # a strided buffer here would mean a hidden copy inside BLAS.
    assert packed.flags["C_CONTIGUOUS"]
    if fast and m.ndim == 2 and packed.shape[-1] < 8:
        b, p, _, k = packed.shape
        cols = np.ascontiguousarray(packed.transpose(2, 0, 1, 3)).reshape(4, -1)
        out = (m @ cols).reshape(4, b, p, k)
        return np.ascontiguousarray(out.transpose(1, 2, 0, 3))
    return np.matmul(m, packed)


# ----------------------------------------------------------------------
# Lowered steps
# ----------------------------------------------------------------------

class _LoweredStep:
    """Base lowered step: the seed step, tier dtypes and backend name."""

    __slots__ = ("seed", "kind", "gates", "rdtype", "cdtype")

    backend = "numpy"

    def __init__(self, seed_step, rdtype, cdtype):
        self.seed = seed_step
        self.kind = seed_step.kind
        self.gates = seed_step.gates
        self.rdtype = np.dtype(rdtype)
        self.cdtype = np.dtype(cdtype)

    @property
    def f64(self) -> bool:
        return self.rdtype == np.float64


class _LoweredFused(_LoweredStep):
    """Fused single-qubit run on planes: pack → one real 4×4 GEMM →
    unpack, the seed layout exactly."""

    __slots__ = ()

    backend = "soa"

    # -- matrix composition ------------------------------------------
    def _matrix64(self, resolve) -> np.ndarray:
        """The real 4×4 block matrix, float64, via the seed's own
        symbolic composition (bitwise-identical entries)."""
        s = self.seed
        if s._const_m is not None:
            return s._const_m
        with no_grad():
            mats = [p(resolve) if callable(p) else p for p in s._parts]
            u = mats[0]
            for um in mats[1:]:
                u = torq_compile._mat_mul(um, u)
            m = torq_compile._block_matrix(u)
        return m.data if isinstance(m, Tensor) else m

    def _matrix(self, resolve) -> np.ndarray:
        if self.f64:
            return self._matrix64(resolve)
        s = self.seed
        if s._const_m is not None:
            return s._const_m.astype(self.rdtype)
        # Compose in float64 (parameter-space, cheap), cast once.
        return _block44(_compose_factors(s._factors, resolve)).astype(self.rdtype)

    # -- forward ------------------------------------------------------
    def forward(self, re, im, resolve):
        # At float64 this IS the seed arithmetic (the seed fused step
        # packs and matmuls too), so the tier stays bitwise.
        s = self.seed
        m = self._matrix(resolve)
        packed = _pack_planes(re, im, s._pack_shape)
        out = _apply_block(packed, m, fast=not self.f64)
        return (
            out[:, :, 0:2].reshape(s._full_shape),
            out[:, :, 2:4].reshape(s._full_shape),
        )

    # -- adjoint ------------------------------------------------------
    def adjoint(self, psi, mu, resolve, accumulate):
        s = self.seed
        if self.f64:
            return s.adjoint_step(psi, mu, resolve, accumulate)
        shape = psi.shape
        pack = s._pack_shape
        if s._const_np_dag is not None:
            udag = s._const_np_dag
            mats = None
        else:
            eye = np.eye(2, dtype=np.complex128)
            mats = []
            for kind, payload in s._factors:
                if kind == "const":
                    mats.append((payload, None, None))
                else:
                    u, du = torq_compile._np_factor_mats(
                        kind, _np_value(resolve, payload)
                    )
                    mats.append((u, du, payload))
            prefixes = [eye]
            for u, _, _ in mats:
                prefixes.append(np.matmul(u, prefixes[-1]))
            udag = torq_compile._np_dagger(prefixes[-1])
        # Strided complex 2×2 application for the tier carriers.  The
        # SoA 4×4 pack wins on the forward's separate real/imag planes
        # but loses here: packing a *complex* carrier costs a strided
        # real/imag extraction plus an unpack per step, measured ~4×
        # slower than broadcasting the 2×2 over strided views.
        ud = udag.astype(self.cdtype)
        if ud.ndim == 3:
            u00 = ud[:, 0, 0].reshape(-1, 1, 1)
            u01 = ud[:, 0, 1].reshape(-1, 1, 1)
            u10 = ud[:, 1, 0].reshape(-1, 1, 1)
            u11 = ud[:, 1, 1].reshape(-1, 1, 1)
        else:
            u00, u01, u10, u11 = ud[0, 0], ud[0, 1], ud[1, 0], ud[1, 1]
        pz = psi.reshape(pack)
        mz = mu.reshape(pack)
        pp = np.stack(
            [pz[:, :, 0] * u00 + pz[:, :, 1] * u01,
             pz[:, :, 0] * u10 + pz[:, :, 1] * u11], axis=2
        )
        mp = np.stack(
            [mz[:, :, 0] * u00 + mz[:, :, 1] * u01,
             mz[:, :, 0] * u10 + mz[:, :, 1] * u11], axis=2
        )
        psi_prev = pp.reshape(shape)
        mu_prev = mp.reshape(shape)
        if mats is None:
            return psi_prev, mu_prev
        # Per-batch 2×2 overlap in tier precision; 2×2 algebra in float64.
        # Four strided multiply-reduce passes, e_bij = Σ_pk μ̄[b,p,i,k]·
        # ψ[b,p,j,k] — cheaper than einsum (no BLAS) or batched matmul
        # (two transpose copies) at these shapes.
        b = mu.shape[0]
        mc = np.conj(mz)
        e = np.empty((b, 2, 2), dtype=np.complex128)
        for i in range(2):
            for j in range(2):
                e[:, i, j] = (
                    (mc[:, :, i] * pp[:, :, j]).reshape(b, -1).sum(axis=1)
                )
        suffix = np.eye(2, dtype=np.complex128)
        for j in range(len(mats) - 1, -1, -1):
            u, du, ref = mats[j]
            if ref is not None:
                d = np.matmul(suffix, np.matmul(du, prefixes[j]))
                if d.ndim == 2:
                    g = 2.0 * np.real(np.einsum("ij,bij->b", d, e))
                else:
                    g = 2.0 * np.real(np.einsum("bij,bij->b", d, e))
                accumulate(ref, g)
            suffix = np.matmul(suffix, u)
        return psi_prev, mu_prev


class _LoweredPhase(_LoweredStep):
    """Diagonal run as one phase-mask multiply on the planes."""

    __slots__ = ("_coeffs", "_const", "_coeff_flat", "_const_flat")

    def __init__(self, seed_step, rdtype, cdtype):
        super().__init__(seed_step, rdtype, cdtype)
        rd = self.rdtype
        self._coeffs = tuple(
            (c if self.f64 else c.astype(rd), ref)
            for c, ref in seed_step._terms
        )
        c = seed_step._const
        self._const = c if (c is None or self.f64) else c.astype(rd)
        cf = seed_step._coeff_flat
        self._coeff_flat = cf if (cf is None or self.f64) else cf.astype(rd)
        kf = seed_step._const_flat
        self._const_flat = kf if (kf is None or self.f64) else kf.astype(self.cdtype)

    def forward(self, re, im, resolve):
        s = self.seed
        rd = self.rdtype
        total = None
        for coeff, ref in self._coeffs:
            theta = _bcast(_np_value(resolve, ref), s._bshape)
            if not self.f64:
                theta = theta.astype(rd)
            term = theta * coeff
            total = term if total is None else total + term
        if total is None:  # all-Z run: the mask is the constant ±1 pattern
            return re * self._const, im * self._const
        mre, mim = np.cos(total), np.sin(total)
        if self._const is not None:
            mre = mre * self._const
            mim = mim * self._const
        return re * mre - im * mim, re * mim + im * mre

    def adjoint(self, psi, mu, resolve, accumulate):
        s = self.seed
        if self.f64:
            return s.adjoint_step(psi, mu, resolve, accumulate)
        shape = psi.shape
        pf = psi.reshape(s._flat)
        mf = mu.reshape(s._flat)
        if s._term_refs:
            w = (np.conj(pf) * mf).imag
            g = 2.0 * (w @ self._coeff_flat.T)
            g64 = np.asarray(g, dtype=np.float64)
            for t, ref in enumerate(s._term_refs):
                accumulate(ref, g64[:, t])
            vals = [
                np.asarray(_np_value(resolve, ref), dtype=self.rdtype)
                for ref in s._term_refs
            ]
            if any(v.ndim for v in vals):
                batch = pf.shape[0]
                thetas = np.stack(
                    [np.broadcast_to(v, (batch,)) for v in vals], axis=1
                )
                total = thetas @ self._coeff_flat
            else:
                total = np.asarray(vals) @ self._coeff_flat
            mask = np.empty(total.shape, dtype=self.cdtype)
            mask.real = np.cos(total)
            mask.imag = -np.sin(total)
            if self._const_flat is not None:
                mask = mask * self._const_flat
        else:
            mask = self._const_flat
        return (pf * mask).reshape(shape), (mf * mask).reshape(shape)


class _LoweredPerm(_LoweredStep):
    """Basis relabeling: one gather per plane / carrier."""

    def forward(self, re, im, resolve):
        s = self.seed
        src = s._src
        if self.f64:
            # Fancy indexing (not np.take) on purpose: it reproduces the
            # seed gather's batch-fastest output layout, and downstream
            # reduction order follows layout — the float64 tier must sum
            # in the seed's order to stay bitwise.  The explicit
            # pack/readout allocations absorb the strided view without
            # hidden copies.
            return (
                re.reshape(s._flat_shape)[:, src].reshape(s._full_shape),
                im.reshape(s._flat_shape)[:, src].reshape(s._full_shape),
            )
        # float32 tier: np.take yields a C-contiguous gather, sparing
        # every downstream reshape/pack the silent strided-view copy.
        return (
            np.take(re.reshape(s._flat_shape), src, axis=1).reshape(s._full_shape),
            np.take(im.reshape(s._flat_shape), src, axis=1).reshape(s._full_shape),
        )

    def adjoint(self, psi, mu, resolve, accumulate):
        # Pure indexing — dtype-preserving for every tier.
        return self.seed.adjoint_step(psi, mu, resolve, accumulate)


class _LoweredGate(_LoweredStep):
    """One unfused gate, mirroring the interpreted arithmetic on planes."""

    def forward(self, re, im, resolve):
        s = self.seed
        name = s._name
        if name == "cnot":
            c0r, c0i = re[s._idx0], im[s._idx0]
            c1r = np.flip(re[s._idx1], s._taxis)
            c1i = np.flip(im[s._idx1], s._taxis)
            return (
                np.stack([c0r, c1r], axis=s._axis),
                np.stack([c0i, c1i], axis=s._axis),
            )
        if name == "crz":
            c0r, c0i = re[s._idx0], im[s._idx0]
            c1r, c1i = re[s._idx1], im[s._idx1]
            t0r, t0i = c1r[s._tidx0], c1i[s._tidx0]
            t1r, t1i = c1r[s._tidx1], c1i[s._tidx1]
            half = self._half(resolve, s._params[0], s._bshape)
            cn, sn = np.cos(-half), np.sin(-half)
            t0r, t0i = t0r * cn - t0i * sn, t0r * sn + t0i * cn
            cp, sp = np.cos(half), np.sin(half)
            t1r, t1i = t1r * cp - t1i * sp, t1r * sp + t1i * cp
            c1r = np.stack([t0r, t1r], axis=s._taxis)
            c1i = np.stack([t0i, t1i], axis=s._taxis)
            return (
                np.stack([c0r, c1r], axis=s._axis),
                np.stack([c0i, c1i], axis=s._axis),
            )
        if name == "x":
            # .copy(): keep the planes dense (a flip view's negative
            # stride would make the next step's pack/reshape copy).
            return np.flip(re, s._axis).copy(), np.flip(im, s._axis).copy()
        a0r, a0i = re[s._idx0], im[s._idx0]
        a1r, a1i = re[s._idx1], im[s._idx1]
        if name == "h":
            n0r, n0i = (a0r + a1r) * _INV, (a0i + a1i) * _INV
            n1r, n1i = (a0r - a1r) * _INV, (a0i - a1i) * _INV
        elif name == "y":
            n0r, n0i = a1i, -a1r
            n1r, n1i = -a0i, a0r
        elif name == "z":
            n0r, n0i = a0r, a0i
            n1r, n1i = -a1r, -a1i
        elif name == "rx":
            half = self._half(resolve, s._params[0], s._bshape)
            c, sn = np.cos(half), np.sin(half)
            n0r, n0i = a0r * c + a1i * sn, a0i * c - a1r * sn
            n1r, n1i = a1r * c + a0i * sn, a1i * c - a0r * sn
        elif name == "ry":
            half = self._half(resolve, s._params[0], s._bshape)
            c, sn = np.cos(half), np.sin(half)
            n0r, n0i = a0r * c - a1r * sn, a0i * c - a1i * sn
            n1r, n1i = a0r * sn + a1r * c, a0i * sn + a1i * c
        elif name == "rz":
            half = self._half(resolve, s._params[0], s._bshape)
            c, sn = np.cos(half), np.sin(half)
            n0r, n0i = a0r * c + a0i * sn, a0i * c - a0r * sn
            n1r, n1i = a1r * c - a1i * sn, a1i * c + a1r * sn
        else:  # pragma: no cover - closed gate set (lone rot fuses)
            raise ValueError(f"unlowerable gate {name!r}")
        return (
            np.stack([n0r, n1r], axis=s._axis),
            np.stack([n0i, n1i], axis=s._axis),
        )

    def _half(self, resolve, ref, bshape) -> np.ndarray:
        half = _bcast(_np_value(resolve, ref), bshape) * 0.5
        return half if self.f64 else half.astype(self.rdtype)

    def adjoint(self, psi, mu, resolve, accumulate):
        s = self.seed
        name = s._name
        if self.f64 or name in ("h", "x", "y", "z", "cnot"):
            # Constant gates invert dtype-preservingly in the seed code.
            return s.adjoint_step(psi, mu, resolve, accumulate)
        if name == "crz":
            p1 = psi[s._idx1]
            m1 = mu[s._idx1]
            w = (np.conj(p1) * m1).imag
            w0 = w[s._tidx0]
            w1 = w[s._tidx1]
            axes = tuple(range(1, w0.ndim))
            accumulate(
                s._params[0],
                np.asarray((w1 - w0).sum(axis=axes), dtype=np.float64),
            )
            half = _np_value(resolve, s._params[0]) * 0.5
            if half.ndim:
                half = half.reshape((-1,) + s._bshape)
            half = half.astype(self.rdtype)
            e_pos = np.empty(half.shape, dtype=self.cdtype)
            e_pos.real = np.cos(half)
            e_pos.imag = np.sin(half)
            out = []
            for t in (psi, mu):
                c0 = t[s._idx0]
                c1 = t[s._idx1]
                t0 = c1[s._tidx0] * e_pos
                t1 = c1[s._tidx1] * np.conj(e_pos)
                c1 = np.stack([t0, t1], axis=s._taxis)
                out.append(np.stack([c0, c1], axis=s._axis))
            return out[0], out[1]
        # rx / ry / rz with tier carriers, float64 gradient algebra
        u, du = torq_compile._np_factor_mats(name, _np_value(resolve, s._params[0]))
        udag = torq_compile._np_dagger(u).astype(self.cdtype)
        psi_prev = s._np_apply_2x2(psi, udag)
        mu_prev = s._np_apply_2x2(mu, udag)
        b = psi.shape[0]
        m = np.stack([mu[s._idx0], mu[s._idx1]], axis=1).reshape(b, 2, -1)
        p = np.stack(
            [psi_prev[s._idx0], psi_prev[s._idx1]], axis=1
        ).reshape(b, 2, -1)
        # Batched matmul, not einsum — see the fused overlap above.
        e = np.matmul(np.conj(m), p.transpose(0, 2, 1)).astype(np.complex128)
        if du.ndim == 2:
            g = 2.0 * np.real(np.einsum("ij,bij->b", du, e))
        else:
            g = 2.0 * np.real(np.einsum("bij,bij->b", du, e))
        accumulate(s._params[0], g)
        return psi_prev, mu_prev


_LOWERED_BY_KIND = {
    "fused_1q": _LoweredFused,
    "phase_mask": _LoweredPhase,
    "permutation": _LoweredPerm,
    "gate": _LoweredGate,
}


def build_lowered_steps(plan, rdtype, cdtype) -> list[_LoweredStep]:
    """The lowering of every plan step at the tier dtypes."""
    return [
        _LOWERED_BY_KIND[s.kind](s, rdtype, cdtype) for s in plan.steps
    ]


# ----------------------------------------------------------------------
# The lowered plan
# ----------------------------------------------------------------------

class LoweredPlan:
    """A lowered execution plan (numpy-native, tiered).

    Produced by :func:`repro.lower.lower_plan`; holds the lowered steps,
    the tier dtypes and the config.  The public surface mirrors what the
    measured quantum-layer path needs: :meth:`run_planes` (forward),
    :meth:`z_expectations` (readout), :meth:`adjoint_vjp`
    (all-parameter gradients), plus :meth:`amplitudes` and
    :meth:`describe` for tests and inspection.
    """

    #: Planned executions kept alive per plan (arena reuse across batch
    #: sizes actually seen; small — each entry owns one arena).
    _PLANNED_CACHE_MAX = 2

    def __init__(self, plan, config, steps):
        self.plan = plan
        self.config = config
        self.steps = steps
        self.n_qubits = plan.n_qubits
        self.rdtype = steps[0].rdtype if steps else np.dtype(config.rdtype)
        self.cdtype = steps[0].cdtype if steps else np.dtype(config.cdtype)
        #: Audit trail of per-shape kernel decisions (planned f32 runs).
        self.autotune_decisions: dict[str, dict] = {}
        self._planned: "OrderedDict[int, object]" = OrderedDict()

    @property
    def precision(self) -> str:
        return "float32" if self.rdtype == np.float32 else "float64"

    def describe(self) -> list[dict]:
        """Per-step records: kind, member gates, backend."""
        return [
            {"kind": s.kind, "gates": list(s.gates), "backend": s.backend}
            for s in self.steps
        ]

    # -- planned (in-place) execution ---------------------------------
    def planned_execution(self, batch: int):
        """The :class:`~repro.lower.inplace.PlannedExecution` bound to
        ``batch``, building (liveness plan + arena) on first use.

        Only available when the config sets ``plan_memory=True``.
        Bound executions are cached per batch size (small LRU — each
        holds one arena), so repeated steps at a fixed batch reuse the
        same memory with zero statevector-sized allocations.
        """
        if not self.config.plan_memory:
            raise RuntimeError(
                "planned execution requires LoweringConfig(plan_memory=True)"
            )
        pe = self._planned.get(batch)
        if pe is None:
            from .inplace import PlannedExecution

            pe = PlannedExecution(self, batch)
            self._planned[batch] = pe
            while len(self._planned) > self._PLANNED_CACHE_MAX:
                self._planned.popitem(last=False)
        else:
            self._planned.move_to_end(batch)
        return pe

    def _planned_owning(self, planes):
        """The cached bound execution whose arena holds ``planes``
        (None when the planes came from somewhere else)."""
        if not self.config.plan_memory:
            return None
        batch = planes[0].shape[0]
        pe = self._planned.get(batch)
        if (
            pe is not None
            and pe._built
            and planes[0] is pe.final_planes()[0]
        ):
            return pe
        return None

    # -- execution ----------------------------------------------------
    def run_planes(self, batch: int, resolve):
        """Forward statevector simulation from |0…0⟩ on raw planes.

        Returns ``(re, im)`` float arrays of shape ``(batch, 2, ..., 2)``
        at the tier dtype.  ``resolve`` maps flat parameter indices to
        floats / ``(batch,)`` arrays (Tensors are unwrapped).

        When the plan is memory-planned the sweep runs in place over the
        bound arena and the returned planes are arena views — valid
        until the next ``run_planes`` at the same batch size.
        """
        if self.config.plan_memory:
            return self.planned_execution(batch).run_forward(resolve)
        base = zero_state(batch, self.n_qubits, dtype=self.rdtype)
        re = base.tensor.re.data
        im = base.tensor.im.data
        if obs.is_profiling():
            reg = obs.metrics()
            reg.counter("lower.plan.replay", precision=self.precision).inc()
            with reg.scope("lower.plan.run", n_qubits=self.n_qubits):
                for step in self.steps:
                    reg.counter("lower.steps", backend=step.backend).inc()
                    with reg.timer("lower.apply", kind=step.kind).time():
                        re, im = step.forward(re, im, resolve)
        else:
            for step in self.steps:
                re, im = step.forward(re, im, resolve)
        return re, im

    def amplitudes(self, planes) -> np.ndarray:
        """Flat complex amplitudes ``(batch, 2**n)`` at the tier dtype."""
        re, im = planes
        flat = (-1, 2 ** self.n_qubits)
        out = np.empty((re.shape[0], 2 ** self.n_qubits), dtype=self.cdtype)
        out.real = re.reshape(flat)
        out.imag = im.reshape(flat)
        return out

    def z_expectations(self, planes) -> np.ndarray:
        """Per-qubit ⟨Z⟩, shape ``(batch, n_qubits)``, tier dtype.

        Mirrors :func:`repro.torq.measure.pauli_z_expectations` so the
        float64 tier stays bitwise with the seed readout.
        """
        pe = self._planned_owning(planes)
        if pe is not None:
            # Arena-resident planes: readout runs on layout-matched
            # arena scratch (bitwise-equal reduction order, no allocs).
            return pe.z_expectations()
        re, im = planes
        probs = re * re + im * im
        n = self.n_qubits
        outputs = []
        for q in range(n):
            axes = tuple(ax for ax in range(1, n + 1) if ax != q + 1)
            marg = probs.sum(axis=axes) if axes else probs
            outputs.append(marg[:, 0] - marg[:, 1])
        return np.stack(outputs, axis=1)

    def adjoint_vjp(self, values, weights: np.ndarray, planes=None) -> list:
        """All-parameter adjoint gradients of ``Σ weights·⟨Z⟩``.

        The lowered analogue of
        :func:`repro.torq.adjoint.adjoint_state_vjp`: carriers run at
        the tier dtype; returned gradients are float64 (a float per
        shared parameter, ``(batch,)`` per per-batch parameter).
        ``planes`` reuses an already-run forward state.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[1] != self.n_qubits:
            raise ValueError(
                f"weights must be (batch, {self.n_qubits}), got {weights.shape}"
            )
        batch = weights.shape[0]

        def resolve(i: int):
            return values[i]

        if planes is None:
            planes = self.run_planes(batch, resolve)
        re, im = planes
        if re.shape[0] != batch:
            raise ValueError(
                f"final state batch {re.shape[0]} != weights batch {batch}"
            )

        grads: dict[int, object] = {}

        def accumulate(ref: int, g) -> None:
            prev = grads.get(ref)
            grads[ref] = g if prev is None else prev + g

        pe = self._planned_owning(planes)
        if pe is not None and self.rdtype == np.float32:
            # In-place reverse sweep over the arena carriers (f32 tier;
            # the f64 adjoint stays on the seed kernels below, whose
            # exact allocation/ufunc sequence the bitwise contract pins).
            if obs.is_profiling():
                reg = obs.metrics()
                reg.counter(
                    "lower.adjoint.sweep", precision=self.precision
                ).inc()
                with reg.scope("lower.adjoint.run", n_qubits=self.n_qubits):
                    pe.adjoint_sweep(resolve, weights, accumulate)
            else:
                pe.adjoint_sweep(resolve, weights, accumulate)
            return self._format_grads(values, grads, batch)

        psi = np.empty(re.shape, dtype=self.cdtype)
        psi.real = re
        psi.imag = im
        mask = _z_weight_mask(weights, self.n_qubits)
        if self.rdtype != np.float64:
            mask = mask.astype(self.rdtype)
        mu = psi * mask

        if obs.is_profiling():
            reg = obs.metrics()
            reg.counter("lower.adjoint.sweep", precision=self.precision).inc()
            with reg.scope("lower.adjoint.run", n_qubits=self.n_qubits):
                for step in reversed(self.steps):
                    with reg.timer("lower.adjoint.step", kind=step.kind).time():
                        psi, mu = step.adjoint(psi, mu, resolve, accumulate)
        else:
            for step in reversed(self.steps):
                psi, mu = step.adjoint(psi, mu, resolve, accumulate)

        return self._format_grads(values, grads, batch)

    @staticmethod
    def _format_grads(values, grads: dict, batch: int) -> list:
        out = []
        for i, value in enumerate(values):
            g = grads.get(i)
            if g is None:  # parameter owned by no gate in this circuit
                data = np.zeros(batch)
            else:
                data = np.broadcast_to(
                    np.asarray(g, dtype=np.float64), (batch,)
                )
            per_batch = getattr(value, "ndim", 0) == 1
            out.append(data.copy() if per_batch else float(data.sum()))
        return out

    def memory_report(self) -> dict:
        """Arena/autotune audit across the bound planned executions.

        Keys are the bound batch sizes; each value is the execution's
        :meth:`~repro.lower.inplace.PlannedExecution.describe` record
        (memory plan, arena bytes, fallback steps, kernel decisions).
        Empty when the plan is not memory-planned or nothing bound yet.
        """
        return {
            batch: pe.describe() for batch, pe in self._planned.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LoweredPlan(n_qubits={self.n_qubits}, "
            f"precision={self.precision!r}, steps={len(self.steps)}, "
            f"plan_memory={self.config.plan_memory})"
        )
