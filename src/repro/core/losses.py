"""The composite physics-informed loss (paper Eqs. 13–26, 36–37).

Terms:

* ``L_phys`` — PDE residual MSEs; three variants:
  - vacuum (Eq. 13),
  - dielectric *split* (Eq. 14: vacuum and dielectric points averaged
    separately, which §5.1 credits with preventing black-hole collapse),
  - *intuitive* (Eq. 37: all points weighted equally with 1/ε(x)),
* ``L_IC`` — initial condition (Eq. 19),
* ``L_sym`` — mirror (anti-)symmetries (Eq. 20); the x-mirror terms are
  dropped in the dielectric case, and the whole term in the asymmetric one,
* ``L_energy`` — the pointwise Poynting-balance penalty (Eq. 25) that
  mitigates the black-hole failure mode,
* ``L_tot = L_phys + 10 L_IC + 10 L_sym + 10 L_energy`` (Eq. 26).

Performance: the derivative-bearing forward runs on the main collocation
set alone; the mirrored copies and the initial-condition plane share one
value-only forward.  The residuals reuse one set of first derivatives
obtained with ``create_graph=True`` so the parameter gradient flows
through them (double backward) exactly as PyTorch would in the paper's
stack.  Each of those input-derivative sweeps walks only the part of the
graph that leads to the coordinates, so it builds no parameter
cotangents, and the final parameter backward builds none toward the
coordinates (see :func:`repro.autodiff.grad`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor, grad
from ..maxwell.energy import energy_residual
from ..maxwell.initial import GaussianPulse
from ..maxwell.tez import (
    FieldDerivatives,
    residual_ampere,
    residual_ampere_scaled,
    residual_faraday_x,
    residual_faraday_y,
)
from .collocation import CollocationGrid
from .weighting import TemporalCurriculum

__all__ = [
    "FieldBundle",
    "forward_with_derivatives",
    "weighted_mse",
    "masked_mse",
    "MaxwellLoss",
    "PHYS_VARIANTS",
]

PHYS_VARIANTS = ("vacuum", "split", "intuitive")


@dataclass
class FieldBundle:
    """Network fields and their first derivatives at a point set."""

    ez: Tensor
    hx: Tensor
    hy: Tensor
    derivs: FieldDerivatives

    def narrow(self, sl: slice) -> "FieldBundle":
        """Restrict every field/derivative to a row slice."""
        d = self.derivs
        return FieldBundle(
            ez=self.ez[sl],
            hx=self.hx[sl],
            hy=self.hy[sl],
            derivs=FieldDerivatives(
                dEz_dt=d.dEz_dt[sl],
                dEz_dx=d.dEz_dx[sl],
                dEz_dy=d.dEz_dy[sl],
                dHx_dt=d.dHx_dt[sl],
                dHx_dy=d.dHx_dy[sl],
                dHy_dt=d.dHy_dt[sl],
                dHy_dx=d.dHy_dx[sl],
            ),
        )


def forward_with_derivatives(model, x: Tensor, y: Tensor, t: Tensor) -> FieldBundle:
    """Evaluate the model and the seven PDE-relevant first derivatives.

    Three reverse passes (one per output field) with ``create_graph=True``
    make every derivative itself differentiable w.r.t. the parameters.
    Each pass requests only coordinates, so it runs the VJPs on paths to
    ``x``/``y``/``t`` and none into the parameter leaves; the parameter
    dependence is carried by the derivative graph it builds.
    """
    ez, hx, hy = model.fields(x, y, t)
    dez_dx, dez_dy, dez_dt = grad(ez.sum(), [x, y, t], create_graph=True, allow_unused=True)
    dhx_dy, dhx_dt = grad(hx.sum(), [y, t], create_graph=True, allow_unused=True)
    dhy_dx, dhy_dt = grad(hy.sum(), [x, t], create_graph=True, allow_unused=True)
    derivs = FieldDerivatives(
        dEz_dt=dez_dt,
        dEz_dx=dez_dx,
        dEz_dy=dez_dy,
        dHx_dt=dhx_dt,
        dHx_dy=dhx_dy,
        dHy_dt=dhy_dt,
        dHy_dx=dhy_dx,
    )
    return FieldBundle(ez=ez, hx=hx, hy=hy, derivs=derivs)


def weighted_mse(residual: Tensor, weights: np.ndarray | None = None) -> Tensor:
    """MSE (Eq. 15), optionally with per-point curriculum weights."""
    sq = residual * residual
    if weights is not None:
        sq = sq * Tensor(weights)
    return sq.mean()


def masked_mse(
    residual: Tensor, mask: np.ndarray, weights: np.ndarray | None = None
) -> Tensor:
    """Mean of squared residuals restricted to ``mask`` (Eq. 14's splits).

    Implemented as multiply-by-mask / count so it stays a fixed-topology
    graph operation (no data-dependent gathers).
    """
    count = float(mask.sum())
    if count == 0:
        return Tensor(np.zeros(()))
    sq = residual * residual
    if weights is not None:
        sq = sq * Tensor(weights)
    return (sq * Tensor(mask.astype(np.float64))).sum() / count


@dataclass
class MaxwellLoss:
    """Configurable total loss for one test case.

    Parameters mirror the ablation axes of the paper: the physics-loss
    variant, whether the energy term is included, which mirror symmetries
    are enforced, and the Eq. 26 weights (all 10 in the paper).
    """

    pulse: GaussianPulse = field(default_factory=GaussianPulse)
    phys_variant: str = "vacuum"
    use_energy: bool = True
    use_symmetry: bool = True
    mirror_x: bool = True
    mirror_y: bool = True
    ic_weight: float = 10.0
    sym_weight: float = 10.0
    energy_weight: float = 10.0
    curriculum: TemporalCurriculum | None = None
    #: optional residual-based attention (ref. [22]); built lazily to the
    #: grid size on first use when set to ``"auto"``.
    rba: Any = None

    def __post_init__(self):
        if self.phys_variant not in PHYS_VARIANTS:
            raise ValueError(
                f"phys_variant must be one of {PHYS_VARIANTS}, got {self.phys_variant!r}"
            )

    # ------------------------------------------------------------------
    # Individual terms (operating on pre-sliced field bundles/tensors)
    # ------------------------------------------------------------------
    def _physics_terms(
        self, bundle: FieldBundle, grid: CollocationGrid, weights: np.ndarray | None
    ) -> tuple[Tensor, dict[str, Tensor]]:
        """Variant-appropriate physics loss with tensor-valued parts."""
        d = bundle.derivs
        res2 = residual_faraday_x(d)
        res3 = residual_faraday_y(d)
        l2 = weighted_mse(res2, weights)
        l3 = weighted_mse(res3, weights)
        parts: dict[str, Tensor] = {}
        if self.phys_variant == "vacuum":
            res1 = residual_ampere(d)
            l1 = weighted_mse(res1, weights)
            total = l1 + l2 + l3
            parts["res1"] = l1
        elif self.phys_variant == "split":
            # Eq. 14: vacuum and dielectric points averaged separately so
            # the (fewer) dielectric points are not out-voted.
            res1_vac = residual_ampere(d)
            inv_eps = Tensor(1.0 / grid.eps)
            res1_diel = residual_ampere_scaled(d, inv_eps)
            l_vac = masked_mse(res1_vac, grid.vacuum_mask, weights)
            l_diel = masked_mse(res1_diel, grid.dielectric_mask, weights)
            total = l_vac + l_diel + l2 + l3
            parts["res1_vac"] = l_vac
            parts["res1_diel"] = l_diel
        else:  # intuitive (Eq. 37)
            inv_eps = Tensor(1.0 / grid.eps)
            res1 = residual_ampere_scaled(d, inv_eps)
            l1 = weighted_mse(res1, weights)
            total = l1 + l2 + l3
            parts["res1"] = l1
        parts["res2"] = l2
        parts["res3"] = l3
        return total, parts

    def physics_loss(
        self, bundle: FieldBundle, grid: CollocationGrid, weights: np.ndarray | None
    ) -> tuple[Tensor, dict[str, float]]:
        total, parts = self._physics_terms(bundle, grid, weights)
        return total, {k: float(v.data) for k, v in parts.items()}

    def pointwise_physics_sq(
        self, bundle: FieldBundle, grid: CollocationGrid
    ) -> np.ndarray:
        """Detached per-point squared PDE residual (causal-mode feedback).

        Combines the variant-appropriate Ampère residual with both Faraday
        residuals; returns a plain ``(N, 1)`` array.
        """
        d = bundle.derivs
        res2 = residual_faraday_x(d).data
        res3 = residual_faraday_y(d).data
        if self.phys_variant == "vacuum":
            res1 = residual_ampere(d).data
        elif self.phys_variant == "split":
            inv_eps = Tensor(1.0 / grid.eps)
            res1 = np.where(
                grid.vacuum_mask,
                residual_ampere(d).data,
                residual_ampere_scaled(d, inv_eps).data,
            )
        else:
            res1 = residual_ampere_scaled(d, Tensor(1.0 / grid.eps)).data
        return res1 ** 2 + res2 ** 2 + res3 ** 2

    def ic_loss_from_fields(
        self, ez: Tensor, hx: Tensor, hy: Tensor, grid: CollocationGrid
    ) -> Tensor:
        """Eq. 19 on the t = 0 spatial plane (fields already evaluated)."""
        ez_target = Tensor(self.pulse.ez(grid.x0, grid.y0))
        diff = ez - ez_target
        return (diff * diff + hx * hx + hy * hy).mean()

    def ic_loss(self, model, grid: CollocationGrid) -> Tensor:
        """Standalone Eq. 19 (evaluates the model on the IC plane)."""
        x0, y0, t0 = grid.initial_plane()
        ez, hx, hy = model.fields(x0, y0, t0)
        return self.ic_loss_from_fields(ez, hx, hy, grid)

    @staticmethod
    def _mirror_x_term(main, mirrored) -> Tensor:
        """Eq. 20 parities under x → −x: E_z even, H_x even, H_y odd."""
        ez, hx, hy = main
        ez_m, hx_m, hy_m = mirrored
        return (
            (ez - ez_m) * (ez - ez_m)
            + (hx - hx_m) * (hx - hx_m)
            + (hy + hy_m) * (hy + hy_m)
        ).mean()

    @staticmethod
    def _mirror_y_term(main, mirrored) -> Tensor:
        """Eq. 20 parities under y → −y: E_z even, H_x odd, H_y even."""
        ez, hx, hy = main
        ez_m, hx_m, hy_m = mirrored
        return (
            (ez - ez_m) * (ez - ez_m)
            + (hx + hx_m) * (hx + hx_m)
            + (hy - hy_m) * (hy - hy_m)
        ).mean()

    def symmetry_loss(self, model, grid: CollocationGrid) -> Tensor:
        """Standalone Eq. 20 (extra forward passes at mirrored points)."""
        x, y, t = grid.coords()
        main = model.fields(x, y, t)
        total = None
        if self.mirror_x:
            total = self._mirror_x_term(main, model.fields(*grid.mirrored_x()))
        if self.mirror_y:
            term = self._mirror_y_term(main, model.fields(*grid.mirrored_y()))
            total = term if total is None else total + term
        return total if total is not None else Tensor(np.zeros(()))

    def energy_loss(
        self, bundle: FieldBundle, grid: CollocationGrid, weights: np.ndarray | None
    ) -> Tensor:
        """Eq. 25: MSE of the pointwise Poynting balance residual."""
        eps = Tensor(grid.eps)
        res = energy_residual(bundle.ez, bundle.hx, bundle.hy, bundle.derivs, eps)
        return weighted_mse(res, weights)

    # ------------------------------------------------------------------
    # Batched assembly
    # ------------------------------------------------------------------
    def _assemble_aux_points(self, grid: CollocationGrid):
        """Concatenate mirrored / IC points into one value-only batch.

        These segments never need input-derivatives, so they are evaluated
        in a single cheap forward pass separate from the main collocation
        batch whose (expensive) derivative graph stays as small as
        possible.
        """
        xs, ys, ts = grid.numpy_coords()
        n = grid.n_points
        seg_x, seg_y, seg_t = [], [], []
        slices: dict[str, slice] = {}
        offset = 0
        if self.use_symmetry and self.mirror_x:
            seg_x.append(-xs)
            seg_y.append(ys)
            seg_t.append(ts)
            slices["mx"] = slice(offset, offset + n)
            offset += n
        if self.use_symmetry and self.mirror_y:
            seg_x.append(xs)
            seg_y.append(-ys)
            seg_t.append(ts)
            slices["my"] = slice(offset, offset + n)
            offset += n
        n_ic = grid.x0.shape[0]
        seg_x.append(grid.x0)
        seg_y.append(grid.y0)
        seg_t.append(np.zeros_like(grid.x0))
        slices["ic"] = slice(offset, offset + n_ic)
        x = Tensor(np.concatenate(seg_x))
        y = Tensor(np.concatenate(seg_y))
        t = Tensor(np.concatenate(seg_t))
        return x, y, t, slices

    def __call__(
        self, model, grid: CollocationGrid, epoch: int = 0
    ) -> tuple[Tensor, dict[str, float]]:
        """Total loss (Eq. 26) and a float breakdown for logging."""
        weights = None
        if self.curriculum is not None:
            weights = grid.bin_weights_vector(self.curriculum.weights(epoch))

        # Derivative-bearing forward on the main collocation set only.
        x, y, t = grid.coords()
        main = forward_with_derivatives(model, x, y, t)

        # Causal curriculum: feed back per-bin residual magnitudes so the
        # next epoch's weights unlock later bins as earlier ones resolve.
        if self.curriculum is not None and self.curriculum.mode == "causal":
            sq = self.pointwise_physics_sq(main, grid)[:, 0]
            bin_losses = np.array([
                sq[grid.time_bin == m].mean() if (grid.time_bin == m).any() else 0.0
                for m in range(grid.n_time_bins)
            ])
            self.curriculum.update_bin_losses(bin_losses)
            weights = grid.bin_weights_vector(self.curriculum.weights(epoch))

        # Residual-based attention: per-point λ² multipliers on the
        # physics terms, refreshed from the current residual field.
        if self.rba is not None:
            from .weighting import ResidualAttentionWeights

            if self.rba == "auto":
                self.rba = ResidualAttentionWeights(grid.n_points)
            sq = self.pointwise_physics_sq(main, grid)
            self.rba.update(sq)
            rba_weights = self.rba.loss_weights()
            weights = rba_weights if weights is None else weights * rba_weights
        total, tensors = self._terms_from_bundle(model, main, grid, weights)
        return total, {k: float(v.data) for k, v in tensors.items()}

    def _terms_from_bundle(
        self,
        model,
        main: FieldBundle,
        grid: CollocationGrid,
        weights: np.ndarray | None,
    ) -> tuple[Tensor, dict[str, Tensor]]:
        """Assemble every Eq. 26 term from the main bundle, as tensors."""
        # Value-only forward for symmetry mirrors and the IC plane.
        ax, ay, at, slices = self._assemble_aux_points(grid)
        aux_ez, aux_hx, aux_hy = model.fields(ax, ay, at)

        l_phys, parts = self._physics_terms(main, grid, weights)
        ic = slices["ic"]
        l_ic = self.ic_loss_from_fields(aux_ez[ic], aux_hx[ic], aux_hy[ic], grid)
        total = l_phys + self.ic_weight * l_ic
        components: dict[str, Tensor] = {"phys": l_phys, "ic": l_ic, **parts}
        if self.use_symmetry and (self.mirror_x or self.mirror_y):
            main_fields = (main.ez, main.hx, main.hy)
            l_sym = None
            if "mx" in slices:
                mx = slices["mx"]
                l_sym = self._mirror_x_term(
                    main_fields, (aux_ez[mx], aux_hx[mx], aux_hy[mx])
                )
            if "my" in slices:
                my = slices["my"]
                term = self._mirror_y_term(
                    main_fields, (aux_ez[my], aux_hx[my], aux_hy[my])
                )
                l_sym = term if l_sym is None else l_sym + term
            total = total + self.sym_weight * l_sym
            components["sym"] = l_sym
        if self.use_energy:
            l_energy = self.energy_loss(main, grid, weights)
            total = total + self.energy_weight * l_energy
            components["energy"] = l_energy
        components["total"] = total
        return total, components

    def loss_tensors(
        self, model, grid: CollocationGrid
    ) -> tuple[Tensor, dict[str, Tensor]]:
        """Total loss and tensor-valued components as a *pure* function.

        Skips the stateful curriculum/RBA preamble of :meth:`__call__`
        (raises when either is configured), so the computation depends
        only on the model parameters and the fixed grid — the form
        :mod:`repro.autodiff.tape` can capture and replay.
        """
        if self.curriculum is not None or self.rba is not None:
            raise ValueError(
                "loss_tensors requires curriculum=None and rba=None; "
                "use __call__ for the stateful weighting modes"
            )
        x, y, t = grid.coords()
        main = forward_with_derivatives(model, x, y, t)
        return self._terms_from_bundle(model, main, grid, None)
