"""Loss-system tests: term definitions, symmetry behaviour, masks,
curriculum coupling, and the batched assembly."""

import numpy as np
import pytest

from repro import autodiff as ad
from repro.autodiff import Tensor, grad
from repro.core import CollocationGrid, MaxwellLoss, TemporalCurriculum
from repro.core.losses import forward_with_derivatives, masked_mse, weighted_mse
from repro.maxwell import CENTERED_PULSE, DielectricSlab


class AnalyticModel:
    """A fake 'network' with closed-form fields for exact loss checks."""

    def __init__(self, ez_fn, hx_fn, hy_fn):
        self.fns = (ez_fn, hx_fn, hy_fn)

    def fields(self, x, y, t):
        return tuple(fn(x, y, t) for fn in self.fns)

    def parameters(self):
        return []


def plane_wave_model():
    """E_z = cos(π(x − t)), H_y = −cos(π(x − t)), H_x = 0 — an exact
    right-moving solution of the vacuum TE_z system (Eqs. 7a–c)."""
    return AnalyticModel(
        ez_fn=lambda x, y, t: ad.cos((x - t) * np.pi),
        hx_fn=lambda x, y, t: x * 0.0,
        hy_fn=lambda x, y, t: -ad.cos((x - t) * np.pi),
    )


def zero_model():
    return AnalyticModel(
        ez_fn=lambda x, y, t: x * 0.0,
        hx_fn=lambda x, y, t: x * 0.0,
        hy_fn=lambda x, y, t: x * 0.0,
    )


class TestMseHelpers:
    def test_weighted_mse_matches_mean(self, rng):
        r = Tensor(rng.normal(size=(10, 1)))
        np.testing.assert_allclose(weighted_mse(r).data, (r.data ** 2).mean())

    def test_weighted_mse_applies_weights(self):
        r = Tensor(np.array([[1.0], [2.0]]))
        w = np.array([[1.0], [0.0]])
        np.testing.assert_allclose(weighted_mse(r, w).data, 0.5)

    def test_masked_mse_restricts(self):
        r = Tensor(np.array([[1.0], [3.0], [5.0]]))
        mask = np.array([[True], [False], [True]])
        np.testing.assert_allclose(masked_mse(r, mask).data, (1 + 25) / 2)

    def test_masked_mse_empty_mask_is_zero(self):
        r = Tensor(np.array([[1.0]]))
        np.testing.assert_allclose(masked_mse(r, np.array([[False]])).data, 0.0)

    def test_masked_mse_is_differentiable(self):
        r = Tensor(np.array([[2.0], [4.0]]), requires_grad=True)
        mask = np.array([[True], [False]])
        (g,) = grad(masked_mse(r, mask), [r])
        np.testing.assert_allclose(g.data, [[4.0], [0.0]])  # d/dr (r^2/count), count=1


class TestForwardWithDerivatives:
    def test_derivatives_of_analytic_model(self):
        model = plane_wave_model()
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-1, 1, (6, 1)), requires_grad=True)
        y = Tensor(rng.uniform(-1, 1, (6, 1)), requires_grad=True)
        t = Tensor(rng.uniform(0, 1, (6, 1)), requires_grad=True)
        b = forward_with_derivatives(model, x, y, t)
        expected_dEz_dx = -np.pi * np.sin(np.pi * (x.data - t.data))
        np.testing.assert_allclose(b.derivs.dEz_dx.data, expected_dEz_dx, atol=1e-10)
        np.testing.assert_allclose(b.derivs.dEz_dt.data, -expected_dEz_dx, atol=1e-10)
        np.testing.assert_allclose(b.derivs.dEz_dy.data, 0.0, atol=1e-12)

    def test_narrow_slices_all_fields(self):
        model = plane_wave_model()
        x = Tensor(np.linspace(-1, 1, 8).reshape(-1, 1), requires_grad=True)
        y = Tensor(np.zeros((8, 1)), requires_grad=True)
        t = Tensor(np.zeros((8, 1)), requires_grad=True)
        b = forward_with_derivatives(model, x, y, t)
        nb = b.narrow(slice(2, 5))
        assert nb.ez.shape == (3, 1)
        assert nb.derivs.dHy_dx.shape == (3, 1)


class TestPhysicsLoss:
    def test_exact_solution_has_zero_physics_loss(self):
        grid = CollocationGrid(n=5, t_max=1.0)
        loss = MaxwellLoss(phys_variant="vacuum", use_energy=True,
                           use_symmetry=False, mirror_x=False, mirror_y=False)
        x, y, t = grid.coords()
        bundle = forward_with_derivatives(plane_wave_model(), x, y, t)
        l_phys, _ = loss.physics_loss(bundle, grid, None)
        np.testing.assert_allclose(l_phys.data, 0.0, atol=1e-18)

    def test_exact_solution_has_zero_energy_loss(self):
        grid = CollocationGrid(n=5, t_max=1.0)
        loss = MaxwellLoss()
        x, y, t = grid.coords()
        bundle = forward_with_derivatives(plane_wave_model(), x, y, t)
        np.testing.assert_allclose(loss.energy_loss(bundle, grid, None).data, 0.0, atol=1e-18)

    def test_zero_model_physics_loss_zero_but_ic_positive(self):
        grid = CollocationGrid(n=5, t_max=1.0)
        loss = MaxwellLoss()
        x, y, t = grid.coords()
        bundle = forward_with_derivatives(zero_model(), x, y, t)
        l_phys, _ = loss.physics_loss(bundle, grid, None)
        np.testing.assert_allclose(l_phys.data, 0.0, atol=1e-18)
        assert float(loss.ic_loss(zero_model(), grid).data) > 1e-4

    def test_split_variant_components(self):
        grid = CollocationGrid(n=6, t_max=0.7, medium=DielectricSlab())
        loss = MaxwellLoss(phys_variant="split")
        x, y, t = grid.coords()
        bundle = forward_with_derivatives(plane_wave_model(), x, y, t)
        _, parts = loss.physics_loss(bundle, grid, None)
        assert "res1_vac" in parts and "res1_diel" in parts

    def test_intuitive_variant_weighting(self):
        # For the plane wave (exact in vacuum), the intuitive residual is
        # nonzero inside the dielectric because 1/eps rescales the curl.
        grid = CollocationGrid(n=6, t_max=0.7, medium=DielectricSlab())
        x, y, t = grid.coords()
        bundle = forward_with_derivatives(plane_wave_model(), x, y, t)
        intuitive = MaxwellLoss(phys_variant="intuitive")
        l_int, _ = intuitive.physics_loss(bundle, grid, None)
        assert float(l_int.data) > 0.0

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            MaxwellLoss(phys_variant="bogus")


class TestICLoss:
    def test_pulse_model_has_zero_ic_loss(self):
        pulse_model = AnalyticModel(
            ez_fn=lambda x, y, t: ad.exp((x * x + y * y) * -25.0),
            hx_fn=lambda x, y, t: x * 0.0,
            hy_fn=lambda x, y, t: x * 0.0,
        )
        grid = CollocationGrid(n=6, t_max=1.0)
        loss = MaxwellLoss(pulse=CENTERED_PULSE)
        np.testing.assert_allclose(loss.ic_loss(pulse_model, grid).data, 0.0, atol=1e-18)

    def test_zero_model_ic_equals_mean_squared_pulse(self):
        grid = CollocationGrid(n=6, t_max=1.0)
        loss = MaxwellLoss(pulse=CENTERED_PULSE)
        expected = (CENTERED_PULSE.ez(grid.x0, grid.y0) ** 2).mean()
        np.testing.assert_allclose(loss.ic_loss(zero_model(), grid).data, expected)


class TestSymmetryLoss:
    def test_symmetric_fields_have_zero_loss(self):
        model = AnalyticModel(
            ez_fn=lambda x, y, t: ad.cos(x * np.pi) * ad.cos(y * np.pi),
            hx_fn=lambda x, y, t: ad.cos(x * np.pi) * ad.sin(y * np.pi),
            hy_fn=lambda x, y, t: ad.sin(x * np.pi) * ad.cos(y * np.pi),
        )
        grid = CollocationGrid(n=5, t_max=1.0)
        loss = MaxwellLoss(mirror_x=True, mirror_y=True)
        np.testing.assert_allclose(loss.symmetry_loss(model, grid).data, 0.0, atol=1e-18)

    def test_wrong_parity_penalised(self):
        model = AnalyticModel(  # E_z odd in x violates (i)
            ez_fn=lambda x, y, t: ad.sin(x * np.pi),
            hx_fn=lambda x, y, t: x * 0.0,
            hy_fn=lambda x, y, t: x * 0.0,
        )
        grid = CollocationGrid(n=5, t_max=1.0)
        loss = MaxwellLoss(mirror_x=True, mirror_y=False)
        assert float(loss.symmetry_loss(model, grid).data) > 0.01

    def test_disabled_mirrors_give_zero(self):
        grid = CollocationGrid(n=4, t_max=1.0)
        loss = MaxwellLoss(mirror_x=False, mirror_y=False)
        model = plane_wave_model()
        np.testing.assert_allclose(loss.symmetry_loss(model, grid).data, 0.0)


class TestTotalLoss:
    def _small_model(self):
        from repro.core import MaxwellQPINN
        return MaxwellQPINN(
            hidden=12, rff_features=6, n_qubits=3, n_layers=1,
            rng=np.random.default_rng(0),
        )

    def test_components_reported(self):
        grid = CollocationGrid(n=4, t_max=1.5)
        loss = MaxwellLoss(use_energy=True)
        total, comps = loss(self._small_model(), grid)
        for key in ("phys", "ic", "sym", "energy", "total"):
            assert key in comps
        np.testing.assert_allclose(comps["total"], float(total.data))

    def test_energy_excluded_when_disabled(self):
        grid = CollocationGrid(n=4, t_max=1.5)
        _, comps = MaxwellLoss(use_energy=False)(self._small_model(), grid)
        assert "energy" not in comps

    def test_eq26_weighting(self):
        grid = CollocationGrid(n=4, t_max=1.5)
        model = self._small_model()
        loss = MaxwellLoss(use_energy=True)
        total, comps = loss(model, grid)
        reconstructed = (
            comps["phys"] + 10 * comps["ic"] + 10 * comps["sym"] + 10 * comps["energy"]
        )
        np.testing.assert_allclose(float(total.data), reconstructed, rtol=1e-10)

    def test_total_loss_differentiable_wrt_params(self):
        grid = CollocationGrid(n=4, t_max=1.5)
        model = self._small_model()
        total, _ = MaxwellLoss(use_energy=True)(model, grid)
        grads = grad(total, model.parameters(), allow_unused=True)
        assert any(np.abs(g.data).sum() > 0 for g in grads)

    def test_curriculum_changes_loss(self):
        grid = CollocationGrid(n=5, t_max=1.5)
        model = self._small_model()
        curriculum = TemporalCurriculum(n_bins=5, ramp_epochs=100, min_weight=0.0)
        loss = MaxwellLoss(use_energy=False, curriculum=curriculum)
        early, _ = loss(model, grid, epoch=0)
        late, _ = loss(model, grid, epoch=100)
        assert float(early.data) != pytest.approx(float(late.data))

    def test_asymmetric_case_has_no_sym_component(self):
        grid = CollocationGrid(n=4, t_max=1.5)
        loss = MaxwellLoss(use_symmetry=False)
        _, comps = loss(self._small_model(), grid)
        assert "sym" not in comps

    def test_dielectric_drops_x_mirror_only(self):
        grid = CollocationGrid(n=4, t_max=0.7, medium=DielectricSlab())
        loss = MaxwellLoss(phys_variant="split", mirror_x=False, mirror_y=True)
        _, comps = loss(self._small_model(), grid)
        assert "sym" in comps


def test_qpinn_objective_graph_node_count(monkeypatch):
    """Structural guard on the size of the QPINN derivative graph.

    Counts the interior graph nodes one small curriculum QPINN Maxwell
    objective and its parameter backward build.  The count holds only
    while the input-derivative sweeps build no parameter cotangents and
    the circuit embeds its inputs as a product state; a change to the
    graph's size must update it on purpose.
    """
    from repro.autodiff import backward
    from repro.core import get_case
    from repro.core.models import build_model

    case = get_case("vacuum")
    model = build_model("strongly_entangling", t_max=case.t_max,
                        rng=np.random.default_rng(0), n_qubits=3,
                        n_layers=1, hidden=6, rff_features=4)
    loss = case.make_loss(use_energy=True,
                          curriculum=TemporalCurriculum(ramp_epochs=2))
    grid = case.make_grid(4)
    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self._parents:
            built.append(1)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    total, _ = loss(model, grid, 0)
    backward(total, model.parameters())
    monkeypatch.undo()
    assert len(built) == 1007
