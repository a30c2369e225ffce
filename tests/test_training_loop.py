"""The one training loop and its problem bindings.

Golden histories pin every binding (Maxwell, generic PDE, Maxwell 3-D)
to loss trajectories recorded before the bindings shared a loop, bit for
bit; the rest covers loop behaviour every binding inherits.
"""

import numpy as np
import pytest

import repro.core.trainer as trainer_mod
from repro.core import (
    CollocationGrid,
    Trainer,
    TrainerConfig,
    get_case,
    make_reference,
)
from repro.core.maxwell3d import Maxwell3DLoss, Maxwell3DPINN, Maxwell3DTrainer
from repro.core.metrics import l2_relative_error
from repro.core.models import MaxwellPINN, build_model
from repro.core.weighting import TemporalCurriculum
from repro.dist import DistConfig, SerialDistContext
from repro.pde import GenericPINN, PDETrainer, PDETrainerConfig
from repro.pde.problems import SchrodingerProblem
from repro.resilience import ChaosInjector

# float.hex() of each epoch's value, recorded from the per-problem
# training loops these bindings replaced.
GOLDEN = {
    "maxwell_regular": {
        "loss": ["0x1.4e94565b28a86p+6", "0x1.7c34e2f7d8528p+4",
                 "0x1.a4844ece5a3d3p+3", "0x1.5cee652c4e17dp+3"],
        "grad_norm": ["0x1.72892b952deb1p+9", "0x1.b1494fa044a2dp+7",
                      "0x1.1eb844d32e06ap+7", "0x1.1c23d46573378p+7"],
    },
    "maxwell_curriculum": {
        "loss": ["0x1.59fc054963e2dp+5", "0x1.577725d2ee2edp+4",
                 "0x1.19f14b27d6ba7p+4", "0x1.7acac7f502d73p+3"],
        "grad_norm": ["0x1.77f9e1de18677p+8", "0x1.a3424037c209ap+7",
                      "0x1.7046b6374c163p+7", "0x1.ff145c8adb5dcp+6"],
    },
    # Re-recorded when QuantumLayer switched to the product-state
    # embedding and the single-|psi|^2 readout: same forward values, a
    # smaller derivative graph that sums in another order.
    "maxwell_qpinn": {
        "loss": ["0x1.5c36ff75521c8p+4", "0x1.af3f89a3ce1bfp+4",
                 "0x1.0af4e1ea5d7c2p+5", "0x1.f9c1a486819cbp+4"],
        "grad_norm": ["0x1.11d67687ce127p+7", "0x1.610ee6195ca51p+7",
                      "0x1.b7c59a6764bedp+7", "0x1.9cf551b8e06c8p+7"],
    },
    "pde_schrodinger": {
        "loss": ["0x1.94cab400a099ap+2", "0x1.c12fccc434274p+3",
                 "0x1.97981435c6636p+3", "0x1.6ef1286b6e802p+2"],
    },
    "maxwell3d": {
        "loss": ["0x1.9eb50f3599aadp+5", "0x1.944c3d2ab8fb8p+5",
                 "0x1.9b4fd768edf89p+5", "0x1.913342d9c6722p+5"],
    },
}

# The maxwell_qpinn series before that re-record, from the gate-by-gate
# embedding; the drift from it stays pinned at relative 1e-12.
GOLDEN_BEFORE = {
    "maxwell_qpinn": {
        "loss": ["0x1.5c36ff75521c8p+4", "0x1.af3f89a3ce1b8p+4",
                 "0x1.0af4e1ea5d7c7p+5", "0x1.f9c1a486819ccp+4"],
        "grad_norm": ["0x1.11d67687ce126p+7", "0x1.610ee6195ca4dp+7",
                      "0x1.b7c59a6764bf7p+7", "0x1.9cf551b8e06cap+7"],
    },
}


def maxwell_golden(curriculum=False, quantum=False):
    case = get_case("vacuum")
    kind = "strongly_entangling" if quantum else "regular"
    over = (dict(n_qubits=3, n_layers=1, hidden=6, rff_features=4)
            if quantum else {})
    model = build_model(kind, t_max=case.t_max,
                        rng=np.random.default_rng(0), **over)
    loss = case.make_loss(
        use_energy=True,
        curriculum=TemporalCurriculum(ramp_epochs=2) if curriculum else None,
    )
    cfg = TrainerConfig(epochs=4, eval_every=0, track_entanglement=False,
                        bh_n_space=4, bh_n_times=2)
    hist = Trainer(model, loss, case.make_grid(4), config=cfg).train().history
    return {"loss": hist.loss, "grad_norm": hist.grad_norm}


def pde_golden(compile_step=True):
    model = GenericPINN(2, 2, hidden=8, n_hidden=1,
                        rng=np.random.default_rng(42))
    cfg = PDETrainerConfig(epochs=4, n_collocation=16, n_data=8,
                           resample_every=2, eval_every=0, seed=7,
                           compile_step=compile_step)
    return {"loss": PDETrainer(model, SchrodingerProblem(), cfg).train().loss}


def maxwell3d_trainer():
    model = Maxwell3DPINN(hidden=8, n_hidden=1, rng=np.random.default_rng(0))
    return Maxwell3DTrainer(model, Maxwell3DLoss(n_ic=16), n_collocation=16)


def maxwell3d_golden():
    return {"loss": maxwell3d_trainer().train(epochs=4, resample_every=2).loss}


@pytest.mark.parametrize("name, run, golden", [
    ("maxwell_regular", maxwell_golden, "maxwell_regular"),
    ("maxwell_curriculum", lambda: maxwell_golden(curriculum=True),
     "maxwell_curriculum"),
    ("maxwell_qpinn", lambda: maxwell_golden(curriculum=True, quantum=True),
     "maxwell_qpinn"),
    ("pde_schrodinger", pde_golden, "pde_schrodinger"),
    ("pde_schrodinger_uncompiled", lambda: pde_golden(compile_step=False),
     "pde_schrodinger"),
    ("maxwell3d", maxwell3d_golden, "maxwell3d"),
])
def test_golden_history_bitwise(name, run, golden):
    got = run()
    for series, expected in GOLDEN[golden].items():
        assert [float(v).hex() for v in got[series]] == expected, series
    for series, before in GOLDEN_BEFORE.get(golden, {}).items():
        np.testing.assert_allclose(
            got[series], [float.fromhex(h) for h in before], rtol=1e-12,
            atol=0, err_msg=series,
        )


def tiny_maxwell(reference=None, **kw):
    model = MaxwellPINN(depth=2, hidden=8, rff_features=4,
                        rng=np.random.default_rng(0))
    kw.setdefault("eval_every", 0)
    cfg = TrainerConfig(epochs=kw.pop("epochs", 3), bh_n_space=4,
                        bh_n_times=2, **kw)
    return Trainer(model, get_case("vacuum").make_loss(use_energy=True),
                   CollocationGrid(n=4, t_max=1.5), config=cfg,
                   reference=reference)


def tiny_pde(**kw):
    model = GenericPINN(2, 2, hidden=8, n_hidden=1,
                        rng=np.random.default_rng(0))
    kw.setdefault("eval_every", 0)
    cfg = PDETrainerConfig(epochs=kw.pop("epochs", 3), n_collocation=16,
                           n_data=8, seed=0, **kw)
    return PDETrainer(model, SchrodingerProblem(), cfg)


class TestSecondsPerEpoch:
    @staticmethod
    def _clock(monkeypatch):
        """Training appears to take exactly 3 s of wall time."""
        ticks = iter([0.0])

        class Clock:
            @staticmethod
            def perf_counter():
                return next(ticks, 3.0)

        monkeypatch.setattr(trainer_mod, "time", Clock)

    def test_skipped_lbfgs_phase_is_not_counted(self, monkeypatch):
        self._clock(monkeypatch)
        trainer = tiny_maxwell(epochs=5, lbfgs_epochs=100,
                               epoch_hook=lambda *a: "stop")
        hist = trainer.train().history
        assert hist.early_stop_epoch == 0 and len(hist.loss) == 1
        assert hist.seconds_per_epoch == 3.0

    def test_lbfgs_iterations_that_ran_are_counted(self, monkeypatch):
        self._clock(monkeypatch)
        hist = tiny_maxwell(epochs=2, lbfgs_epochs=1).train().history
        assert len(hist.loss) == 3
        assert hist.seconds_per_epoch == 1.0


class TestDistRejectsEpochHook:
    @pytest.mark.parametrize("make", [tiny_maxwell, tiny_pde],
                             ids=["maxwell", "pde"])
    def test_train_raises_actionable_error(self, make):
        calls = []
        trainer = make(dist=DistConfig(workers=2, backend="serial"),
                       epoch_hook=lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="epoch_hook.*dist"):
            trainer.train()
        assert calls == []

    @pytest.mark.parametrize("make", [tiny_maxwell, tiny_pde],
                             ids=["maxwell", "pde"])
    def test_attach_dist_raises(self, make):
        trainer = make(epoch_hook=lambda *a: None)
        with pytest.raises(ValueError, match="workers=1"):
            trainer.attach_dist(SerialDistContext(2))
        assert trainer._dist_ctx is None


class TestEvaluate:
    def test_pde_matches_the_loop_evaluation(self):
        trainer = tiny_pde(epochs=3, eval_every=2)
        result = trainer.train()
        assert result.l2_epochs == [0, 2]
        assert trainer.evaluate() == result.final_l2

    def test_maxwell_with_and_without_reference(self):
        ref = make_reference(get_case("vacuum"), n=16, n_snapshots=3)
        trainer = tiny_maxwell(epochs=2, eval_every=1, reference=ref)
        result = trainer.train()
        assert trainer.evaluate() == result.final_l2
        assert trainer.evaluate() == l2_relative_error(trainer.model, ref)
        assert tiny_maxwell().evaluate() is None


def test_maxwell3d_preempt_resume_is_bitwise(tmp_path):
    """The 3-D binding inherits the loop's checkpoint/resume path."""
    reference = maxwell3d_trainer().train(epochs=6, resample_every=4)

    first = maxwell3d_trainer()
    first.config.checkpoint_dir = tmp_path
    first.config.chaos = ChaosInjector(preempt_at=2)
    assert len(first.train(epochs=6, resample_every=4).loss) == 3

    second = maxwell3d_trainer()
    second.config.checkpoint_dir = tmp_path
    second.config.resume_from = "auto"
    resumed = second.train(epochs=6, resample_every=4)
    assert resumed.loss == reference.loss[3:]
    for a, b in zip(reference.model.parameters(), second.model.parameters()):
        np.testing.assert_array_equal(a.data, b.data)
