"""Tests for in-place planned execution, the memory planner, and the
per-shape kernel autotuner.

The contract under test:

* the liveness planner packs disjoint-interval buffers into shared arena
  slots (footprint strictly below naive per-buffer allocation);
* the planned float64 path is **bitwise** identical to the unplanned
  lowered executor — planes, ⟨Z⟩ readout (probed reduction layout), and
  adjoint gradients;
* the planned float32 path stays inside the documented budgets and its
  warm loop performs **zero statevector-sized allocations** (forward +
  readout + adjoint, measured with tracemalloc);
* the autotuner persists winners to a disk cache keyed by the
  environment fingerprint and records decisions in the plan's audit
  trail, autotuned kernels produce the same values as the heuristic,
  and a persisted winner that is no longer a candidate resolves from
  the recorded timings (or re-benchmarks when none apply);
* ``plan_memory`` / ``autotune`` gate planned execution and tuning;
  planned execution without ``plan_memory`` raises, and so does
  ``autotune`` outside the planned float32 tier.
"""

import json
import tracemalloc

import numpy as np
import pytest

from repro.autodiff import no_grad
from repro.lower import (
    Arena,
    BufferSpec,
    LoweringConfig,
    amplitude_budget,
    autotune_cache_info,
    clear_autotune_cache,
    clear_lowered_cache,
    gradient_budget,
    lower_plan,
    plan_buffers,
)
from repro.lower.autotune import AUTOTUNE_CACHE_ENV_VAR, Autotuner
from repro.torq import Circuit


def _mixed_circuit(n_qubits=4, batch=6, seed=3):
    """Deterministic circuit hitting every step kind (fused/perm/phase)."""
    rng = np.random.default_rng(seed)
    qc = Circuit(n_qubits)
    for q in range(n_qubits):
        qc.h(q)
        qc.rx(q, f"a{q}")
    qc.rot(1, "r0", "r1", "r2")
    for q in range(n_qubits):
        qc.cnot(q, (q + 1) % n_qubits)
    qc.crz(0, 2, "w")
    for q in range(n_qubits):
        qc.rz(q, f"z{q}")
    params = {
        name: rng.uniform(-np.pi, np.pi, batch)
        for name in qc.parameter_names()
    }
    return qc, params, batch


def _trailing_perm_circuit(n_qubits=4, batch=5, seed=9):
    """Circuit ending on permutation -> phase steps (layout stress)."""
    rng = np.random.default_rng(seed)
    qc = Circuit(n_qubits)
    for q in range(n_qubits):
        qc.h(q)
        qc.ry(q, f"a{q}")
    for q in range(n_qubits - 1):
        qc.cnot(q, q + 1)
    qc.crz(0, n_qubits - 1, "w")
    params = {
        name: rng.uniform(-np.pi, np.pi, batch)
        for name in qc.parameter_names()
    }
    return qc, params, batch


def _pair(qc, precision, **planned_kw):
    gates = qc.gate_sequence()
    unplanned = lower_plan(gates, qc.n_qubits,
                           LoweringConfig(precision=precision))
    planned = lower_plan(
        gates, qc.n_qubits,
        LoweringConfig(precision=precision, plan_memory=True, **planned_kw))
    return gates, unplanned, planned


class TestBufferPlanner:
    def test_disjoint_intervals_share_a_slot(self):
        specs = [
            BufferSpec("a", 64, 0, 1),
            BufferSpec("b", 48, 2, 3),
            BufferSpec("c", 64, 2, 4),
        ]
        plan = plan_buffers(specs)
        # "a" dies before "b"/"c" start; one of them reuses its slot.
        assert len(plan.slots) == 2
        assert plan.total_bytes < plan.naive_bytes
        assert plan.slot_of("a") in (plan.slot_of("b"), plan.slot_of("c"))

    def test_overlapping_intervals_get_distinct_slots(self):
        specs = [BufferSpec("a", 8, 0, 5), BufferSpec("b", 8, 3, 6)]
        plan = plan_buffers(specs)
        assert plan.slot_of("a") != plan.slot_of("b")

    def test_slot_capacity_is_max_of_assigned(self):
        specs = [BufferSpec("big", 100, 0, 0), BufferSpec("small", 10, 1, 1)]
        plan = plan_buffers(specs)
        assert plan.slots == [100]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            plan_buffers([BufferSpec("x", 8, 0, 0), BufferSpec("x", 8, 1, 1)])

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            BufferSpec("x", 8, first=3, last=1)
        with pytest.raises(ValueError):
            BufferSpec("x", -1, 0, 0)

    def test_arena_view_validates_size(self):
        plan = plan_buffers([BufferSpec("x", 32, 0, 0)])
        arena = Arena(plan)
        v = arena.view("x", (4,), np.float64)
        assert v.nbytes == 32 and v.flags.c_contiguous
        with pytest.raises(ValueError, match="bytes"):
            arena.view("x", (5,), np.float64)

    def test_arena_strided_view_rejects_negative_strides(self):
        plan = plan_buffers([BufferSpec("x", 64, 0, 0)])
        arena = Arena(plan)
        with pytest.raises(ValueError, match="negative"):
            arena.strided_view("x", (4,), np.float64, (-8,))


class TestPlannedBitwiseF64:
    @pytest.mark.parametrize("make", [_mixed_circuit, _trailing_perm_circuit])
    def test_planes_z_and_adjoint_bitwise(self, make):
        qc, params, batch = make()
        gates = qc.gate_sequence()
        values = qc.flat_parameter_values(params)
        _, unplanned, planned = _pair(qc, "float64")
        weights = np.random.default_rng(11).standard_normal(
            (batch, qc.n_qubits))
        with no_grad():
            pu = unplanned.run_planes(batch, lambda i: values[i])
            pp = planned.run_planes(batch, lambda i: values[i])
            assert np.array_equal(pu[0], pp[0])
            assert np.array_equal(pu[1], pp[1])
            # Readout reduction order is layout-probed: must be bitwise.
            assert np.array_equal(unplanned.z_expectations(pu),
                                  planned.z_expectations(pp))
            gu = unplanned.adjoint_vjp(values, weights)
            gp = planned.adjoint_vjp(values, weights, planes=pp)
            for a, b in zip(gu, gp):
                assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_repeated_runs_are_stable(self):
        qc, params, batch = _mixed_circuit()
        values = qc.flat_parameter_values(params)
        _, _, planned = _pair(qc, "float64")
        with no_grad():
            first = [np.array(p, copy=True)
                     for p in planned.run_planes(batch, lambda i: values[i])]
            for _ in range(3):
                pp = planned.run_planes(batch, lambda i: values[i])
                assert np.array_equal(pp[0], first[0])
                assert np.array_equal(pp[1], first[1])

    def test_returned_planes_alias_the_arena(self):
        qc, params, batch = _mixed_circuit()
        values = qc.flat_parameter_values(params)
        _, _, planned = _pair(qc, "float64")
        with no_grad():
            a = planned.run_planes(batch, lambda i: values[i])
            b = planned.run_planes(batch, lambda i: values[i])
        assert a[0] is b[0] and a[1] is b[1]


class TestPlannedFloat32:
    def test_forward_and_grads_within_budget(self):
        qc, params, batch = _mixed_circuit()
        gates = qc.gate_sequence()
        values = qc.flat_parameter_values(params)
        _, _, planned = _pair(qc, "float32")
        oracle = lower_plan(gates, qc.n_qubits,
                            LoweringConfig(precision="float64"))
        weights = np.ones((batch, qc.n_qubits))
        amp_tol = amplitude_budget("float32", qc.n_qubits, len(gates))
        grad_tol = gradient_budget("float32", qc.n_qubits, len(gates))
        with no_grad():
            pf = planned.run_planes(batch, lambda i: values[i])
            po = oracle.run_planes(batch, lambda i: values[i])
            assert np.max(np.abs(pf[0].astype(np.float64) - po[0])) <= amp_tol
            assert np.max(np.abs(pf[1].astype(np.float64) - po[1])) <= amp_tol
            gp = planned.adjoint_vjp(values, weights, planes=pf)
            go = oracle.adjoint_vjp(values, weights)
            for a, b in zip(gp, go):
                assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= grad_tol

    def test_warm_loop_makes_no_statevector_allocations(self):
        qc, params, batch = _mixed_circuit(n_qubits=6, batch=8, seed=5)
        values = qc.flat_parameter_values(params)
        _, _, planned = _pair(qc, "float32")
        weights = np.ones((batch, qc.n_qubits))
        plane_bytes = batch * 2 ** qc.n_qubits * np.dtype(np.float32).itemsize
        with no_grad():
            # Warmup binds the arena and the per-step kernel choices.
            pp = planned.run_planes(batch, lambda i: values[i])
            planned.z_expectations(pp)
            planned.adjoint_vjp(values, weights, planes=pp)
            tracemalloc.start()
            for _ in range(3):
                pp = planned.run_planes(batch, lambda i: values[i])
                planned.z_expectations(pp)
                planned.adjoint_vjp(values, weights, planes=pp)
            snap = tracemalloc.take_snapshot()
            tracemalloc.stop()
        big = [s for s in snap.statistics("lineno") if s.size >= plane_bytes]
        assert not big, [str(s) for s in big]

    def test_arena_is_smaller_than_naive_allocation(self):
        qc, params, batch = _mixed_circuit()
        values = qc.flat_parameter_values(params)
        _, _, planned = _pair(qc, "float32")
        with no_grad():
            planned.run_planes(batch, lambda i: values[i])
        report = planned.memory_report()[batch]
        mp = report["memory_plan"]
        assert mp["total_bytes"] < mp["naive_bytes"]
        assert report["arena_bytes"] == mp["total_bytes"]
        assert report["fallback_steps"] == []


class TestAutotuner:
    def test_disk_cache_and_decisions(self, tmp_path, monkeypatch):
        monkeypatch.setenv(AUTOTUNE_CACHE_ENV_VAR, str(tmp_path))
        clear_lowered_cache()
        qc, params, batch = _mixed_circuit(n_qubits=5, batch=8, seed=2)
        values = qc.flat_parameter_values(params)
        _, _, planned = _pair(qc, "float32", autotune=True)
        with no_grad():
            planned.run_planes(batch, lambda i: values[i])
        assert planned.autotune_decisions  # audit trail populated
        for rec in planned.autotune_decisions.values():
            assert rec["source"] in ("autotune", "heuristic")
            assert rec["winner"]
        info = autotune_cache_info()
        assert info["entries"] > 0
        assert info["fingerprint"] in info["path"]
        payload = json.loads(
            (tmp_path / f"autotune-{info['fingerprint']}.json").read_text())
        assert payload["fingerprint"] == info["fingerprint"]
        assert payload["decisions"]
        clear_autotune_cache()
        assert autotune_cache_info()["entries"] == 0

    def test_autotuned_matches_heuristic_values(self, tmp_path, monkeypatch):
        monkeypatch.setenv(AUTOTUNE_CACHE_ENV_VAR, str(tmp_path))
        clear_lowered_cache()
        qc, params, batch = _mixed_circuit(n_qubits=5, batch=8, seed=2)
        values = qc.flat_parameter_values(params)
        gates = qc.gate_sequence()
        tuned = lower_plan(gates, qc.n_qubits, LoweringConfig(
            precision="float32", plan_memory=True, autotune=True))
        plain = lower_plan(gates, qc.n_qubits, LoweringConfig(
            precision="float32", plan_memory=True, autotune=False))
        amp_tol = amplitude_budget("float32", qc.n_qubits, len(gates))
        with no_grad():
            pt = tuned.run_planes(batch, lambda i: values[i])
            pp = plain.run_planes(batch, lambda i: values[i])
            assert np.max(np.abs(pt[0].astype(np.float64)
                                 - pp[0].astype(np.float64))) <= amp_tol
            assert np.max(np.abs(pt[1].astype(np.float64)
                                 - pp[1].astype(np.float64))) <= amp_tol

    def test_f64_never_tunes(self):
        # float64 kernels are pinned for bitwise equality: asking to
        # tune them is a config error, not a silent skip.
        with pytest.raises(ValueError, match="float32"):
            LoweringConfig(precision="float64", plan_memory=True,
                           autotune=True)

    @staticmethod
    def _tuner_with_entry(tmp_path, key, entry):
        path = tmp_path / "autotune.json"
        tuner = Autotuner(str(path))
        path.write_text(json.dumps({
            "fingerprint": tuner.fingerprint,
            "decisions": {Autotuner._key_str(key): entry},
        }))
        return tuner

    def test_stale_winner_uses_best_available_timing(self, tmp_path):
        key = ("fused_fwd", "const", 8, 5, 1, 2, "float32")
        tuner = self._tuner_with_entry(tmp_path, key, {
            "winner": "numba",
            "timings_ms": {"numba": 0.1, "bcast": 0.5, "cols": 0.3,
                           "rows": 0.9},
        })
        calls = []
        candidates = {name: (lambda name=name: calls.append(name))
                      for name in ("bcast", "rows", "cols", "strided")}
        assert tuner.decide(key, candidates) == "cols"
        assert calls == []

    def test_stale_winner_without_timing_rebenchmarks(self, tmp_path):
        key = ("fused_fwd", "batch", 8, 5, 1, 2, "float32")
        tuner = self._tuner_with_entry(tmp_path, key, {
            "winner": "numba", "timings_ms": {"numba": 0.1},
        })
        calls = []
        candidates = {name: (lambda name=name: calls.append(name))
                      for name in ("bcast", "rows")}
        winner = tuner.decide(key, candidates)
        assert winner in candidates
        assert set(calls) == {"bcast", "rows"}
        entry = tuner.lookup(key)
        assert entry["winner"] == winner
        assert set(entry["timings_ms"]) == {"bcast", "rows"}


class TestPassGating:
    """``plan_memory`` and ``autotune`` gate planned execution."""

    def test_memplan_not_requested_reports_fallback(self):
        qc, _, _ = _mixed_circuit()
        plan = lower_plan(qc.gate_sequence(), qc.n_qubits, LoweringConfig())
        with pytest.raises(RuntimeError, match="plan_memory"):
            plan.planned_execution(4)

    def test_memplan_claims_inplace_steps(self):
        # Every step but unfused gates runs in place; those fall back
        # to the allocating kernel and are listed as such.
        qc, params, batch = _mixed_circuit()
        values = qc.flat_parameter_values(params)
        plan = lower_plan(qc.gate_sequence(), qc.n_qubits,
                          LoweringConfig(plan_memory=True))
        with no_grad():
            plan.run_planes(batch, lambda i: values[i])
        fallback = plan.memory_report()[batch]["fallback_steps"]
        assert fallback == [i for i, s in enumerate(plan.steps)
                            if s.kind == "gate"]
        assert len(fallback) < len(plan.steps)

    def test_config_key_separates_planned_and_autotuned(self):
        base = LoweringConfig(precision="float32")
        planned = LoweringConfig(precision="float32", plan_memory=True)
        tuned = LoweringConfig(precision="float32", plan_memory=True,
                               autotune=True)
        keys = {base.key(), planned.key(), tuned.key()}
        assert len(keys) == 3
        with pytest.raises(ValueError, match="plan_memory"):
            LoweringConfig(precision="float32", autotune=True)

    def test_planned_cache_is_lru_per_batch(self):
        qc, params, batch = _mixed_circuit()
        values = qc.flat_parameter_values(params)
        _, _, planned = _pair(qc, "float64")
        with no_grad():
            for b in (2, 3, 4):
                vals = {k: np.asarray(v)[:b] for k, v in params.items()}
                flat = qc.flat_parameter_values(vals)
                planned.run_planes(b, lambda i: flat[i])
        # LRU keeps at most _PLANNED_CACHE_MAX bound executions.
        assert len(planned._planned) <= planned._PLANNED_CACHE_MAX
