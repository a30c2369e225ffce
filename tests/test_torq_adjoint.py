"""Adjoint-method gradient tests: equivalence against parameter-shift and
backprop, the tape-free/O(1)-sweep contract, plan-cache LRU behavior, and
the cached zero-state base."""

import numpy as np
import pytest

from repro.autodiff import Tensor, backward, grad, no_grad
from repro.torq import (
    ANSATZ_NAMES,
    GRAD_METHODS,
    QuantumLayer,
    adjoint_grad,
    adjoint_state_vjp,
    batched_parameter_shift_grad,
    batched_state_shift_vjp,
    compile_gates,
    make_ansatz,
    make_batched_ansatz_forward,
)
from repro.torq import compile as torq_compile
from repro.torq.ansatz import GateSpec
from repro.torq.state import _clear_zero_cache, zero_state


def _shift_grad(ansatz, params):
    fwd = make_batched_ansatz_forward(ansatz)
    return batched_parameter_shift_grad(fwd, params, ansatz.gate_sequence())


#: A hand-built circuit that compiles to every step kind: a fused
#: const+param single-qubit run, a lone Rot (three factor angles), a
#: permutation (X+CNOT), a phase mask with RZ/CRZ/Z (CRZ parameters use the
#: four-term shift rule), a lone rotation gate, and a lone constant gate.
_MIXED_GATES = (
    GateSpec("h", (0,), ()),
    GateSpec("rx", (0,), (0,)),
    GateSpec("y", (0,), ()),
    GateSpec("rot", (1,), (1, 2, 3)),
    GateSpec("x", (2,), ()),
    GateSpec("cnot", (0, 2), ()),
    GateSpec("rz", (1,), (4,)),
    GateSpec("crz", (0, 1), (5,)),
    GateSpec("z", (2,), ()),
    GateSpec("crz", (2, 0), (6,)),
    GateSpec("ry", (2,), (7,)),
    GateSpec("h", (1,), ()),
)


class _MixedAnsatz:
    n_qubits = 3
    param_count = 8

    def gate_sequence(self):
        return _MIXED_GATES

    def execution_plan(self):
        return compile_gates(_MIXED_GATES, self.n_qubits)


class TestAdjointEquivalence:
    @pytest.mark.parametrize("name", ANSATZ_NAMES)
    def test_matches_parameter_shift_all_ansatze(self, name):
        ansatz = make_ansatz(name, n_qubits=4, n_layers=2)
        rng = np.random.default_rng(hash(name) % 2**32)
        params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
        ga = adjoint_grad(ansatz, params)
        gs = _shift_grad(ansatz, params)
        np.testing.assert_allclose(ga, gs, atol=1e-8, rtol=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_step_kinds_match_shift(self, seed):
        """Randomized angles over a circuit covering every fused step kind."""
        ansatz = _MixedAnsatz()
        rng = np.random.default_rng(seed)
        params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
        ga = adjoint_grad(_MIXED_GATES, params, n_qubits=3)
        gs = _shift_grad(ansatz, params)
        np.testing.assert_allclose(ga, gs, atol=1e-8, rtol=0)

    def test_crz_four_term_parameters(self):
        """cross_mesh is all-CRZ entanglement: every entangling parameter
        uses the four-term shift rule, the hardest case for sign slips."""
        ansatz = make_ansatz("cross_mesh", n_qubits=5, n_layers=2)
        rng = np.random.default_rng(11)
        params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
        np.testing.assert_allclose(
            adjoint_grad(ansatz, params), _shift_grad(ansatz, params),
            atol=1e-8, rtol=0,
        )

    def test_parameter_stack_matches_per_row(self):
        """A (K, P) stack evaluates K parameter sets in one batched sweep."""
        ansatz = make_ansatz("cross_mesh", n_qubits=4, n_layers=2)
        rng = np.random.default_rng(4)
        stack = rng.uniform(0, 2 * np.pi, (5, ansatz.param_count))
        got = adjoint_grad(ansatz, stack)
        assert got.shape == stack.shape
        want = np.stack([adjoint_grad(ansatz, row) for row in stack])
        np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)

    def test_weighted_vjp_matches_batched_shift_vjp(self):
        """Arbitrary per-batch ⟨Z⟩ cotangents give the same VJP as the
        batched parameter-shift backend."""
        ansatz = make_ansatz("cross_mesh", n_qubits=4, n_layers=2)
        gates = ansatz.gate_sequence()
        rng = np.random.default_rng(8)
        values = [rng.uniform(0, 2 * np.pi, 6) for _ in range(ansatz.param_count)]
        weights = rng.normal(size=(6, 4))
        va = adjoint_state_vjp(gates, 4, values, weights)
        vs = batched_state_shift_vjp(gates, 4, values, weights)
        for a, s in zip(va, vs):
            np.testing.assert_allclose(a, s, atol=1e-8, rtol=0)

    def test_unused_parameter_gets_zero_gradient(self):
        gates = (GateSpec("rx", (0,), (0,)),)
        grads = adjoint_state_vjp(gates, 1, [0.3, 0.7], np.ones((1, 1)))
        assert grads[1] == 0.0


class TestAdjointContract:
    def test_sweep_is_tape_free(self, monkeypatch):
        """The reverse sweep runs on raw complex ndarrays — not a single
        autodiff Tensor is constructed, so no tape can exist."""
        from repro.autodiff import tensor as ad_tensor

        ansatz = make_ansatz("cross_mesh", n_qubits=4, n_layers=2)
        gates = ansatz.gate_sequence()
        plan = compile_gates(gates, 4)
        rng = np.random.default_rng(3)
        values = [float(v) for v in rng.uniform(0, 2 * np.pi, ansatz.param_count)]
        with no_grad():
            final = plan.run(zero_state(1, 4), lambda i: values[i])

        made = []
        original = ad_tensor.Tensor.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ad_tensor.Tensor, "__init__", counting)
        grads = adjoint_state_vjp(
            gates, 4, values, np.ones((1, 4)), plan=plan, final_state=final
        )
        assert not made
        assert all(isinstance(g, float) for g in grads)

    def test_layer_rejects_create_graph(self):
        layer = QuantumLayer(
            n_qubits=3, n_layers=1, ansatz="basic_entangling", scaling="acos",
            rng=np.random.default_rng(0), grad_method="adjoint",
        )
        acts = Tensor(
            np.random.default_rng(1).uniform(-0.5, 0.5, (2, 3)),
            requires_grad=True,
        )
        out = layer(acts)
        with pytest.raises(RuntimeError, match="first-order"):
            grad((out * out).sum(), [acts], create_graph=True)

    def test_layer_rejects_unknown_grad_method(self):
        with pytest.raises(ValueError, match="grad_method"):
            QuantumLayer(
                n_qubits=2, n_layers=1, ansatz="basic_entangling",
                scaling="acos", rng=np.random.default_rng(0),
                grad_method="finite_differences",
            )


class TestLayerBackends:
    @pytest.mark.parametrize("ansatz", ["cross_mesh", "basic_entangling"])
    def test_all_backends_agree(self, ansatz):
        rng = np.random.default_rng(7)
        acts = rng.uniform(-0.9, 0.9, (6, 4))
        results = {}
        for method in GRAD_METHODS:
            layer = QuantumLayer(
                n_qubits=4, n_layers=2, ansatz=ansatz, scaling="acos",
                rng=np.random.default_rng(1), grad_method=method,
            )
            a = Tensor(acts, requires_grad=True)
            out = layer(a)
            backward((out * out).mean(), layer.parameters() + [a])
            results[method] = (
                out.data.copy(), layer.params.grad.copy(), a.grad.copy()
            )
        ref = results["backprop"]
        for method in ("adjoint", "parameter_shift"):
            for got, want in zip(results[method], ref):
                np.testing.assert_allclose(got, want, atol=1e-8, rtol=0)

    @pytest.mark.parametrize("method", ["adjoint", "parameter_shift"])
    def test_repeated_grads_through_one_output_are_fresh(self, method):
        # Both VJPs of the layer share one sweep per cotangent; a memo
        # keyed on id(ct) could hand a later grad() call, whose cotangent
        # reuses a freed id, the earlier call's gradients.
        layer = QuantumLayer(
            n_qubits=3, n_layers=1, ansatz="basic_entangling",
            scaling="acos", rng=np.random.default_rng(0), grad_method=method,
        )
        a = Tensor(np.random.default_rng(1).uniform(-0.9, 0.9, (4, 3)),
                   requires_grad=True)
        out = layer(a)
        for trial in range(29):
            k = 2.0 + trial
            scaled = grad((out * k).sum(), [a, layer.params])
            plain = grad(out.sum(), [a, layer.params])
            for gk, g in zip(scaled, plain):
                np.testing.assert_allclose(gk.data, k * g.data,
                                           rtol=1e-12, atol=1e-12)

    def test_pde_trainer_wires_grad_method(self):
        from repro.pde.model import GenericPINN
        from repro.pde.problems import PoissonProblem
        from repro.pde.trainer import PDETrainer, PDETrainerConfig

        problem = PoissonProblem()
        model = GenericPINN(
            in_dim=2, out_dim=1, hidden=8, n_hidden=1,
            quantum="basic_entangling", n_qubits=3, n_layers=1,
            rng=np.random.default_rng(0),
        )
        assert model.quantum.grad_method == "backprop"
        PDETrainer(model, problem, PDETrainerConfig(
            epochs=1, quantum_grad_method="adjoint"))
        assert model.quantum.grad_method == "adjoint"
        with pytest.raises(ValueError, match="quantum_grad_method"):
            PDETrainer(model, problem, PDETrainerConfig(
                epochs=1, quantum_grad_method="nope"))
        classical = GenericPINN(
            in_dim=2, out_dim=1, hidden=8, n_hidden=1,
            rng=np.random.default_rng(0),
        )
        PDETrainer(classical, problem, PDETrainerConfig(
            epochs=1, quantum_grad_method="adjoint"))  # no-op, no error


class TestPlanCacheLRU:
    def test_lru_eviction_order_and_counters(self, monkeypatch):
        torq_compile.clear_plan_cache()
        monkeypatch.setattr(torq_compile, "_PLAN_CACHE_MAX", 2)
        g = (GateSpec("rx", (0,), (0,)),)
        p1 = torq_compile.compile_gates(g, 1)
        p2 = torq_compile.compile_gates(g, 2)
        assert torq_compile.compile_gates(g, 1) is p1  # refresh p1 → p2 is LRU
        p3 = torq_compile.compile_gates(g, 3)  # over capacity: evicts p2
        info = torq_compile.plan_cache_info()
        assert info["evictions"] == 1 and info["size"] == 2
        assert torq_compile.compile_gates(g, 1) is p1  # survived (recently used)
        assert torq_compile.compile_gates(g, 3) is p3
        p2b = torq_compile.compile_gates(g, 2)  # recompiled: evicts the LRU
        assert p2b is not p2
        info = torq_compile.plan_cache_info()
        assert info["evictions"] == 2
        assert info["hits"] == 3 and info["misses"] == 4
        torq_compile.clear_plan_cache()

    def test_clear_resets_counters(self):
        torq_compile.clear_plan_cache()
        info = torq_compile.plan_cache_info()
        assert info["size"] == 0
        assert info["hits"] == info["misses"] == info["evictions"] == 0


class TestZeroStateCache:
    def test_repeated_calls_share_frozen_base(self):
        _clear_zero_cache()
        s1 = zero_state(2, 3)
        s2 = zero_state(2, 3)
        assert s1.tensor.re.data is s2.tensor.re.data
        assert not s1.tensor.re.data.flags.writeable

    def test_gradients_do_not_alias_across_calls(self):
        """Regression: two training runs seeded from the cached base must
        produce bit-identical gradients to a fresh-cache run (gates never
        write the shared |0…0⟩ buffer in place)."""

        def grads_once():
            layer = QuantumLayer(
                n_qubits=3, n_layers=1, ansatz="basic_entangling",
                scaling="acos", rng=np.random.default_rng(0),
            )
            acts = Tensor(
                np.random.default_rng(1).uniform(-0.5, 0.5, (4, 3))
            )
            out = layer(acts)
            backward((out * out).sum(), layer.parameters())
            return layer.params.grad.copy()

        _clear_zero_cache()
        fresh = grads_once()  # populates the cache
        cached = grads_once()  # reuses the frozen base
        np.testing.assert_array_equal(cached, fresh)
        # and the base itself is still pristine
        amps = zero_state(4, 3).numpy()
        expected = np.zeros((4, 8), dtype=complex)
        expected[:, 0] = 1.0
        np.testing.assert_array_equal(amps, expected)
