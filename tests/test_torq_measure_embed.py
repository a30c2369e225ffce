"""Measurement and input-scaling (embedding) tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import torq
from repro.autodiff import Tensor
from repro.autodiff.gradcheck import check_double_grad, check_grad
from repro.torq import (
    SCALING_NAMES,
    angle_embedding,
    angle_product_state,
    marginal_probability,
    pauli_z_expectations,
    sampled_z_expectations,
    scale_input,
    scaling_fn,
    single_qubit_z_response,
)
from repro.torq.state import apply_hadamard, apply_rx, apply_x, zero_state


class TestPauliZ:
    def test_zero_state_gives_plus_one(self):
        z = pauli_z_expectations(zero_state(2, 3))
        np.testing.assert_allclose(z.data, 1.0)

    def test_flipped_qubit_gives_minus_one(self):
        z = pauli_z_expectations(apply_x(zero_state(1, 3), 1))
        np.testing.assert_allclose(z.data, [[1.0, -1.0, 1.0]])

    def test_hadamard_gives_zero(self):
        z = pauli_z_expectations(apply_hadamard(zero_state(1, 2), 0))
        np.testing.assert_allclose(z.data, [[0.0, 1.0]], atol=1e-15)

    def test_rx_gives_cosine(self):
        theta = 0.9
        z = pauli_z_expectations(apply_rx(zero_state(1, 1), 0, theta))
        np.testing.assert_allclose(z.data, [[np.cos(theta)]], atol=1e-14)

    def test_bounded_in_minus_one_one(self, rng):
        state = zero_state(4, 3)
        for q in range(3):
            state = apply_rx(state, q, Tensor(rng.uniform(0, 2 * np.pi, 4)))
        z = pauli_z_expectations(state).data
        assert np.all(z <= 1.0 + 1e-12) and np.all(z >= -1.0 - 1e-12)

    def test_marginal_probability_sums_to_one(self):
        state = apply_rx(zero_state(3, 2), 0, Tensor(np.array([0.1, 1.0, 2.0])))
        m = marginal_probability(state, 0)
        np.testing.assert_allclose(m.data.sum(axis=1), 1.0)


class TestSampledZ:
    def test_matches_analytic_in_expectation(self, rng):
        state = apply_rx(zero_state(2, 2), 0, Tensor(np.array([0.7, 2.1])))
        analytic = pauli_z_expectations(state).data
        sampled = sampled_z_expectations(state, shots=20000, rng=rng)
        np.testing.assert_allclose(sampled, analytic, atol=0.05)

    def test_deterministic_state_exact(self, rng):
        sampled = sampled_z_expectations(apply_x(zero_state(1, 2), 0), shots=100, rng=rng)
        np.testing.assert_allclose(sampled, [[-1.0, 1.0]])

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sampled_z_expectations(zero_state(1, 1), shots=0)


class TestScalings:
    def test_all_five_present(self):
        assert set(SCALING_NAMES) == {"none", "pi", "bias", "asin", "acos"}

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            scaling_fn("nope")

    @pytest.mark.parametrize(
        "name,lo,hi",
        [("none", -1, 1), ("pi", -np.pi, np.pi), ("bias", 0, np.pi),
         ("asin", 0, np.pi), ("acos", 0, np.pi)],
    )
    def test_ranges(self, name, lo, hi, rng):
        a = rng.uniform(-1, 1, 200)
        theta = scale_input(name, a).data
        assert theta.min() >= lo - 1e-9 and theta.max() <= hi + 1e-9

    def test_acos_is_identity_readout(self, rng):
        """Paper Fig. 3a: scale_acos gives <Z> = a exactly."""
        a = rng.uniform(-0.99, 0.99, 50)
        np.testing.assert_allclose(single_qubit_z_response("acos", a), a, atol=1e-8)

    def test_asin_is_sign_flip_readout(self, rng):
        """Paper Fig. 3a: scale_asin gives <Z> = -a."""
        a = rng.uniform(-0.99, 0.99, 50)
        np.testing.assert_allclose(single_qubit_z_response("asin", a), -a, atol=1e-8)

    def test_pi_scaling_is_symmetric_around_zero(self):
        """scale_pi maps ±1 to ±π which give the SAME <Z> — the degeneracy
        the paper blames for its poor accuracy."""
        z = single_qubit_z_response("pi", np.array([-1.0, 1.0]))
        np.testing.assert_allclose(z[0], z[1])

    def test_arc_scalings_handle_exact_unit_inputs(self):
        theta = scale_input("asin", np.array([-1.0, 1.0]))
        assert np.all(np.isfinite(theta.data))

    def test_gradient_through_scalings(self, rng):
        from repro.autodiff import check_grad
        for name in SCALING_NAMES:
            check_grad(
                lambda a, n=name: scale_input(n, a).sum(),
                [rng.uniform(-0.8, 0.8, (4,))],
            )

    @given(st.floats(-0.95, 0.95))
    def test_acos_response_bounded(self, a):
        z = single_qubit_z_response("acos", np.array([a]))
        assert -1.0 - 1e-9 <= z[0] <= 1.0 + 1e-9


class TestAngleEmbedding:
    def test_embedding_gives_product_of_cosines(self, rng):
        angles = rng.uniform(0, np.pi, (3, 4))
        state = angle_embedding(zero_state(3, 4), Tensor(angles))
        z = pauli_z_expectations(state).data
        np.testing.assert_allclose(z, np.cos(angles), atol=1e-12)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            angle_embedding(zero_state(2, 3), Tensor(np.zeros((2, 2))))

    def test_zero_angles_identity(self):
        state = angle_embedding(zero_state(2, 3), Tensor(np.zeros((2, 3))))
        np.testing.assert_allclose(state.numpy()[:, 0], 1.0)


class TestAngleProductState:
    """The product-state embedding against the gate-by-gate RX loop."""

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 7])
    @pytest.mark.parametrize("low, high", [(0.0, np.pi), (-np.pi, np.pi),
                                           (-7.0, 7.0)])
    def test_forward_bitwise_equals_rx_loop(self, rng, n_qubits, low, high):
        angles = rng.uniform(low, high, (17, n_qubits))
        ref = angle_embedding(zero_state(17, n_qubits), Tensor(angles))
        got = angle_product_state(Tensor(angles))
        assert got.tensor.shape == ref.tensor.shape
        assert np.array_equal(got.tensor.re.data, ref.tensor.re.data)
        assert np.array_equal(got.tensor.im.data, ref.tensor.im.data)
        assert np.array_equal(pauli_z_expectations(got).data,
                              pauli_z_expectations(ref).data)

    def test_matches_dense_reference(self, rng):
        from repro.torq.ansatz import GateSpec
        from repro.torq.reference import run_gates, z_expectations_dense

        n = 4
        angles = rng.uniform(-np.pi, np.pi, (5, n))
        gates = [GateSpec("rx", (q,), (q,)) for q in range(n)]
        dense = run_gates(gates, [angles[:, q] for q in range(n)], n, batch=5)
        state = angle_product_state(Tensor(angles))
        np.testing.assert_allclose(state.numpy(), dense, atol=1e-14)
        np.testing.assert_allclose(pauli_z_expectations(state).data,
                                   z_expectations_dense(dense, n), atol=1e-14)

    @staticmethod
    def _readout(angles):
        state = angle_product_state(angles)
        w = np.linspace(-1.0, 1.0, state.tensor.re.size).reshape(
            state.tensor.shape)
        amps = (state.tensor.re * w + state.tensor.im * w[::-1]).sum()
        return (pauli_z_expectations(state) ** 2).sum() + amps

    def test_gradcheck(self, rng):
        check_grad(self._readout, [rng.uniform(-2.0, 2.0, (3, 3))])

    def test_gradgradcheck(self, rng):
        check_double_grad(self._readout, [rng.uniform(-2.0, 2.0, (2, 3))])

    def test_rejects_non_batched_angles(self):
        with pytest.raises(ValueError):
            angle_product_state(Tensor(np.zeros(3)))


class TestSingleProbabilityReadout:
    @pytest.mark.parametrize("n_qubits", [1, 2, 5, 7])
    def test_bitwise_equals_per_qubit_marginals(self, rng, n_qubits):
        from repro.torq.state import apply_cnot, apply_ry

        state = angle_embedding(zero_state(9, n_qubits),
                                Tensor(rng.uniform(0, np.pi, (9, n_qubits))))
        for q in range(n_qubits):
            state = apply_ry(state, q, float(rng.uniform(0, 2 * np.pi)))
        for q in range(n_qubits - 1):
            state = apply_cnot(state, q, q + 1)
        ref = np.stack([
            (lambda m: m[:, 0] - m[:, 1])(marginal_probability(state, q).data)
            for q in range(n_qubits)
        ], axis=1)
        assert np.array_equal(pauli_z_expectations(state).data, ref)


class TestPauliStringExpectation:
    def test_z_string_matches_per_qubit_product(self, rng):
        from repro.torq import pauli_string_expectation
        state = zero_state(2, 3)
        for q in range(3):
            state = apply_rx(state, q, Tensor(rng.uniform(0, np.pi, 2)))
        zz = pauli_string_expectation(state, "ZZI").data
        z = pauli_z_expectations(state).data
        # Product state: <Z0 Z1> = <Z0><Z1>.
        np.testing.assert_allclose(zz, z[:, 0] * z[:, 1], atol=1e-12)

    def test_identity_string_is_one(self):
        from repro.torq import pauli_string_expectation
        state = apply_hadamard(zero_state(1, 2), 0)
        np.testing.assert_allclose(
            pauli_string_expectation(state, "II").data, 1.0, atol=1e-14
        )

    def test_bell_state_correlators(self):
        from repro.torq import pauli_string_expectation
        from repro.torq.state import apply_cnot
        bell = apply_cnot(apply_hadamard(zero_state(1, 2), 0), 0, 1)
        np.testing.assert_allclose(pauli_string_expectation(bell, "ZZ").data, 1.0, atol=1e-14)
        np.testing.assert_allclose(pauli_string_expectation(bell, "XX").data, 1.0, atol=1e-14)
        np.testing.assert_allclose(pauli_string_expectation(bell, "YY").data, -1.0, atol=1e-14)
        np.testing.assert_allclose(pauli_string_expectation(bell, "ZI").data, 0.0, atol=1e-14)

    def test_x_on_plus_state(self):
        from repro.torq import pauli_string_expectation
        plus = apply_hadamard(zero_state(1, 1), 0)
        np.testing.assert_allclose(pauli_string_expectation(plus, "X").data, 1.0, atol=1e-14)

    def test_length_mismatch(self):
        from repro.torq import pauli_string_expectation
        with pytest.raises(ValueError):
            pauli_string_expectation(zero_state(1, 2), "Z")

    def test_invalid_letter(self):
        from repro.torq import pauli_string_expectation
        with pytest.raises(ValueError):
            pauli_string_expectation(zero_state(1, 2), "ZA")

    def test_differentiable(self):
        from repro.torq import pauli_string_expectation
        from repro.autodiff import grad
        theta = Tensor(np.array([0.7]), requires_grad=True)
        state = apply_rx(zero_state(1, 2), 0, theta)
        zz = pauli_string_expectation(state, "ZI").sum()
        (g,) = grad(zz, [theta])
        np.testing.assert_allclose(g.data, -np.sin(0.7), atol=1e-12)

    def test_matches_dense_matrix(self, rng):
        from repro.torq import pauli_string_expectation
        n = 3
        state = zero_state(1, n)
        for q in range(n):
            state = apply_rx(state, q, float(rng.uniform(0, np.pi)))
        state = torq.apply_cnot(state, 0, 2)
        paulis = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
                  "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
        string = "XYZ"
        op = np.array([[1.0]])
        for letter in string:
            op = np.kron(op, paulis[letter])
        psi = state.numpy()[0]
        expected = (psi.conj() @ op @ psi).real
        np.testing.assert_allclose(
            pauli_string_expectation(state, string).data, expected, atol=1e-12
        )
