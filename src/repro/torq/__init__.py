"""``repro.torq`` — TorQ: Tensor Operations for Research in Quantum systems.

A reimplementation of the paper's in-house quantum simulation library:
batched, differentiable statevector simulation where the quantum state of
*every collocation point* evolves in one tensor operation per gate.  The
same circuit descriptions also run on a deliberately naive per-point dense
simulator (:class:`NaiveSimulator`) that stands in for PennyLane's
``default.qubit`` in the Table 2 performance comparison.
"""

from .ansatz import (
    ANSATZ_NAMES,
    Ansatz,
    BasicEntanglingLayers,
    CrossMesh,
    CrossMesh2Rotations,
    CrossMeshCNOT,
    GateSpec,
    NoEntanglement,
    StronglyEntanglingLayers,
    apply_ansatz,
    make_ansatz,
)
from .circuit import Circuit
from .density import DensityMatrixSimulator
from .qasm import to_qasm
from .complexnum import ComplexTensor, as_complex, expi
from .embedding import (
    SCALING_NAMES,
    angle_embedding,
    angle_product_state,
    scale_input,
    scaling_fn,
    single_qubit_z_response,
)
from .entanglement import meyer_wallach, single_qubit_purities
from .adjoint import adjoint_grad, adjoint_state_vjp
from .layer import (
    GRAD_METHODS,
    INIT_STRATEGIES,
    QuantumLayer,
    initial_circuit_params,
)
from .measure import (
    marginal_probability,
    pauli_string_expectation,
    pauli_z_expectations,
    sampled_z_expectations,
)
from .analysis import (
    entangling_capability,
    expressibility,
    gradient_variance_scan,
    random_circuit_states,
)
from .noise import NoiseModel, noisy_z_expectations
from .qng import fubini_study_metric, qng_direction, state_jacobian
from .reupload import ReuploadingQuantumLayer
from .compile import (
    ExecutionPlan,
    clear_plan_cache,
    compile_gates,
    pin_plan,
    plan_cache_info,
    unpin_plan,
)
from .reference import NaiveSimulator, gate_matrix, run_gates
from .shift import (
    batched_parameter_shift_grad,
    batched_state_shift_vjp,
    classify_parameters,
    make_batched_ansatz_forward,
    parameter_shift_grad,
    shift_table,
)
from .state import (
    QuantumState,
    apply_cnot,
    apply_crz,
    apply_hadamard,
    apply_phase_on,
    apply_rot,
    apply_rx,
    apply_ry,
    apply_rz,
    apply_single_qubit,
    apply_x,
    apply_y,
    apply_z,
    zero_state,
)

__all__ = [
    "Circuit", "DensityMatrixSimulator", "to_qasm",
    "ComplexTensor", "as_complex", "expi",
    "QuantumState", "zero_state",
    "apply_single_qubit", "apply_rx", "apply_ry", "apply_rz", "apply_rot",
    "apply_phase_on", "apply_cnot", "apply_crz", "apply_hadamard",
    "apply_x", "apply_y", "apply_z",
    "GateSpec", "Ansatz", "ANSATZ_NAMES", "make_ansatz", "apply_ansatz",
    "BasicEntanglingLayers", "StronglyEntanglingLayers", "CrossMesh",
    "CrossMesh2Rotations", "CrossMeshCNOT", "NoEntanglement",
    "SCALING_NAMES", "scaling_fn", "scale_input", "angle_embedding",
    "angle_product_state",
    "single_qubit_z_response",
    "pauli_z_expectations", "sampled_z_expectations", "marginal_probability",
    "pauli_string_expectation",
    "meyer_wallach", "single_qubit_purities",
    "QuantumLayer", "GRAD_METHODS", "INIT_STRATEGIES", "initial_circuit_params",
    "ExecutionPlan", "compile_gates", "clear_plan_cache", "plan_cache_info",
    "pin_plan", "unpin_plan",
    "NaiveSimulator", "gate_matrix", "run_gates",
    "parameter_shift_grad", "batched_parameter_shift_grad",
    "batched_state_shift_vjp",
    "classify_parameters", "shift_table", "make_batched_ansatz_forward",
    "adjoint_grad", "adjoint_state_vjp",
    "ReuploadingQuantumLayer", "NoiseModel", "noisy_z_expectations",
    "expressibility", "entangling_capability", "random_circuit_states",
    "gradient_variance_scan",
    "fubini_study_metric", "qng_direction", "state_jacobian",
]
