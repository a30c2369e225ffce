"""Angle embedding and the paper's five input-scaling schemes (Eq. 29a–e).

The classical trunk ends in a tanh, so the values ``a`` entering the PQC
lie in [-1, 1].  Each scaling maps ``a`` to a rotation angle θ for the RX
embedding; with a Z readout the single-qubit response is ⟨Z⟩ = cos θ, which
is what Fig. 3 analyses:

* ``none``: θ = a              ∈ [-1, 1]
* ``pi``:   θ = aπ             ∈ [-π, π]
* ``bias``: θ = (a+1)π/2       ∈ [0, π]
* ``asin``: θ = arcsin(a)+π/2  ∈ [0, π]   (⟨Z⟩ = −a, sign-flipped identity)
* ``acos``: θ = arccos(a)      ∈ [0, π]   (⟨Z⟩ = a, exact identity)
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor, as_tensor
from .complexnum import ComplexTensor
from .state import QuantumState, apply_rx

__all__ = [
    "SCALING_NAMES",
    "scale_input",
    "scaling_fn",
    "angle_embedding",
    "angle_product_state",
    "single_qubit_z_response",
]

_HALF_PI = np.pi / 2.0
# tanh outputs can round to exactly ±1 in floating point, where the
# arcsin/arccos derivative diverges; shrink into the open interval.
_ARC_EPS = 1e-9


def _scale_none(a: Tensor) -> Tensor:
    return a


def _scale_pi(a: Tensor) -> Tensor:
    return a * np.pi


def _scale_bias(a: Tensor) -> Tensor:
    return (a + 1.0) * _HALF_PI


def _scale_asin(a: Tensor) -> Tensor:
    return ad.arcsin(ad.clip(a, -1.0 + _ARC_EPS, 1.0 - _ARC_EPS)) + _HALF_PI


def _scale_acos(a: Tensor) -> Tensor:
    return ad.arccos(ad.clip(a, -1.0 + _ARC_EPS, 1.0 - _ARC_EPS))


_SCALINGS: dict[str, Callable[[Tensor], Tensor]] = {
    "none": _scale_none,
    "pi": _scale_pi,
    "bias": _scale_bias,
    "asin": _scale_asin,
    "acos": _scale_acos,
}

SCALING_NAMES: tuple[str, ...] = tuple(_SCALINGS)


def scaling_fn(name: str) -> Callable[[Tensor], Tensor]:
    """Look up one of the Eq. 29 scalings by name."""
    try:
        return _SCALINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown scaling {name!r}; available: {SCALING_NAMES}"
        ) from None


def scale_input(name: str, a) -> Tensor:
    """Apply scaling ``name`` to activations ``a`` (any shape)."""
    return scaling_fn(name)(as_tensor(a))


def angle_embedding(state: QuantumState, angles: Tensor) -> QuantumState:
    """Rotate qubit ``q`` by RX(angles[:, q]) — the paper's data encoding.

    Works on any input state (data re-uploading embeds mid-circuit); to
    embed into |0…0⟩, :func:`angle_product_state` gives the same state
    with a much smaller graph.
    """
    angles = as_tensor(angles)
    if angles.ndim != 2 or angles.shape[1] != state.n_qubits:
        raise ValueError(
            f"angles must be (batch, {state.n_qubits}), got {angles.shape}"
        )
    for q in range(state.n_qubits):
        state = apply_rx(state, q, angles[:, q])
    return state


@functools.lru_cache(maxsize=None)
def _phase_planes(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of (−i)^k over the ``(2,)*n`` basis grid, k = popcount."""
    k = np.indices((2,) * n_qubits).sum(axis=0) % 4
    re = np.array([1.0, 0.0, -1.0, 0.0])[k]
    im = np.array([0.0, -1.0, 0.0, 1.0])[k]
    re.flags.writeable = False
    im.flags.writeable = False
    return re, im


def angle_product_state(angles: Tensor) -> QuantumState:
    """RX(angles[:, q]) applied to every qubit of |0…0⟩, built directly.

    The embedded state is a product state: qubit ``q`` contributes the
    factor (cos θ_q/2, −i sin θ_q/2), so each amplitude is the real
    product of one cos or sin per qubit times (−i)^k, k the number of
    qubits in |1⟩.  Multiplying the factors in qubit order reproduces
    :func:`angle_embedding` on :func:`~repro.torq.state.zero_state`
    bitwise, with a few small broadcast products instead of ``n_qubits``
    full-state gate applications.
    """
    angles = as_tensor(angles)
    if angles.ndim != 2:
        raise ValueError(f"angles must be (batch, n_qubits), got {angles.shape}")
    batch, n = angles.shape
    half = angles * 0.5
    factors = ad.stack([ad.cos(half), ad.sin(half)], axis=2)  # (batch, n, 2)
    mag = None
    for q in range(n):
        shape = (batch,) + (1,) * q + (2,) + (1,) * (n - 1 - q)
        f = ad.reshape(factors[:, q], shape)
        mag = f if mag is None else mag * f
    re, im = _phase_planes(n)
    return QuantumState(ComplexTensor(mag * re, mag * im), n)


def single_qubit_z_response(name: str, a: np.ndarray) -> np.ndarray:
    """Analytic ⟨Z⟩ = cos(scale(a)) for Fig. 3's single-qubit analysis."""
    t = scale_input(name, np.asarray(a, dtype=np.float64))
    return np.cos(t.data)
