"""Lowering configuration: the precision tier and two execution flags.

A :class:`LoweringConfig` is the single value threaded from user-facing
config surfaces (``QuantumLayer(precision=...)``, trainer configs) down to
:func:`repro.lower.lower_compiled`.  It is hashable and exposes
:meth:`key`, which every lowered-artifact cache incorporates so **tiers
never alias**: a float32 plan and a float64 plan of the same circuit live
under different cache keys, as do planned and unplanned ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PRECISION_TIERS", "LoweringConfig"]

#: Supported precision tiers for lowered execution.
#: ``float64`` is the seed path (complex128 statevectors, bitwise
#: identical); ``float32`` runs state-sized work in float32/complex64.
PRECISION_TIERS: tuple[str, ...] = ("float64", "float32")

_REAL_DTYPES = {"float64": np.float64, "float32": np.float32}
_COMPLEX_DTYPES = {"float64": np.complex128, "float32": np.complex64}


@dataclass(frozen=True)
class LoweringConfig:
    """Precision tier + execution flags for lowering a frozen artifact.

    ``precision`` selects the tier ("float64" keeps the seed arithmetic,
    "float32" runs state-sized kernels in float32/complex64 inside the
    documented error budget).

    ``plan_memory`` opts the plan into in-place execution over a
    preallocated arena (:mod:`repro.lower.inplace`): plane ping-pongs,
    pack buffers and adjoint carriers are liveness-planned into shared
    slots and the warm path performs zero statevector-sized allocations.

    ``autotune`` makes the planned executor pick fused-run kernels per
    shape class by microbenchmark (:mod:`repro.lower.autotune`) instead
    of the built-in heuristic.  It needs ``precision="float32"`` and
    ``plan_memory=True`` (float64 kernels are pinned for bitwise
    equality); any other combination raises ``ValueError``.
    """

    precision: str = "float64"
    plan_memory: bool = False
    autotune: bool = False

    def __post_init__(self):
        if self.precision not in PRECISION_TIERS:
            raise ValueError(
                f"unknown precision tier {self.precision!r}; "
                f"available: {PRECISION_TIERS}"
            )
        if self.autotune and (
            self.precision != "float32" or not self.plan_memory
        ):
            raise ValueError(
                "autotune=True needs precision='float32' and "
                "plan_memory=True (float64 kernels are pinned for bitwise "
                f"equality); got precision={self.precision!r}, "
                f"plan_memory={self.plan_memory}"
            )

    # ------------------------------------------------------------------
    @property
    def rdtype(self) -> np.dtype:
        """Real dtype of this tier (statevector planes, angles, masks)."""
        return np.dtype(_REAL_DTYPES[self.precision])

    @property
    def cdtype(self) -> np.dtype:
        """Complex dtype of this tier (adjoint-sweep carriers)."""
        return np.dtype(_COMPLEX_DTYPES[self.precision])

    def key(self) -> tuple:
        """Hashable identity for artifact caches.

        A planned artifact carries bound arenas and kernel decisions an
        unplanned one does not, so both flags are part of the identity.
        """
        return (self.precision, self.plan_memory, self.autotune)
