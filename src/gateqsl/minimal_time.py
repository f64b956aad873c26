"""Exact minimal-time products for a unitary via branch enumeration.

A unitary's eigenvalues ``e^{-i E_k T}`` pin each product ``E_k T`` only
modulo 2 pi, and any eigenphase may play the role of the ground level.
Enumerating the n cyclic choices of ground phase (each phase in turn
starts a half-open 2 pi window holding all the others) covers every
canonical Hamiltonian realizing the gate, and no other integer branch
assignment can do better: lowering by 2 pi any value at least 2 pi above
the minimum shrinks the mean and the width, and lowering any value more
than pi above the mean shrinks the spread around that mean and hence
the variance.  Either move stays within the valid assignments, so the
minimizers of all three products live inside a 2 pi window, and the
in-window assignments are exactly the n cyclic rotations.

For each rotation this module records the dimensionless products
``E*T`` (mean above ground), ``dE*T`` (population std), ``width*T`` and
the dual gap ``(E_max - mean)*T``, and checks each one against the
corresponding trace bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import ml_product, mt_product
from .linalg import TOL, complex_matrix, is_unitary, trace_abs

TWO_PI = 2.0 * np.pi

DOMINANCE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PhaseVector:
    """Eigenphases of a unitary, sorted ascending within [0, 2 pi)."""

    phases: np.ndarray

    def __post_init__(self):
        arr = np.sort(np.asarray(self.phases, dtype=np.float64))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("need at least one phase")
        if not np.all(np.isfinite(arr)):
            raise ValueError("phases must be finite")
        if arr[0] < 0.0 or arr[-1] >= TWO_PI:
            raise ValueError("phases must lie in [0, 2*pi)")
        arr.flags.writeable = False
        object.__setattr__(self, "phases", arr)

    def __eq__(self, other):
        return isinstance(other, PhaseVector) and np.array_equal(self.phases, other.phases)

    def __hash__(self):
        return hash(self.phases.tobytes())

    @property
    def n(self) -> int:
        return self.phases.size


@dataclass(frozen=True)
class RotationProducts:
    """Dimensionless products of one canonical ground-level choice."""

    e_t: float
    var_t: float
    width_t: float
    dual_t: float


@dataclass(frozen=True)
class ExactTimeProfile:
    rotations: tuple[RotationProducts, ...]
    min_e_t: float
    min_var_t: float
    min_width_t: float


@dataclass(frozen=True)
class VerificationRecord:
    """Signed worst-case margins (measured minus bound) over all rotations."""

    n: int
    trace_ratio: float
    ml_margin: float
    mt_margin: float
    dual_ml_margin: float
    width_ml_margin: float
    width_mt_margin: float
    passed: bool

    @property
    def worst(self) -> float:
        return min(
            self.ml_margin,
            self.mt_margin,
            self.dual_ml_margin,
            self.width_ml_margin,
            self.width_mt_margin,
        )


def eigenphases(u) -> PhaseVector:
    """Phases phi_k in [0, 2 pi) with eigenvalues(u) = {e^{-i phi_k}}."""
    u = complex_matrix(u)
    if not is_unitary(u, TOL.reconstruction):
        raise ValueError(f"matrix is not unitary to tolerance {TOL.reconstruction:g}")
    ph = (-np.angle(np.linalg.eigvals(u))) % TWO_PI
    # wrapping a phase an ulp below zero rounds to exactly 2 pi
    ph[ph >= TWO_PI] = 0.0
    return PhaseVector(ph)


def enumerate_rotations(p: PhaseVector) -> ExactTimeProfile:
    """Products for every canonical rotation of the phase multiset.

    Rotation j lifts the phases below phi_j by 2 pi, so all values sit in
    the window [phi_j, phi_j + 2 pi).  Rotations starting on a repeated
    phase duplicate an already-enumerated window and are skipped.
    """
    ph = p.phases
    rotations = []
    for j in range(p.n):
        if j > 0 and ph[j] == ph[j - 1]:
            continue
        theta = np.concatenate((ph[j:], ph[:j] + TWO_PI))
        mean = float(theta.mean())
        rotations.append(
            RotationProducts(
                e_t=mean - float(theta[0]),
                var_t=float(theta.std()),
                width_t=float(theta[-1] - theta[0]),
                dual_t=float(theta[-1]) - mean,
            )
        )
    return ExactTimeProfile(
        rotations=tuple(rotations),
        min_e_t=min(r.e_t for r in rotations),
        min_var_t=min(r.var_t for r in rotations),
        min_width_t=min(r.width_t for r in rotations),
    )


def verify_dominance(u, tol: float = DOMINANCE_TOL) -> VerificationRecord:
    """Check every rotation of ``u`` against all five trace bounds.

    A failed check is reported in the record (negative margin, passed
    False), never raised.
    """
    u = complex_matrix(u)
    n = u.shape[0]
    ratio = min(1.0, trace_abs(u) / n)
    profile = enumerate_rotations(eigenphases(u))
    ml = ml_product(ratio)
    mt = mt_product(ratio)
    rots = profile.rotations
    margins = {
        "ml_margin": min(r.e_t - ml for r in rots),
        "mt_margin": min(r.var_t - mt for r in rots),
        "dual_ml_margin": min(r.dual_t - ml for r in rots),
        "width_ml_margin": min(r.width_t - 2.0 * ml for r in rots),
        "width_mt_margin": min(r.width_t - 2.0 * mt for r in rots),
    }
    return VerificationRecord(
        n=n,
        trace_ratio=ratio,
        passed=min(margins.values()) >= -tol,
        **margins,
    )
