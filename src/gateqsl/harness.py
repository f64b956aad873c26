"""Randomized verification campaigns and figure-data generation.

The campaign draws (spectrum, time, basis) triples, builds the resulting
gate, and checks the drawn time against all five trace bounds plus the
rotation-enumeration dominance record.  Figure helpers emit the curve
data behind the qubit exact-time plot, the qubit MUB-time plot and the
two qutrit MUB family plots.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds
from .catalog import MubFamily, QutritMubParams, qutrit_mub
from .linalg import random_unitary, trace_abs
from .minimal_time import DOMINANCE_TOL, eigenphases, enumerate_rotations, verify_dominance
from .spectrum import EnergySpectrum, compute_stats

DEFAULT_QUTRIT_X = (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0, math.pi)

SPECTRUM_HIGH = 10.0
TIME_HIGH = 2.0


@dataclass(frozen=True)
class VerificationReport:
    samples: int
    failures: int
    worst_margin: float
    seed: int
    dims: tuple[int, ...]
    elapsed: float

    def as_json_dict(self) -> dict:
        """Deterministic payload: wall-clock time is deliberately excluded
        so identical runs serialize identically."""
        return {
            "samples": self.samples,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "dims": list(self.dims),
        }


@dataclass(frozen=True)
class CurvePoint:
    """One figure row; ``mt`` is None where that column does not apply."""

    abscissa: float
    exact: float
    ml: float
    mt: float | None


def sample_spectrum_gate(n: int, seed: int, index: int):
    """Draw campaign sample ``index`` at dimension ``n``.

    Levels are uniform on [0, 10], the time uniform on (0, 2] (so the
    products E_k*T regularly exceed 2 pi and exercise branch wrapping),
    and the eigenbasis is Haar.  The gate ``basis diag(e^{-i E_k T})
    basis†`` is built from the drawn basis directly.  Returns
    (spectrum, T, U).
    """
    rng = np.random.default_rng((seed, n, index))
    spectrum = EnergySpectrum(rng.uniform(0.0, SPECTRUM_HIGH, n))
    t = TIME_HIGH * (1.0 - rng.uniform())
    basis = random_unitary(n, int(rng.integers(0, 2**63 - 1)))
    u = (basis * np.exp(-1j * spectrum.levels * t)) @ basis.conj().T
    return spectrum, t, u


def run_random_campaign(dims, samples_per_dim: int, seed: int) -> VerificationReport:
    """Dominance campaign; failures are counted, never raised."""
    dims = tuple(int(d) for d in dims)
    if not dims or min(dims) < 2:
        raise ValueError("dims must be a nonempty list of integers >= 2")
    if samples_per_dim < 1:
        raise ValueError("need at least one sample per dimension")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    started = time.perf_counter()
    failures = 0
    worst = math.inf
    for n in dims:
        for index in range(samples_per_dim):
            spectrum, t, u = sample_spectrum_gate(n, seed, index)
            stats = compute_stats(spectrum)
            bs = bounds.bound_set(bounds.TraceInput(n, trace_abs(u)), stats)
            record = verify_dominance(u)
            margin = min(
                t - bs.ml,
                t - bs.mt,
                t - bs.dual_ml,
                t - bs.width_ml,
                t - bs.width_mt,
                record.worst,
            )
            worst = min(worst, margin)
            if margin < -DOMINANCE_TOL:
                failures += 1
    return VerificationReport(
        samples=len(dims) * samples_per_dim,
        failures=failures,
        worst_margin=worst,
        seed=seed,
        dims=dims,
        elapsed=time.perf_counter() - started,
    )


def _checked_point(abscissa: float, exact: float, ml: float, mt: float | None) -> CurvePoint:
    ml = float(ml)
    mt = None if mt is None else float(mt)
    limit = ml if mt is None else max(ml, mt)
    if exact < limit - DOMINANCE_TOL:
        raise RuntimeError(
            f"dominance violated at abscissa {abscissa}: exact {exact} < bound {limit}"
        )
    return CurvePoint(abscissa=abscissa, exact=float(exact), ml=ml, mt=mt)


def figure_qubit(points: int) -> list[CurvePoint]:
    """Exact qubit time arccos(|tr U|/2) vs the two bounds, over |tr U| in [0, 2].

    Everything is expressed as E*T with the qubit identity dE = E, so
    both bound columns live on the same axis as the exact curve.
    """
    if points < 2:
        raise ValueError("need at least two grid points")
    out = []
    for a in np.linspace(0.0, 2.0, points):
        ratio = a / 2.0
        out.append(
            _checked_point(
                abscissa=float(a),
                exact=math.acos(min(1.0, ratio)),
                ml=bounds.ml_product(ratio),
                mt=bounds.mt_product(ratio),
            )
        )
    return out


def figure_qubit_mub(points: int) -> list[CurvePoint]:
    """E*T for reaching a qubit MUB partner basis, as a function of alpha in [0, pi].

    The trace modulus is sqrt(2)|cos alpha|; the minimum time pi/4 sits
    at the endpoints and the maximum pi/2 at alpha = pi/2.
    """
    if points < 2:
        raise ValueError("need at least two grid points")
    out = []
    for alpha in np.linspace(0.0, math.pi, points):
        tr = math.sqrt(2.0) * abs(math.cos(alpha))
        ratio = tr / 2.0
        out.append(
            _checked_point(
                abscissa=float(alpha),
                exact=math.acos(min(1.0, ratio)),
                ml=bounds.ml_product(ratio),
                mt=bounds.mt_product(ratio),
            )
        )
    return out


def figure_qutrit(family: MubFamily, x_values=DEFAULT_QUTRIT_X,
                  y_points: int = 100) -> list[CurvePoint]:
    """Minimum-rotation E*T vs the dimensionless ML bound for a qutrit family.

    One block of rows per x value, each sweeping y over [0, 2 pi]; the
    abscissa column is y.  The exact column takes the smallest E*T over
    all canonical rotations, matching the most favorable energy ordering.
    """
    if y_points < 2:
        raise ValueError("need at least two grid points")
    out = []
    for x in x_values:
        for y in np.linspace(0.0, 2.0 * math.pi, y_points):
            u = qutrit_mub(QutritMubParams(family=family, x=float(x), y=float(y)))
            profile = enumerate_rotations(eigenphases(u))
            ratio = min(1.0, trace_abs(u) / 3.0)
            out.append(
                _checked_point(
                    abscissa=float(y),
                    exact=profile.min_e_t,
                    ml=bounds.ml_product(ratio),
                    mt=None,
                )
            )
    return out
