"""Randomized verification campaigns and figure-data generation.

The campaign draws (spectrum, time, basis) triples, builds the resulting
gate, and checks the drawn time against all five trace bounds plus the
rotation-enumeration dominance record.  Each dimension runs as stacked
arrays through one draw, eigenphase and window path.  Figure helpers
emit the curve data behind the qubit exact-time plot, the qubit MUB-time
plot and the two qutrit MUB family plots.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds
from .catalog import MubFamily, QutritMubParams, qutrit_mub
from .linalg import random_unitaries, trace_abs
from .minimal_time import DOMINANCE_TOL, dominance, eigenphases, enumerate_rotations
from .spectrum import EnergySpectrum, level_stats

DEFAULT_QUTRIT_X = (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0, math.pi)

SPECTRUM_HIGH = 10.0
TIME_HIGH = 2.0

# Matrix entries per stacked chunk of campaign draws.
CHUNK_ENTRIES = 2**16


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


def _draws(n: int, seed: int, indices):
    """Campaign draws ``indices`` at dimension ``n``, as stacks.

    Each draw has its own RNG stream keyed by ``(seed, n, index)``, so a
    draw is the same whatever stack it is made in.  Returns sorted levels
    ``(k, n)``, times ``(k,)`` and gates ``(k, n, n)``.
    """
    levels = np.empty((len(indices), n))
    t = np.empty(len(indices))
    basis_seeds = []
    for i, index in enumerate(indices):
        rng = np.random.default_rng((seed, n, index))
        levels[i] = rng.uniform(0.0, SPECTRUM_HIGH, n)
        t[i] = TIME_HIGH * (1.0 - rng.uniform())
        basis_seeds.append(int(rng.integers(0, 2**63 - 1)))
    levels.sort(axis=-1)
    basis = random_unitaries(n, basis_seeds)
    phases = np.exp(-1j * levels * t[:, None])
    u = (basis * phases[:, None, :]) @ np.swapaxes(basis.conj(), -1, -2)
    return levels, t, u


def sample_spectrum_gate(n: int, seed: int, index: int):
    """Draw campaign sample ``index`` at dimension ``n``.

    Levels are uniform on [0, 10], the time uniform on (0, 2] (so the
    products E_k*T regularly exceed 2 pi and exercise branch wrapping),
    and the eigenbasis is Haar.  The gate ``basis diag(e^{-i E_k T})
    basis†`` is built from the drawn basis directly.  Returns
    (spectrum, T, U); the campaign makes the same draw in a stack.
    """
    levels, t, u = _draws(n, seed, [index])
    return EnergySpectrum(levels[0]), float(t[0]), u[0]


def _draw_margins(levels: np.ndarray, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Worst margin of each draw over the five time bounds and the
    five rotation-product bounds."""
    d = dominance(u)
    bs = bounds.bounds_from_products(d.ml, d.mt, level_stats(levels))
    worst_bound = np.maximum.reduce([bs.ml, bs.mt, bs.dual_ml, bs.width_ml, bs.width_mt])
    return np.minimum(t - worst_bound, d.margins.min(axis=0))


def run_random_campaign(dims, samples_per_dim: int, seed: int) -> VerificationReport:
    """Dominance campaign; failures are counted, never raised.

    Each dimension runs as stacks of at most ``CHUNK_ENTRIES`` matrix
    entries, so memory stays flat whatever the sample count.
    """
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
        chunk = max(1, CHUNK_ENTRIES // (n * n))
        for first in range(0, samples_per_dim, chunk):
            indices = range(first, min(first + chunk, samples_per_dim))
            margin = _draw_margins(*_draws(n, seed, indices))
            worst = min(worst, float(margin.min()))
            failures += int(np.count_nonzero(margin < -DOMINANCE_TOL))
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
