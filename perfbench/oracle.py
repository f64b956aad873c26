"""Independent correctness oracle for the benchmark.

Nothing here imports gateqsl.  Eigenphases come from numpy's general
eigenvalue solver, the rotation enumeration is re-derived as array
arithmetic over cyclic windows, the five bounds are the paper's closed
forms, and each catalog family's |tr U| is its closed-form trace.  The
oracle runs outside the timed phase.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
ML_FACTOR = math.sqrt(1.0 + 4.0 / math.pi**2)
OMEGA = complex(math.cos(TWO_PI / 3.0), math.sin(TWO_PI / 3.0))

BOUND_NAMES = ("ml", "mt", "dual_ml", "width_ml", "width_mt")


# ---- closed-form traces |tr U| of the catalog families -------------------

def fourier_trace(n: int) -> float:
    """Quadratic Gauss sum: |tr F_n| depends only on n mod 4."""
    return (math.sqrt(2.0), 1.0, 0.0, 1.0)[n % 4]


def grover_trace(n: int) -> float:
    return n - 4.0 + 4.0 / n


def permutation_trace(perm) -> float:
    return float(sum(1 for j, image in enumerate(perm) if j == image))


def hadamard_trace(q: int) -> float:
    return 0.0


def qubit_trace(phi: float, alpha: float, beta: float, theta: float) -> float:
    return 2.0 * abs(math.cos(theta) * math.cos(alpha))


def qutrit_trace(family: int, x: float, y: float) -> float:
    w = OMEGA.conjugate() if family == 1 else OMEGA
    return abs(1.0 + w * (complex(math.cos(x), math.sin(x)) + complex(math.cos(y), math.sin(y)))) \
        / math.sqrt(3.0)


# ---- exact side: eigenphases and the cyclic rotation products ------------

def eigenphases(u) -> np.ndarray:
    """Sorted phases phi in [0, 2 pi) with eigenvalues(u) = e^{-i phi}."""
    ph = np.mod(-np.angle(np.linalg.eigvals(np.asarray(u, dtype=np.complex128))), TWO_PI)
    ph[ph >= TWO_PI] = 0.0
    return np.sort(ph)


def permutation_phases(perm) -> np.ndarray:
    """Phases of a permutation matrix from its cycle structure: a cycle of
    length L contributes the L-th roots of unity."""
    seen = [False] * len(perm)
    phases = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        phases.extend(TWO_PI * k / length for k in range(length))
    return np.sort(np.asarray(phases))


def rotation_products(phases) -> dict[str, np.ndarray]:
    """Products of every cyclic window: row j lifts the phases below
    phases[j] by 2 pi so the window starts at phases[j]."""
    ph = np.sort(np.asarray(phases, dtype=np.float64))
    n = ph.size
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    theta = ph[idx] + TWO_PI * (idx < np.arange(n)[:, None])
    mean = theta.mean(axis=1)
    return {
        "e_t": mean - theta[:, 0],
        "var_t": theta.std(axis=1),
        "width_t": theta[:, -1] - theta[:, 0],
        "dual_t": theta[:, -1] - mean,
    }


def exact_minima(phases) -> tuple[float, float, float]:
    """Minimal (E*T, dE*T, width*T) over the rotations of ``phases``."""
    rot = rotation_products(phases)
    return float(rot["e_t"].min()), float(rot["var_t"].min()), float(rot["width_t"].min())


# ---- the paper's five bounds --------------------------------------------

def ml_product(r: float) -> float:
    return max(0.0, 0.5 * math.pi * (1.0 - r * ML_FACTOR))


def mt_product(r: float) -> float:
    return math.sqrt(max(0.0, 1.0 - r * r))


def margins(phases, r: float) -> dict[str, float]:
    """Worst (exact product minus bound) over the rotations, per bound."""
    rot = rotation_products(phases)
    ml, mt = ml_product(r), mt_product(r)
    return {
        "ml": float((rot["e_t"] - ml).min()),
        "mt": float((rot["var_t"] - mt).min()),
        "dual_ml": float((rot["dual_t"] - ml).min()),
        "width_ml": float((rot["width_t"] - 2.0 * ml).min()),
        "width_mt": float((rot["width_t"] - 2.0 * mt).min()),
    }


def spectrum_stats(levels) -> dict[str, float]:
    lv = sorted(float(x) for x in levels)
    mean = math.fsum(lv) / len(lv)
    var = math.fsum((x - mean) ** 2 for x in lv) / len(lv)
    return {
        "e_above_ground": mean - lv[0],
        "std": math.sqrt(var),
        "width": lv[-1] - lv[0],
        "e_below_top": lv[-1] - mean,
    }


def bound_values(r: float, levels=None) -> dict[str, float]:
    """The five bounds plus ``combined``; dimensionless products when no
    spectrum is given, absolute times otherwise."""
    ml, mt = ml_product(r), mt_product(r)
    if levels is None:
        out = {"ml": ml, "mt": mt, "dual_ml": ml, "width_ml": 2.0 * ml, "width_mt": 2.0 * mt}
    else:
        s = spectrum_stats(levels)
        out = {
            "ml": ml / s["e_above_ground"],
            "mt": mt / s["std"],
            "dual_ml": ml / s["e_below_top"],
            "width_ml": 2.0 * ml / s["width"],
            "width_mt": 2.0 * mt / s["width"],
        }
    out["combined"] = max(out["ml"], out["mt"])
    return out


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary by QR of a complex Ginibre matrix, phases fixed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
