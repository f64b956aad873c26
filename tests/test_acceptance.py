"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import math

import numpy as np
import pytest

from gateqsl.bounds import bounds_from_products, ml_product
from gateqsl.catalog import (
    MubFamily,
    fourier,
    gauss_trace,
    grover,
    hadamard_power,
    prior_mub_bound,
)
from gateqsl.cli import _gate_products
from gateqsl.cli import main as cli_main
from gateqsl.harness import _build_gates, _spectra, figure_qubit, figure_qutrit
from gateqsl.linalg import random_unitaries
from gateqsl.minimal_time import (
    TWO_PI,
    _ragged_layout,
    _stack_products,
    _window_products,
    dominance,
    eigenphases,
)
from gateqsl.spectrum import level_stats

CAMPAIGN_SEED = 20240
CAMPAIGN_DIMS = range(2, 9)
CAMPAIGN_SAMPLES_PER_DIM = 1429  # 7 x 1429 >= 10^4 draws in total


def report(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


@pytest.fixture(scope="module")
def campaign_samples():
    """Shared (T, bounds) stacks for criteria 1 and 2, one per dimension,
    drawn as the campaign draws them."""
    stacks = []
    for n in CAMPAIGN_DIMS:
        indices = range(CAMPAIGN_SAMPLES_PER_DIM)
        levels, t = _spectra(n, CAMPAIGN_SEED, indices)
        u = _build_gates(CAMPAIGN_SEED, np.full(len(indices), n), np.array(indices),
                         levels.reshape(-1), t)
        # the deficit 1 - r^2 from the gates' eigenphases, not their rounded traces
        d = dominance(u)
        stacks.append((t, bounds_from_products(d.ml, d.mt, level_stats(levels))))
    return stacks


def test_criterion_1_combined_bound_dominance(campaign_samples):
    margins = np.concatenate([
        # rows ml, mt and dual_ml
        np.minimum.reduce([t - bs[0], t - bs[1], t - bs[2]])
        for t, bs in campaign_samples
    ])
    worst = float(margins.min())
    failures = int(np.count_nonzero(margins < -1e-9))
    report(
        1,
        "ML, MT and dual-ML bounds dominated by T",
        failures == 0 and worst >= -1e-9,
        f"samples={margins.size} worst_margin={worst:.3e}",
    )


def test_criterion_2_width_bound_dominance(campaign_samples):
    # rows width_ml and width_mt, and mt
    margins = np.concatenate([np.minimum(t - bs[3], t - bs[4]) for t, bs in campaign_samples])
    consistency = min(float((bs[1] - bs[4]).min()) for _, bs in campaign_samples)
    worst = float(margins.min())
    failures = int(np.count_nonzero(margins < -1e-9))
    ok = failures == 0 and worst >= -1e-9 and consistency >= -1e-12
    report(
        2,
        "width bounds dominated by T; width_mt <= mt",
        ok,
        f"worst_margin={worst:.3e} worst_consistency={consistency:.3e}",
    )


def test_criterion_3_qubit_exactness():
    # columns abscissa, exact, ml, mt
    points = figure_qubit(200)
    worst = min(exact - max(ml, mt) for _, exact, ml, mt in points)
    zero_gap = abs(points[0, 1] - points[0, 2])
    ok = (
        len(points) == 200
        and worst >= -1e-12
        and zero_gap <= 1e-12
        and abs(points[0, 1] - math.pi / 2.0) <= 1e-12
    )
    report(3, "qubit exact time dominates both bounds", ok,
           f"worst_margin={worst:.3e} gap_at_zero={zero_gap:.3e}")


def test_criterion_4_gauss_trace():
    worst = max(abs(abs(np.trace(fourier(n))) - gauss_trace(n)) for n in range(1, 65))
    report(4, "Fourier trace matches the Gauss-sum closed form", worst <= 1e-9,
           f"n=1..64 worst_error={worst:.3e}")


def test_criterion_5_grover_trace():
    worst = 0.0
    for n in range(2, 65):
        want = abs(n - 4.0 + 4.0 / n)
        for target in range(n):
            worst = max(worst, abs(abs(np.trace(grover(n, target))) - want))
    report(5, "Grover trace matches N - 4 + 4/N for every target", worst <= 1e-9,
           f"n=2..64 worst_error={worst:.3e}")


def test_criterion_6_qutrit_figures(tmp_path):
    worst = math.inf
    for family in (MubFamily.ONE, MubFamily.TWO):
        points = figure_qutrit(family, 100)
        assert len(points) == 400
        # columns abscissa, exact, ml
        worst = min(worst, min(exact - ml for _, exact, ml in points))
    blobs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert cli_main(["figure", "qutrit-u1", "-o", str(path), "-r", "99"]) == 0
        blobs.append(path.read_bytes())
    ok = worst >= -1e-9 and blobs[0] == blobs[1]
    report(6, "qutrit figures dominate the ML bound; CSV deterministic", ok,
           f"4x100 grid x2 families worst_margin={worst:.3e}")


def test_criterion_7_mub_comparison():
    gaps = [ml_product(1.0 / math.sqrt(n)) - prior_mub_bound(n) for n in range(4, 257)]
    ours_4096 = ml_product(1.0 / math.sqrt(4096))
    prior_4096 = prior_mub_bound(4096)
    ok = (
        min(gaps) > 0.0
        and abs(ours_4096 - math.pi / 2.0) < 0.05
        and abs(prior_4096 - math.pi / 4.0) < 0.05
    )
    report(7, "MUB bound beats the earlier published bound", ok,
           f"min_gap={min(gaps):.4f} ours(4096)={ours_4096:.4f} prior(4096)={prior_4096:.4f}")


def test_criterion_8_tightness_witness():
    hits = []
    for q in (1, 2, 3):
        phases = eigenphases(hadamard_power(q))
        e_t = _window_products(phases, _ragged_layout(((len(phases), 1),)))[0]
        # the windows that start on a distinct phase
        start = np.r_[True, phases[1:] != phases[:-1]]
        hits.append(bool((np.abs(e_t[start] - math.pi / 2.0) <= 1e-9).any()))
    # gap between pi/2 and the MUB ML bound at dimension 8: (pi/2) k / sqrt(8)
    gap = math.pi / 2.0 - ml_product(math.sqrt(8.0) / 8.0)
    gap_err = abs(gap - 0.65835031520767305)
    ok = all(hits) and gap_err <= 1e-9
    report(8, "Hadamard powers reach E*T = pi/2; bound gap shrinks as 1/sqrt(N)", ok,
           f"rotations_found={hits} gap_error={gap_err:.3e}")


def test_criterion_9_proof_identities():
    rng = np.random.default_rng(99)
    x_pos = np.concatenate([np.linspace(0.0, 50.0, 20_001), rng.uniform(0.0, 50.0, 100_000)])
    ml_ok = np.all(x_pos >= 0.5 * math.pi * (1 - np.cos(x_pos)) - np.sin(x_pos) - 1e-12)
    x_any = np.concatenate([np.linspace(-50.0, 50.0, 20_001), rng.uniform(-50.0, 50.0, 100_000)])
    sq_ok = np.all(x_any * x_any >= 2.0 * (1.0 - np.cos(x_any)) - 1e-12)
    report(9, "both proof identities hold on grids and random points", bool(ml_ok and sq_ok),
           f"points={x_pos.size + x_any.size}")


def test_criterion_10_invariance_suite():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        u = random_unitaries(n, [int(rng.integers(2**63))])[0]
        v = random_unitaries(n, [int(rng.integers(2**63))])[0]
        phi = float(rng.uniform(0.0, TWO_PI))
        stats = level_stats(rng.uniform(0.0, 10.0, n))
        # the ML and MT products as ``gateqsl bounds`` takes them
        base = bounds_from_products(*_gate_products(u)[2:], stats)
        for other_u in (np.exp(1j * phi) * u, v @ u @ v.conj().T):
            other = bounds_from_products(*_gate_products(other_u)[2:], stats)
            # all five bounds, ml, mt, dual_ml, width_ml and width_mt
            worst = max(worst, *np.abs(base - other))
    report(10, "bounds invariant under global phase and basis change", worst <= 1e-10,
           f"1000 gates worst_spread={worst:.3e}")


def test_criterion_11_branch_enumeration_soundness():
    rng = np.random.default_rng(13)
    worst = math.inf
    for n in (2, 3, 4):
        for _ in range(60):
            phases = np.sort(rng.uniform(0.0, TWO_PI, n))
            trace = np.exp(-1j * phases).sum()
            min_e, min_var, min_width, min_dual = _stack_products(phases, trace)[0]
            best_e = best_var = best_width = best_dual = math.inf
            for assignment in itertools.product((0, 1, 2), repeat=n):
                theta = phases + TWO_PI * np.asarray(assignment)
                best_e = min(best_e, theta.mean() - theta.min())
                best_var = min(best_var, theta.std())
                best_width = min(best_width, theta.max() - theta.min())
                best_dual = min(best_dual, theta.max() - theta.mean())
            worst = min(
                worst,
                best_e - min_e,
                best_var - min_var,
                best_width - min_width,
                best_dual - min_dual,
            )
    report(11, "no branch assignment beats the canonical rotations", worst >= -1e-12,
           f"n<=4, offsets {{0,1,2}}^n, worst_gap={worst:.3e}")
