"""Tests of the benchmark itself: the oracle against hand cases, one round
of each workload, and the command's output contract.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

HALF_PI = 0.5 * math.pi


def hadamard(q: int) -> np.ndarray:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    out = h
    for _ in range(q - 1):
        out = np.kron(out, h)
    return out


def qubit(phi, alpha, beta, theta) -> np.ndarray:
    ct, st = math.cos(theta), math.sin(theta)
    return np.exp(1j * phi) * np.array(
        [[np.exp(1j * alpha) * ct, np.exp(1j * beta) * st],
         [-np.exp(-1j * beta) * st, np.exp(-1j * alpha) * ct]])


def perm_matrix(perm) -> np.ndarray:
    p = np.zeros((len(perm), len(perm)))
    for j, image in enumerate(perm):
        p[image, j] = 1.0
    return p


# ---- oracle hand cases ---------------------------------------------------

@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_hadamard_powers_exact_minima(q):
    e_t, var_t, width_t = oracle.exact_minima(oracle.eigenphases(hadamard(q)))
    assert e_t == pytest.approx(HALF_PI, abs=1e-12)
    assert var_t == pytest.approx(HALF_PI, abs=1e-12)
    assert width_t == pytest.approx(math.pi, abs=1e-12)
    assert oracle.hadamard_trace(q) == pytest.approx(abs(np.trace(hadamard(q))), abs=1e-12)


@pytest.mark.parametrize("params", [(0.0, 0.3, 1.1, 0.7), (2.0, 1.2, 0.4, 0.25),
                                    (5.5, 0.9, 3.0, 1.3), (1.0, 0.0, 0.0, 0.0)])
def test_qubit_exact_time_is_arccos_half_trace(params):
    u = qubit(*params)
    tr = oracle.qubit_trace(*params)
    assert tr == pytest.approx(abs(np.trace(u)), abs=1e-12)
    e_t, var_t, _ = oracle.exact_minima(oracle.eigenphases(u))
    assert e_t == pytest.approx(math.acos(min(1.0, tr / 2.0)), abs=1e-9)
    assert var_t == pytest.approx(e_t, abs=1e-9)


@pytest.mark.parametrize("perm", [(1, 2, 0), (1, 0, 3, 2), (0, 1, 2, 3), (2, 0, 1, 4, 3, 5),
                                  (3, 4, 5, 6, 7, 0, 1, 2)])
def test_permutation_phases_follow_cycle_structure(perm):
    got = oracle.eigenphases(perm_matrix(perm))
    want = oracle.permutation_phases(perm)
    # a phase of 0 can come back as 2 pi - tiny; compare on the circle
    diff = np.angle(np.exp(1j * (np.sort(got) - want)))
    assert np.max(np.abs(diff)) < 1e-12
    assert oracle.permutation_trace(perm) == pytest.approx(abs(np.trace(perm_matrix(perm))))


def test_three_cycle_phases():
    want = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
    assert np.allclose(oracle.permutation_phases((1, 2, 0)), want)


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_sum_trace(n):
    k = np.arange(n)
    f = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    assert oracle.fourier_trace(n) == pytest.approx(abs(np.trace(f)), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 64])
def test_grover_trace(n):
    s = np.full(n, 1.0 / math.sqrt(n))
    reflect_t = np.eye(n)
    reflect_t[1, 1] = -1.0
    g = (2.0 * np.outer(s, s) - np.eye(n)) @ reflect_t
    assert oracle.grover_trace(n) == pytest.approx(abs(np.trace(g)), abs=1e-12)


@pytest.mark.parametrize("family", [1, 2])
def test_qutrit_trace(family):
    # Family one has columns (1,1,1), e^{ix}(1,w~,w), e^{iy}(1,w,w~) over
    # sqrt(3); family two swaps w and w~.
    w = np.exp(2j * np.pi / 3)
    a, b = (np.conj(w), w) if family == 1 else (w, np.conj(w))
    x, y = 0.7, 4.1
    u = np.stack([np.ones(3), np.exp(1j * x) * np.array([1, a, b]),
                  np.exp(1j * y) * np.array([1, b, a])], axis=1) / math.sqrt(3)
    assert oracle.qutrit_trace(family, x, y) == pytest.approx(abs(np.trace(u)), abs=1e-12)


def test_closed_form_bounds():
    assert oracle.ml_product(0.0) == pytest.approx(HALF_PI)
    assert oracle.mt_product(0.0) == 1.0
    assert oracle.ml_product(1.0) == 0.0 and oracle.mt_product(1.0) == 0.0
    b = oracle.bound_values(0.0, [0.0, 2.0])
    assert b["ml"] == pytest.approx(HALF_PI) and b["mt"] == pytest.approx(1.0)
    assert b["width_ml"] == pytest.approx(HALF_PI) and b["width_mt"] == pytest.approx(1.0)
    assert b["combined"] == max(b["ml"], b["mt"])


def test_identity_margins_are_zero():
    m = oracle.margins(oracle.eigenphases(np.eye(4)), 1.0)
    assert all(abs(v) < 1e-12 for v in m.values())


def test_haar_unitary_is_unitary_and_seeded():
    u = oracle.haar_unitary(6, np.random.default_rng(3))
    assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
    assert np.array_equal(u, oracle.haar_unitary(6, np.random.default_rng(3)))


# ---- one round of each workload ------------------------------------------

ROUND = {"campaign-small": (18, 0), "catalog-exact": (52, 0), "bounds-query": (43, 3)}


@pytest.mark.parametrize("name", sorted(ROUND))
@pytest.mark.parametrize("seed", [1, 7])
def test_one_round_counts(name, seed, tmp_path):
    worker.import_program()
    wl = workloads.WORKLOADS[name](seed, str(tmp_path))
    verdict, calls, _, first = worker.run_rounds(wl, 0)
    worker.final_check(wl, verdict, first)
    assert (verdict.attempted, verdict.failed) == ROUND[name]
    assert verdict.correct, verdict.problems
    assert len(calls) == len(wl.round())


def test_bounds_query_faults_are_the_named_three(tmp_path):
    worker.import_program()
    wl = workloads.BoundsQuery(5, str(tmp_path))
    faults = [c for c in wl.round() if wl.check(c, c.fn()) is not None]
    assert sorted(c.known_fault is not None for c in faults) == [True] * 3


def test_checks_reject_a_wrong_bound(tmp_path):
    worker.import_program()
    wl = workloads.BoundsQuery(5, str(tmp_path))
    call = wl.round()[0]
    code, out, err = call.fn()
    assert wl.check(call, (code, out, err)) is None
    lines = out.splitlines()
    lines[3] = lines[3][:11] + "9" + lines[3][12:]
    assert wl.check(call, (code, "\n".join(lines) + "\n", err)) is not None


# ---- the command ---------------------------------------------------------

def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command_prints_end_to_end_metrics():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    out = run_bench("--workload", "bounds-query", "--seed", "3", "--seconds", "0.5",
                    "--trace", "0")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] * 43 == res["attempted"] * 3
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_command_prints_every_layer_metric():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    out = run_bench("--workload", "campaign-small", "--seed", "3", "--seconds", "0.5",
                    "--trace", "1")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["correct"] and res["failed"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".scratch"))
    out = run_bench("--workload", "bounds-query", "--seed", "1", "--seconds", "1",
                    cwd=str(tmp_path))
    assert out.returncode != 0
    assert not out.stdout.strip().endswith("}")
