"""The three benchmark workloads.

Each workload turns ``--seed`` into inputs, hands the program only those
inputs through its public entry points, and checks every outcome after
the timed phase.  A run is made of whole rounds: every round attempts
the same operations with fresh seeded parameters, so the share of failed
operations is the same in every run, whatever its seed or length.

* campaign-small: ``gateqsl verify`` over dims 2..8, a fresh seed per call.
* catalog-exact:  ``verify_dominance`` over catalog gates with n from 2 to 64.
* bounds-query:   ``gateqsl bounds`` over named, file and invalid inputs.
"""

from __future__ import annotations

import io
import json
import math
import os
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import oracle

TOL = 1e-9
TWO_PI = 2.0 * math.pi


@dataclass
class Call:
    """One call into the program: ``ops`` operations, run by ``fn``.

    ``kind`` names the call's slot in the round; calls of one kind do the
    same work on fresh parameters.
    """

    fn: object
    ops: int
    expect: object
    kind: int
    known_fault: str | None = None


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list = field(default_factory=list)

    def record(self, call: Call, problem: str | None) -> None:
        self.attempted += call.ops
        if problem is None:
            return
        self.failed += call.ops
        if call.known_fault is None:
            self.correct = False
            if len(self.problems) < 5:
                self.problems.append(problem)


def run_cli(argv):
    """``gateqsl.cli.main`` in-process, as a shell would see it: the exit
    code, stdout and stderr.  An escaping exception exits 1 with its
    traceback on stderr, as the interpreter would."""
    from gateqsl import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # the program's own crash is an outcome to check
            traceback.print_exc(file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


def _num(x: float) -> str:
    return repr(float(x))


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=TOL, abs_tol=1e-12)


# ---- campaign-small ------------------------------------------------------

class CampaignSmall:
    """Repeated ``gateqsl verify --dims 3..8 --samples 3 --seed s``; an
    operation is one draw, a call is one ``verify`` of 18 draws.

    Dimension 2 is left out: a near-identity qubit draw (r -> 1) can come
    out as a false FAIL from rounding, on some seeds only, which would make
    the failed share depend on the seed.  Its draw time is still measured
    by the traced run's per-dimension calls, on a fixed seed.
    """

    name = "campaign-small"
    dims = (3, 4, 5, 6, 7, 8)
    samples = 3

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, 1])
        self.first = None

    def _argv(self, s: int, dims=dims, samples=samples):
        return ["verify", "--dims=" + ",".join(map(str, dims)),
                f"--samples={samples}", f"--seed={s}"]

    def round(self) -> list[Call]:
        s = int(self.rng.integers(0, 2**31 - 1))
        argv = self._argv(s)
        if self.first is None:
            self.first = argv
        return [Call(lambda: run_cli(argv), len(self.dims) * self.samples, s, 0)]

    def check(self, call: Call, outcome) -> str | None:
        code, out, err = outcome
        if code != 0:
            return f"verify --seed {call.expect} exited {code}: {err.strip()[-200:]}"
        try:
            report = json.loads(out)
        except ValueError:
            return f"verify --seed {call.expect} printed no JSON report"
        want = {"samples": call.ops, "failures": 0, "seed": call.expect, "dims": list(self.dims)}
        got = {k: report.get(k) for k in want}
        if got != want:
            return f"verify report {got} != {want}"
        if not report["worst_margin"] >= -TOL:
            return f"verify --seed {call.expect} worst_margin {report['worst_margin']}"
        return None

    def final_check(self, first_outcome) -> str | None:
        """The same seed gives a byte-identical report."""
        again = run_cli(self.first)
        if again != first_outcome:
            return "verify is not deterministic for " + " ".join(self.first)
        return None

    def per_dim_argv(self, n: int, samples: int, seed: int):
        return self._argv(seed, dims=(n,), samples=samples)

    def warmup(self) -> None:
        run_cli(self._argv(0))


# ---- catalog-exact -------------------------------------------------------

# (family, size) per round; sizes run from 2 to 64.  Fourier, Hadamard
# powers, Grover and permutations have degenerate spectra; qubit and
# qutrit MUB gates have generic ones.  Of the 52 gates, the three n=64
# Fourier, Hadamard and permutation gates are the slowest and the four
# n=32 Fourier and Hadamard gates come next, so call_ms.p90 falls inside
# a block of like gates instead of on the edge between two sizes.
CATALOG_ROUND = (
    [("fourier", n) for n in (2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 32, 64)]
    + [("hadamard", q) for q in (1, 2, 3, 4, 5, 5, 6)]
    + [("grover", n) for n in (2, 3, 4, 5, 6, 7, 8, 16, 32, 64)]
    + [("permutation", n) for n in (2, 3, 4, 5, 6, 7, 8, 16, 32, 64)]
    + [("qubit", 2)] * 6
    + [("qutrit1", 3)] * 3
    + [("qutrit2", 3)] * 3
)


def catalog_spec(family: str, size: int, rng: np.random.Generator):
    """Seeded parameters for one gate; returns (spec, closed-form |tr U|, n)."""
    if family == "fourier":
        return ("fourier", size), oracle.fourier_trace(size), size
    if family == "hadamard":
        return ("hadamard", size), oracle.hadamard_trace(size), 2**size
    if family == "grover":
        return ("grover", size, int(rng.integers(0, size))), oracle.grover_trace(size), size
    if family == "permutation":
        perm = tuple(int(p) for p in rng.permutation(size))
        return ("permutation", perm), oracle.permutation_trace(perm), size
    if family == "qubit":
        phi, beta = rng.uniform(0.0, TWO_PI, 2)
        alpha, theta = rng.uniform(0.2, 1.4, 2)
        params = (float(phi), float(alpha), float(beta), float(theta))
        return ("qubit", *params), oracle.qubit_trace(*params), 2
    fam = 1 if family == "qutrit1" else 2
    x, y = (float(v) for v in rng.uniform(0.0, TWO_PI, 2))
    return ("qutrit", fam, x, y), oracle.qutrit_trace(fam, x, y), 3


def build_gate(spec):
    from gateqsl import catalog

    kind = spec[0]
    if kind == "fourier":
        return catalog.fourier(spec[1])
    if kind == "hadamard":
        return catalog.hadamard_power(spec[1])
    if kind == "grover":
        return catalog.grover(spec[1], spec[2])
    if kind == "permutation":
        return catalog.permutation(spec[1])
    if kind == "qubit":
        return catalog.qubit_unitary(catalog.QubitParams(*spec[1:]))
    family = catalog.MubFamily.ONE if spec[1] == 1 else catalog.MubFamily.TWO
    return catalog.qutrit_mub(catalog.QutritMubParams(family, spec[2], spec[3]))


def verdict_call(spec):
    from gateqsl import minimal_time

    u = build_gate(spec)
    return u, minimal_time.verify_dominance(u)


class CatalogExact:
    """``verify_dominance`` of one catalog gate, built inside the call; an
    operation and a call are one gate."""

    name = "catalog-exact"

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, 2])

    def warmup(self) -> None:
        verdict_call(("fourier", 2))

    def round(self) -> list[Call]:
        calls = []
        for kind, (family, size) in enumerate(CATALOG_ROUND):
            spec, trace, n = catalog_spec(family, size, self.rng)
            calls.append(Call(lambda spec=spec: verdict_call(spec), 1, (spec, trace, n), kind))
        order = self.rng.permutation(len(calls))
        return [calls[i] for i in order]

    def check(self, call: Call, outcome) -> str | None:
        spec, trace, n = call.expect
        u, rec = outcome
        if not rec.passed or rec.n != n:
            return f"{spec[:2]}: passed={rec.passed} n={rec.n}"
        r = trace / n
        if abs(rec.trace_ratio - r) > TOL:
            return f"{spec[:2]}: trace_ratio {rec.trace_ratio} != closed form {r}"
        want = oracle.margins(oracle.eigenphases(u), r)
        for name in oracle.BOUND_NAMES:
            got = getattr(rec, name + "_margin")
            if abs(got - want[name]) > TOL:
                return f"{spec[:2]}: {name} margin {got} != oracle {want[name]}"
        return None

    def final_check(self, first_outcome) -> str | None:
        return None


# ---- bounds-query --------------------------------------------------------

# (family, size) per round, without and with --spectrum.
BOUNDS_NAMED = (
    [("fourier", n) for n in (2, 7, 16, 64)] + [("grover", n) for n in (3, 12, 64)]
    + [("permutation", n) for n in (4, 20, 64)] + [("hadamard", q) for q in (1, 3, 6)]
    + [("qubit", 2)] * 2 + [("qutrit1", 3), ("qutrit2", 3)]
)
BOUNDS_WITH_SPECTRUM = (
    [("fourier", 3), ("fourier", 33), ("grover", 5), ("grover", 64), ("permutation", 9),
     ("permutation", 64), ("hadamard", 2), ("hadamard", 6), ("qubit", 2), ("qutrit1", 3),
     ("qutrit2", 3)]
)
FILE_DIMS = (2, 8, 64)


def _gate_argv(spec) -> list[str]:
    kind = spec[0]
    if kind == "fourier":
        return [f"--fourier={spec[1]}"]
    if kind == "hadamard":
        return [f"--hadamard-power={spec[1]}"]
    if kind == "grover":
        return [f"--grover={spec[1]}", f"--target={spec[2]}"]
    if kind == "permutation":
        return ["--permutation=" + ",".join(map(str, spec[1]))]
    if kind == "qubit":
        return ["--qubit=" + ",".join(map(_num, spec[1:]))]
    return [f"--qutrit-mub={spec[1]}," + ",".join(map(_num, spec[2:]))]


def _write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _matrix_payload(u) -> dict:
    u = np.asarray(u)
    return {"n": u.shape[0], "re": u.real.tolist(), "im": u.imag.tolist()}


class BoundsQuery:
    """In-process ``gateqsl bounds``; an operation and a call are one query."""

    name = "bounds-query"

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, 3])
        haar = np.random.default_rng([seed, 4])
        self.files = []
        for n in FILE_DIMS:
            u = oracle.haar_unitary(n, haar)
            path = _write_json(os.path.join(workdir, f"haar{n}.json"), _matrix_payload(u))
            self.files.append((path, float(abs(np.trace(u))), n))
        eye = _matrix_payload(np.eye(2))
        self.invalid = [
            (["--grover=4", "--target=9"], None),
            (["--permutation=0,0,1"], None),
            (["--hadamard-power=11"], None),
            (["--file=" + os.path.join(workdir, "missing.json")], None),
            (["--file=" + _write_json(os.path.join(workdir, "shape.json"), {**eye, "n": 3})],
             None),
        ]
        with open(os.path.join(workdir, "garbled.json"), "w", encoding="utf-8") as fh:
            fh.write('{"n": 2, "re": [[1, 0], [0, 1]], "im": ')
        self.invalid.append((["--file=" + os.path.join(workdir, "garbled.json")], None))
        # Faults of the current program, kept until the program mends them.
        self.invalid += [
            (["--fourier=2", "--spectrum=1,1"],
             "zero-spread spectrum with a trace deficit escapes as a traceback"),
            (["--fourier=2", "--spectrum=1,2,3"],
             "spectrum-length mismatch prints n, |tr U| and r before its error"),
            (["--file=" + _write_json(os.path.join(workdir, "bool_n.json"),
                                      {"n": True, "re": [[1.0]], "im": [[0.0]]})],
             'a matrix file with "n": true is accepted as n = 1'),
        ]

    def warmup(self) -> None:
        run_cli(["bounds", "--fourier=2"])

    def _levels(self, n: int) -> list[float]:
        return [float(x) for x in self.rng.uniform(0.0, 10.0, n)]

    def round(self) -> list[Call]:
        calls = []

        def add(argv, expect, fault=None):
            calls.append(Call(lambda: run_cli(["bounds", *argv]), 1, expect, len(calls), fault))

        for family, size in BOUNDS_NAMED:
            spec, trace, n = catalog_spec(family, size, self.rng)
            add(_gate_argv(spec), (n, trace, None))
        for family, size in BOUNDS_WITH_SPECTRUM:
            spec, trace, n = catalog_spec(family, size, self.rng)
            levels = self._levels(n)
            add([*_gate_argv(spec), "--spectrum=" + ",".join(map(_num, levels))],
                (n, trace, levels))
        for path, trace, n in self.files:
            add(["--file=" + path], (n, trace, None))
            levels = self._levels(n)
            add(["--file=" + path, "--spectrum=" + ",".join(map(_num, levels))],
                (n, trace, levels))
        for argv, fault in self.invalid:
            add(argv, None, fault)
        return calls

    def check(self, call: Call, outcome) -> str | None:
        code, out, err = outcome
        if call.expect is None:
            if code != 2 or out or len(err.splitlines()) != 1:
                why = call.known_fault or "invalid input not rejected cleanly"
                return f"{why}: exit {code}, {len(out)} bytes stdout, " \
                       f"{len(err.splitlines())} stderr lines"
            return None
        n, trace, levels = call.expect
        if code != 0 or err:
            return f"bounds exited {code}: {err.strip()[-200:]}"
        # Lines are an 11-column label, then the value.
        got = {}
        for line in out.splitlines():
            try:
                got[line[:11].strip()] = float(line[11:].split()[0])
            except (IndexError, ValueError):
                return f"bounds printed an unreadable line {line!r}"
        want = {"n": n, "|tr U|": trace, "r=|trU|/n": trace / n}
        want.update(oracle.bound_values(trace / n, levels))
        if set(got) != set(want):
            return f"bounds printed {sorted(got)}, want {sorted(want)}"
        for key, w in want.items():
            if not _close(got[key], w):
                return f"bounds {key}: got {got[key]}, want {w}"
        return None

    def final_check(self, first_outcome) -> str | None:
        return None


WORKLOADS = {w.name: w for w in (CampaignSmall, CatalogExact, BoundsQuery)}
