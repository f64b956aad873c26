"""One workload in one fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (cold start only), ``timed`` (end-to-end figures) or
``traced`` (per-layer figures).  ``--t0`` is the CLOCK_MONOTONIC reading
taken just before the interpreter was started; ``setup_s`` runs from it
until gateqsl is imported, the inputs are built and one warm-up call is
done.  The worker ends by printing ``RESULT <json>``.  The program's own
output is captured in memory and never reaches stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DRAW_DIMS = (2, 3, 4, 5, 6, 7, 8)


def import_program():
    """Import gateqsl from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gateqsl", "__init__.py")):
        sys.exit(f"perfbench: no gateqsl sources under {SRC}")
    sys.path.insert(0, SRC)
    import gateqsl

    if not os.path.abspath(gateqsl.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: gateqsl was imported from {gateqsl.__file__}, not {SRC}")
    return gateqsl


def reference_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop that calls nothing in gateqsl."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def steady_call_s(calls) -> dict:
    """Each call kind's time at steady load: its upper-quartile time in
    this run.

    The machine's speed switches between regimes up to ~1.8x apart that
    last seconds to minutes.  A run's mean or median call time depends on
    how long the run happened to spend in the faster regimes; the upper
    quartile of each kind sits in the slower regime that nearly every run
    visits, so it moves with the program and much less with the machine.
    """
    by_kind = {}
    for kind, _, seconds in calls:
        by_kind.setdefault(kind, []).append(seconds)
    return {kind: percentile(times, 0.75) for kind, times in by_kind.items()}


def steady_metrics(calls, verdict) -> dict:
    """``ops_per_s``: a round's correct operations over the time the round
    takes at steady load; a failed operation counts as attempted, not as
    work done.  ``call_ms.p50``: the median of the round's calls at steady
    load."""
    steady = steady_call_s(calls)
    ops = {kind: n for kind, n, _ in calls}
    ok_share = (verdict.attempted - verdict.failed) / verdict.attempted
    return {
        "ops_per_s": sum(ops.values()) * ok_share / sum(steady.values()),
        "call_ms.p50": 1e3 * percentile(list(steady.values()), 0.5),
    }


def run_rounds(wl, seconds: float, tracer=None):
    """Attempt whole rounds, at least one, until ``seconds`` of wall time
    have passed.

    Each call is timed on its own; outcomes are checked between calls,
    outside the timed calls, so checking costs neither time nor memory
    in the figures.  Returns the verdict, (kind, ops, seconds) per call,
    the wall time and the first call's outcome.
    """
    from workloads import Verdict

    verdict = Verdict()
    calls = []
    first = None
    clock = time.perf_counter
    started = clock()
    op_id = 0
    while not calls or clock() - started < seconds:
        for call in wl.round():
            if tracer is not None:
                tracer.op_id = op_id
            t0 = clock()
            outcome = call.fn()
            calls.append((call.kind, call.ops, clock() - t0))
            op_id += 1
            if first is None:
                first = outcome
            verdict.record(call, wl.check(call, outcome))
    return verdict, calls, clock() - started, first


def final_check(wl, verdict, first) -> None:
    """Checks that need more calls into the program; run untimed, untraced."""
    problem = wl.final_check(first)
    if problem is not None:
        verdict.correct = False
        verdict.problems.append(problem)


def per_dim_draw_ms(wl, samples: int = 30) -> dict:
    """Milliseconds per campaign draw, one ``verify`` per dimension."""
    import workloads

    out = {}
    for n in DRAW_DIMS:
        argv = wl.per_dim_argv(n, samples, 1000 + n)
        t0 = time.perf_counter()
        code, _, err = workloads.run_cli(argv)
        elapsed = time.perf_counter() - t0
        if code != 0:
            sys.exit(f"perfbench: {' '.join(argv)} exited {code}: {err}")
        out[f"campaign.draw_ms.n{n}"] = 1e3 * elapsed / samples
    return out


def layer_metrics(tracer, ops: int, wall: float) -> dict:
    """Reduce the spans to the per-operation layer metrics."""
    from tracer import LAYERS

    red = tracer.reduce()
    calls, incl = red["calls"], red["incl_s"]
    per_op_ms = 1e3 / ops
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = red["layer_self_s"][layer] * per_op_ms
        m[f"{layer}.calls"] = red["layer_calls"][layer] / ops
    for fn in ("linalg.eig_hermitian", "linalg.expm_hermitian_scaled",
               "harness.sample_spectrum_gate", "linalg.random_unitary",
               "minimal_time.eigenphases", "minimal_time.enumerate_rotations",
               "cli.build_parser", "bounds.bound_set", "spectrum.compute_stats"):
        m[f"{fn}.ms"] = incl.get(fn, 0.0) * per_op_ms
    m["linalg.eig_hermitian.calls"] = calls.get("linalg.eig_hermitian", 0) / ops
    m["linalg.complex_matrix.calls"] = calls.get("linalg.complex_matrix", 0) / ops

    ids = red["name_ids"]
    eu = calls.get("linalg.eig_unitary", 0)
    if eu:
        inner = (red["name"] == ids.get("linalg.eig_hermitian", -1)) & \
                (red["parent_name"] == ids["linalg.eig_unitary"])
        m["linalg.eig_unitary.attempts"] = float(inner.sum()) / eu
    else:
        m["linalg.eig_unitary.attempts"] = 0.0

    probed = tracer.probed
    rid = ids.get("minimal_time.enumerate_rotations")
    vid = ids.get("minimal_time.verify_dominance")
    rotations = 0
    buckets = {"verdict_ms.n2-8": [], "verdict_ms.n9-32": [], "verdict_ms.n33-64": []}
    for idx, value in probed.items():
        nid = red["name"][idx]
        if nid == rid:
            rotations += value
        elif nid == vid:
            key = ("verdict_ms.n2-8" if value <= 8 else
                   "verdict_ms.n9-32" if value <= 32 else "verdict_ms.n33-64")
            buckets[key].append(red["dur"][idx])
    m["minimal_time.rotations"] = rotations / ops
    for key, durs in buckets.items():
        m[key] = 1e3 * sum(durs) / len(durs) if durs else 0.0
    m["untraced.ms"] = (wall - red["root_s"]) * per_op_ms
    return m, red["spans"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        wl.warmup()
        result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0}
        if args.mode == "setup":
            print("RESULT " + json.dumps(result), flush=True)
            return 0

        if args.mode == "timed":
            ref_before = reference_loop_ms()
            verdict, calls, wall, first = run_rounds(wl, args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            final_check(wl, verdict, first)
            call_s = [c[2] for c in calls]
            busy = sum(call_s)
            result["metrics"] = {
                **steady_metrics(calls, verdict),
                "call_ms.p90": 1e3 * percentile(call_s, 0.9),
                "peak_rss_mb": peak_kb / 1024.0,
            }
            result["context"] = {
                "reference_loop_ms_before": ref_before,
                "reference_loop_ms_after": reference_loop_ms(),
                "calls": len(calls), "timed_s": busy, "wall_s": wall,
                "mean_ops_per_s": (verdict.attempted - verdict.failed) / busy}
        else:
            from tracer import Tracer

            per_dim = per_dim_draw_ms(wl) if args.workload == "campaign-small" else {}
            tracer = Tracer()
            tracer.install()
            try:
                verdict, calls, wall, first = run_rounds(wl, args.seconds, tracer)
            finally:
                tracer.uninstall()
            final_check(wl, verdict, first)
            busy = sum(c[2] for c in calls)
            metrics, spans = layer_metrics(tracer, verdict.attempted, busy)
            for n in DRAW_DIMS:
                metrics.setdefault(f"campaign.draw_ms.n{n}", per_dim.get(
                    f"campaign.draw_ms.n{n}", 0.0))
            result["metrics"] = metrics
            result["context"] = {
                "traced_ops_per_s": steady_metrics(calls, verdict)["ops_per_s"],
                "traced_mean_ops_per_s": (verdict.attempted - verdict.failed) / busy,
                "spans": spans, "calls": len(calls)}
        result.update(correct=verdict.correct, attempted=verdict.attempted,
                      failed=verdict.failed, problems=verdict.problems)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
