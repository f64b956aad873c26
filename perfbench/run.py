"""gateqsl benchmark: three seeded workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload campaign-small --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` a separate traced
run reports the per-layer metrics.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the same figures as a table and the machine context.

Every workload runs in fresh interpreters started from this checkout,
with the BLAS thread count fixed to one.  ``setup_s`` is the median over
several cold starts, taken before and after the timed process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("campaign-small", "catalog-exact", "bounds-query")
COLD_STARTS_BEFORE = 4
COLD_STARTS_AFTER = 4
BLAS_THREADS = "1"

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "call_ms.p50": "ms", "call_ms.p90": "ms",
         "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Run one worker to its end and return its result."""
    workdir = os.path.join(HERE, ".scratch", f"{workload}-{os.getpid()}-{mode}")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--workdir", workdir, "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=seconds + 60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker overran its time limit")
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):])


def machine_context() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        return run_worker(workload, seed, seconds, "traced")
    setups = [run_worker(workload, seed, 0, "setup")["setup_s"]
              for _ in range(COLD_STARTS_BEFORE)]
    res = run_worker(workload, seed, seconds, "timed")
    setups.append(res["setup_s"])
    setups += [run_worker(workload, seed, 0, "setup")["setup_s"]
               for _ in range(COLD_STARTS_AFTER)]
    res["metrics"]["setup_s"] = statistics.median(setups)
    res["context"]["setup_s_each"] = setups
    return res


def units_for(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls") or name in ("linalg.eig_unitary.attempts",
                                           "minimal_time.rotations"):
        return "count"
    return "ms"


def report(workload: str, res: dict) -> dict:
    """Print a table of one workload's figures; return its metrics with units."""
    metrics = {k: {"value": v, "unit": units_for(k)} for k, v in sorted(res["metrics"].items())}
    print(f"== {workload}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for problem in res.get("problems", []):
        print(f"  problem: {problem}")
    print("  context " + json.dumps(res.get("context", {}), sort_keys=True))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "gateqsl", "__init__.py")):
        print(f"perfbench: no gateqsl sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_context(), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            metrics = report(name, res)
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            prefix = "" if len(names) == 1 else name + "/"
            total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
