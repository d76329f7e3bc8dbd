"""Benchmark for `lcn`: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports the program from ``src/``.
It generates the workload's inputs from the seed, starts the worker
process five times to measure set-up (one of those starts runs the timed
pass; a traced run starts it twice instead, see run_worker) and prints
one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(see BENCHMARK.json).  ``op_p50_ms`` and ``op_tail_ms`` are percentiles
of the op latencies (the tail percentile per workload is in spec.json)
and ``ops_per_s`` is the number of ops over their summed latency, which
is the loop time without the output checks; failed ops count in all
three.  Op times are scaled to a reference host speed by a probe loop
timed around and inside the ops, on the one CPU the benchmark keeps
itself and its children on (see speed.py).  The line before the result
stamps the run: commit, Python, core count, networkx version, `src/lcn`
line count, error rate, the sample count behind each metric and the
unscaled figures.  Scratch files go to ``.perfbench_work/``.

``--record`` runs every op of the default seed once and stores their
digests in ``perfbench/digests.json`` (none for an op that raises); runs
on the default seed then fail any op whose output digest differs.
``--fault`` injects one of the faults in faults.py (used by
test_selfcheck.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150.0


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def stamp(root: Path) -> dict:
    lines = sum(path.read_bytes().count(b"\n")
                for path in (root / "src" / "lcn").glob("*.py"))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"commit": commit, "src_lcn_lines": lines,
            "python": platform.python_version(), "nproc": os.cpu_count()}


def start_worker(argv: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for it to be ready; returns it and the set-up time."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc: subprocess.Popen, timeout: float | None = WORKER_TIMEOUT_S) -> dict:
    try:
        out, _ = proc.communicate("go\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_worker(args, root: Path, workdir: Path) -> tuple[dict, list[float]]:
    """Untraced: the timed pass plus set-up samples.  Traced: an untraced
    worker runs for half the time, then a fresh traced worker runs the same
    ops, so that neither pass warms a cache for the other."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--inputs", str(workdir / "inputs.json")]
    if args.seed == DEFAULT_SEED and not args.record and DIGESTS.exists():
        recorded = json.loads(DIGESTS.read_text()).get(args.workload)
        if recorded:
            (workdir / "digests.json").write_text(json.dumps(recorded))
            argv += ["--digests", str(workdir / "digests.json")]
    if args.fault:
        argv += ["--fault", args.fault]
    if args.record:
        argv.append("--record")

    if args.trace:
        plain = finish_worker(start_worker(argv + ["--seconds", str(args.seconds / 2)], env)[0])
        ops = len(plain["latencies"])
        spans_dir = root / ".perfbench_work" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        # one file per workload, overwritten by its next traced run
        traced = finish_worker(start_worker(
            argv + ["--count", str(ops), "--trace", "1",
                    "--spans-out", str(spans_dir / f"{args.workload}.jsonl")], env)[0])
        plain_s, traced_s = sum(plain["latencies"]), sum(traced["latencies"])
        traced["metrics"]["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
        traced["failed"] += plain["failed"]
        traced["failures"] = plain["failures"] + traced["failures"]
        traced["attempted"] = 2 * ops
        return traced, []

    if args.record:
        # recording runs the whole pool once, however long it takes
        return finish_worker(start_worker(argv, env)[0], None), []

    # Set-up is sampled on every worker start, before and after the timed
    # pass too, and reported as the median.
    setups: list[float] = []

    def start(limit: list[str]) -> subprocess.Popen:
        proc, setup = start_worker(argv + limit, env)
        setups.append(setup)
        return proc

    for _ in range(SETUP_SAMPLES // 2):
        start([]).communicate("exit\n", timeout=30)
    result = finish_worker(start(["--seconds", str(args.seconds)]))
    while len(setups) < SETUP_SAMPLES:
        start([]).communicate("exit\n", timeout=30)
    return result, setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=("drop-statement", "slow-canonical-key"))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "lcn" / "__init__.py").is_file():
        print("error: run from the root of an lcn checkout (src/lcn not found)",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        print(f"error: digests are recorded for seed {DEFAULT_SEED} only", file=sys.stderr)
        return 2

    # One CPU for the benchmark and every process it starts: the host's CPUs
    # change speed independently, and the speed probe has to run on the CPU
    # the ops run on (see speed.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = gen.GENERATORS[args.workload](args.seed)
        for name, content in inputs.pop("files", {}).items():
            (workdir / name).write_text(content)
        (workdir / "inputs.json").write_text(json.dumps(inputs))
        result, setups = run_worker(args, root, workdir)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded[args.workload] = result["digests"]
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(result['digests'])} digests for {args.workload}")
        return 0

    latencies = result["latencies"]
    attempted = result.get("attempted", len(latencies))
    failed = result["failed"]
    if args.trace:
        units = spans.metric_units()
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in units.items()}
        samples = {name: len(latencies) for name in units}
    else:
        tail_p = SPEC["tail_percentile"][args.workload]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_ms": {"value": percentile(latencies, 50) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": percentile(latencies, tail_p) * 1e3, "unit": "ms"},
            "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        samples = {"setup_s": len(setups), "op_p50_ms": len(latencies),
                   "op_tail_ms": len(latencies), "ops_per_s": len(latencies),
                   "peak_rss_mb": 1}
        samples[f"op_tail_ms.beyond_p{tail_p}"] = round(len(latencies) * (1 - tail_p / 100), 1)
        raw = result["raw_latencies"]
        info_raw = {"op_p50_ms": percentile(raw, 50) * 1e3,
                    "op_tail_ms": percentile(raw, tail_p) * 1e3,
                    "ops_per_s": len(raw) / sum(raw), "probe_ms": result["probe_s"] * 1e3}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "fault": args.fault, **stamp(root),
            "networkx": result["networkx"], "error_rate": failed / attempted,
            "samples": samples, "failures": result["failures"]}
    if not args.trace:
        # the same figures unscaled, and the median probe time (speed.py)
        info["raw"] = info_raw
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
