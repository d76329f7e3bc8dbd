"""Benchmark worker: one process that loads a workload and runs its ops.

Started by run.py, never by hand.  Set-up is interpreter start, ``import
lcn`` and loading the generated inputs; then the worker prints ``ready``
and waits for one line on stdin: ``go`` runs the timed loop, anything else
exits.  The result is one JSON object on the last line of stdout.

The loop is closed, with one client: the next op starts when the previous
one has returned and been checked.  Op latency covers the program calls
only, scaled to a reference host speed (see speed.py); digests, checks
and the speed probes between ops are left out of the loop time that
``--seconds`` limits.

The timed loop runs whole rounds of the pool (a round holds the
workload's op mix once, see ``round`` in gen.py), as long as the next
round is expected to end within ``--seconds``, and at least one.
``--count N`` runs exactly the first N ops instead; with ``--trace 1``
run.py uses it to run, in a fresh process and with the tracer installed,
the ops an untraced worker has just run.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import networkx

import speed
import workloads


class OpTimeout(BaseException):
    """An op ran past its time budget."""


def _alarm(signum, frame):
    raise OpTimeout()


def timed_loop(workload, seconds: float | None, count: int | None, digests: list | None,
               tracer=None, on_op=None) -> dict:
    """Run ops from the start of the pool: the first `count` of them, or
    whole rounds while the next is expected to end within `seconds` of
    loop time.  Op latencies are scaled by the host-speed probes around
    and, unless traced, inside each op (see speed.py)."""
    items = workload.items
    round_len = workload.round_len
    raw: list[float] = []
    windows: list[tuple[int, int]] = []  # probe samples around each op
    failures: list[str] = []
    failed = 0
    signal.signal(signal.SIGALRM, _alarm)
    start = perf_counter()
    # probes inside ops would land in the traced spans
    meter = speed.Meter(in_op=tracer is None)
    check_s = perf_counter() - start  # checks and probes between ops
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i and i % round_len == 0:
            # loop time so far plus one more round at the mean round time
            if (perf_counter() - start - check_s) * (1 + round_len / i) > seconds:
                break
        item = items[i % len(items)]
        if on_op is not None:
            on_op()
        if tracer is not None:
            tracer.begin_op(i)
        error = None
        signal.setitimer(signal.ITIMER_REAL, workload.budget_s)
        first = meter.start_op()
        t0 = perf_counter()
        try:
            result = workload.run(item)
        except OpTimeout:
            error = "timeout"
        except Exception:
            error = traceback.format_exc(limit=-3)
        finally:
            t1 = perf_counter()
            probes_s = meter.end_op()
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.end_op()
        raw.append(t1 - t0 - probes_s)
        windows.append((first, len(meter.samples)))
        c0 = perf_counter()
        if error is None:
            error = _check(workload, item, result, digests, i % len(items))
        meter.between_ops()
        check_s += perf_counter() - c0
        if error is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(f"op {i}: {error}")
        i += 1
    meter.take()
    latencies = [meter.scale(t, *w) for t, w in zip(raw, windows)]
    return {"latencies": latencies, "raw_latencies": raw,
            "probe_s": statistics.median(meter.samples),
            "failed": failed, "failures": failures}


def _check(workload, item, result, digests: list | None, index: int) -> str | None:
    try:
        workload.check(item, result)
    except workloads.CheckFailed as exc:
        return f"wrong output: {exc}"
    if digests is not None and index < len(digests) and digests[index] is not None:
        got = workload.digest(item, result)
        if got != digests[index]:
            return f"digest {got} differs from the recorded {digests[index]}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--count", type=int, help="run exactly this many ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", help="JSON list of expected op digests")
    parser.add_argument("--fault")
    parser.add_argument("--spans-out")
    parser.add_argument("--record", action="store_true",
                        help="run every op once and print their digests")
    args = parser.parse_args()

    # Known program defect: the truth-table key of a formula with support
    # >= 14 is an int of more than 4,300 decimal digits, and
    # `graph.Node.sort_key` calls repr() on it, which Python's default
    # int-to-str limit turns into a ValueError.  build-large needs those
    # formulas, so the worker lifts the limit, as PYTHONINTMAXSTRDIGITS=0
    # would; test_selfcheck.py keeps the defect itself on record.
    sys.set_int_max_str_digits(0)

    inputs_path = Path(args.inputs)
    with open(inputs_path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    workload = workloads.WORKLOADS[args.workload](inputs, inputs_path.parent)
    workload.round_len = inputs["round"]
    digests = None
    if args.digests:
        with open(args.digests, encoding="utf-8") as handle:
            digests = json.load(handle)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    on_op = None
    if args.fault:
        import faults
        on_op = faults.install(args.fault)

    if args.record:
        # ops that raise get no digest; they are checked as failed ops instead
        out = []
        for item in workload.items:
            try:
                result = workload.run(item)
            except Exception:
                out.append(None)
                continue
            workload.check(item, result)
            out.append(workload.digest(item, result))
        print(json.dumps({"digests": out}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        workload.tracer = tracer
    loop = timed_loop(workload, args.seconds, args.count, digests, tracer=tracer, on_op=on_op)
    loop["networkx"] = networkx.__version__
    if tracer is None:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-desk" else resource.RUSAGE_SELF
        loop["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    else:
        tracer.uninstall()
        # span times are raw, so the shares of op time use raw latencies
        loop["metrics"] = spans.layer_metrics(tracer, len(loop["latencies"]),
                                        sum(loop["raw_latencies"]),
                                        getattr(workload, "extra", {}))
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(loop))
    return 0


if __name__ == "__main__":
    sys.exit(main())
