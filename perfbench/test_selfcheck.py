"""Self-check of the benchmark by fault injection.

    python3 -m pytest -q perfbench/test_selfcheck.py     (from the checkout root)

Each test runs perfbench/run.py as a subprocess, once clean and once with
a fault from faults.py, and asserts that the benchmark reports the fault
where it should: a dropped independence statement as failed ops, a sleep
in `canonical_key` as `formula.canonical_key` self time on build-large
and nowhere on indep-graphs.  One more test keeps on record the program
defect that worker.py works round by lifting Python's int-to-str limit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


def bench(workload: str, seed: int, seconds: float, trace: int, fault: str | None = None) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if fault:
        argv += ["--fault", fault]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_dropped_statement_fails_ops_against_digests_and_reference():
    assert bench("indep-graphs", 0, 1, 0)["failed"] == 0
    # seed 0 is checked against recorded digests, seed 5 only against the
    # chain-graph closed forms
    for seed in (0, 5):
        result = bench("indep-graphs", seed, 1, 0, fault="drop-statement")
        assert not result["correct"]
        assert result["failed"] > 0


def first_canonical_key_self_times(workload: str) -> list[float]:
    """Self time of the first traced `canonical_key` span of each op of the
    workload's last traced run, read from the spans file that run wrote."""
    path = Path.cwd() / ".perfbench_work" / "spans" / f"{workload}.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    child = {}
    for _, _, parent, _, _, _, _, busy in records:
        child[parent] = child.get(parent, 0.0) + busy
    first: dict[int, tuple[int, float]] = {}
    for op, rid, _, name, _, _, _, busy in records:
        if name == "formula.canonical_key" and (op not in first or rid < first[op][0]):
            first[op] = (rid, busy - child.get(rid, 0.0))
    return [self_s for _, self_s in first.values()]


def test_canonical_key_sleep_shows_in_its_self_time_on_build_large_only():
    # The sleep adds 50 ms to the first canonical_key call of each op, far
    # more than that call spends outside eval_formula when clean.  Machine
    # speed drifts too much between runs to compare per-op averages instead.
    clean = bench("build-large", 1, 0.1, 1)
    assert all(t < 0.04 for t in first_canonical_key_self_times("build-large"))
    slow = bench("build-large", 1, 0.1, 1, fault="slow-canonical-key")
    slowest = first_canonical_key_self_times("build-large")
    assert slowest and all(t >= 0.05 for t in slowest)
    assert slow["metrics"]["formula.canonical_key.self_s"]["value"] >= 0.05
    assert clean["metrics"]["formula.canonical_key.calls"] == slow["metrics"]["formula.canonical_key.calls"]

    # The sleep sits inside canonical_key, which indep-graphs never calls.
    slow = bench("indep-graphs", 0, 1, 1, fault="slow-canonical-key")
    assert slow["correct"]
    assert slow["metrics"]["formula.canonical_key.calls"]["value"] == 0
    assert slow["metrics"]["formula.canonical_key.self_s"]["value"] == 0


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="known defect: graph.Node.sort_key calls repr() on a truth-table "
                          "int longer than Python's default int-to-str limit")
def test_wide_formula_builds_under_the_default_int_str_limit():
    # A formula of support 14 has a 2^14-bit truth table: about 4,900
    # decimal digits, past the default limit of 4,300.  When this passes,
    # the program no longer needs the limit lifted and worker.py can stop
    # lifting it.
    text = ("U: 0.1 <= P(" + " | ".join(f"X{i}" for i in range(14)) + ") <= 0.9\n"
            "D: 0.2 <= P(X0 & X1) <= 0.5\n")
    sys.path.insert(0, str(Path.cwd() / "src"))
    from lcn import build, model

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        build.dependency_graph(model.parse_lcn(text))
    finally:
        sys.set_int_max_str_digits(limit)
