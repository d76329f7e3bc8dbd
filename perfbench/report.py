"""Print every benchmark metric by name, with its unit, for every workload.

    python3 perfbench/report.py

Runs perfbench/run.py on seed 0 for BENCHMARK.json's ``run_seconds``, once
untraced (end-to-end metrics) and once traced (per-layer metrics) per
workload, from the checkout root, and prints one line per metric:
workload, name, value, unit.  Each workload's block starts with its stamp
(commit, Python, cores, networkx, src/lcn lines) and its error rate; a
nonzero exit means some op failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main() -> int:
    ok = True
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace in (0, 1):
            info, result = run(workload, trace)
            ok = ok and result["correct"]
            stamp = {k: info[k] for k in ("commit", "python", "nproc", "networkx",
                                          "src_lcn_lines")}
            print(f"# {workload} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']} error_rate={info['error_rate']:.4f} "
                  f"{json.dumps(stamp)}")
            for failure in info["failures"]:
                print(f"#   {failure.splitlines()[-1]}")
            for name, metric in result["metrics"].items():
                print(f"{workload:<14} {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
