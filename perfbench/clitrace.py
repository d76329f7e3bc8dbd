"""Run one `lcn` command under the tracer, as the traced form of
``python -m lcn <args>``.

Usage: ``python clitrace.py <spans-out> <lcn args>...``

Times ``import networkx`` and ``import lcn`` separately, installs the
tracer, runs ``lcn.cli.main`` inside a ``cli.main`` span and writes a JSON
object with the import times and the span records to ``<spans-out>``.
Standard output, standard error and the exit code are those of the
command itself.
"""

import json
import sys
import time

t0 = time.perf_counter()
import networkx  # noqa: E402  (timed on purpose: it is lcn's only dependency)

t1 = time.perf_counter()
import lcn.cli  # noqa: E402

t2 = time.perf_counter()

from spans import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    main_fn = tracer.wrap(lcn.cli.main, "cli.main")
    try:
        code = main_fn(argv)
    finally:
        tracer.end_op()
        tracer.uninstall()
        sys.stdout.flush()
        records = [r for r in tracer.records() if r[2] != "op"]
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump({"import_networkx_s": t1 - t0, "import_lcn_s": t2 - t1,
                       "records": _reparent(records)}, out)
    return code


def _reparent(records: list[list]) -> list[list]:
    """Drop the per-process root span and renumber ids from 0."""
    index = {r[0]: i for i, r in enumerate(records)}
    return [[index[r[0]], index.get(r[1], -1), *r[2:]] for r in records]


if __name__ == "__main__":
    sys.exit(main())
