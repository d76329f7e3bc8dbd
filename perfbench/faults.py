"""Faults the self-check injects into the program, to show the benchmark
catches them.  Each rebinds an `lcn` function wherever a module binds it.

* ``drop-statement``: `local_statements` loses one statement of every
  nonempty result, which the output checks must report as failed ops.
* ``slow-canonical-key``: the first `canonical_key` call of each op sleeps
  50 ms, which the traced run must put in `formula.canonical_key.self_s`.
"""

from __future__ import annotations

import time

from spans import bindings


def _rebind(original, new) -> None:
    for module, attr in bindings(original):
        setattr(module, attr, new)


def install(name: str):
    """Install fault `name`; returns a callable to run at each op start."""
    import lcn.formula
    import lcn.markov

    if name == "drop-statement":
        original = lcn.markov.local_statements

        def local_statements(g, condition):
            result = original(g, condition)
            return frozenset(sorted(result, key=lambda s: s.sort_key)[1:])

        _rebind(original, local_statements)
        return lambda: None

    if name == "slow-canonical-key":
        original = lcn.formula.canonical_key
        armed = [False]

        def canonical_key(f):
            if armed[0]:
                armed[0] = False
                time.sleep(0.05)
            return original(f)

        _rebind(original, canonical_key)

        def arm() -> None:
            armed[0] = True

        return arm

    raise ValueError(f"unknown fault {name!r}")
