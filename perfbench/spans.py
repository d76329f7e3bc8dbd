"""Span tracing around the public functions of `lcn`, from outside.

`Tracer.install()` replaces each traced function wherever it is bound in
an `lcn.*` module namespace (and each traced method on its class) with a
wrapper that records a span: name, start, end, parent span and the id of
the op it belongs to.  Spans stay in memory until `write()`.

Calls made outside an op, such as the benchmark's own output checks,
are not recorded.  `eval_formula` is called once per table row and recurses, so it is traced
as a *leaf*: only top-level calls count, and the calls one parent span
makes are merged into a single span record carrying the call count and
the summed busy time.  A span's self time is its busy time minus the busy
time of its child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# span name -> stats reported for it (besides what COUNTERS add)
SPAN_STATS = {
    "formula.canonical_key": ("calls", "self_s"),
    "formula.eval_formula": ("calls", "self_s"),
    "model.parse_lcn": ("self_s",),
    "model.validate": ("self_s",),
    "model.format_lcn": ("self_s",),
    "build.dependency_graph": ("calls", "self_s"),
    "build.structure": ("calls", "self_s"),
    "build.mixed_structure": ("calls", "self_s"),
    "build.lcn_parents": ("calls", "self_s"),
    "build.lcn_descendants": ("calls", "self_s"),
    "graph.MixedGraph": ("calls", "self_s"),
    "graph.descendants": ("calls", "self_s"),
    "graph.strict_descendants": ("calls", "self_s"),
    "graph.has_directed_cycle": ("calls", "self_s"),
    "graph.gma": ("calls", "self_s"),
    "graph.separates": ("calls", "self_s"),
    "graph.moral_graph": ("calls", "self_s"),
    "graph.induced_subgraph": ("calls", "self_s"),
    "markov.local_statements.lmc-lcn": ("self_s",),
    "markov.local_statements.lmc-c": ("self_s",),
    "markov.local_statements.lmc-cstr": ("self_s",),
    "markov.local_statements.lmc-d": ("self_s",),
    "markov.gmc_implies": ("calls", "self_s"),
    "markov.enumerate_gmc": ("calls", "self_s"),
    "factorize.factorization_plan": ("self_s",),
    "factorize.condense_cycles": ("self_s",),
    "factorize.prune_hard_constraints": ("self_s",),
    "factorize.component_dag": ("self_s",),
    "oracle.sample_chain_factorized": ("calls", "self_s"),
    "oracle.check_independence": ("calls", "self_s"),
    "oracle.check_model": ("calls", "self_s"),
    "oracle.cond_prob": ("calls", "self_s"),
    "cli.main": ("self_s",),
    "op": ("self_s",),
}

# metric -> unit, for the values that are not span stats
COUNTERS = {
    "formula.canonical_key.distinct_ratio": "ratio",
    "markov.gmc_implies.true_ratio": "ratio",
    "markov.gmc_implies.distinct_ratio": "ratio",
    "markov.statements": "count/op",
    "oracle.table_cells": "count/op",
    "build.nodes": "count/op",
    "build.edges": "count/op",
    "factorize.cliques": "count/op",
    "cli.import_lcn_s": "s/op",
    "cli.import_networkx_s": "s/op",
    "trace.overhead_ratio": "ratio",
    "share.formula_model_build": "share",
    "share.graph_markov": "share",
    "share.oracle_eval": "share",
    "share.startup_import": "share",
}

# Layer groups behind the share.* metrics: the share of op wall time spent
# as self time of spans whose name starts with one of the prefixes.
GROUPS = {
    "share.formula_model_build": ("formula.", "model.", "build."),
    "share.graph_markov": ("graph.", "markov."),
    "share.oracle_eval": ("oracle.", "formula.eval_formula"),
}

STAT_UNITS = {"calls": "calls/op", "self_s": "s/op"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    out = {f"{name}.{stat}": STAT_UNITS[stat]
           for name, stats in SPAN_STATS.items() for stat in stats}
    out.update(COUNTERS)
    return out


def bindings(original) -> list[tuple[object, str]]:
    """Every (module, attribute) of a loaded `lcn` module bound to `original`."""
    out = []
    for mod_name, module in list(sys.modules.items()):
        if module is not None and (mod_name == "lcn" or mod_name.startswith("lcn.")):
            out += [(module, attr) for attr, value in vars(module).items() if value is original]
    return out


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = array("i")
        self.busy = array("d")
        self._stack: list[int] = []
        self._leaf: dict[tuple[int, int], list] = {}
        self._in_leaf = False
        self._op_id = -1
        self._op_seen: dict[str, set] = {}
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, t0: float) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.op.append(self._op_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(t0)
        self.end.append(t0)
        self.calls.append(1)
        self.busy.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t1: float) -> None:
        self._stack.pop()
        self.end[idx] = t1
        self.busy[idx] = t1 - self.start[idx]

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._op_seen = {}
        self._open(self._nid("op"), perf_counter())

    def end_op(self) -> None:
        self._close(self._stack[-1], perf_counter())
        self._flush_leaves()
        self._stack.clear()

    def _flush_leaves(self) -> None:
        for (parent, nid), (calls, busy, t0, t1) in self._leaf.items():
            self.name.append(nid)
            self.op.append(self._op_id)
            self.parent.append(parent)
            self.start.append(t0)
            self.end.append(t1)
            self.calls.append(calls)
            self.busy.append(busy)
        self._leaf.clear()

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + n

    def seen(self, kind: str, key: object) -> None:
        """Count `key` once per op under `<kind>.distinct`."""
        bucket = self._op_seen.setdefault(kind, set())
        if key not in bucket:
            bucket.add(key)
            self.count(kind + ".distinct", 1)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str, *, name_of=None, after=None):
        """Wrapper recording one span per call.  `name_of(args)` may refine
        the span name; `after(result, args)` updates the counters."""
        tracer = self
        fixed = self._nid(name)

        def traced(*args, **kwargs):
            if not tracer._stack:  # outside an op, e.g. in an output check
                return fn(*args, **kwargs)
            nid = tracer._nid(name_of(args, kwargs)) if name_of else fixed
            idx = tracer._open(nid, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, perf_counter())
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, fn, name: str):
        """Wrapper for a recursive hot function: nested calls pass straight
        through, top-level calls are merged per parent span."""
        tracer = self
        nid = self._nid(name)

        def traced(*args, **kwargs):
            if tracer._in_leaf or not tracer._stack:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._in_leaf = False
                key = (tracer._stack[-1] if tracer._stack else -1, nid)
                acc = tracer._leaf.get(key)
                if acc is None:
                    tracer._leaf[key] = [1, t1 - t0, t0, t1]
                else:
                    acc[0] += 1
                    acc[1] += t1 - t0
                    acc[3] = t1

        traced.__wrapped__ = fn
        return traced

    def replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def replace_everywhere(self, original, new) -> None:
        for module, attr in bindings(original):
            self.replace(module, attr, new)

    def install(self) -> None:
        import lcn.build
        import lcn.factorize
        import lcn.formula
        import lcn.graph
        import lcn.markov
        import lcn.model
        import lcn.oracle

        count = self.count

        def graph_size(g, _args):
            count("build.nodes", len(g.nodes))
            count("build.edges", len(g.directed) + len(g.undirected))

        def canonical_seen(_result, args):
            self.seen("formula.canonical_key", args[0])

        def gmc_seen(result, args):
            g, n1, n2, n3 = args
            outer = frozenset((frozenset(g.resolve_set(n1)), frozenset(g.resolve_set(n3))))
            self.seen("markov.gmc_implies", (outer, frozenset(g.resolve_set(n2))))
            count("markov.gmc_implies.true", bool(result))

        def statements(result, _args):
            count("markov.statements", len(result))

        def cliques(plan, _args):
            count("factorize.cliques", sum(len(f.cliques) for f in plan.factors))

        def cells_out(table, _args):
            count("oracle.table_cells", len(table.probs))

        def cells_in(_result, args):
            count("oracle.table_cells", len(args[0].probs))

        def condition_name(args, kwargs):
            return "markov.local_statements." + str(kwargs.get("condition", args[1]))

        functions = [
            (lcn.formula.canonical_key, "formula.canonical_key", {"after": canonical_seen}),
            (lcn.model.parse_lcn, "model.parse_lcn", {}),
            (lcn.model.validate, "model.validate", {}),
            (lcn.model.format_lcn, "model.format_lcn", {}),
            (lcn.build.dependency_graph, "build.dependency_graph", {"after": graph_size}),
            (lcn.build.structure, "build.structure", {"after": graph_size}),
            (lcn.build.mixed_structure, "build.mixed_structure", {"after": graph_size}),
            (lcn.build.lcn_parents, "build.lcn_parents", {}),
            (lcn.build.lcn_descendants, "build.lcn_descendants", {}),
            (lcn.markov.local_statements, "markov.local_statements",
             {"name_of": condition_name, "after": statements}),
            (lcn.markov.gmc_implies, "markov.gmc_implies", {"after": gmc_seen}),
            (lcn.markov.enumerate_gmc, "markov.enumerate_gmc", {"after": statements}),
            (lcn.factorize.factorization_plan, "factorize.factorization_plan", {"after": cliques}),
            (lcn.factorize.condense_cycles, "factorize.condense_cycles", {}),
            (lcn.factorize.prune_hard_constraints, "factorize.prune_hard_constraints", {}),
            (lcn.factorize.component_dag, "factorize.component_dag", {}),
            (lcn.oracle.sample_chain_factorized, "oracle.sample_chain_factorized",
             {"after": cells_out}),
            (lcn.oracle.check_independence, "oracle.check_independence", {"after": cells_in}),
            (lcn.oracle.check_model, "oracle.check_model", {}),
            (lcn.oracle.cond_prob, "oracle.cond_prob", {"after": cells_in}),
        ]
        for fn, name, options in functions:
            self.replace_everywhere(fn, self.wrap(fn, name, **options))
        self.replace_everywhere(lcn.formula.eval_formula,
                                self.wrap_leaf(lcn.formula.eval_formula, "formula.eval_formula"))

        graph_cls = lcn.graph.MixedGraph
        self.replace(graph_cls, "__init__", self.wrap(graph_cls.__init__, "graph.MixedGraph"))
        for method in ("descendants", "strict_descendants", "has_directed_cycle", "gma",
                       "separates", "moral_graph", "induced_subgraph"):
            self.replace(graph_cls, method, self.wrap(getattr(graph_cls, method), f"graph.{method}"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        child = [0.0] * len(self.name)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.busy[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            self_s[name] = self_s.get(name, 0.0) + self.busy[i] - child[i]
            calls[name] = calls.get(name, 0) + self.calls[i]
        return self_s, calls

    def absorb(self, records: list[list]) -> None:
        """Append spans a child process recorded for the current op, its
        top-level spans becoming children of the open span; records are
        `[id, parent_id, name, start, end, calls, busy]` with ids from 0."""
        offset = len(self.name)
        root = self._stack[-1] if self._stack else -1
        for _, parent, name, t0, t1, calls, busy in records:
            self.name.append(self._nid(name))
            self.op.append(self._op_id)
            self.parent.append(parent + offset if parent >= 0 else root)
            self.start.append(t0)
            self.end.append(t1)
            self.calls.append(calls)
            self.busy.append(busy)

    def records(self):
        for i in range(len(self.name)):
            yield [i, self.parent[i], self.names[self.name[i]], self.start[i],
                   self.end[i], self.calls[i], self.busy[i]]

    def write(self, path) -> None:
        """Spans as JSON lines: `[op, id, parent, name, start, end, calls, busy]`."""
        with open(path, "w", encoding="utf-8") as out:
            for i, record in enumerate(self.records()):
                out.write(json.dumps([self.op[i]] + record) + "\n")


def layer_metrics(tracer: Tracer, ops: int, op_wall_s: float,
                  extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values for `ops` traced ops taking `op_wall_s` in all.

    `extra` supplies values measured outside the tracer (import times,
    start-up time).  ``trace.overhead_ratio`` needs an untraced run of the
    same ops and is added by run.py."""
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    out: dict[str, float] = {}
    for name, stats in SPAN_STATS.items():
        if "calls" in stats:
            out[f"{name}.calls"] = calls.get(name, 0) / ops
        if "self_s" in stats:
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["formula.canonical_key.distinct_ratio"] = ratio(
        counts.get("formula.canonical_key.distinct", 0), calls.get("formula.canonical_key", 0))
    out["markov.gmc_implies.true_ratio"] = ratio(
        counts.get("markov.gmc_implies.true", 0), calls.get("markov.gmc_implies", 0))
    out["markov.gmc_implies.distinct_ratio"] = ratio(
        counts.get("markov.gmc_implies.distinct", 0), calls.get("markov.gmc_implies", 0))
    for name in ("markov.statements", "oracle.table_cells", "build.nodes", "build.edges",
                 "factorize.cliques"):
        out[name] = counts.get(name, 0) / ops
    for group, prefixes in GROUPS.items():
        busy = sum(v for k, v in self_s.items() if k.startswith(prefixes))
        out[group] = ratio(busy, op_wall_s)
    out["cli.import_lcn_s"] = extra.get("import_lcn_s", 0.0) / ops
    out["cli.import_networkx_s"] = extra.get("import_networkx_s", 0.0) / ops
    out["share.startup_import"] = ratio(extra.get("startup_s", 0.0), op_wall_s)
    return out
