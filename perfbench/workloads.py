"""The four workloads: what one op does, its digest and its output checks.

An op calls the program through the `lcn` module attributes (``model.
parse_lcn(...)``), so the tracer and the self-check's faults, which rebind
those attributes, see every call.  The checks use references bound here at
import time, before anything is rebound, or the benchmark's own reference
code; they never run inside an op's timing.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import lcn.build as build
import lcn.factorize as factorize
import lcn.graph as graph
import lcn.markov as markov
import lcn.model as model
import lcn.oracle as oracle
from lcn.model import format_lcn as format_lcn_ref
from lcn.model import parse_lcn as parse_lcn_ref

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An op returned a wrong answer."""


def digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def statement_strings(statements) -> list[str]:
    return sorted(str(s) for s in statements)


# ---------------------------------------------------------------------------

class BuildLarge:
    """parse -> validate -> dependency graph -> structure -> mixed structure
    -> condensation -> plan on the quotient -> JSON/DOT/model text."""

    budget_s = 60.0

    def __init__(self, inputs: dict, workdir: Path):
        self.items = inputs["ops"]

    def run(self, item: dict) -> dict:
        m = model.parse_lcn(item["model"])
        diagnostics = model.validate(m)
        dep = build.dependency_graph(m)
        st = build.structure(m)
        mixed = build.mixed_structure(m)
        quotient, _ = factorize.condense_cycles(mixed)
        plan = factorize.factorization_plan(quotient)
        return {
            "props": m.props,
            "text": model.format_lcn(m),
            "diagnostics": [str(d) for d in diagnostics],
            "dependency_json": graph.to_json_dict(dep),
            "structure_dot": graph.to_dot(st),
            "quotient_dot": graph.to_dot(quotient),
            "plan": plan.expression,
        }

    def digest(self, item: dict, result: dict) -> str:
        return digest(result["text"], result["diagnostics"],
                      json.dumps(result["dependency_json"], sort_keys=True),
                      result["structure_dot"], result["quotient_dot"], result["plan"])

    def check(self, item: dict, result: dict) -> None:
        text = result["text"]
        again = parse_lcn_ref(text)
        if again.props != result["props"] or format_lcn_ref(again) != text:
            raise CheckFailed("format_lcn -> parse_lcn does not round-trip")


# ---------------------------------------------------------------------------

class IndepGraphs:
    """One statement set (or weak-descendant map) per op on a seeded graph."""

    budget_s = 60.0

    def __init__(self, inputs: dict, workdir: Path):
        self.items = inputs["ops"]

    def run(self, item: dict):
        g_in = item["graph"]
        g = graph.MixedGraph.from_props(g_in["nodes"],
                                        [tuple(e) for e in g_in["directed"]],
                                        [tuple(e) for e in g_in["undirected"]])
        if item["kind"] == "local":
            return markov.local_statements(g, item["condition"])
        if item["kind"] == "weak":
            return {n.name: markov.weak_descendants(g, n) for n in g.nodes}
        return markov.enumerate_gmc(g)

    def digest(self, item: dict, result) -> str:
        if item["kind"] == "weak":
            return digest(sorted((k, sorted(n.name for n in v)) for k, v in result.items()))
        return digest(statement_strings(result))

    def check(self, item: dict, result) -> None:
        if not item["graph"]["chain"] or item["kind"] == "gmc":
            return
        ref = ChainReference(item["graph"])
        if item["kind"] == "weak":
            got = {k: sorted(n.name for n in v) for k, v in result.items()}
            want = {a: sorted(ref.descendants(a) - ref.strict_descendants(a))
                    for a in ref.nodes}
        else:
            got = statement_strings(result)
            want = ref.local_statements(item["condition"])
        if got != want:
            raise CheckFailed(f"{item['kind']} {item.get('condition', '')} differs "
                              "from the chain-graph closed form")


class ChainReference:
    """Closed forms on a chain graph, by breadth-first search.

    With no directed cycle, a walk that repeats a node closes a loop of
    undirected edges only, which can be cut out without losing a directed
    edge.  So the descendants of A are the step-reachable nodes outside A's
    chain component, and its strict descendants are what is step-reachable
    from A's children.
    """

    def __init__(self, g: dict):
        self.nodes = list(g["nodes"])
        self.parents = {n: set() for n in self.nodes}
        self.children = {n: set() for n in self.nodes}
        self.neighbors = {n: set() for n in self.nodes}
        for a, b in g["directed"]:
            self.children[a].add(b)
            self.parents[b].add(a)
        for a, b in g["undirected"]:
            self.neighbors[a].add(b)
            self.neighbors[b].add(a)

    def _reach(self, start: str, steps) -> set[str]:
        seen = {start}
        queue = [start]
        while queue:
            n = queue.pop()
            for m in steps(n):
                if m not in seen:
                    seen.add(m)
                    queue.append(m)
        return seen

    def step_reach(self, start: str) -> set[str]:
        return self._reach(start, lambda n: self.children[n] | self.neighbors[n]) - {start}

    def descendants(self, a: str) -> set[str]:
        component = self._reach(a, lambda n: self.neighbors[n])
        return self.step_reach(a) - component

    def strict_descendants(self, a: str) -> set[str]:
        out: set[str] = set()
        for child in self.children[a]:
            out |= {child} | self.step_reach(child)
        return out - {a}

    def local_statements(self, condition: str) -> list[str]:
        out = set()
        for a in self.nodes:
            boundary = self.parents[a] | self.neighbors[a]
            if condition == "lmc-cstr":
                given, excluded = boundary, self.strict_descendants(a)
            elif condition == "lmc-c":
                given, excluded = boundary, self.descendants(a)
            else:
                given, excluded = self.parents[a], self.descendants(a)
            rest = set(self.nodes) - {a} - excluded - given
            if rest:
                x, y = (a,), tuple(sorted(rest))
                if x > y:
                    x, y = y, x
                text = f"{','.join(x)} _||_ {','.join(y)}"
                out.add(f"{text} | {','.join(sorted(given))}" if given else text)
        return sorted(out)


# ---------------------------------------------------------------------------

class OracleVerify:
    """structure -> plan -> factorized table -> every lmc-cstr statement
    checked on it -> model check -> hard-constraint pruning."""

    budget_s = 60.0

    def __init__(self, inputs: dict, workdir: Path):
        self.items = inputs["ops"]

    def run(self, item: dict) -> dict:
        m = model.parse_lcn(item["model"])
        g = build.structure(m)
        plan = factorize.factorization_plan(g)
        table = oracle.sample_chain_factorized(g, plan, item["seed"])
        statements = sorted(markov.local_statements(g, markov.LMC_CSTR),
                            key=lambda s: s.sort_key)
        checks = [oracle.check_independence(table, s, tol=1e-7) for s in statements]
        report = oracle.check_model(table, m)
        prune = factorize.prune_hard_constraints(m, plan)
        return {"plan": plan, "table": table, "checks": checks, "report": report,
                "prune": prune}

    def digest(self, item: dict, result: dict) -> str:
        return digest(
            result["plan"].expression,
            result["table"].probs,
            [(str(c.statement), c.holds, c.max_deviation) for c in result["checks"]],
            [(c.status, c.value, c.margin) for c in result["report"].constraints],
            [(s.clique, s.configurations, s.removed) for s in result["prune"].cliques],
            result["prune"].errors,
        )

    def check(self, item: dict, result: dict) -> None:
        failed = [str(c.statement) for c in result["checks"] if not c.holds]
        if failed:
            raise CheckFailed(f"lmc-cstr statements fail on the factorized table: {failed[:3]}")
        if result["prune"].errors:
            # every hard constraint of these models fits a plan clique by construction
            raise CheckFailed(f"pruning reported errors: {result['prune'].errors[:2]}")


# ---------------------------------------------------------------------------

class CliDesk:
    """One `python -m lcn <subcommand>` subprocess per op."""

    budget_s = 60.0

    def __init__(self, inputs: dict, workdir: Path):
        self.items = inputs["ops"]
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        self.env.pop("LCN_COLOR", None)
        self.tracer = None
        self.extra = {"import_lcn_s": 0.0, "import_networkx_s": 0.0, "startup_s": 0.0}

    def run(self, item: dict) -> subprocess.CompletedProcess:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "lcn", *item["argv"]]
        else:
            spans_out = self.workdir / "child-spans.json"
            cmd = [sys.executable, str(HERE / "clitrace.py"), str(spans_out), *item["argv"]]
        t0 = perf_counter()
        done = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=self.budget_s - 10)
        wall = perf_counter() - t0
        if self.tracer is not None:
            self._absorb(spans_out, wall)
        return done

    def _absorb(self, path: Path, wall: float) -> None:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        self.tracer.absorb(data["records"])
        self.extra["import_lcn_s"] += data["import_lcn_s"]
        self.extra["import_networkx_s"] += data["import_networkx_s"]
        # everything outside `cli.main`: interpreter start, imports, and the
        # tracer's own set-up and span dump
        main_busy = sum(r[6] for r in data["records"] if r[2] == "cli.main")
        self.extra["startup_s"] += wall - main_busy

    def digest(self, item: dict, result: subprocess.CompletedProcess) -> str:
        return digest(result.returncode, result.stdout, result.stderr)

    def check(self, item: dict, result: subprocess.CompletedProcess) -> None:
        if "Traceback" in result.stderr:
            raise CheckFailed(f"{item['argv'][0]} printed a traceback")
        if result.returncode != item["expect"]:
            raise CheckFailed(f"{' '.join(item['argv'])} exited {result.returncode}, "
                              f"expected {item['expect']}")
        if item["error"] and not any(line.startswith("error:")
                                     for line in result.stderr.splitlines()):
            raise CheckFailed(f"{' '.join(item['argv'])} printed no 'error:' line")


WORKLOADS = {
    "cli-desk": CliDesk,
    "build-large": BuildLarge,
    "indep-graphs": IndepGraphs,
    "oracle-verify": OracleVerify,
}
