"""Command-line front end.

One subcommand per construct:

* ``lcn parse model.lcn`` — parse, validate, and echo the canonical form.
* ``lcn graph model.lcn --kind structure --format dot`` — emit a graph.
* ``lcn indep model.lcn --condition lmc-d`` — independence statements.
* ``lcn compare a.lcn b.lcn --condition-a lmc-d --condition-b gmc-c``
* ``lcn factorize model.lcn [--prune]`` — chain-graph factorization plan.
* ``lcn check-dist table.json model.lcn [--strict]`` — check a joint table.
* ``lcn verify model.lcn --samples 20 --seed 1`` — sample factorized
  tables and confirm the local statements hold on each.
* ``lcn condense model.lcn`` — contract directed cycles into super-nodes.

All output is deterministic for fixed inputs and seeds.  Exit status: 0 on
success, 1 on a domain error or failed check, 2 on usage errors.  Set the
``LCN_COLOR`` environment variable to a nonempty value (other than ``0``)
to color check results.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Sequence

from .errors import LcnError
from .model import Lcn, format_constraint, format_lcn, parse_lcn, validate

if TYPE_CHECKING:
    from .factorize import FactorizationPlan
    from .graph import MixedGraph

# Each subcommand imports the layers it runs, so that `lcn parse` never
# loads the graph, Markov, factorization or oracle modules.

GRAPH_KINDS = ("dependency", "structure", "mixed")

#: Graph each condition reads most naturally, used when --graph is omitted.
#: Its keys are the --condition choices, in the order of markov.CONDITIONS
#: (a test pins the two equal); the copy keeps markov out of parser set-up.
DEFAULT_GRAPH_FOR_CONDITION = {
    "lmc-lcn": "dependency",
    "lmc-c": "structure",
    "lmc-cstr": "structure",
    "lmc-d": "mixed",
    "gmc-c": "structure",
}


def _paint(text: str, code: str) -> str:
    if os.environ.get("LCN_COLOR", "") in ("", "0"):
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


_STATUS_STYLE = {"satisfied": "32", "violated": "31", "vacuous": "33"}


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise LcnError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise LcnError(f"cannot read {path}: {exc}") from None


def _load_model(path: str) -> Lcn:
    return parse_lcn(_read_text(path))


def _build_graph(lcn: Lcn, kind: str, syntactic: bool = False) -> MixedGraph:
    """The graph of `kind`, one of GRAPH_KINDS (argparse checks it)."""
    from . import build

    if kind == "dependency":
        return build.dependency_graph(
            lcn, merge="syntactic" if syntactic else "semantic")
    if kind == "structure":
        return build.structure(lcn)
    return build.mixed_structure(lcn)


def _emit_json(data: object) -> None:
    import json

    print(json.dumps(data, indent=2))


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_parse(args: argparse.Namespace) -> int:
    lcn = _load_model(args.model)
    print(f"propositions ({len(lcn.props)}): {', '.join(lcn.props)}")
    print(format_lcn(lcn), end="")
    failed = False
    for diagnostic in validate(lcn):
        print(str(diagnostic), file=sys.stderr)
        failed = failed or diagnostic.severity == "error"
    return 1 if failed else 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from .graph import to_dot, to_json_dict

    g = _build_graph(_load_model(args.model), args.kind, args.syntactic)
    if args.format == "dot":
        print(to_dot(g), end="")
    else:
        _emit_json(to_json_dict(g))
    return 0


def _statements_for(args: argparse.Namespace) -> tuple[str, frozenset]:
    from . import markov

    graph_kind = args.graph or DEFAULT_GRAPH_FOR_CONDITION[args.condition]
    g = _build_graph(_load_model(args.model), graph_kind)
    statements = markov.statements_for(
        g, args.condition, max_x=args.max_x, max_z=args.max_z)
    return graph_kind, statements


def _cmd_indep(args: argparse.Namespace) -> int:
    graph_kind, statements = _statements_for(args)
    ordered = sorted(statements, key=lambda s: s.sort_key)
    if args.format == "json":
        _emit_json({
            "condition": args.condition,
            "graph": graph_kind,
            "statements": [s.to_json_dict() for s in ordered],
        })
    else:
        for statement in ordered:
            print(statement)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from . import markov

    kind_a = args.graph_a or DEFAULT_GRAPH_FOR_CONDITION[args.condition_a]
    kind_b = args.graph_b or DEFAULT_GRAPH_FOR_CONDITION[args.condition_b]
    g_a = _build_graph(_load_model(args.model_a), kind_a)
    g_b = _build_graph(_load_model(args.model_b), kind_b)
    report = markov.compare_conditions(
        g_a, args.condition_a, g_b, args.condition_b,
        max_x=args.max_x, max_z=args.max_z)
    if args.format == "json":
        _emit_json({
            "a": {"model": args.model_a, "graph": kind_a, "condition": args.condition_a},
            "b": {"model": args.model_b, "graph": kind_b, "condition": args.condition_b},
            "only_in_a": [s.to_json_dict() for s in report.only_in_a],
            "only_in_b": [s.to_json_dict() for s in report.only_in_b],
            "shared": [s.to_json_dict() for s in report.shared],
        })
        return 0
    for title, statements in (("only in a", report.only_in_a),
                              ("only in b", report.only_in_b),
                              ("shared", report.shared)):
        print(f"{title} ({len(statements)}):")
        for statement in statements:
            print(f"  {statement}")
    return 0


def _plan_json(plan: FactorizationPlan) -> dict:
    return {
        "positivity_assumed": plan.positivity_assumed,
        "expression": plan.expression,
        "factors": [
            {
                "component": [n.name for n in f.component],
                "boundary": [n.name for n in f.boundary],
                "cliques": [[n.name for n in clique] for clique in f.cliques],
                "expression": f.expression,
            }
            for f in plan.factors
        ],
    }


def _cmd_factorize(args: argparse.Namespace) -> int:
    from . import factorize

    lcn = _load_model(args.model)
    g = _build_graph(lcn, args.kind)
    plan = factorize.factorization_plan(g)
    prune = factorize.prune_hard_constraints(lcn, plan) if args.prune else None
    if args.format == "json":
        data = _plan_json(plan)
        if prune is not None:
            data["prune"] = {
                "layout": "alive is a hex mask: bit i is set iff the assignment "
                          "giving clique[j] bit j of i survives",
                "cliques": [
                    {
                        "factor": space.component_index,
                        "clique": list(space.clique),
                        "alive": format(space.alive, "x"),
                        "removed": space.removed,
                    }
                    for space in prune.cliques
                ],
                "errors": list(prune.errors),
            }
        _emit_json(data)
        return 1 if prune is not None and prune.errors else 0
    print(plan.expression)
    for i, factor in enumerate(plan.factors):
        cliques = " ".join(
            "{" + ",".join(n.name for n in clique) + "}" for clique in factor.cliques)
        print(f"  factor {i}: {factor.expression}  cliques: {cliques}")
    if prune is not None:
        for space in prune.cliques:
            if space.removed:
                print(f"  pruned {space.removed} configuration(s) from "
                      f"{{{','.join(space.clique)}}} of factor {space.component_index}")
        for message in prune.errors:
            print(f"error: {message}", file=sys.stderr)
        if prune.errors:
            return 1
    return 0


def _cmd_check_dist(args: argparse.Namespace) -> int:
    import json

    from . import oracle

    text = _read_text(args.table)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        # Drop Python's advice to raise its integer-digit limit: not a CLI option.
        message = str(exc).split("; use sys.set_int_max_str_digits()")[0]
        raise LcnError(f"{args.table}: {message}") from None
    table = oracle.table_from_json_dict(data)
    lcn = _load_model(args.model)
    tol = oracle.DEFAULT_TOL if args.tol is None else args.tol
    report = oracle.check_model(table, lcn, tol=tol)
    for check in report.constraints:
        status = _paint(check.status, _STATUS_STYLE[check.status])
        value = "undefined" if check.value is None else f"{check.value:.6f}"
        line = f"{status:<9} {format_constraint(check.constraint)}  value={value}"
        if check.status == "violated":
            line += f" margin={check.margin:.6f}"
        print(line)
    ok = report.ok(strict=args.strict)
    print("ok" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import build, factorize, markov, oracle

    lcn = _load_model(args.model)
    g = build.structure(lcn)
    plan = factorize.factorization_plan(g)
    statements = sorted(
        markov.local_statements(build.dependency_graph(lcn), markov.LMC_LCN),
        key=lambda s: s.sort_key)
    failures = 0
    worst = 0.0
    for i in range(args.samples):
        table = oracle.sample_chain_factorized(g, plan, args.seed + i)
        for statement in statements:
            check = oracle.check_independence(table, statement, tol=args.tol)
            worst = max(worst, check.max_deviation)
            if not check.holds:
                failures += 1
                print(f"sample {i}: {statement} deviates by {check.max_deviation:.3g}")
    print(f"{args.samples} sample(s), {len(statements)} statement(s) each, "
          f"max deviation {worst:.3g}")
    if failures:
        print(_paint(f"FAIL: {failures} statement check(s) failed", "31"))
        return 1
    print(_paint("ok", "32"))
    return 0


def _cmd_condense(args: argparse.Namespace) -> int:
    from . import factorize
    from .graph import to_dot, to_json_dict

    g = _build_graph(_load_model(args.model), args.kind)
    quotient, mapping = factorize.condense_cycles(g)
    if args.format == "dot":
        print(to_dot(quotient), end="")
        return 0
    supers = sorted({node for node in mapping.values() if node.kind == "super"})
    data = to_json_dict(quotient)
    data["super_nodes"] = {
        node.name: sorted(node.members or ()) for node in supers
    }
    data["mapping"] = {
        original.name: image.name
        for original, image in sorted(mapping.items(), key=lambda kv: kv[0].sort_key)
        if original != image
    }
    _emit_json(data)
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing

def _int_at_least(text: str, lo: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = lo - 1
    if value < lo:
        raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0, "nonnegative")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    # A tolerance of 1 or more (or NaN) passes every check, so it is refused.
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1), got {text!r}")
    return value


def _add_condition_options(parser: argparse.ArgumentParser, suffix: str = "") -> None:
    parser.add_argument(f"--condition{suffix}", required=True,
                        choices=tuple(DEFAULT_GRAPH_FOR_CONDITION))
    parser.add_argument(f"--graph{suffix}", choices=GRAPH_KINDS, default=None,
                        help="graph to read (default depends on the condition)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcn",
        description="Constraint models, their graphs, Markov conditions, "
                    "factorizations, and exact desk-scale checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and validate a model file")
    p.add_argument("model")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("graph", help="emit a graph derived from a model")
    p.add_argument("model")
    p.add_argument("--kind", choices=GRAPH_KINDS, default="structure")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--syntactic", action="store_true",
                   help="merge dependency-graph formula nodes by syntax, not meaning")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("indep", help="list independence statements")
    p.add_argument("model")
    _add_condition_options(p)
    p.add_argument("--max-x", type=_positive_int, default=2)
    p.add_argument("--max-z", type=_nonnegative_int, default=3)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_indep)

    p = sub.add_parser("compare", help="diff the statements of two conditions")
    p.add_argument("model_a")
    p.add_argument("model_b")
    _add_condition_options(p, "-a")
    _add_condition_options(p, "-b")
    p.add_argument("--max-x", type=_positive_int, default=2)
    p.add_argument("--max-z", type=_nonnegative_int, default=3)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("factorize", help="chain-graph factorization plan")
    p.add_argument("model")
    p.add_argument("--kind", choices=GRAPH_KINDS, default="structure")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--prune", action="store_true",
                   help="apply hard-constraint pruning to clique configurations")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("check-dist", help="check a joint table against a model")
    p.add_argument("table", help="JSON file: {\"props\": [...], \"probs\": [...]}")
    p.add_argument("model")
    p.add_argument("--strict", action="store_true",
                   help="treat vacuous conditional constraints as violations")
    p.add_argument("--tol", type=_tolerance, default=None)  # None: oracle.DEFAULT_TOL
    p.set_defaults(func=_cmd_check_dist)

    p = sub.add_parser("verify",
                       help="sample factorized tables and check local statements")
    p.add_argument("model")
    p.add_argument("--samples", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-7)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("condense", help="contract directed cycles into super-nodes")
    p.add_argument("model")
    p.add_argument("--kind", choices=GRAPH_KINDS, default="mixed")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=_cmd_condense)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LcnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
