"""Graph constructions over a constraint model.

Three graphs are derived from a model:

* the *dependency graph*, a directed graph over proposition-nodes and
  formula-nodes encoding which constraint mentions what;
* the *structure*, a proposition-only mixed graph in which a pair of
  opposite directed edges collapses into one undirected edge;
* the *mixed-structure*, the same construction with bi-directed pairs
  kept as they are.

Plus the two neighborhood notions the dependency graph supports:
`lcn_parents` and `lcn_descendants`.
"""

from __future__ import annotations

from typing import Iterable

from .errors import GraphError
from .formula import (
    Formula,
    Prop,
    TOP_KEY,
    canonical_key,
    format_formula,
    key_as_single_prop,
    support,
)
from .graph import MixedGraph, Node, _bits, _collapse_bidirected, prop_node
from .model import Lcn


def dependency_graph(lcn: Lcn, *, merge: str = "semantic") -> MixedGraph:
    """Directed graph over propositions and the formulas constraining them.

    For a constraint on P(phi given psi): the psi-node points at the
    phi-node, each proposition of psi points at the psi-node, and the
    phi-node points at each proposition of phi.  Group-U constraints add
    the reverse edges from phi's propositions into the phi-node.  A formula
    that is just one proposition is not materialized — its edges attach to
    the proposition-node itself — and self-loops arising that way are
    dropped.  A psi that is `true` adds no node and no edge.

    Under the default ``merge="semantic"`` formulas are one node when their
    canonical keys are equal, so logically equivalent formulas from
    different constraints share a node, displayed as the first rendering
    seen.  The propositions of a formula are the ones it actually depends
    on, so the edges of a merged node do not depend on which constraint
    introduced it.  ``merge="syntactic"`` makes one node per printed form,
    and keeps every proposition written in the formula.
    """
    if merge not in ("semantic", "syntactic"):
        raise GraphError(f"merge mode must be 'semantic' or 'syntactic', got {merge!r}")
    props = {name: prop_node(name) for name in lcn.props}
    formulas: dict[object, Node] = {}
    directed: set[tuple[Node, Node]] = set()

    def add(a: Node, b: Node) -> None:
        if a != b:
            directed.add((a, b))

    def endpoint(f: Formula) -> tuple[Node | None, Iterable[str]]:
        """The node of `f` (None for `true`) and the propositions its
        edges reach."""
        if merge == "semantic":
            key = canonical_key(f)
            if key == TOP_KEY:
                return None, ()
            name, deps, text = key_as_single_prop(key), key[0], None
        else:
            text = format_formula(f)
            if text == "true":
                return None, ()
            # Distinct-by-syntax nodes reuse the key slot with a marker
            # mask so they never collide with semantic fingerprints.
            name, deps, key = (f.name if isinstance(f, Prop) else None), support(f), ((text,), -1)
        if name is not None:
            return props[name], deps
        if key not in formulas:
            formulas[key] = Node("formula", text or format_formula(f), key=key)
        return formulas[key], deps

    for c in lcn.constraints:
        phi_node, phi_deps = endpoint(c.phi)
        for p in phi_deps:
            add(phi_node, props[p])
            if c.group == "U":
                add(props[p], phi_node)
        psi_node, psi_deps = endpoint(c.psi)
        if psi_node is not None:
            for p in psi_deps:
                add(props[p], psi_node)
            add(psi_node, phi_node)
    return MixedGraph([*props.values(), *formulas.values()], directed)


def structure(lcn: Lcn) -> MixedGraph:
    """Proposition-only mixed graph summarizing the model.

    Group-U constraints join the propositions of phi pairwise with
    undirected edges; every constraint adds directed edges from each
    proposition of psi to each proposition of phi; duplicate edges are
    dropped; and each bi-directed pair is replaced by a single undirected
    edge.
    """
    return _collapse_bidirected(mixed_structure(lcn))


def mixed_structure(lcn: Lcn) -> MixedGraph:
    """Like `structure`, but bi-directed pairs survive as two directed
    edges."""
    names = sorted(lcn.props)  # the node order: propositions sort by name
    bit = {name: 1 << i for i, name in enumerate(names)}
    children, neighbors = [0] * len(names), [0] * len(names)
    for c in lcn.constraints:
        phi = sum(bit[p] for p in support(c.phi))
        if c.group == "U":
            for i in _bits(phi):
                neighbors[i] |= phi & ~(1 << i)
        for i in _bits(sum(bit[p] for p in support(c.psi))):
            children[i] |= phi & ~(1 << i)
    return MixedGraph._from_masks(tuple(map(prop_node, names)), children, neighbors)


# ---------------------------------------------------------------------------
# Dependency-graph neighborhoods

def _require_prop(dep: MixedGraph, node) -> Node:
    n = dep.resolve(node)
    if n.kind != "prop":
        raise GraphError(f"expected a proposition-node, got {n!r}")
    return n


def _formula_mask(dep: MixedGraph) -> int:
    return dep._mask(n for n in dep.nodes if n.kind == "formula")


def _parents_mask(dep: MixedGraph, bit: int, formulas: int) -> int:
    """The lcn-parents of the proposition `bit`, as a mask."""
    return dep._reach(bit, dep._parent_masks, formulas) & ~(formulas | bit)


def _descendants_mask(dep: MixedGraph, bit: int, parents: int, formulas: int) -> int:
    """The lcn-descendants of the proposition `bit`, as a mask."""
    return dep._reach(bit, dep._child_masks, ~parents) & ~(formulas | bit)


def lcn_parents(dep: MixedGraph, node) -> frozenset[Node]:
    """Propositions with a directed path to `node` passing only through
    formula-nodes."""
    bit = dep._mask([_require_prop(dep, node)])
    return dep._members(_parents_mask(dep, bit, _formula_mask(dep)))


def lcn_descendants(dep: MixedGraph, node) -> frozenset[Node]:
    """Propositions reachable from `node` by a directed path none of whose
    intermediate nodes is an lcn-parent of `node`.

    Only propositions can block a path (lcn-parents are propositions, so
    formula nodes are always walked through), and a blocking proposition
    can still end a path: it is reported but never expanded.  This is what
    makes the local condition on the dependency graph match the local
    condition on the structure: a proposition kept out of a node's
    remainder by blocking is exactly one sitting in its boundary.
    """
    bit = dep._mask([_require_prop(dep, node)])
    formulas = _formula_mask(dep)
    return dep._members(_descendants_mask(dep, bit, _parents_mask(dep, bit, formulas), formulas))
