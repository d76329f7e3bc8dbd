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
from .graph import MixedGraph, Node, _collapse_bidirected, formula_node, prop_node
from .model import Lcn


def _ordered_support(f: Formula) -> list[str]:
    return sorted(support(f))


class _FormulaNodes:
    """Formula-node registry: one node per distinct formula.

    In "semantic" mode (the default) formulas are distinct when their
    canonical keys differ, so logically equivalent formulas from different
    constraints share a node.  "syntactic" mode falls back to distinctness
    of the printed form.
    """

    def __init__(self, merge: str):
        if merge not in ("semantic", "syntactic"):
            raise GraphError(f"merge mode must be 'semantic' or 'syntactic', got {merge!r}")
        self.merge = merge
        self._nodes: dict[object, Node] = {}

    def is_top(self, f: Formula) -> bool:
        if self.merge == "semantic":
            return canonical_key(f) == TOP_KEY
        return format_formula(f) == "true"

    def as_single_prop(self, f: Formula) -> str | None:
        if self.merge == "semantic":
            return key_as_single_prop(canonical_key(f))
        return f.name if isinstance(f, Prop) else None

    def deps(self, f: Formula) -> list[str]:
        """Propositions a formula's edges connect to.

        Semantic mode uses the propositions the formula actually depends
        on, so a merged node's edge set is the same no matter which
        constraint introduced it.  Syntactic mode uses every proposition
        written in the formula.
        """
        if self.merge == "semantic":
            return list(canonical_key(f)[0])
        return _ordered_support(f)

    def node_for(self, f: Formula) -> Node:
        if self.merge == "semantic":
            ident: object = canonical_key(f)
            if ident not in self._nodes:
                self._nodes[ident] = formula_node(f)
        else:
            text = format_formula(f)
            ident = ("syntactic", text)
            if ident not in self._nodes:
                # Distinct-by-syntax nodes reuse the key slot with a marker
                # mask so they never collide with semantic fingerprints.
                self._nodes[ident] = Node("formula", text, key=((text,), -1))
        return self._nodes[ident]


def dependency_graph(lcn: Lcn, *, merge: str = "semantic") -> MixedGraph:
    """Directed graph over propositions and the formulas constraining them.

    For a constraint on P(phi given psi): the psi-node points at the
    phi-node, each proposition of psi points at the psi-node, and the
    phi-node points at each proposition of phi.  Group-U constraints add
    the reverse edges from phi's propositions into the phi-node.  A formula
    that is just one proposition is not materialized — its edges attach to
    the proposition-node itself — and self-loops arising that way are
    dropped.

    Under the default ``merge="semantic"`` the propositions of a formula
    are the ones it actually depends on, so the edges of a merged node do
    not depend on which constraint introduced it.  ``merge="syntactic"``
    keeps every proposition written in the formula.
    """
    registry = _FormulaNodes(merge)
    props = {name: prop_node(name) for name in lcn.props}
    nodes: set[Node] = set(props.values())
    directed: set[tuple[Node, Node]] = set()

    def add(a: Node, b: Node) -> None:
        if a != b:
            directed.add((a, b))

    def endpoint(f: Formula) -> Node:
        name = registry.as_single_prop(f)
        if name is not None:
            return props[name]
        node = registry.node_for(f)
        nodes.add(node)
        return node

    for c in lcn.constraints:
        phi_node = endpoint(c.phi)
        for p in registry.deps(c.phi):
            add(phi_node, props[p])
            if c.group == "U":
                add(props[p], phi_node)
        if not registry.is_top(c.psi):
            psi_node = endpoint(c.psi)
            for p in registry.deps(c.psi):
                add(props[p], psi_node)
            add(psi_node, phi_node)
    return MixedGraph(nodes, directed)


def structure(lcn: Lcn) -> MixedGraph:
    """Proposition-only mixed graph summarizing the model.

    Group-U constraints join the propositions of phi pairwise with
    undirected edges; every constraint adds directed edges from each
    proposition of psi to each proposition of phi; duplicate edges are
    dropped; and each bi-directed pair is replaced by a single undirected
    edge.
    """
    g = mixed_structure(lcn)
    return _collapse_bidirected(g.nodes, g.directed, g.undirected)


def mixed_structure(lcn: Lcn) -> MixedGraph:
    """Like `structure`, but bi-directed pairs survive as two directed
    edges."""
    props = {name: prop_node(name) for name in lcn.props}
    directed: set[tuple[Node, Node]] = set()
    undirected: set[tuple[Node, Node]] = set()
    for c in lcn.constraints:
        phi_props = _ordered_support(c.phi)
        if c.group == "U":
            for i, a in enumerate(phi_props):
                for b in phi_props[i + 1:]:
                    undirected.add((props[a], props[b]) if props[a] < props[b]
                                   else (props[b], props[a]))
        for p in _ordered_support(c.psi):
            for q in phi_props:
                if p != q:
                    directed.add((props[p], props[q]))
    return MixedGraph(props.values(), directed, undirected)


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
