"""Factorization plans over chain graphs, cycle condensation, and
hard-constraint pruning.

A chain graph's joint distribution (under the usual positivity assumption)
splits into one conditional factor per chain component, taken in an order
where directed edges only point forward.  Each factor in turn factorizes
over the cliques of an undirected graph on the component plus its boundary,
with the boundary completed.  `factorization_plan` records all of that
symbolically; numeric work lives in the oracle module.

Graphs with directed cycles first go through `condense_cycles`, which
contracts every set of nodes that lies on directed cycles into a single
super-node, leaving a chain graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import GraphError
from .formula import (
    BOTTOM_KEY,
    TOP_KEY,
    Not,
    Or,
    canonical_key,
    truth_mask,
)
from .graph import MixedGraph, Node, _bits, _collapse_bidirected, super_node
from .model import Lcn, format_constraint


def component_dag(g: MixedGraph) -> tuple[frozenset[Node], ...]:
    """Chain components in a topological order of the component-level DAG.

    Ties break on the smallest member node, so the order is deterministic.
    Raises GraphError when the graph has a directed cycle.
    """
    return tuple(g._members(members) for members, _ in _ordered_chains(g))


def _ordered_chains(g: MixedGraph) -> list[tuple[int, int]]:
    """`g._chain_masks()` in `component_dag` order: Kahn's algorithm with a
    heap of indices, which number the components by their lowest nodes."""
    if g.has_directed_cycle():
        raise GraphError("component ordering requires a graph without directed cycles")
    chains = g._chain_masks()
    owner = {i: k for k, (members, _) in enumerate(chains) for i in _bits(members)}
    waiting = [{owner[i] for i in _bits(parents & ~members)} for members, parents in chains]
    later: list[list[int]] = [[] for _ in chains]
    for k, earlier in enumerate(waiting):
        for j in earlier:
            later[j].append(k)
    ready = [k for k, earlier in enumerate(waiting) if not earlier]  # ascending: a heap
    order = []
    while ready:
        k = heapq.heappop(ready)
        order.append(chains[k])
        for j in later[k]:
            waiting[j].remove(k)
            if not waiting[j]:
                heapq.heappush(ready, j)
    return order


@dataclass(frozen=True)
class ComponentFactor:
    """One factor P(component | boundary) with its clique structure."""

    component: tuple[Node, ...]
    boundary: tuple[Node, ...]
    graph: MixedGraph
    cliques: tuple[tuple[Node, ...], ...]
    expression: str


@dataclass(frozen=True)
class FactorizationPlan:
    factors: tuple[ComponentFactor, ...]
    positivity_assumed: bool = True

    @property
    def expression(self) -> str:
        return " * ".join(f.expression for f in self.factors)


def factorization_plan(g: MixedGraph) -> FactorizationPlan:
    """Symbolic chain-graph factorization: per component, the undirected
    graph on component ∪ boundary (in-graph edges undirected, boundary
    completed) and its maximal cliques.  Graphs with formula nodes are
    refused: a factor ranges over variables."""
    if any(n.kind == "formula" for n in g.nodes):
        raise GraphError("factorization is defined over variable nodes only")
    factors = []
    for members, parents in _ordered_chains(g):
        boundary = parents & ~members
        keep = members | boundary
        adjacent = {i: (g._boundary_masks[i] | g._child_masks[i]
                        | (boundary if boundary >> i & 1 else 0)) & ~(1 << i)
                    for i in _bits(keep)}
        component_graph = g._subgraph(keep, dict.fromkeys(adjacent, 0), adjacent)
        # Node tuples compare as their position lists do.
        cliques = tuple(map(component_graph._ordered, sorted(
            _maximal_cliques(component_graph), key=lambda clique: list(_bits(clique)))))

        component, given = g._ordered(members), g._ordered(boundary)
        names = ",".join(n.name for n in component)
        if given:
            names += " | " + ",".join(n.name for n in given)
        factors.append(ComponentFactor(component, given, component_graph, cliques, f"P({names})"))
    return FactorizationPlan(tuple(factors))


def _maximal_cliques(g: MixedGraph) -> list[int]:
    """Maximal cliques of an undirected graph as node masks: Bron–Kerbosch
    with Tomita pivoting, on an explicit stack of (clique, candidates,
    excluded) masks."""
    adjacent = g._neighbor_masks
    cliques: list[int] = []
    stack = [(0, (1 << len(g.nodes)) - 1, 0)]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates:
            if not excluded:
                cliques.append(clique)
            continue
        pivot = max(_bits(candidates | excluded),
                    key=lambda u: (candidates & adjacent[u]).bit_count())
        for v in _bits(candidates & ~adjacent[pivot]):
            stack.append((clique | 1 << v, candidates & adjacent[v], excluded & adjacent[v]))
            candidates ^= 1 << v
            excluded |= 1 << v
    return cliques


# ---------------------------------------------------------------------------
# Cycle condensation

def condense_cycles(g: MixedGraph) -> tuple[MixedGraph, dict[Node, Node]]:
    """Contract every maximal set of nodes lying on common directed cycles
    into a super-node; returns the quotient graph and the node mapping.

    Two nodes belong to the same set exactly when each reaches the other
    under the mixed-step relation and some round trip between them uses a
    directed edge — equivalently, their strongly connected component of
    the step relation contains a directed edge internally.  Contracting
    those components at once is the fixpoint of the merge-overlapping-sets
    procedure, and the quotient provably has no directed cycles: any
    quotient cycle would lift to a closed mixed walk through a directed
    edge whose endpoints would then share a contracted component.
    """
    sccs = g._step_components()
    cyclic = {scc for scc, children in zip(sccs, g._child_masks) if children & scc}
    merged = {scc: super_node(n.name for n in g._ordered(scc)) for scc in cyclic}
    mapping = {n: merged.get(scc, n) for n, scc in zip(g.nodes, sccs)}

    directed = [(mapping[a], mapping[b]) for a, b in g.directed if mapping[a] != mapping[b]]
    undirected = [(mapping[a], mapping[b]) for a, b in g.undirected if mapping[a] != mapping[b]]
    return _collapse_bidirected(MixedGraph(mapping.values(), directed, undirected)), mapping


# ---------------------------------------------------------------------------
# Hard-constraint pruning

@dataclass(frozen=True)
class CliqueConfigurations:
    """Surviving assignments of one clique after pruning.

    `configurations[i][j]` is the value of `clique[j]`; initially all
    2^len(clique) assignments are present.
    """

    component_index: int
    clique: tuple[str, ...]
    configurations: tuple[tuple[int, ...], ...]
    removed: int


@dataclass(frozen=True)
class PruneReport:
    cliques: tuple[CliqueConfigurations, ...]
    errors: tuple[str, ...]


def prune_hard_constraints(lcn: Lcn, plan: FactorizationPlan) -> PruneReport:
    """Remove clique configurations ruled out by hard constraints.

    A constraint with lo = 1 forces its formula (its implication form,
    for conditional constraints) to hold almost surely; configurations
    falsifying it are removed from the first plan clique containing the
    formula's propositions.  A hard constraint whose propositions fit in
    no single clique is reported as an error rather than accepted.
    """
    # Each clique keeps its surviving configurations as one mask: bit idx is
    # the configuration whose bit j is the value of the clique's j-th name.
    spaces = [[ci, tuple(n.name for n in clique), (1 << (1 << len(clique))) - 1]
              for ci, factor in enumerate(plan.factors) for clique in factor.cliques]
    errors: list[str] = []
    for c in lcn.constraints:
        if c.lo != 1.0:
            continue
        effective = c.phi if canonical_key(c.psi) == TOP_KEY else Or(Not(c.psi), c.phi)
        key = canonical_key(effective)
        if key == TOP_KEY:
            continue
        if key == BOTTOM_KEY:
            errors.append(f"hard constraint is unsatisfiable: {format_constraint(c)}")
            continue
        home = next((space for space in spaces if set(key[0]) <= set(space[1])), None)
        if home is None:
            errors.append(
                "hard constraint propositions do not fit inside any single "
                f"clique: {format_constraint(c)}"
            )
            continue
        # LSB-first indices, so the MSB-first kernel gets the names reversed;
        # propositions of the formula outside the clique are irrelevant.
        home[2] &= truth_mask(effective, home[1][::-1])

    return PruneReport(
        cliques=tuple(
            CliqueConfigurations(
                ci, names,
                tuple(tuple(idx >> j & 1 for j in range(len(names))) for idx in _bits(alive)),
                (1 << len(names)) - alive.bit_count())
            for ci, names, alive in spaces
        ),
        errors=tuple(errors),
    )
