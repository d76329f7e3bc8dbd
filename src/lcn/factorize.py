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
from itertools import combinations

from .errors import GraphError
from .formula import (
    BOTTOM_KEY,
    TOP_KEY,
    Not,
    Or,
    canonical_key,
    truth_mask,
)
from .graph import MixedGraph, Node, _collapse_bidirected, _undirected_key, super_node
from .model import Lcn, format_constraint


def component_dag(g: MixedGraph) -> tuple[frozenset[Node], ...]:
    """Chain components in a topological order of the component-level DAG.

    Ties break on the smallest member node, so the order is deterministic.
    Raises GraphError when the graph has a directed cycle.
    """
    if g.has_directed_cycle():
        raise GraphError("component ordering requires a graph without directed cycles")
    components = g.chain_components()
    index = {n: i for i, comp in enumerate(components) for n in comp}
    successors: list[set[int]] = [set() for _ in components]
    indegree = [0] * len(components)
    for a, b in g.directed:
        ia, ib = index[a], index[b]
        if ia != ib and ib not in successors[ia]:
            successors[ia].add(ib)
            indegree[ib] += 1

    def rank(i: int) -> tuple:
        return min(n.sort_key for n in components[i])

    ready = [(rank(i), i) for i in range(len(components)) if indegree[i] == 0]
    heapq.heapify(ready)
    order: list[frozenset[Node]] = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(components[i])
        for j in sorted(successors[i]):
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, (rank(j), j))
    return tuple(order)


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
    completed) and its maximal cliques."""
    factors = []
    for comp in component_dag(g):
        boundary = g.boundary_of_set(comp)
        keep = comp | boundary
        undirected: set[tuple[Node, Node]] = set()
        for a, b in g.directed:
            if a in keep and b in keep:
                undirected.add(_undirected_key(a, b))
        for a, b in g.undirected:
            if a in keep and b in keep:
                undirected.add((a, b))
        for a, b in combinations(sorted(boundary), 2):
            undirected.add(_undirected_key(a, b))
        component_graph = MixedGraph(keep, (), undirected)

        cliques = tuple(sorted(
            tuple(sorted(clique)) for clique in _maximal_cliques(component_graph)
        ))

        names = ",".join(n.name for n in sorted(comp))
        if boundary:
            expression = f"P({names} | {','.join(n.name for n in sorted(boundary))})"
        else:
            expression = f"P({names})"
        factors.append(ComponentFactor(
            component=tuple(sorted(comp)),
            boundary=tuple(sorted(boundary)),
            graph=component_graph,
            cliques=cliques,
            expression=expression,
        ))
    return FactorizationPlan(tuple(factors))


def _maximal_cliques(g: MixedGraph) -> list[list[Node]]:
    """Maximal cliques of an undirected graph: Bron–Kerbosch with Tomita
    pivoting, on an explicit stack of (clique, candidates, excluded)."""
    adjacent = {n: g.neighbors(n) for n in g.nodes}
    cliques: list[list[Node]] = []
    stack = [([], set(g.nodes), set())]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates:
            if not excluded:
                cliques.append(clique)
            continue
        pivot = max(candidates | excluded, key=lambda u: len(candidates & adjacent[u]))
        for v in candidates - adjacent[pivot]:
            stack.append((clique + [v], candidates & adjacent[v], excluded & adjacent[v]))
            candidates.remove(v)
            excluded.add(v)
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
    root = g._step_components()
    cyclic = {root[a] for a, b in g.directed if root[a] == root[b]}
    members: dict[Node, list[str]] = {}
    for n, r in root.items():
        if r in cyclic:
            members.setdefault(r, []).append(n.name)
    merged = {r: super_node(names) for r, names in members.items()}
    mapping = {n: merged.get(r, n) for n, r in root.items()}

    directed = {(mapping[a], mapping[b]) for a, b in g.directed
                if mapping[a] != mapping[b]}
    undirected = [(mapping[a], mapping[b]) for a, b in g.undirected if mapping[a] != mapping[b]]
    return _collapse_bidirected(set(mapping.values()), directed, undirected), mapping


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
    # Configurations are kept as indices: bit j of index idx is the value
    # of the clique's j-th proposition.
    spaces: list[tuple[int, tuple[str, ...], list[int]]] = []
    for ci, factor in enumerate(plan.factors):
        for clique in factor.cliques:
            names = tuple(n.name for n in clique)
            spaces.append((ci, names, list(range(1 << len(names)))))

    errors: list[str] = []
    removed_counts = [0] * len(spaces)
    for c in lcn.constraints:
        if c.lo != 1.0:
            continue
        effective = c.phi if canonical_key(c.psi) == TOP_KEY else Or(Not(c.psi), c.phi)
        key = canonical_key(effective)
        deps = key[0]
        if key == TOP_KEY:
            continue
        if key == BOTTOM_KEY:
            errors.append(f"hard constraint is unsatisfiable: {format_constraint(c)}")
            continue
        home = None
        for si, (_, names, _) in enumerate(spaces):
            if set(deps) <= set(names):
                home = si
                break
        if home is None:
            errors.append(
                "hard constraint propositions do not fit inside any single "
                f"clique: {format_constraint(c)}"
            )
            continue
        _, names, configs = spaces[home]
        # LSB-first indices, so the MSB-first kernel gets the names reversed;
        # propositions of the formula outside the clique are irrelevant.
        mask = truth_mask(effective, names[::-1])
        kept = [idx for idx in configs if mask >> idx & 1]
        removed_counts[home] += len(configs) - len(kept)
        spaces[home] = (spaces[home][0], names, kept)

    return PruneReport(
        cliques=tuple(
            CliqueConfigurations(
                ci, names,
                tuple(tuple((idx >> j) & 1 for j in range(len(names))) for idx in configs),
                removed_counts[si])
            for si, (ci, names, configs) in enumerate(spaces)
        ),
        errors=tuple(errors),
    )
