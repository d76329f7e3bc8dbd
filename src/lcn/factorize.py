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
from typing import Mapping

from .errors import GraphError
from .formula import MAX_TRUTH_TABLE_PROPS, TOP_KEY, Not, Or, canonical_key, truth_mask
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
    """Symbolic chain-graph factorization: per component, the maximal
    cliques of the undirected graph on component ∪ boundary (edges of
    either kind inside it, undirected, and the boundary completed).  Graphs
    with formula nodes are refused: a factor ranges over variables."""
    if any(n.kind == "formula" for n in g.nodes):
        raise GraphError("factorization is defined over variable nodes only")
    factors = []
    for members, parents in _ordered_chains(g):
        boundary = parents & ~members
        keep = members | boundary
        adjacent = {i: (g._boundary_masks[i] | g._child_masks[i]
                        | (boundary if boundary >> i & 1 else 0)) & ~(1 << i)
                    for i in _bits(keep)}
        # Node tuples compare as their position lists do.
        cliques = tuple(map(g._ordered, sorted(
            _maximal_cliques(adjacent, keep), key=lambda clique: list(_bits(clique)))))

        component, given = g._ordered(members), g._ordered(boundary)
        names = ",".join(n.name for n in component)
        if given:
            names += " | " + ",".join(n.name for n in given)
        factors.append(ComponentFactor(component, given, cliques, f"P({names})"))
    return FactorizationPlan(tuple(factors))


def _maximal_cliques(adjacent: Mapping[int, int], nodes: int) -> list[int]:
    """Maximal cliques, as masks, of the undirected graph on the mask
    `nodes` whose node i has the neighbours `adjacent[i] & nodes`:
    Bron–Kerbosch with Tomita pivoting, on an explicit stack of (clique,
    candidates, excluded) masks."""
    cliques: list[int] = []
    stack = [(0, nodes, 0)]
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

    `alive` is the clique's truth mask of survivors: bit i is set iff the
    assignment i over `clique` survives (all 2^len(clique) bits before
    pruning).  `configurations[i][j]` is the value of `clique[j]` in the
    i-th survivor, in index order.
    """

    component_index: int
    clique: tuple[str, ...]
    alive: int

    @property
    def configurations(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(idx >> j & 1 for j in range(len(self.clique)))
                     for idx in _bits(self.alive))

    @property
    def removed(self) -> int:
        return (1 << len(self.clique)) - self.alive.bit_count()


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
    no single clique is reported as an error rather than accepted.  Raises
    GraphError, before any mask is built, on a clique of more than
    MAX_TRUTH_TABLE_PROPS propositions: each survivor mask is a truth table.
    """
    for factor in plan.factors:
        for clique in factor.cliques:
            if len(clique) > MAX_TRUTH_TABLE_PROPS:
                raise GraphError(
                    f"pruning a clique of {len(clique)} propositions exceeds the "
                    f"{MAX_TRUTH_TABLE_PROPS}-proposition truth-table cap: "
                    "{" + ",".join(n.name for n in clique) + "}")
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
        home = next((space for space in spaces if set(key[0]) <= set(space[1])), None)
        if home is None:
            errors.append(
                "hard constraint propositions do not fit inside any single "
                f"clique: {format_constraint(c)}"
            )
            continue
        # Propositions of the formula outside the clique are irrelevant.
        home[2] &= truth_mask(effective, home[1])

    return PruneReport(tuple(CliqueConfigurations(*space) for space in spaces), tuple(errors))
