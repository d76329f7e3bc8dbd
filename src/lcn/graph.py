"""Mixed directed/undirected graphs and the constructions defined on them.

A mixed graph is a triple (nodes, directed edges, undirected edges) with no
self-loops and no duplicate edges.  A *bi-directed* pair — directed edges
both ways between two nodes — is deliberately distinct from a single
undirected edge; several constructions treat the two differently.

Path semantics: a path steps along `D1 -> D2` or `D1 ~ D2`, never against a
directed edge; all nodes on a path are distinct (a cycle repeats exactly its
endpoint).  A path or cycle is *directed* when it traverses at least one
directed edge, and a graph with no directed cycle is a *chain graph*.

Nodes carry a kind so graphs over propositions can coexist with graphs that
also hold formula nodes or the super-nodes produced by cycle condensation.

Bit convention: a graph sorts its nodes once, and a set of its nodes is an
int mask in which bit i stands for `nodes[i]`.  Adjacency is stored only
that way, one mask per node, and every traversal runs on masks; the edge
sets `directed` and `undirected` are views derived from the masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import GraphError
from .formula import CanonicalKey

_KIND_RANK = {"prop": 0, "super": 1, "formula": 2}


@dataclass(frozen=True, eq=False)
class Node:
    """A graph node: a proposition, a formula node, or a super-node.

    Formula nodes compare equal by semantic fingerprint, so two constraints
    mentioning logically equivalent formulas share one node; the display
    name keeps whatever rendering was seen first.  Super-nodes compare by
    their member set.
    """

    kind: str
    name: str
    key: CanonicalKey | None = None
    members: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_RANK:
            raise GraphError(f"unknown node kind {self.kind!r}")
        if self.kind == "formula" and self.key is None:
            raise GraphError("formula nodes need a canonical key")
        if self.kind == "super" and not self.members:
            raise GraphError("super-nodes need a nonempty member set")
        # Identity, order and hash are fixed at construction and computed once.
        sort_key = (_KIND_RANK[self.kind], self.name)
        if self.kind == "prop":
            ident: tuple = ("prop", self.name)
        elif self.kind == "formula":
            ident = ("formula", self.key)
            # The text of repr(self.key), with the mask printed through
            # Decimal: repr() of a wide truth table exceeds Python's
            # int-to-str digit limit.
            deps, mask = self.key  # type: ignore[misc]
            sort_key = (_KIND_RANK["formula"], f"({deps!r}, {Decimal(mask)})")
        else:
            ident = ("super", tuple(sorted(self.members)))  # type: ignore[arg-type]
        object.__setattr__(self, "ident", ident)
        object.__setattr__(self, "sort_key", sort_key)
        object.__setattr__(self, "_hash", hash(ident))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and self.ident == other.ident

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Node") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:
        return f"Node({self.kind}:{self.name})"


def prop_node(name: str) -> Node:
    return Node("prop", name)


def super_node(members: Iterable[str]) -> Node:
    members = frozenset(members)
    return Node("super", "{" + ",".join(sorted(members)) + "}", members=members)


Edge = tuple[Node, Node]


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pairs(masks: list[int]) -> list[tuple[int, int]]:
    """Every (i, j) with bit j set in `masks[i]`, ordered by i, then j."""
    return [(i, j) for i, mask in enumerate(masks) for j in _bits(mask)]


def _union(adj: list[int], mask: int) -> int:
    """The union of `adj[i]` over the set bits i of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


class MixedGraph:
    """Immutable mixed graph whose adjacency is held as node bitmasks.

    `_child_masks` and `_neighbor_masks` are the only stored edges;
    `_parent_masks`, `_boundary_masks` (parents | neighbours) and
    `_step_masks` (children | neighbours) are derived from them, one per
    node.  `directed` (ordered pairs) and `undirected` (pairs in node order)
    are views computed from the masks on each access.  Query methods accept
    nodes or plain proposition names.
    `_chain_masks()`, built on first use, pairs each chain component's mask
    with the mask of its parents: every node with a child in the component,
    members included.

    Moralization rule, stated here once: in the moral graph two nodes are
    adjacent when an edge of either kind joins them, or when both have a
    child in one chain component.

    `_moral(A)` reads the moral graph of the induced subgraph G[A] straight
    off the full-graph masks when A is ancestral, i.e. closed under parents
    and neighbours.  This is sound:

    * closure under neighbours makes every chain component of G lie wholly
      inside A or wholly outside it, so the chain components of G[A] are
      exactly the components of G inside A;
    * closure under parents puts every parent of such a component in A, so
      its parents in G[A] are its parents in G;
    * an edge from a node of A to one of its parents or neighbours stays
      inside A, so only children need cutting down to A.
    """

    def __init__(self,
                 nodes: Iterable[Node],
                 directed: Iterable[Edge] = (),
                 undirected: Iterable[Edge] = ()):
        ordered = tuple(sorted(set(nodes), key=attrgetter("sort_key")))
        index = {n: i for i, n in enumerate(ordered)}

        def positions(a: Node, b: Node) -> tuple[int, int]:
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise GraphError(f"edge endpoint not in graph: {a!r} -- {b!r}")
            if i == j:
                raise GraphError(f"self-loop on {a!r}")
            return i, j

        children, neighbors = [0] * len(ordered), [0] * len(ordered)
        for a, b in directed:
            i, j = positions(a, b)
            children[i] |= 1 << j
        for a, b in undirected:
            i, j = positions(a, b)
            neighbors[i] |= 1 << j
            neighbors[j] |= 1 << i
        self._setup(ordered, children, neighbors)

    @classmethod
    def _from_masks(cls, nodes: tuple[Node, ...], children: list[int],
                    neighbors: list[int]) -> "MixedGraph":
        """The graph on `nodes`, already sorted, with these edge masks."""
        g = cls.__new__(cls)
        g._setup(nodes, children, neighbors)
        return g

    def _setup(self, nodes: tuple[Node, ...], children: list[int], neighbors: list[int]) -> None:
        self.nodes: tuple[Node, ...] = nodes
        self._index = {n: i for i, n in enumerate(nodes)}
        self._by_name = {n.name: n for n in nodes}
        parents = [0] * len(nodes)
        for i, mask in enumerate(children):
            for j in _bits(mask):
                parents[j] |= 1 << i
        self._parent_masks = parents
        self._child_masks = children
        self._neighbor_masks = neighbors
        self._boundary_masks = [p | nb for p, nb in zip(parents, neighbors)]
        self._step_masks = [c | nb for c, nb in zip(children, neighbors)]
        # Built on first use: chain-component and step-component masks.
        self._chains: list[tuple[int, int]] | None = None
        self._sccs: list[int] | None = None

    @classmethod
    def from_props(cls,
                   names: Iterable[str],
                   directed: Iterable[tuple[str, str]] = (),
                   undirected: Iterable[tuple[str, str]] = ()) -> "MixedGraph":
        """Build a proposition-only graph from name pairs."""
        nodes = {name: prop_node(name) for name in names}

        def node(name: str) -> Node:
            if name not in nodes:
                raise GraphError(f"edge endpoint {name!r} not declared")
            return nodes[name]

        # Each edge iterable is read once, so one-shot iterators work.
        return cls(nodes.values(),
                   [(node(a), node(b)) for a, b in directed],
                   [(node(a), node(b)) for a, b in undirected])

    # -- node resolution ---------------------------------------------------

    def resolve(self, node: "Node | str") -> Node:
        found = node if node in self._index else self._by_name.get(node)
        if found is None:
            raise GraphError(f"unknown node {node!r}")
        return found

    def resolve_set(self, nodes: Iterable["Node | str"]) -> frozenset[Node]:
        return frozenset(self.resolve(n) for n in nodes)

    def __contains__(self, node: "Node | str") -> bool:
        return node in self._index or node in self._by_name

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MixedGraph)
                and self.nodes == other.nodes
                and self._child_masks == other._child_masks
                and self._neighbor_masks == other._neighbor_masks)

    def __hash__(self) -> int:
        return hash((self.nodes, tuple(self._child_masks), tuple(self._neighbor_masks)))

    def __repr__(self) -> str:
        arcs = sum(m.bit_count() for m in self._child_masks)
        links = sum(m.bit_count() for m in self._neighbor_masks) // 2
        return f"MixedGraph({len(self.nodes)} nodes, {arcs} directed, {links} undirected)"

    @property
    def directed(self) -> frozenset[Edge]:
        """The directed edges (a, b), read off the child masks."""
        return frozenset((self.nodes[i], self.nodes[j]) for i, j in _pairs(self._child_masks))

    @property
    def undirected(self) -> frozenset[Edge]:
        """The undirected edges as pairs (a, b) with a before b in node order."""
        nodes = self.nodes
        return frozenset((nodes[i], nodes[j]) for i, j in _pairs(self._neighbor_masks) if i < j)

    # -- masks -------------------------------------------------------------

    def _position(self, node: "Node | str") -> int:
        return self._index[self.resolve(node)]

    def _mask(self, nodes: Iterable[Node]) -> int:
        """The mask of distinct nodes already resolved against this graph."""
        return sum(1 << self._index[n] for n in nodes)

    def _members(self, mask: int) -> frozenset[Node]:
        return frozenset(self.nodes[i] for i in _bits(mask))

    def _ordered(self, mask: int) -> tuple[Node, ...]:
        """The nodes of `mask` in node order."""
        return tuple(self.nodes[i] for i in _bits(mask))

    @staticmethod
    def _reach(mask: int, adj: list[int], through: int = -1) -> int:
        """`mask` plus every node reached from it along `adj`.  The nodes of
        `mask` are always expanded; a reached node is expanded only if it
        lies in `through`."""
        reached = frontier = mask
        while frontier:
            frontier = _union(adj, frontier) & ~reached
            reached |= frontier
            frontier &= through
        return reached

    def _ancestral(self, mask: int) -> int:
        """The smallest ancestral superset of `mask`: its closure under
        boundaries."""
        return self._reach(mask, self._boundary_masks)

    def _chain_masks(self) -> list[tuple[int, int]]:
        """Each chain component's mask with the mask of its parents, in the
        order of their lowest nodes; built on first use."""
        if self._chains is None:
            self._chains = []
            left = (1 << len(self.nodes)) - 1
            while left:
                members = self._reach(left & -left, self._neighbor_masks)
                self._chains.append((members, _union(self._parent_masks, members)))
                left ^= members
        return self._chains

    # -- local queries -----------------------------------------------------

    def parents(self, node: "Node | str") -> frozenset[Node]:
        return self._members(self._parent_masks[self._position(node)])

    def children(self, node: "Node | str") -> frozenset[Node]:
        return self._members(self._child_masks[self._position(node)])

    def neighbors(self, node: "Node | str") -> frozenset[Node]:
        return self._members(self._neighbor_masks[self._position(node)])

    def boundary(self, node: "Node | str") -> frozenset[Node]:
        """parents ∪ neighbors."""
        return self._members(self._boundary_masks[self._position(node)])

    def boundary_of_set(self, nodes: Iterable["Node | str"]) -> frozenset[Node]:
        """Union of member boundaries, minus the set itself."""
        mask = self._mask(self.resolve_set(nodes))
        return self._members(_union(self._boundary_masks, mask) & ~mask)

    def smallest_ancestral_set(self, nodes: Iterable["Node | str"]) -> frozenset[Node]:
        """Close the set under boundaries until nothing is added."""
        return self._members(self._ancestral(self._mask(self.resolve_set(nodes))))

    # -- global structure --------------------------------------------------

    def chain_components(self) -> tuple[frozenset[Node], ...]:
        """Connected components of the undirected skeleton (singletons
        for nodes without undirected edges), in deterministic order."""
        return tuple(self._members(members) for members, _ in self._chain_masks())

    def _step_components(self) -> list[int]:
        """Strongly connected components of the step relation (directed
        edges forward, undirected edges both ways): for each node, the mask
        of its component; Kosaraju's two passes, iteratively.  Computed
        once per graph; callers must not modify the list."""
        if self._sccs is not None:
            return self._sccs
        steps = self._step_masks
        order: list[int] = []
        seen = 0
        for start in range(len(self.nodes)):
            if seen >> start & 1:
                continue
            seen |= 1 << start
            stack = [start]
            while stack:
                left = steps[stack[-1]] & ~seen
                if left:
                    low = left & -left
                    seen |= low
                    stack.append(low.bit_length() - 1)
                else:
                    order.append(stack.pop())
        # The boundaries (parents | neighbours) are the reversed steps.
        sccs = [0] * len(self.nodes)
        assigned = 0
        for start in reversed(order):
            if assigned >> start & 1:
                continue
            component = self._reach(1 << start, self._boundary_masks, ~assigned) & ~assigned
            assigned |= component
            for i in _bits(component):
                sccs[i] = component
        self._sccs = sccs
        return sccs

    def has_directed_cycle(self) -> bool:
        """Whether some cycle traverses at least one directed edge.

        A closed walk through a directed edge always contains a simple
        directed cycle (split the walk at a repeated interior node and keep
        the half with the chosen edge), so this reduces to: some directed
        edge has both endpoints in one strongly connected component of the
        step relation.
        """
        return any(map(int.__and__, self._child_masks, self._step_components()))

    def is_chain_graph(self) -> bool:
        return not self.has_directed_cycle()

    # -- reachability ------------------------------------------------------

    def _directed_path_reach(self, start: int, component: int) -> int:
        """Mask of the nodes of `component`, the step component of node
        `start`, reached from it by a simple path with a directed edge.

        Walk-based reachability is not sound here: a walk revisiting a node
        need not contain a *simple* directed path to its endpoint.  So this
        backtracks over all simple paths inside the component, depth first
        on an explicit stack with one frame per path node: the path's mask,
        whether it has used a directed edge, and the steps from its last
        node still to try (bit v an undirected step to v, bit n + v a
        directed one).  The first frame holds one undirected step onto start.
        """
        n = len(self.nodes)
        children, neighbors = self._child_masks, self._neighbor_masks
        reached = 0
        stack = [[0, False, 1 << start]]
        while stack:
            frame = stack[-1]
            steps = frame[2]
            if not steps:
                stack.pop()
                continue
            low = steps & -steps
            frame[2] = steps ^ low
            v = low.bit_length() - 1
            used = frame[1]
            if v >= n:
                v -= n
                used = True
            if used:
                reached |= 1 << v
            path = frame[0] | 1 << v
            free = component & ~path
            stack.append([path, used, (children[v] & free) << n | neighbors[v] & free])
        return reached

    def _descendant_mask(self, i: int) -> int:
        """Mask of the nodes reachable from node i by a directed path.

        Let S be the step component of i.  A step path from i leaves S along
        a directed edge, as an undirected edge out of S would lead back into
        it; so outside S the descendants are the step-reachable nodes.  A
        simple path from i to a node of S stays in S, as each of its nodes
        is reached from i and reaches i through that endpoint; so inside S
        they are what the search confined to S finds.  That search runs
        only when S holds a directed edge, and so never on a chain graph.
        """
        component = self._step_components()[i]
        reached = self._reach(1 << i, self._step_masks) & ~component
        if _union(self._child_masks, component) & component:
            reached |= self._directed_path_reach(i, component)
        return reached

    def _strict_descendant_mask(self, i: int) -> int:
        """Mask of the nodes reachable from node i by a directed path whose
        interior avoids the boundary B of i.

        An undirected first step enters B and so ends the path before any
        directed edge: the path starts at a child of i, then steps through
        nodes outside B.  A walk of that kind shortens to a simple path
        whose interior is part of the walk's, and it never returns to i, as
        whatever steps to i lies in B.  So the strict descendants are the
        children of i plus the step closure from them that expands no node
        of B.
        """
        barred = self._boundary_masks[i]
        children = self._child_masks[i]
        return self._reach(children & ~barred, self._step_masks, ~barred) | children

    def descendants(self, node: "Node | str") -> frozenset[Node]:
        """Nodes reachable from `node` by a directed path."""
        return self._members(self._descendant_mask(self._position(node)))

    def strict_descendants(self, node: "Node | str") -> frozenset[Node]:
        """Descendants reachable by a directed path whose intermediate
        nodes all avoid the boundary of `node` (the endpoint may not)."""
        return self._members(self._strict_descendant_mask(self._position(node)))

    # -- derived graphs ----------------------------------------------------

    def _subgraph(self, keep: int, children: Sequence[int] | Mapping[int, int],
                  neighbors: Sequence[int] | Mapping[int, int]) -> "MixedGraph":
        """The graph on the nodes of `keep` whose masks are `children[i]` and
        `neighbors[i]` (indexed by this graph's positions) cut down to `keep`
        and re-indexed onto the kept nodes."""
        kept = list(_bits(keep))
        moved = {i: 1 << k for k, i in enumerate(kept)}
        squeeze = lambda mask: sum(moved[i] for i in _bits(mask & keep))
        return MixedGraph._from_masks(self._ordered(keep), [squeeze(children[i]) for i in kept],
                                      [squeeze(neighbors[i]) for i in kept])

    def induced_subgraph(self, nodes: Iterable["Node | str"]) -> "MixedGraph":
        return self._subgraph(self._mask(self.resolve_set(nodes)),
                              self._child_masks, self._neighbor_masks)

    def _moral(self, ancestral: int) -> list[int]:
        """Adjacency masks of the moral graph of G[ancestral], one per node
        (0 outside the set); `ancestral` must be closed under boundaries."""
        adj = [0] * len(self.nodes)
        for members, parents in self._chain_masks():
            if members & ancestral:
                for i in _bits(parents):
                    adj[i] |= parents
        for i in _bits(ancestral):
            adj[i] = (adj[i] | self._boundary_masks[i]
                      | self._child_masks[i] & ancestral) & ~(1 << i)
        return adj

    def _moral_graph(self, ancestral: int) -> "MixedGraph":
        """The moral graph of G[ancestral] as an undirected MixedGraph."""
        return self._subgraph(ancestral, [0] * len(self.nodes), self._moral(ancestral))

    def moral_graph(self) -> "MixedGraph":
        """Undirected graph joining every pair of nodes with children in a
        common chain component, then dropping all directions (a bi-directed
        pair collapses to a single undirected edge)."""
        return self._moral_graph((1 << len(self.nodes)) - 1)

    def gma(self,
            n1: Iterable["Node | str"],
            n2: Iterable["Node | str"],
            n3: Iterable["Node | str"]) -> "MixedGraph":
        """Moral graph of the subgraph induced by the smallest ancestral set
        containing n1 ∪ n2 ∪ n3."""
        s1, s2, s3 = self.resolve_set(n1), self.resolve_set(n2), self.resolve_set(n3)
        _check_disjoint(s1, s2, s3)
        return self._moral_graph(self._ancestral(self._mask(s1 | s2 | s3)))

    def separates(self,
                  n1: Iterable["Node | str"],
                  n2: Iterable["Node | str"],
                  n3: Iterable["Node | str"]) -> bool:
        """In an undirected graph: no path joins n1 to n3 once n2 is deleted."""
        if any(self._child_masks):
            raise GraphError("separation is defined on undirected graphs only")
        s1, s2, s3 = self.resolve_set(n1), self.resolve_set(n2), self.resolve_set(n3)
        _check_disjoint(s1, s2, s3)
        return _separated(self._neighbor_masks, self._mask(s1), self._mask(s3), self._mask(s2))


def _collapse_bidirected(g: MixedGraph) -> MixedGraph:
    """`g` with each pair of opposite directed edges replaced by one
    undirected edge."""
    both = [c & p for c, p in zip(g._child_masks, g._parent_masks)]
    return MixedGraph._from_masks(g.nodes, [c ^ b for c, b in zip(g._child_masks, both)],
                                  [nb | b for nb, b in zip(g._neighbor_masks, both)])


def _separated(adj: list[int], a: int, b: int, cut: int) -> bool:
    """Whether no path of the undirected graph with adjacency `adj` joins
    `a` to `b` avoiding `cut` (the three sets disjoint): a breadth-first
    search from `a` that never enters `cut`."""
    reached = frontier = a
    while frontier:
        step = 0
        while frontier:  # _union inlined: this loop is the hot path
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~(reached | cut)
        if frontier & b:
            return False
        reached |= frontier
    return True


def _check_disjoint(*sets: frozenset[Node]) -> None:
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            overlap = a & b
            if overlap:
                names = ", ".join(sorted(n.name for n in overlap))
                raise GraphError(f"node sets must be disjoint; shared: {names}")


# ---------------------------------------------------------------------------
# Serialization

def _node_ids(g: MixedGraph) -> list[str]:
    """Stable short identifiers in node order: proposition names as-is,
    `f<i>`/`s<i>` for formula and super-nodes in sorted order."""
    ids: list[str] = []
    counters = {"formula": 0, "super": 0}
    for n in g.nodes:
        if n.kind == "prop":
            ids.append(n.name)
        else:
            ids.append(f"{n.kind[0]}{counters[n.kind]}")  # the kind's initial
            counters[n.kind] += 1
    return ids


def to_json_dict(g: MixedGraph) -> dict:
    """JSON-ready dict with sorted node and edge lists."""
    ids = _node_ids(g)
    return {
        "nodes": [{"id": i, "kind": n.kind, "label": n.name} for i, n in zip(ids, g.nodes)],
        "directed": sorted([ids[i], ids[j]] for i, j in _pairs(g._child_masks)),
        "undirected": sorted([ids[i], ids[j]] for i, j in _pairs(g._neighbor_masks) if i < j),
    }


_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_quote(s: str) -> str:
    if s.isidentifier() and s.lower() not in _DOT_KEYWORDS:  # DOT keywords ignore case
        return s
    return '"' + s.replace('"', '\\"') + '"'


def to_dot(g: MixedGraph) -> str:
    """Graphviz text: a plain `graph` when everything is undirected, else a
    `digraph` with undirected edges drawn arrowless; formula nodes appear
    as dashed boxes."""
    ids = _node_ids(g)
    quoted = [_dot_quote(ident) for ident in ids]
    pure_undirected = not any(g._child_masks)
    lines = ["graph G {" if pure_undirected else "digraph G {"]
    for n, ident, name in zip(g.nodes, ids, quoted):
        attrs = []
        if ident != n.name:
            attrs.append(f'label="{n.name}"')
        if n.kind == "formula":
            attrs.append("shape=box")
            attrs.append("style=dashed")
        if n.kind == "super":
            attrs.append("shape=box")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {name}{suffix};")
    # Masks walked in node order list the edges sorted by endpoint sort keys.
    lines += [f"  {quoted[i]} -> {quoted[j]};" for i, j in _pairs(g._child_masks)]
    arrow, tail = ("--", "") if pure_undirected else ("->", " [dir=none]")
    lines += [f"  {quoted[i]} {arrow} {quoted[j]}{tail};"
              for i, j in _pairs(g._neighbor_masks) if i < j]
    lines.append("}")
    return "\n".join(lines) + "\n"
