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
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Iterable, Iterator, Mapping

from .errors import GraphError
from .formula import CanonicalKey, Formula, canonical_key, format_formula

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


def formula_node(f: Formula) -> Node:
    """Node for a non-trivial formula, displayed as its printed form."""
    return Node("formula", format_formula(f), key=canonical_key(f))


def super_node(members: Iterable[str]) -> Node:
    members = frozenset(members)
    return Node("super", "{" + ",".join(sorted(members)) + "}", members=members)


NodeLike = "Node | str"
Edge = tuple[Node, Node]


def _undirected_key(a: Node, b: Node) -> Edge:
    return (a, b) if a.sort_key <= b.sort_key else (b, a)


class MixedGraph:
    """Immutable mixed graph with precomputed adjacency.

    `directed` is a set of ordered pairs, `undirected` a set of pairs in
    canonical node order.  Query methods accept nodes or plain proposition
    names.
    """

    def __init__(self,
                 nodes: Iterable[Node],
                 directed: Iterable[Edge] = (),
                 undirected: Iterable[Edge] = ()):
        self.nodes: tuple[Node, ...] = tuple(sorted(set(nodes)))
        node_set = set(self.nodes)

        dir_edges: set[Edge] = set()
        for a, b in directed:
            self._check_edge(a, b, node_set)
            dir_edges.add((a, b))
        undir_edges: set[Edge] = set()
        for a, b in undirected:
            self._check_edge(a, b, node_set)
            undir_edges.add(_undirected_key(a, b))
        self.directed: frozenset[Edge] = frozenset(dir_edges)
        self.undirected: frozenset[Edge] = frozenset(undir_edges)

        parents: dict[Node, set[Node]] = {n: set() for n in self.nodes}
        children: dict[Node, set[Node]] = {n: set() for n in self.nodes}
        neighbors: dict[Node, set[Node]] = {n: set() for n in self.nodes}
        for a, b in self.directed:
            children[a].add(b)
            parents[b].add(a)
        for a, b in self.undirected:
            neighbors[a].add(b)
            neighbors[b].add(a)
        self._parents = {n: tuple(sorted(s)) for n, s in parents.items()}
        self._children = {n: tuple(sorted(s)) for n, s in children.items()}
        self._neighbors = {n: tuple(sorted(s)) for n, s in neighbors.items()}
        self._by_name = {n.name: n for n in self.nodes}
        # Derived once, on first use: the step-relation components and the
        # bitmask view.
        self._roots: dict[Node, Node] | None = None
        self._view: _MaskView | None = None

    @staticmethod
    def _check_edge(a: Node, b: Node, node_set: set[Node]) -> None:
        if a not in node_set or b not in node_set:
            raise GraphError(f"edge endpoint not in graph: {a!r} -- {b!r}")
        if a == b:
            raise GraphError(f"self-loop on {a!r}")

    @classmethod
    def from_props(cls,
                   names: Iterable[str],
                   directed: Iterable[tuple[str, str]] = (),
                   undirected: Iterable[tuple[str, str]] = ()) -> "MixedGraph":
        """Build a proposition-only graph from name pairs."""
        nodes = {name: prop_node(name) for name in names}
        for a, b in list(directed) + list(undirected):
            for name in (a, b):
                if name not in nodes:
                    raise GraphError(f"edge endpoint {name!r} not declared")
        return cls(nodes.values(),
                   [(nodes[a], nodes[b]) for a, b in directed],
                   [(nodes[a], nodes[b]) for a, b in undirected])

    # -- node resolution ---------------------------------------------------

    def resolve(self, node: "Node | str") -> Node:
        if isinstance(node, Node):
            if node not in self._parents:
                raise GraphError(f"unknown node {node!r}")
            return node
        found = self._by_name.get(node)
        if found is None:
            raise GraphError(f"unknown node {node!r}")
        return found

    def resolve_set(self, nodes: Iterable["Node | str"]) -> frozenset[Node]:
        return frozenset(self.resolve(n) for n in nodes)

    def __contains__(self, node: "Node | str") -> bool:
        try:
            self.resolve(node)
            return True
        except GraphError:
            return False

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MixedGraph)
                and self.nodes == other.nodes
                and self.directed == other.directed
                and self.undirected == other.undirected)

    def __hash__(self) -> int:
        return hash((self.nodes, self.directed, self.undirected))

    def __repr__(self) -> str:
        return (f"MixedGraph({len(self.nodes)} nodes, "
                f"{len(self.directed)} directed, {len(self.undirected)} undirected)")

    # -- local queries -----------------------------------------------------

    def parents(self, node: "Node | str") -> frozenset[Node]:
        return frozenset(self._parents[self.resolve(node)])

    def children(self, node: "Node | str") -> frozenset[Node]:
        return frozenset(self._children[self.resolve(node)])

    def neighbors(self, node: "Node | str") -> frozenset[Node]:
        return frozenset(self._neighbors[self.resolve(node)])

    def boundary(self, node: "Node | str") -> frozenset[Node]:
        """parents ∪ neighbors."""
        n = self.resolve(node)
        return frozenset(self._parents[n]) | frozenset(self._neighbors[n])

    def boundary_of_set(self, nodes: Iterable["Node | str"]) -> frozenset[Node]:
        """Union of member boundaries, minus the set itself."""
        ns = self.resolve_set(nodes)
        out: set[Node] = set()
        for n in ns:
            out |= self.boundary(n)
        return frozenset(out - ns)

    def smallest_ancestral_set(self, nodes: Iterable["Node | str"]) -> frozenset[Node]:
        """Close the set under boundaries until nothing is added."""
        view = self._masks()
        return frozenset(view.members(view.ancestral(view.mask(self.resolve_set(nodes)))))

    # -- global structure --------------------------------------------------

    def chain_components(self) -> tuple[frozenset[Node], ...]:
        """Connected components of the undirected skeleton (singletons
        for nodes without undirected edges), in deterministic order."""
        seen: set[Node] = set()
        components: list[frozenset[Node]] = []
        for start in self.nodes:
            if start in seen:
                continue
            comp = {start}
            queue = [start]
            while queue:
                n = queue.pop()
                for m in self._neighbors[n]:
                    if m not in comp:
                        comp.add(m)
                        queue.append(m)
            seen |= comp
            components.append(frozenset(comp))
        return tuple(components)

    def _step_components(self) -> dict[Node, Node]:
        """Strongly connected components of the step relation (directed
        edges forward, undirected edges both ways) as a map from each node
        to its component's root; Kosaraju's two passes, iteratively.
        Computed once per graph; callers must not modify the map."""
        if self._roots is not None:
            return self._roots
        order: list[Node] = []
        seen: set[Node] = set()
        for start in self.nodes:
            if start in seen:
                continue
            seen.add(start)
            stack = [(start, self._steps(start))]
            while stack:
                node, steps = stack[-1]
                for v, _ in steps:
                    if v not in seen:
                        seen.add(v)
                        stack.append((v, self._steps(v)))
                        break
                else:
                    stack.pop()
                    order.append(node)
        root: dict[Node, Node] = {}
        for start in reversed(order):
            if start in root:
                continue
            root[start] = start
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for v in self._parents[node] + self._neighbors[node]:
                    if v not in root:
                        root[v] = start
                        frontier.append(v)
        self._roots = root
        return root

    def has_directed_cycle(self) -> bool:
        """Whether some cycle traverses at least one directed edge.

        A closed walk through a directed edge always contains a simple
        directed cycle (split the walk at a repeated interior node and keep
        the half with the chosen edge), so this reduces to: some directed
        edge has both endpoints in one strongly connected component of the
        step relation.
        """
        root = self._step_components()
        return any(root[a] == root[b] for a, b in self.directed)

    def is_chain_graph(self) -> bool:
        return not self.has_directed_cycle()

    # -- reachability ------------------------------------------------------

    def _directed_path_reach(self, start: Node,
                             forbidden_interior: frozenset[Node] = frozenset()) -> frozenset[Node]:
        """Nodes reachable from `start` by a simple path containing at least
        one directed edge, optionally barring a set of nodes from interior
        positions (they may still terminate a path).

        Walk-based reachability is not sound here: a walk revisiting a node
        need not contain a *simple* directed path to its endpoint.  So this
        backtracks over all simple paths; graphs at this library's scale
        keep that affordable.
        """
        start = self.resolve(start)
        reached: set[Node] = set()
        on_path = {start}

        def dfs(u: Node, used_directed: bool) -> None:
            for v, is_directed in self._steps(u):
                if v in on_path:
                    continue
                used = used_directed or is_directed
                if used:
                    reached.add(v)
                if v in forbidden_interior:
                    continue
                on_path.add(v)
                dfs(v, used)
                on_path.remove(v)

        dfs(start, False)
        reached.discard(start)
        return frozenset(reached)

    def _steps(self, u: Node) -> Iterator[tuple[Node, bool]]:
        for v in self._children[u]:
            yield v, True
        for v in self._neighbors[u]:
            yield v, False

    def descendants(self, node: "Node | str") -> frozenset[Node]:
        """Nodes reachable from `node` by a directed path."""
        return self._directed_path_reach(self.resolve(node))

    def strict_descendants(self, node: "Node | str") -> frozenset[Node]:
        """Descendants reachable by a directed path whose intermediate
        nodes all avoid the boundary of `node` (the endpoint may not)."""
        n = self.resolve(node)
        return self._directed_path_reach(n, forbidden_interior=self.boundary(n))

    # -- derived graphs ----------------------------------------------------

    def induced_subgraph(self, nodes: Iterable["Node | str"]) -> "MixedGraph":
        keep = self.resolve_set(nodes)
        return MixedGraph(
            keep,
            [(a, b) for a, b in self.directed if a in keep and b in keep],
            [(a, b) for a, b in self.undirected if a in keep and b in keep],
        )

    def moral_graph(self) -> "MixedGraph":
        """Undirected graph joining every pair of nodes with children in a
        common chain component, then dropping all directions (a bi-directed
        pair collapses to a single undirected edge)."""
        return self._masks().moral_graph((1 << len(self.nodes)) - 1)

    def gma(self,
            n1: Iterable["Node | str"],
            n2: Iterable["Node | str"],
            n3: Iterable["Node | str"]) -> "MixedGraph":
        """Moral graph of the subgraph induced by the smallest ancestral set
        containing n1 ∪ n2 ∪ n3."""
        s1, s2, s3 = self.resolve_set(n1), self.resolve_set(n2), self.resolve_set(n3)
        _check_disjoint(s1, s2, s3)
        view = self._masks()
        return view.moral_graph(view.ancestral(view.mask(s1 | s2 | s3)))

    def separates(self,
                  n1: Iterable["Node | str"],
                  n2: Iterable["Node | str"],
                  n3: Iterable["Node | str"]) -> bool:
        """In an undirected graph: no path joins n1 to n3 once n2 is deleted."""
        if self.directed:
            raise GraphError("separation is defined on undirected graphs only")
        s1, s2, s3 = self.resolve_set(n1), self.resolve_set(n2), self.resolve_set(n3)
        _check_disjoint(s1, s2, s3)
        view = self._masks()
        return view.separated(view.neighbors, view.mask(s1), view.mask(s3), view.mask(s2))

    def _masks(self) -> "_MaskView":
        """The bitmask view of this graph, built on first use."""
        if self._view is None:
            self._view = _MaskView(self)
        return self._view


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _MaskView:
    """A graph's nodes as bit positions and its adjacency as int bitmasks,
    so that global-condition queries allocate no graph.

    Bit i stands for `nodes[i]`.  `parents`, `children`, `neighbors` and
    `boundary` hold one mask per node, and `components` pairs each chain
    component's mask with the mask of its parents: every node with a child
    in the component, members included.

    Moralization rule, stated here once: in the moral graph two nodes are
    adjacent when an edge of either kind joins them, or when both have a
    child in one chain component.

    `moral(A)` reads the moral graph of the induced subgraph G[A] straight
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

    __slots__ = ("nodes", "bit", "parents", "children", "neighbors", "boundary",
                 "components")

    def __init__(self, g: MixedGraph):
        self.nodes = g.nodes
        self.bit = {n: 1 << i for i, n in enumerate(g.nodes)}
        self.parents = [self.mask(g._parents[n]) for n in g.nodes]
        self.children = [self.mask(g._children[n]) for n in g.nodes]
        self.neighbors = [self.mask(g._neighbors[n]) for n in g.nodes]
        self.boundary = [p | nb for p, nb in zip(self.parents, self.neighbors)]
        self.components: list[tuple[int, int]] = []
        for component in g.chain_components():
            members = self.mask(component)
            parents = 0
            for i in _bits(members):
                parents |= self.parents[i]
            self.components.append((members, parents))

    def mask(self, nodes: Iterable[Node]) -> int:
        out = 0
        for n in nodes:
            out |= self.bit[n]
        return out

    def members(self, mask: int) -> list[Node]:
        return [self.nodes[i] for i in _bits(mask)]

    def ancestral(self, mask: int) -> int:
        """The smallest ancestral superset of `mask`: add the boundaries of
        the newly added nodes until nothing changes."""
        frontier = mask
        while frontier:
            grown = 0
            for i in _bits(frontier):
                grown |= self.boundary[i]
            frontier = grown & ~mask
            mask |= frontier
        return mask

    def moral(self, ancestral: int) -> list[int]:
        """Adjacency masks of the moral graph of G[ancestral], one per node
        (0 outside the set); `ancestral` must be closed under boundaries."""
        adj = [0] * len(self.nodes)
        for members, parents in self.components:
            if members & ancestral:
                for i in _bits(parents):
                    adj[i] |= parents
        for i in _bits(ancestral):
            adj[i] = (adj[i] | self.boundary[i] | self.children[i] & ancestral) & ~(1 << i)
        return adj

    def moral_graph(self, ancestral: int) -> MixedGraph:
        """The moral graph of G[ancestral] as an undirected MixedGraph."""
        adj = self.moral(ancestral)
        return MixedGraph(
            self.members(ancestral), (),
            [(self.nodes[i], self.nodes[j])
             for i in _bits(ancestral) for j in _bits(adj[i] >> i << i)],
        )

    @staticmethod
    def separated(adj: list[int], a: int, b: int, cut: int) -> bool:
        """Whether no path of the undirected graph with adjacency `adj`
        joins `a` to `b` avoiding `cut` (the three sets disjoint): a
        breadth-first search from `a` that never enters `cut`."""
        reached = frontier = a
        while frontier:
            step = 0
            while frontier:  # _bits inlined: this loop is the hot path
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

def _node_ids(g: MixedGraph) -> Mapping[Node, str]:
    """Stable short identifiers: proposition names as-is, `f<i>`/`s<i>` for
    formula and super-nodes in sorted order."""
    ids: dict[Node, str] = {}
    counters = {"formula": 0, "super": 0}
    for n in g.nodes:
        if n.kind == "prop":
            ids[n] = n.name
        else:
            prefix = "f" if n.kind == "formula" else "s"
            ids[n] = f"{prefix}{counters[n.kind]}"
            counters[n.kind] += 1
    return ids


def to_json_dict(g: MixedGraph) -> dict:
    """JSON-ready dict with sorted node and edge lists."""
    ids = _node_ids(g)
    return {
        "nodes": [
            {"id": ids[n], "kind": n.kind, "label": n.name}
            for n in g.nodes
        ],
        "directed": sorted([ids[a], ids[b]] for a, b in g.directed),
        "undirected": sorted([ids[a], ids[b]] for a, b in g.undirected),
    }


def _dot_quote(s: str) -> str:
    if s.isidentifier():
        return s
    return '"' + s.replace('"', '\\"') + '"'


def to_dot(g: MixedGraph) -> str:
    """Graphviz text: a plain `graph` when everything is undirected, else a
    `digraph` with undirected edges drawn arrowless; formula nodes appear
    as dashed boxes."""
    ids = _node_ids(g)
    pure_undirected = not g.directed
    lines = ["graph G {" if pure_undirected else "digraph G {"]
    for n in g.nodes:
        attrs = []
        if ids[n] != n.name:
            attrs.append(f'label="{n.name}"')
        if n.kind == "formula":
            attrs.append("shape=box")
            attrs.append("style=dashed")
        if n.kind == "super":
            attrs.append("shape=box")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_quote(ids[n])}{suffix};")
    arrow = "--" if pure_undirected else "->"
    for a, b in sorted(g.directed, key=lambda e: (e[0].sort_key, e[1].sort_key)):
        lines.append(f"  {_dot_quote(ids[a])} -> {_dot_quote(ids[b])};")
    for a, b in sorted(g.undirected, key=lambda e: (e[0].sort_key, e[1].sort_key)):
        tail = "" if pure_undirected else " [dir=none]"
        lines.append(f"  {_dot_quote(ids[a])} {arrow} {_dot_quote(ids[b])}{tail};")
    lines.append("}")
    return "\n".join(lines) + "\n"
