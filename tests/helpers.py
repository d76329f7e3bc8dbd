"""Shared test utilities: example graphs, random generators, and
independent reference implementations used to cross-check the library.

The reference implementations here deliberately share no traversal or
accumulation code with the package: they are straight-line re-derivations
used as oracles.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from pathlib import Path
from typing import Iterable

from lcn.factorize import FactorizationPlan
from lcn.formula import (
    And,
    BOTTOM,
    BOTTOM_KEY,
    Not,
    Or,
    Prop,
    TOP,
    TOP_KEY,
    Top,
    canonical_key,
    eval_formula,
    format_formula,
    key_as_single_prop,
    support,
)
from lcn.graph import MixedGraph, Node, prop_node, super_node
from lcn.markov import IndependenceStatement
from lcn.model import Constraint, Lcn, make_lcn, parse_lcn
from lcn.errors import GraphError, LcnError, ModelError
from lcn.oracle import (
    DEFAULT_TOL,
    MAX_TABLE_PROPS,
    WEIGHT_FLOOR,
    JointTable,
    StatementCheck,
)

FIXTURES = Path(__file__).parent / "fixtures"


# Formula nodes in a dependency graph: a label such as "X | E" would read as a
# conditioning bar in a factorization plan, and the hard constraint over it
# would fit no clique.
FORMULA_NODE_MODEL = """
D: P(A & B given C) in [0.2, 0.3]
D: P(C given X | E) = 1
D: P(!!A) >= 0.1
"""


def load_fixture(name: str) -> Lcn:
    return parse_lcn((FIXTURES / name).read_text())


def formula_node(f) -> Node:
    """The semantic dependency-graph node of a non-trivial formula."""
    return Node("formula", format_formula(f), key=canonical_key(f))


# ---------------------------------------------------------------------------
# Hand-built example graphs

def quad_dag() -> MixedGraph:
    return MixedGraph.from_props("ABCD", [("A", "B"), ("C", "D"), ("B", "D")])


def quad_bidirected() -> MixedGraph:
    return MixedGraph.from_props(
        "ABCD",
        [("A", "B"), ("B", "A"), ("C", "D"), ("D", "C"), ("B", "D"), ("D", "B")],
    )


def quad_undirected() -> MixedGraph:
    return MixedGraph.from_props("ABCD", [], [("A", "B"), ("C", "D"), ("B", "D")])


def quad_mixed() -> MixedGraph:
    return MixedGraph.from_props(
        "ABCD", [("A", "B"), ("C", "D"), ("B", "D"), ("D", "B")]
    )


def quad_chain() -> MixedGraph:
    return MixedGraph.from_props("ABCD", [("A", "B"), ("C", "D")], [("B", "D")])


def quad_chain_tail() -> MixedGraph:
    """quad_chain with an extra directed edge D -> E."""
    return MixedGraph.from_props(
        "ABCDE", [("A", "B"), ("C", "D"), ("D", "E")], [("B", "D")]
    )


def undirected_block() -> MixedGraph:
    return MixedGraph.from_props(
        "ABCDE", [("A", "B"), ("E", "D")], [("B", "C"), ("C", "D")]
    )


def bidirected_block() -> MixedGraph:
    return MixedGraph.from_props(
        "ABCDE",
        [("A", "B"), ("E", "D"), ("B", "C"), ("C", "B"), ("C", "D"), ("D", "C")],
    )


def cycle_graph(k: int) -> MixedGraph:
    names = [f"A{i}" for i in range(1, k + 1)]
    edges = [(names[i], names[(i + 1) % k]) for i in range(k)]
    return MixedGraph.from_props(names, edges)


# ---------------------------------------------------------------------------
# Edge-set extraction for golden comparisons

def dir_names(g: MixedGraph) -> set[tuple[str, str]]:
    return {(a.name, b.name) for a, b in g.directed}


def und_names(g: MixedGraph) -> set[frozenset[str]]:
    return {frozenset((a.name, b.name)) for a, b in g.undirected}


def und(*pairs: str) -> set[frozenset[str]]:
    """und("AB", "CD") -> {{A,B}, {C,D}} for two-letter node names."""
    return {frozenset((p[0], p[1])) for p in pairs}


def stmt(x: str, y: str, z: str = "") -> IndependenceStatement:
    """stmt("A", "B,C", "D") -> A _||_ B,C | D."""
    split = lambda s: tuple(t for t in s.split(",") if t)
    return IndependenceStatement(split(x), split(y), split(z))


def stmt_strs(statements) -> set[str]:
    return {str(s) for s in statements}


# ---------------------------------------------------------------------------
# Random generators

def random_mixed_graph(rng: random.Random, n: int,
                       p_dir: float = 0.12, p_und: float = 0.12,
                       p_bi: float = 0.04) -> MixedGraph:
    """Sparse random mixed graph on n nodes (may contain directed cycles)."""
    names = [f"X{i}" for i in range(n)]
    directed: list[tuple[str, str]] = []
    undirected: list[tuple[str, str]] = []
    for a, b in combinations(names, 2):
        r = rng.random()
        if r < p_dir:
            directed.append((a, b))
        elif r < 2 * p_dir:
            directed.append((b, a))
        elif r < 2 * p_dir + p_und:
            undirected.append((a, b))
        elif r < 2 * p_dir + p_und + p_bi:
            directed.append((a, b))
            directed.append((b, a))
    return MixedGraph.from_props(names, directed, undirected)


def _chain_blocks(rng: random.Random, n: int) -> tuple[list[str], list[list[str]]]:
    """Names X0..X{n-1} in a shuffled order, cut into blocks of 1-3 nodes."""
    names = [f"X{i}" for i in range(n)]
    rng.shuffle(names)
    blocks: list[list[str]] = []
    i = 0
    while i < n:
        size = rng.randint(1, 3)
        blocks.append(names[i:i + size])
        i += size
    return names, blocks


def random_chain_graph(rng: random.Random, n: int,
                       p_within: float = 0.5,
                       p_between: float = 0.3) -> MixedGraph:
    """Random chain graph built by construction: undirected edges inside
    blocks, directed edges from earlier blocks to later ones."""
    names, blocks = _chain_blocks(rng, n)
    directed: list[tuple[str, str]] = []
    undirected: list[tuple[str, str]] = []
    for bi, block in enumerate(blocks):
        for a, b in combinations(block, 2):
            if rng.random() < p_within:
                undirected.append((a, b))
        for later in blocks[bi + 1:]:
            for a in block:
                for b in later:
                    if rng.random() < p_between:
                        directed.append((a, b))
    return MixedGraph.from_props(names, directed, undirected)


def sparse_chain_graph(rng: random.Random, n: int) -> MixedGraph:
    """Random chain graph with n - 1 edges (fewer if the blocks allow fewer):
    blocks of 1-3 nodes, each edge drawn without replacement from the
    undirected pairs inside a block and the directed pairs from an earlier
    block to a later one.  Sparse graphs separate many sets, so their GMC
    outputs are the largest."""
    names, blocks = _chain_blocks(rng, n)
    candidates = []
    for bi, block in enumerate(blocks):
        candidates += [("u", a, b) for a, b in combinations(block, 2)]
        candidates += [("d", a, b) for later in blocks[bi + 1:] for a in block for b in later]
    chosen = rng.sample(candidates, min(n - 1, len(candidates)))
    return MixedGraph.from_props(names, [(a, b) for kind, a, b in chosen if kind == "d"],
                                 [(a, b) for kind, a, b in chosen if kind == "u"])


def random_overlapping_graph(rng: random.Random, n: int, p: float = 0.3) -> MixedGraph:
    """Dense random mixed graph whose edges are drawn independently, so one
    pair may hold a directed edge either way and an undirected edge at once."""
    names = [f"X{i}" for i in range(n)]
    pairs = list(combinations(names, 2))
    return MixedGraph.from_props(
        names,
        [e for a, b in pairs for e in ((a, b), (b, a)) if rng.random() < p],
        [(a, b) for a, b in pairs if rng.random() < p])


def random_mixed_kinds_graph(rng: random.Random, n: int) -> MixedGraph:
    """`random_mixed_graph` with its nodes relabelled into propositions,
    super-nodes and formula nodes in turn, so that the node order differs
    from the order of the proposition names."""
    g = random_mixed_graph(rng, n)
    labels = {}
    for i, node in enumerate(g.nodes):
        tag = ("Z", "S", "F")[i % 3] + str(i)
        labels[node] = (prop_node(tag) if i % 3 == 0
                        else super_node([tag, tag + "b"]) if i % 3 == 1
                        else formula_node(And(Prop(tag), Not(Prop(tag + "b")))))
    return MixedGraph(labels.values(),
                      [(labels[a], labels[b]) for a, b in g.directed],
                      [(labels[a], labels[b]) for a, b in g.undirected])


def random_undirected_graph(rng: random.Random, n: int,
                            p: float = 0.35) -> MixedGraph:
    names = [f"X{i}" for i in range(n)]
    undirected = [(a, b) for a, b in combinations(names, 2) if rng.random() < p]
    return MixedGraph.from_props(names, [], undirected)


def random_formula(rng: random.Random, props: list[str], depth: int):
    if depth <= 0 or rng.random() < 0.35:
        return Prop(rng.choice(props))
    op = rng.random()
    if op < 0.25:
        return Not(random_formula(rng, props, depth - 1))
    left = random_formula(rng, props, depth - 1)
    right = random_formula(rng, props, depth - 1)
    return And(left, right) if op < 0.6 else Or(left, right)


class _FreshFormulas:
    """Draws random formulas that are *support-exact* (every proposition
    written in the formula matters to its truth value) and whose
    materialized canonical keys are pairwise distinct and distinct from
    Top, Bottom, and every bare proposition.  Single-proposition-equivalent
    formulas are exempt from key freshness (never materialized).

    Support-exactness keeps the generated models well-posed for the
    dependency-graph/structure correspondence properties: the structure
    reads propositions off the written formula while the dependency graph
    uses the propositions the formula depends on, and those properties relate
    the two only when those agree."""

    def __init__(self, rng: random.Random, props: list[str]):
        self.rng = rng
        self.props = props
        self.used = {TOP_KEY, BOTTOM_KEY}
        self.used.update(canonical_key(Prop(p)) for p in props)

    def draw(self, pool: list[str] | None = None, tries: int = 60):
        pool = pool if pool is not None else self.props
        for _ in range(tries):
            f = random_formula(self.rng, pool, self.rng.randint(1, 2))
            key = canonical_key(f)
            if tuple(sorted(support(f))) != key[0]:
                continue
            if key_as_single_prop(key) is not None:
                return f
            if key in self.used:
                continue
            self.used.add(key)
            return f
        return None


def random_lcn(rng: random.Random, max_props: int = 6,
               max_constraints: int = 8) -> Lcn:
    """Random collision-free model: materialized formulas never share a
    canonical key across constraints."""
    k = rng.randint(2, max_props)
    props = [f"P{i}" for i in range(k)]
    fresh = _FreshFormulas(rng, props)
    constraints: list[Constraint] = []
    want = rng.randint(1, max_constraints)
    guard = 0
    while len(constraints) < want and guard < 10 * want:
        guard += 1
        phi = fresh.draw()
        if phi is None:
            break
        psi = TOP if rng.random() < 0.45 else (fresh.draw() or TOP)
        lo = round(rng.uniform(0.0, 0.9), 3)
        hi = round(rng.uniform(lo, 1.0), 3)
        group = "U" if rng.random() < 0.5 else "D"
        constraints.append(Constraint(lo, hi, phi, psi, group))
    if not constraints:
        constraints.append(Constraint(0.1, 0.9, Prop(props[0])))
    return make_lcn(constraints, props)


def random_chain_lcn(rng: random.Random, max_props: int = 6,
                     max_constraints: int = 8) -> Lcn:
    """Random collision-free model whose structure is a chain graph by
    construction: propositions live in ordered blocks, undirected-group
    consequents stay inside one block, and antecedents draw from strictly
    earlier blocks."""
    k = rng.randint(2, max_props)
    props = [f"P{i}" for i in range(k)]
    blocks: list[list[str]] = []
    i = 0
    while i < k:
        size = rng.randint(1, 3)
        blocks.append(props[i:i + size])
        i += size
    fresh = _FreshFormulas(rng, props)
    constraints: list[Constraint] = []
    want = rng.randint(1, max_constraints)
    guard = 0
    while len(constraints) < want and guard < 10 * want:
        guard += 1
        bi = rng.randrange(len(blocks))
        group = "U" if rng.random() < 0.6 else "D"
        if group == "U":
            phi_pool = blocks[bi]
        else:
            phi_pool = [p for blk in blocks[bi:] for p in blk]
        phi = fresh.draw(phi_pool)
        if phi is None:
            continue
        earlier = [p for blk in blocks[:bi] for p in blk]
        if earlier and rng.random() < 0.6:
            psi = fresh.draw(earlier) or TOP
        else:
            psi = TOP
        lo = round(rng.uniform(0.0, 0.9), 3)
        hi = round(rng.uniform(lo, 1.0), 3)
        constraints.append(Constraint(lo, hi, phi, psi, group))
    if not constraints:
        constraints.append(Constraint(0.1, 0.9, Prop(props[0])))
    return make_lcn(constraints, props)


def st_formulas(names: list[str], max_leaves: int):
    """Hypothesis strategy: formulas over `names` with `true`/`false`
    leaves, repeats allowed."""
    from hypothesis import strategies as st

    return st.recursive(
        st.one_of(st.sampled_from(names).map(Prop), st.just(TOP), st.just(BOTTOM)),
        lambda kids: st.one_of(
            kids.map(Not),
            st.tuples(kids, kids).map(lambda t: And(*t)),
            st.tuples(kids, kids).map(lambda t: Or(*t)),
        ),
        max_leaves=max_leaves,
    )


def st_random_lcn():
    """Hypothesis strategy: a seeded random collision-free model."""
    from hypothesis import strategies as st

    return st.integers(min_value=0, max_value=10**6).map(
        lambda s: random_lcn(random.Random(s))
    )


# ---------------------------------------------------------------------------
# Independent reference implementations

def cmi(table: JointTable, statement: IndependenceStatement) -> float:
    """Conditional mutual information I(X;Y|Z) in nats, from first
    principles: sum p(x,y,z) log [ p(x,y,z) p(z) / (p(x,z) p(y,z)) ]."""
    pos = {p: j for j, p in enumerate(table.props)}

    def project(names: tuple[str, ...], index: int) -> tuple[int, ...]:
        return tuple((index >> pos[nm]) & 1 for nm in names)

    joint: dict[tuple, float] = {}
    for i, p in enumerate(table.probs):
        key = (project(statement.x, i), project(statement.y, i),
               project(statement.z, i))
        joint[key] = joint.get(key, 0.0) + p

    pxz: dict[tuple, float] = {}
    pyz: dict[tuple, float] = {}
    pz: dict[tuple, float] = {}
    for (xv, yv, zv), p in joint.items():
        pxz[(xv, zv)] = pxz.get((xv, zv), 0.0) + p
        pyz[(yv, zv)] = pyz.get((yv, zv), 0.0) + p
        pz[zv] = pz.get(zv, 0.0) + p

    total = 0.0
    for (xv, yv, zv), p in joint.items():
        if p <= 0.0:
            continue
        total += p * math.log(p * pz[zv] / (pxz[(xv, zv)] * pyz[(yv, zv)]))
    return total


def conditional_product_table(rng: random.Random, names, x, y, z) -> JointTable:
    """Table where y is independent of everything else given z: each entry
    is weight(z, non-y bits) * weight(z, y bit), normalized."""
    pos = {n: i for i, n in enumerate(names)}
    others = [n for n in names if n != y]
    weights_o: dict = {}
    weights_y: dict = {}
    probs = []
    for i in range(1 << len(names)):
        assign = {n: (i >> pos[n]) & 1 for n in names}
        zkey = tuple(assign[n] for n in z)
        okey = tuple(assign[n] for n in others)
        wo = weights_o.setdefault((zkey, okey), rng.uniform(0.1, 1.0))
        wy = weights_y.setdefault((zkey, assign[y]), rng.uniform(0.1, 1.0))
        probs.append(wo * wy)
    total = sum(probs)
    return JointTable(tuple(names), tuple(p / total for p in probs))


def naive_directed_cycle(g: MixedGraph) -> bool:
    """Directed-cycle detection by exhaustive simple-path search: a closed
    mixed path (all nodes distinct except the endpoints) using at least
    one directed edge."""
    steps: dict = {n: [] for n in g.nodes}
    for a, b in g.directed:
        steps[a].append((b, True))
    for a, b in g.undirected:
        steps[a].append((b, False))
        steps[b].append((a, False))

    def search(start, node, on_path, used_directed) -> bool:
        for nxt, is_dir in steps[node]:
            if nxt == start and (used_directed or is_dir):
                return True
            if nxt in on_path:
                continue
            if search(start, nxt, on_path | {nxt}, used_directed or is_dir):
                return True
        return False

    return any(search(s, s, frozenset([s]), False) for s in g.nodes)


def factor_graph_ref(g: MixedGraph, component) -> MixedGraph:
    """Reference factor graph of one chain component of `g`: on the
    component plus its boundary, every edge of `g` of either kind inside
    that set, made undirected, and the boundary completed."""
    boundary = g.boundary_of_set(component)
    keep = set(component) | boundary
    edges = [(a, b) for a, b in g.directed | g.undirected if a in keep and b in keep]
    return MixedGraph(keep, (), edges + list(combinations(boundary, 2)))


def brute_force_cliques(g: MixedGraph) -> set[frozenset[str]]:
    """Maximal cliques of an undirected graph by subset enumeration."""
    assert not g.directed
    nodes = list(g.nodes)
    adjacent = {n: g.neighbors(n) for n in nodes}

    def is_clique(subset) -> bool:
        return all(b in adjacent[a] for a, b in combinations(subset, 2))

    cliques = []
    for size in range(1, len(nodes) + 1):
        for subset in combinations(nodes, size):
            if is_clique(subset):
                cliques.append(set(subset))
    maximal = [c for c in cliques
               if not any(c < other for other in cliques)]
    return {frozenset(n.name for n in c) for c in maximal}


def step_reach(g: MixedGraph, start) -> set:
    """Plain reachability over steps (directed edges forward, undirected
    edges both ways); the start node itself is excluded."""
    start = g.resolve(start)
    seen = {start}
    queue = [start]
    reached = set()
    while queue:
        n = queue.pop()
        for m in list(g.children(n)) + list(g.neighbors(n)):
            if m not in seen:
                seen.add(m)
                reached.add(m)
                queue.append(m)
    return reached


def chain_descendants_ref(g: MixedGraph, node) -> set:
    """On a chain graph, the descendants of A are exactly the
    step-reachable nodes outside A's chain component."""
    node = g.resolve(node)
    component = next(c for c in g.chain_components() if node in c)
    return {n for n in step_reach(g, node) if n not in component}


def chain_strict_descendants_ref(g: MixedGraph, node) -> set:
    """On a chain graph, the strict descendants of A are exactly the nodes
    step-reachable from A's direct directed children."""
    node = g.resolve(node)
    out = set()
    for child in g.children(node):
        out.add(child)
        out |= step_reach(g, child)
    out.discard(node)
    return out


def directed_path_reach_ref(g: MixedGraph, start,
                            forbidden_interior: frozenset = frozenset()) -> frozenset:
    """Nodes reachable from `start` by a simple path containing at least one
    directed edge, with `forbidden_interior` barred from interior positions
    (they may still end a path): one recursive call per path node, over
    steps read off the edge sets."""
    start = g.resolve(start)
    steps: dict = {n: [] for n in g.nodes}
    for a, b in g.directed:
        steps[a].append((b, True))
    for a, b in g.undirected:
        steps[a].append((b, False))
        steps[b].append((a, False))
    reached = set()
    on_path = {start}

    def dfs(u, used_directed: bool) -> None:
        for v, is_directed in steps[u]:
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


def lcn_parents_ref(dep: MixedGraph, node) -> frozenset:
    """Set-based `lcn_parents`: a search up the parents that walks through
    formula nodes and stops at propositions."""
    target = dep.resolve(node)
    found = set()
    seen = {target}
    queue = [target]
    while queue:
        n = queue.pop()
        for p in dep.parents(n):
            if p in seen:
                continue
            seen.add(p)
            if p.kind == "formula":
                queue.append(p)
            else:
                found.add(p)
    found.discard(target)
    return frozenset(found)


def lcn_descendants_ref(dep: MixedGraph, node) -> frozenset:
    """Set-based `lcn_descendants`: a search down the children that reports
    the lcn-parents of `node` but never expands them."""
    start = dep.resolve(node)
    blocked = lcn_parents_ref(dep, start)
    reached = set()
    seen = {start}
    queue = [start]
    while queue:
        n = queue.pop()
        for child in dep.children(n):
            if child in seen:
                continue
            seen.add(child)
            reached.add(child)
            if child not in blocked:
                queue.append(child)
    reached.discard(start)
    return frozenset(n for n in reached if n.kind == "prop")


def local_statements_ref(g: MixedGraph, condition: str) -> frozenset:
    """Set-based `local_statements`: per variable node, the remainder as
    node-set arithmetic, with parents, boundaries and descendants read off
    the edge sets through the set-based walks above."""
    variables = frozenset(n for n in g.nodes if n.kind != "formula")
    out = set()
    for a in variables:
        parents = {u for u, v in g.directed if v == a}
        boundary = parents | {v for e in g.undirected if a in e for v in e if v != a}
        if condition == "lmc-lcn":
            given = lcn_parents_ref(g, a)
            excluded = lcn_descendants_ref(g, a)
        elif condition == "lmc-cstr":
            given = boundary
            excluded = directed_path_reach_ref(g, a, frozenset(boundary))
        elif condition == "lmc-c":
            given = boundary
            excluded = directed_path_reach_ref(g, a)
        else:  # lmc-d
            given = parents
            excluded = directed_path_reach_ref(g, a)
        rest = variables - {a} - (excluded & variables) - given
        if rest:
            out.add(IndependenceStatement((a.name,), tuple(n.name for n in rest),
                                          tuple(n.name for n in given)))
    return frozenset(out)


def gma_ref(g: MixedGraph, n1, n2, n3) -> MixedGraph:
    """The moral graph of the smallest ancestral set, built straight-line:
    a set-based closure under boundaries, the induced subgraph, then the
    moralization rule applied to that subgraph's own chain components."""
    return moralize_ref(g, ancestral_ref(g, g.resolve_set(n1) | g.resolve_set(n2)
                                         | g.resolve_set(n3)))


def ancestral_ref(g: MixedGraph, nodes) -> frozenset:
    """The closure of `nodes` under boundaries, by a set-based search."""
    closed = set(g.resolve_set(nodes))
    frontier = list(closed)
    while frontier:
        for b in g.boundary(frontier.pop()):
            if b not in closed:
                closed.add(b)
                frontier.append(b)
    return frozenset(closed)


def moralize_ref(g: MixedGraph, closed) -> MixedGraph:
    """The moral graph of the subgraph induced by `closed`."""
    sub = g.induced_subgraph(closed)
    edges = set(sub.undirected) | set(sub.directed)
    for component in sub.chain_components():
        married = sorted(n for n in sub.nodes if sub.children(n) & component)
        edges.update(combinations(married, 2))
    return MixedGraph(sub.nodes, (), edges)


def mixed_structure_ref(lcn: Lcn) -> MixedGraph:
    """`mixed_structure` from node pairs: each group-U constraint joins the
    propositions of phi pairwise, and every constraint adds an edge from
    each proposition of psi to each other proposition of phi."""
    props = {name: prop_node(name) for name in lcn.props}
    directed: set = set()
    undirected: set = set()
    for c in lcn.constraints:
        phi_props = sorted(support(c.phi))
        if c.group == "U":
            undirected.update((props[a], props[b]) for a, b in combinations(phi_props, 2))
        for p in sorted(support(c.psi)):
            for q in phi_props:
                if p != q:
                    directed.add((props[p], props[q]))
    return MixedGraph(props.values(), directed, undirected)


def dependency_graph_ref(lcn: Lcn, merge: str = "semantic") -> MixedGraph:
    """`dependency_graph` from its docstring's rules, with node-pair sets.

    A formula's identity is its canonical key ("semantic") or its printed
    form ("syntactic"); the propositions its edges reach are the key's or
    every one written in it.  A formula with the identity of a bare
    proposition is that proposition-node, a psi with the identity of
    `true` adds nothing, a merged node shows the first rendering seen, and
    self-loops are dropped."""
    def identity(f):
        return canonical_key_ref(f) if merge == "semantic" else format_formula_ref(f)

    def reach(f):
        return canonical_key_ref(f)[0] if merge == "semantic" else support(f)

    props = {name: prop_node(name) for name in lcn.props}
    bare = {identity(Prop(name)): name for name in lcn.props}
    named: dict = {}
    pairs: set = set()

    def node(f):
        ident = identity(f)
        if ident in bare:
            return props[bare[ident]]
        if ident not in named:
            key = ident if merge == "semantic" else ((ident,), -1)
            named[ident] = Node("formula", format_formula_ref(f), key=key)
        return named[ident]

    for c in lcn.constraints:
        phi = node(c.phi)
        pairs.update((phi, props[p]) for p in reach(c.phi))
        if c.group == "U":
            pairs.update((props[p], phi) for p in reach(c.phi))
        if identity(c.psi) != identity(TOP):
            psi = node(c.psi)
            pairs.update((props[p], psi) for p in reach(c.psi))
            pairs.add((psi, phi))
    return MixedGraph([*props.values(), *named.values()], {(a, b) for a, b in pairs if a != b})


def separated_ref(g: MixedGraph, n1, n2, n3) -> bool:
    """Set-based search in an undirected graph: whether n2 blocks every
    path from n1 to n3."""
    blocked, targets = g.resolve_set(n2), g.resolve_set(n3)
    seen = set(g.resolve_set(n1))
    queue = list(seen)
    while queue:
        n = queue.pop()
        if n in targets:
            return False
        for m in g.neighbors(n):
            if m not in seen and m not in blocked:
                seen.add(m)
                queue.append(m)
    return True


def separation_bruteforce(g: MixedGraph,
                          n1: Iterable[object],
                          n2: Iterable[object],
                          n3: Iterable[object]) -> bool:
    """Path-enumeration separation test, sharing no traversal code with
    MixedGraph.separates: walk every simple path that avoids n2 and report
    whether none of them joins n1 to n3."""
    if g.directed:
        raise GraphError("separation is defined on undirected graphs only")
    if len(g.nodes) > MAX_TABLE_PROPS:
        raise GraphError(f"{len(g.nodes)} nodes exceed the brute-force limit")
    s1 = {g.resolve(n).name for n in n1}
    s2 = {g.resolve(n).name for n in n2}
    s3 = {g.resolve(n).name for n in n3}
    if (s1 & s2) or (s1 & s3) or (s2 & s3):
        raise GraphError("node sets must be disjoint")

    adjacency: dict[str, list[str]] = {n.name: [] for n in g.nodes}
    for a, b in sorted(g.undirected, key=lambda e: (e[0].name, e[1].name)):
        adjacency[a.name].append(b.name)
        adjacency[b.name].append(a.name)

    def connects(u: str, on_path: frozenset[str]) -> bool:
        for v in adjacency[u]:
            if v in s2 or v in on_path:
                continue
            if v in s3:
                return True
            if connects(v, on_path | {v}):
                return True
        return False

    return not any(connects(s, frozenset([s])) for s in sorted(s1))


def bounded_statements(g: MixedGraph, max_x: int = 2, max_y: int | None = None,
                       max_z: int = 3) -> frozenset[IndependenceStatement]:
    """Every statement X ⊥ Y | Z over the variable nodes with |X| ≤ max_x,
    |Y| ≤ max_y and |Z| ≤ max_z, implied or not, in canonical form."""
    variables = tuple(n.name for n in g.nodes if n.kind != "formula")
    if max_y is None:
        max_y = len(variables)

    def subsets(pool, lo, hi):
        for size in range(lo, min(hi, len(pool)) + 1):
            yield from combinations(pool, size)

    out = set()
    for x in subsets(variables, 1, max_x):
        rest_x = [v for v in variables if v not in x]
        for y in subsets(rest_x, 1, max_y):
            rest_xy = [v for v in rest_x if v not in y]
            for z in subsets(rest_xy, 0, max_z):
                out.add(IndependenceStatement(x, y, z))
    return frozenset(out)


def enumerate_gmc_ref(g: MixedGraph, max_x: int = 2, max_y: int | None = None,
                      max_z: int = 3) -> frozenset[IndependenceStatement]:
    """The global condition enumerated with one separation search per
    statement within the bounds, each on the moral graph of its smallest
    ancestral set (the union of its nodes' ones; built once per distinct
    set)."""
    single = {n.name: ancestral_ref(g, [n]) for n in g.nodes}
    moral: dict[frozenset, MixedGraph] = {}
    out = set()
    for s in bounded_statements(g, max_x, max_y, max_z):
        closed = frozenset().union(*(single[v] for v in s.x + s.y + s.z))
        if closed not in moral:
            moral[closed] = moralize_ref(g, closed)
        if separated_ref(moral[closed], s.x, s.z, s.y):
            out.add(s)
    return frozenset(out)


def dag_mirror_table(g: MixedGraph, plan: FactorizationPlan,
                     seed: int) -> JointTable:
    """Mirror of the factorized sampler for DAG plans, built from per-node
    conditionals instead of potential/marginal quotients.  Reproduces the
    sampler's draw order exactly."""
    rng = random.Random(seed)
    conditionals = []
    for factor in plan.factors:
        assert len(factor.component) == 1 and len(factor.cliques) == 1
        (clique,) = factor.cliques
        clique_names = [n.name for n in clique]
        weights = [rng.uniform(WEIGHT_FLOOR, 1.0)
                   for _ in range(1 << len(clique_names))]
        conditionals.append((factor.component[0].name, clique_names, weights))

    names = [n.name for n in g.nodes]
    probs = []
    for i in range(1 << len(names)):
        assign = {nm: (i >> j) & 1 for j, nm in enumerate(names)}
        p = 1.0
        for node, clique_names, weights in conditionals:
            idx = sum(assign[nm] << j for j, nm in enumerate(clique_names))
            bit = clique_names.index(node)
            here = assign[node]
            idx0 = idx & ~(1 << bit)
            idx1 = idx0 | (1 << bit)
            p *= weights[idx if here else idx0] / (weights[idx0] + weights[idx1])
        probs.append(p)
    total = sum(probs)
    return JointTable(tuple(names), tuple(q / total for q in probs))


# ---------------------------------------------------------------------------
# Per-row oracle loops: references for the row-index oracle

def assignment(table: JointTable, index: int) -> dict[str, int]:
    """The values of row `index` of `table`: `table.props[j]` is bit j."""
    return {p: (index >> j) & 1 for j, p in enumerate(table.props)}


def check_independence_ref(table: JointTable, statement: IndependenceStatement,
                           tol: float = DEFAULT_TOL) -> StatementCheck:
    """Reference `check_independence`: tuple-keyed marginals filled row by
    row, then every x, y configuration under each z with positive mass."""
    for name in statement.x + statement.y + statement.z:
        if name not in table.props:
            raise ModelError(f"statement mentions unknown proposition {name!r}")
    pos = {p: j for j, p in enumerate(table.props)}

    def bits(names: tuple[str, ...], index: int) -> tuple[int, ...]:
        return tuple((index >> pos[nm]) & 1 for nm in names)

    def configs(k: int):
        for i in range(1 << k):
            yield tuple((i >> j) & 1 for j in range(k))

    pxyz: dict[tuple, float] = {}
    pxz: dict[tuple, float] = {}
    pyz: dict[tuple, float] = {}
    pz: dict[tuple, float] = {}
    for i, p in enumerate(table.probs):
        xv, yv, zv = bits(statement.x, i), bits(statement.y, i), bits(statement.z, i)
        pxyz[(xv, yv, zv)] = pxyz.get((xv, yv, zv), 0.0) + p
        pxz[(xv, zv)] = pxz.get((xv, zv), 0.0) + p
        pyz[(yv, zv)] = pyz.get((yv, zv), 0.0) + p
        pz[zv] = pz.get(zv, 0.0) + p

    worst = 0.0
    for zv, mass in pz.items():
        if mass <= 0.0:
            continue
        for xv in configs(len(statement.x)):
            for yv in configs(len(statement.y)):
                lhs = pxyz.get((xv, yv, zv), 0.0) / mass
                rhs = (pxz.get((xv, zv), 0.0) / mass) * (pyz.get((yv, zv), 0.0) / mass)
                worst = max(worst, abs(lhs - rhs))
    return StatementCheck(statement, worst <= tol, worst)


def sample_chain_factorized_ref(g: MixedGraph, plan: FactorizationPlan,
                                seed: int) -> JointTable:
    """Reference `sample_chain_factorized`: per row, each factor's potential
    from an assignment dict, divided by its normalizer summed afresh over
    every configuration of the component.  Same draw order."""
    names = [n.name for n in g.nodes]
    rng = random.Random(seed)
    factor_parts = []
    for factor in plan.factors:
        clique_weights = []
        for clique in factor.cliques:
            clique_names = [n.name for n in clique]
            weights = [rng.uniform(WEIGHT_FLOOR, 1.0)
                       for _ in range(1 << len(clique_names))]
            clique_weights.append((clique_names, weights))
        component_names = [n.name for n in factor.component]
        factor_parts.append((component_names, clique_weights))

    def potential(clique_weights, assign: dict[str, int]) -> float:
        value = 1.0
        for clique_names, weights in clique_weights:
            idx = sum(assign[nm] << j for j, nm in enumerate(clique_names))
            value *= weights[idx]
        return value

    probs = []
    for i in range(1 << len(names)):
        assign = {nm: (i >> j) & 1 for j, nm in enumerate(names)}
        p = 1.0
        for component_names, clique_weights in factor_parts:
            numerator = potential(clique_weights, assign)
            denominator = 0.0
            scratch = dict(assign)
            for k in range(1 << len(component_names)):
                for j, nm in enumerate(component_names):
                    scratch[nm] = (k >> j) & 1
                denominator += potential(clique_weights, scratch)
            p *= numerator / denominator
        probs.append(p)
    total = sum(probs)
    return JointTable(tuple(names), tuple(q / total for q in probs))


# ---------------------------------------------------------------------------
# Per-assignment truth tables: references for the bit-parallel kernel

def _assignments(props: tuple[str, ...]):
    """All assignments over `props` by index: assignment i gives `props[j]`
    bit j of i."""
    for i in range(1 << len(props)):
        yield {p: (i >> j) & 1 for j, p in enumerate(props)}


def truth_mask_ref(f, props: tuple[str, ...]) -> int:
    """Reference `truth_mask`: one `eval_formula` call per assignment, with
    the propositions of `f` outside `props` held false."""
    base = dict.fromkeys(support(f), 0)
    mask = 0
    for i, a in enumerate(_assignments(props)):
        if eval_formula(f, {**base, **a}):
            mask |= 1 << i
    return mask


def eval_formula_ref(f, assignment) -> bool:
    """Reference `eval_formula`: one recursive call per node, `&` and `|`
    short-circuiting left to right, and a missing proposition raising
    LcnError only when its value is read."""
    if isinstance(f, Prop):
        if f.name not in assignment:
            raise LcnError(f"assignment is missing proposition {f.name!r}")
        return bool(assignment[f.name])
    if isinstance(f, Not):
        return not eval_formula_ref(f.child, assignment)
    if isinstance(f, And):
        return eval_formula_ref(f.left, assignment) and eval_formula_ref(f.right, assignment)
    if isinstance(f, Or):
        return eval_formula_ref(f.left, assignment) or eval_formula_ref(f.right, assignment)
    return isinstance(f, Top)


def structure_ref(f) -> tuple:
    """Reference structural identity: the tree as nested tuples of class
    names, proposition names and operands, one recursive call per node."""
    if isinstance(f, Prop):
        return ("Prop", f.name)
    if isinstance(f, Not):
        return ("Not", structure_ref(f.child))
    if isinstance(f, (And, Or)):
        return (type(f).__name__, structure_ref(f.left), structure_ref(f.right))
    return (type(f).__name__,)


def format_formula_ref(f, level: int = 0) -> str:
    """Reference `format_formula`: one recursive call per node (precedence
    levels 0 = or, 1 = and, 2 = unary)."""
    if isinstance(f, Prop):
        return f.name
    if f == TOP or f == BOTTOM:
        return "true" if f == TOP else "false"
    if isinstance(f, Not):
        return "!" + format_formula_ref(f.child, 2)
    inner, op = (1, "&") if isinstance(f, And) else (0, "|")
    text = f"{format_formula_ref(f.left, inner)} {op} {format_formula_ref(f.right, inner)}"
    return f"({text})" if level > inner else text


def canonical_key_ref(f):
    """Reference `canonical_key`: a proposition is relevant when flipping
    it changes the value under some assignment, checked row by row.  The
    key's mask lists the assignments of the sorted dependencies in
    lexicographic order of value tuples: the kernel over them reversed."""
    props = tuple(sorted(support(f)))
    table = [eval_formula(f, a) for a in _assignments(props)]
    deps = []
    for j in range(len(props)):
        flip = 1 << j  # distance between rows differing in prop j
        if any(table[i] != table[i | flip] for i in range(len(table)) if not i & flip):
            deps.append(props[j])
    deps = tuple(deps)
    return (deps, truth_mask_ref(f, deps[::-1]))
