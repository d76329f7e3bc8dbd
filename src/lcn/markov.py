"""Markov conditions: independence-statement generators over mixed graphs.

Each condition turns a graph into a set of statements "X is independent of
Y given Z" over variable nodes (propositions, or the super-nodes a
condensation introduces; never formula-nodes).  Statements are canonical:
both sides sorted, the lexicographically smaller side first, so set
comparisons are meaningful.

Conditions:

* ``lmc-lcn`` — per proposition A: A ⊥ everything except itself, its
  lcn-descendants and lcn-parents | lcn-parents.  Runs on a dependency
  graph.
* ``lmc-cstr`` — per node A: remainder excludes strict descendants and the
  boundary; condition on the boundary.
* ``lmc-c`` — like lmc-cstr with plain descendants.
* ``lmc-d`` — remainder excludes descendants and parents; condition on the
  parents.
* ``gmc-c`` — global: X ⊥ Y | Z whenever Z separates X from Y in the moral
  graph of the smallest ancestral set containing X ∪ Y ∪ Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .build import _descendants_mask, _formula_mask, _parents_mask, _require_prop
from .errors import GraphError
from .graph import MixedGraph, Node, _bits, _check_disjoint, _path_budget, _union

LMC_LCN = "lmc-lcn"
LMC_C = "lmc-c"
LMC_CSTR = "lmc-cstr"
LMC_D = "lmc-d"
GMC_C = "gmc-c"

LOCAL_CONDITIONS = (LMC_LCN, LMC_C, LMC_CSTR, LMC_D)
CONDITIONS = LOCAL_CONDITIONS + (GMC_C,)

#: Combinatorial guards for exhaustive statement enumeration, measured at
#: 12 nodes and the default bounds (2-core VM, Python 3.11.7).  A graph
#: costs one sweep per (X, Z): `tests/helpers.py`
#: `random_chain_graph(Random(s), 12)` takes 0.09-0.20 s for 3,061 to
#: 64,437 statements (s = 0-7), `sparse_chain_graph` 1.0-1.2 s for 399,024
#: to 471,431 (s = 0-2), and `random_mixed_graph(Random(s), 12)`, which has
#: directed cycles, 0.08-0.11 s for 255 and 32,997 (s = 1, 0).
#: The node guard does not bound the output: an edgeless 12-node graph
#: yields 2,934,207 statements.  So the enumeration also stops once it
#: holds more than MAX_ENUMERATION_STATEMENTS, checked after each (X, Z).
#: The guard sits above the largest outputs measured: 655,108 for
#: `random_chain_graph(Random(2), 12)` (1.6 s, 110 MB peak RSS) and 941,633
#: for an edgeless 11-node graph (2.2 s, 130 MB).  The edgeless 12-node
#: graph reaches the guard after 1.8 s, at 86 MB peak RSS.
MAX_ENUMERATION_NODES = 12
MAX_ENUMERATION_STATEMENTS = 1_000_000


@dataclass(frozen=True, slots=True)
class IndependenceStatement:
    """X ⊥ Y | Z over variable names, stored canonically."""

    x: tuple[str, ...]
    y: tuple[str, ...]
    z: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if any(isinstance(side, str) for side in (self.x, self.y, self.z)):
            raise GraphError("each side of an independence statement must be a "
                             "collection of names, not a single string")
        x = tuple(sorted(set(self.x)))
        y = tuple(sorted(set(self.y)))
        z = tuple(sorted(set(self.z)))
        if not x or not y:
            raise GraphError("both sides of an independence statement must be nonempty")
        if x > y:
            x, y = y, x
        if (set(x) & set(y)) or (set(x) & set(z)) or (set(y) & set(z)):
            raise GraphError("sides of an independence statement must be disjoint")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    def __str__(self) -> str:
        base = f"{','.join(self.x)} _||_ {','.join(self.y)}"
        return f"{base} | {','.join(self.z)}" if self.z else base

    @property
    def sort_key(self) -> tuple:
        return (self.x, self.y, self.z)

    def to_json_dict(self) -> dict:
        return {"x": list(self.x), "y": list(self.y), "z": list(self.z)}


_new = object.__new__
# The slots' own setters write past the frozen __setattr__.
_set_x, _set_y, _set_z = (vars(IndependenceStatement)[side].__set__ for side in "xyz")


def _statement(x: tuple[str, ...], y: tuple[str, ...],
               z: tuple[str, ...]) -> IndependenceStatement:
    """`IndependenceStatement(x, y, z)` for sides already sorted, disjoint
    and nonempty where they must be: only the pair is put in order, and
    __post_init__ does not run."""
    s = _new(IndependenceStatement)
    if x > y:
        x, y = y, x
    _set_x(s, x)
    _set_y(s, y)
    _set_z(s, z)
    return s


def _require_variable_graph(g: MixedGraph, condition: str) -> None:
    if any(n.kind == "formula" for n in g.nodes):
        raise GraphError(
            f"condition/graph-kind mismatch: {condition} is defined on graphs "
            "without formula-nodes"
        )


def local_statements(g: MixedGraph, condition: str) -> frozenset[IndependenceStatement]:
    """One statement per node, skipping nodes whose remainder is empty.  The
    path searches for descendants share one frame budget."""
    if condition not in LOCAL_CONDITIONS:
        raise GraphError(f"unknown local condition {condition!r}")
    if condition != LMC_LCN:
        _require_variable_graph(g, condition)

    formulas = _formula_mask(g)
    variables = ((1 << len(g.nodes)) - 1) & ~formulas
    nodes = g.nodes
    names = [n.name for n in nodes]
    # Node order puts props before super-nodes; names need not follow.
    ordered = [names[i] for i in _bits(variables)]
    in_order = all(a < b for a, b in zip(ordered, ordered[1:]))
    budget = _path_budget()
    out: list[IndependenceStatement] = []
    for i in _bits(variables):
        if condition == LMC_LCN:
            _require_prop(g, nodes[i])
            given = _parents_mask(g, 1 << i, formulas)
            excluded = _descendants_mask(g, 1 << i, given, formulas)
        elif condition == LMC_D:
            given = g._parent_masks[i]
            excluded = g._descendant_mask(i, budget)
        else:  # LMC_C, LMC_CSTR: the boundary is the given side
            given = g._boundary_masks[i]
            excluded = (g._strict_descendant_mask(i) if condition == LMC_CSTR
                        else g._descendant_mask(i, budget))
        rest = variables & ~(given | excluded | 1 << i)
        if rest:
            # Tuples of lists: a tuple grown from a generator is resized, and
            # those filled the tuple free lists (+4 MB peak RSS over 6,000
            # indep-graphs ops).
            y = tuple([names[j] for j in _bits(rest)])
            z = tuple([names[j] for j in _bits(given)])
            if not in_order:
                y, z = tuple(sorted(y)), tuple(sorted(z))
            out.append(_statement((names[i],), y, z))
    return frozenset(out)


def gmc_implies(g: MixedGraph,
                n1: Iterable[object],
                n2: Iterable[object],
                n3: Iterable[object]) -> bool:
    """Whether the global condition makes n1 independent of n3 given n2:
    n2 separates n1 from n3 in the moral graph of the smallest ancestral
    set containing all three."""
    s1, s2, s3 = g.resolve_set(n1), g.resolve_set(n2), g.resolve_set(n3)
    for s in (s1, s2, s3):
        for n in s:
            if n.kind == "formula":
                raise GraphError("independence queries range over variable nodes only")
    if not s1 or not s3:
        raise GraphError("both outer sets of an independence query must be nonempty")
    _check_disjoint(s1, s2, s3)
    m1, m2, m3 = g._mask(s1), g._mask(s2), g._mask(s3)
    return not g._reach(m1, g._moral(g._ancestral(m1 | m2 | m3)), ~m2) & m3


def enumerate_gmc(g: MixedGraph,
                  max_x: int = 2,
                  max_y: int | None = None,
                  max_z: int = 3) -> frozenset[IndependenceStatement]:
    """All statements X ⊥ Y | Z (|X| ≤ max_x, |Y| ≤ max_y, |Z| ≤ max_z) the
    global condition implies, as a canonical set.

    The condition is one search on the moral graph of the smallest
    ancestral set holding X ∪ Y ∪ Z.  That set for a union is the union of
    the members' sets, so it is tabled per node subset; each moral graph is
    built once per distinct ancestral set.

    Each (X, Z) takes one sweep.  Let A = An(X ∪ Z), M its moral graph, R
    the nodes X reaches in M without entering Z, and J the nodes of R plus
    those on a step path (edges forward) from a child outside A of a node
    of R.  Then for Y outside X ∪ Z, X ⊥ Y | Z fails iff Y meets J; so the
    condition is compositional, and the statements of (X, Z) are the
    nonempty Y ⊆ S of at most max_y nodes, S the nodes outside X ∪ Z ∪ J.
    Proof: let B = An(Y) ∖ A.  A is closed under parents and neighbours,
    so a chain component of A ∪ B lies in A or in B, every edge between A
    and B runs from A into B, and a step path from b ∈ B into Y stays in
    B, which misses Z.  In the moral graph of A ∪ B the edges inside A are
    M's plus marriages among parents of components in B, and a node of A
    is adjacent to B only through a child in B.  So a path from X to Y
    avoiding Z either uses M's edges to reach Y inside R, or first leaves
    them at a node of R with a child in B, which reaches Y inside B.
    Conversely M is a subgraph of that moral graph, and a child in B of a
    node of R is joined to it there.  Nothing here needs the graph to be
    free of directed cycles.

    A statement whose sides both fit either bound is reached from both
    sides and built from the smaller X mask only.  MAX_ENUMERATION_NODES
    caps the nodes and MAX_ENUMERATION_STATEMENTS the output; their notes
    give the measured costs.
    """
    if max_x < 1 or (max_y is not None and max_y < 1) or max_z < 0:
        raise GraphError("enumeration bounds must satisfy max_x >= 1, max_y >= 1 "
                         f"and max_z >= 0, got {max_x}, {max_y}, {max_z}")
    _require_variable_graph(g, GMC_C)
    n = len(g.nodes)
    if n > MAX_ENUMERATION_NODES:
        raise GraphError(
            f"enumeration over {n} nodes exceeds the "
            f"{MAX_ENUMERATION_NODES}-node guard"
        )
    if max_y is None:
        max_y = n
    closure = [0] * (1 << n)
    names: list[tuple[str, ...]] = [()] * (1 << n)
    for i, node in enumerate(g.nodes):
        closure[1 << i] = g._ancestral(1 << i)
        names[1 << i] = (node.name,)
    for m in range(1, 1 << n):
        low = m & -m
        closure[m] = closure[m ^ low] | closure[low]
        names[m] = names[low] + names[m ^ low]
    if any(a.name > b.name for a, b in zip(g.nodes, g.nodes[1:])):
        # Node order puts props before super-nodes; names need not follow.
        names = [tuple(sorted(side)) for side in names]
    moral: dict[int, list[int]] = {}
    children, steps, reach = g._child_masks, g._step_masks, g._reach
    out: list[IndependenceStatement] = []
    full = (1 << n) - 1
    for x in _submasks(full, 1, max_x):
        rest_x = full ^ x
        name_x = names[x]
        # A Y side below this X that fits as an X side was built from there.
        mirror_limit = x if x.bit_count() <= max_y else 0
        for z in _submasks(rest_x, 0, max_z):
            base = closure[x | z]
            adj = moral.get(base)
            if adj is None:
                adj = moral[base] = g._moral(base)
            joined = reach(x, adj, ~z) & ~z
            exits = _union(children, joined) & ~base
            if exits:
                joined |= reach(exits, steps)
            ys = _submasks(rest_x & ~(z | joined), 1, max_y)
            name_z = names[z]
            out += [_statement(name_x, names[y], name_z) for y in ys
                    if y > mirror_limit or y.bit_count() > max_x]
            if len(out) > MAX_ENUMERATION_STATEMENTS:
                raise GraphError(
                    f"enumeration over {n} nodes yields more than the "
                    f"{MAX_ENUMERATION_STATEMENTS}-statement guard")
    return frozenset(out)


def _submasks(mask: int, lo: int, hi: int) -> Iterator[int]:
    """Every submask of `mask` with lo to hi bits set."""
    sub = mask
    while True:
        if lo <= sub.bit_count() <= hi:
            yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def weak_descendants(g: MixedGraph, node) -> frozenset[Node]:
    """Descendants that are not strict descendants (chain graphs only):
    nodes every directed path reaches only by leaving through an
    undirected edge first."""
    if g.has_directed_cycle():
        raise GraphError("weak descendants are defined on chain graphs only")
    i = g._position(node)
    return g._members(g._descendant_mask(i) & ~g._strict_descendant_mask(i))


def statement_decomposes(strong: IndependenceStatement,
                         weak: IndependenceStatement) -> bool:
    """Whether `weak` follows from `strong` by shrinking one side
    (the decomposition rule: X ⊥ Y∪W | Z implies X ⊥ Y | Z)."""
    if strong.z != weak.z:
        return False
    sx, sy = set(strong.x), set(strong.y)
    wx, wy = set(weak.x), set(weak.y)
    return ((wx == sx and wy <= sy) or (wy == sx and wx <= sy)
            or (wx == sy and wy <= sx) or (wy == sy and wx <= sx))


@dataclass(frozen=True)
class ComparisonReport:
    only_in_a: tuple[IndependenceStatement, ...]
    only_in_b: tuple[IndependenceStatement, ...]
    shared: tuple[IndependenceStatement, ...]


def statements_for(g: MixedGraph,
                   condition: str,
                   max_x: int = 2,
                   max_y: int | None = None,
                   max_z: int = 3) -> frozenset[IndependenceStatement]:
    """Statement set of any condition: local generators as generated, the
    global condition via bounded enumeration."""
    if condition in LOCAL_CONDITIONS:
        return local_statements(g, condition)
    if condition == GMC_C:
        return enumerate_gmc(g, max_x, max_y, max_z)
    raise GraphError(f"unknown condition {condition!r}")


def compare_conditions(g_a: MixedGraph, cond_a: str,
                       g_b: MixedGraph, cond_b: str,
                       max_x: int = 2,
                       max_y: int | None = None,
                       max_z: int = 3) -> ComparisonReport:
    """Set difference of two conditions' statements (possibly on two
    different graphs)."""
    sa = statements_for(g_a, cond_a, max_x, max_y, max_z)
    sb = statements_for(g_b, cond_b, max_x, max_y, max_z)
    order = lambda stmts: tuple(sorted(stmts, key=lambda s: s.sort_key))
    return ComparisonReport(order(sa - sb), order(sb - sa), order(sa & sb))
