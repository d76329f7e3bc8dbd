"""Exhaustive ground truth for small models: exact joint tables,
constraint and independence checking, factorized sampling, and an
independent separation check.

Everything here is deliberately brute-force.  Tables enumerate all 2^n
assignments (n ≤ 12), so every probability is an exact finite sum and the
results can arbitrate the graph-level algorithms.

Table layout: assignment index i sets proposition `props[j]` to bit j of
i — the first proposition is the least significant bit.  The JSON form is
``{"props": [...], "probs": [...]}`` with the same index order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import GraphError, ModelError
from .factorize import FactorizationPlan
from .formula import And, Formula, support, truth_mask
from .graph import MixedGraph
from .markov import IndependenceStatement
from .model import Constraint, Lcn, format_constraint

#: Largest joint table, in propositions.
MAX_TABLE_PROPS = 12

#: Default tolerance on probability identities for constructed tables.
DEFAULT_TOL = 1e-9

#: Positive sampling draws weights from [WEIGHT_FLOOR, 1].
WEIGHT_FLOOR = 1e-3

_NORMALIZATION_TOL = 1e-12


def _check_table_size(n: int, what: str = "propositions") -> None:
    if n > MAX_TABLE_PROPS:
        raise ModelError(f"{n} {what} exceed the {MAX_TABLE_PROPS}-proposition table limit")


@dataclass(frozen=True)
class JointTable:
    """An explicit joint distribution over binary propositions."""

    props: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_table_size(len(self.props))
        if len(set(self.props)) != len(self.props):
            raise ModelError("table propositions must be distinct")
        if len(self.probs) != 1 << len(self.props):
            raise ModelError(
                f"expected {1 << len(self.props)} probabilities, got {len(self.probs)}"
            )
        if any(p < 0 for p in self.probs):
            raise ModelError("probabilities must be nonnegative")
        if not all(math.isfinite(p) for p in self.probs):
            raise ModelError("probabilities must be finite numbers")
        if abs(sum(self.probs) - 1.0) > _NORMALIZATION_TOL:
            raise ModelError(f"probabilities sum to {sum(self.probs)!r}, not 1")

    def assignment(self, index: int) -> dict[str, int]:
        return {p: (index >> j) & 1 for j, p in enumerate(self.props)}

    def to_json_dict(self) -> dict:
        return {"props": list(self.props), "probs": list(self.probs)}


def table_from_json_dict(data: Mapping) -> JointTable:
    try:
        props = tuple(str(p) for p in data["props"])
        probs = tuple(float(q) for q in data["probs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed table JSON: {exc}") from None
    return JointTable(props, probs)


def _check_support(table: JointTable, f: Formula) -> None:
    unknown = support(f) - set(table.props)
    if unknown:
        raise ModelError(f"formula mentions propositions outside the table: "
                         f"{', '.join(sorted(unknown))}")


def _selected(table: JointTable, f: Formula) -> Iterator[float]:
    """The probabilities of the rows satisfying `f`, in ascending index
    order.  The kernel is MSB-first, so it gets the propositions reversed
    to match the table's LSB-first layout."""
    _check_support(table, f)
    rows = bin(truth_mask(f, table.props[::-1]))[:1:-1]  # bit i at position i
    return compress(table.probs, map("1".__eq__, rows))


def prob(table: JointTable, f: Formula) -> float:
    """Total mass of the assignments satisfying `f`."""
    return sum(_selected(table, f))


def cond_prob(table: JointTable, phi: Formula, psi: Formula) -> float | None:
    """P(phi | psi), or None when P(psi) = 0."""
    _check_support(table, phi)
    margin = 0.0
    for p in _selected(table, psi):
        margin += p
    if margin == 0.0:
        return None
    joint = 0.0
    for p in _selected(table, And(psi, phi)):
        joint += p
    return joint / margin


# ---------------------------------------------------------------------------
# Checking

@dataclass(frozen=True)
class ConstraintCheck:
    constraint: Constraint
    status: str  # "satisfied" | "violated" | "vacuous"
    value: float | None
    margin: float = 0.0

    def ok(self, strict: bool = False) -> bool:
        if self.status == "satisfied":
            return True
        return self.status == "vacuous" and not strict


def check_constraint(table: JointTable, c: Constraint,
                     tol: float = DEFAULT_TOL) -> ConstraintCheck:
    """Whether the table honors lo − tol ≤ P(phi|psi) ≤ hi + tol; vacuous
    when the conditioning event has zero probability."""
    value = cond_prob(table, c.phi, c.psi)
    if value is None:
        return ConstraintCheck(c, "vacuous", None)
    if c.lo - tol <= value <= c.hi + tol:
        return ConstraintCheck(c, "satisfied", value)
    margin = max(c.lo - value, value - c.hi)
    return ConstraintCheck(c, "violated", value, margin)


@dataclass(frozen=True)
class StatementCheck:
    statement: IndependenceStatement
    holds: bool
    max_deviation: float


def check_independence(table: JointTable, statement: IndependenceStatement,
                       tol: float = DEFAULT_TOL) -> StatementCheck:
    """Test P(x,y|z) = P(x|z)·P(y|z) for every configuration, skipping z
    configurations with zero mass."""
    for name in statement.x + statement.y + statement.z:
        if name not in table.props:
            raise ModelError(f"statement mentions unknown proposition {name!r}")
    pos = {p: j for j, p in enumerate(table.props)}

    def bits(names: tuple[str, ...], index: int) -> tuple[int, ...]:
        return tuple((index >> pos[nm]) & 1 for nm in names)

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
        for xv in _configs(len(statement.x)):
            for yv in _configs(len(statement.y)):
                lhs = pxyz.get((xv, yv, zv), 0.0) / mass
                rhs = (pxz.get((xv, zv), 0.0) / mass) * (pyz.get((yv, zv), 0.0) / mass)
                worst = max(worst, abs(lhs - rhs))
    return StatementCheck(statement, worst <= tol, worst)


def _configs(k: int) -> Iterable[tuple[int, ...]]:
    for i in range(1 << k):
        yield tuple((i >> j) & 1 for j in range(k))


@dataclass(frozen=True)
class CheckReport:
    constraints: tuple[ConstraintCheck, ...]
    statements: tuple[StatementCheck, ...] = ()

    def ok(self, strict: bool = False) -> bool:
        return (all(c.ok(strict) for c in self.constraints)
                and all(s.holds for s in self.statements))


def check_model(table: JointTable, lcn: Lcn,
                tol: float = DEFAULT_TOL) -> CheckReport:
    missing = set(lcn.props) - set(table.props)
    if missing:
        raise ModelError("table lacks model propositions: "
                         + ", ".join(sorted(missing)))
    return CheckReport(tuple(check_constraint(table, c, tol)
                             for c in lcn.constraints))


# ---------------------------------------------------------------------------
# Sampling

def sample_positive_table(props: Sequence[str], seed: int) -> JointTable:
    """Strictly positive random table: independent weights from
    [WEIGHT_FLOOR, 1], normalized.  Deterministic per seed."""
    props = tuple(props)
    _check_table_size(len(props))
    rng = random.Random(seed)
    weights = [rng.uniform(WEIGHT_FLOOR, 1.0) for _ in range(1 << len(props))]
    total = sum(weights)
    return JointTable(props, tuple(w / total for w in weights))


def sample_chain_factorized(g: MixedGraph, plan: FactorizationPlan,
                            seed: int) -> JointTable:
    """A positive joint table factorizing along `plan`: positive clique
    potentials define each component conditional as the potential-product
    divided by its boundary marginal, and the conditionals multiply in
    component order.

    Draw order is fixed — factors in plan order, cliques in their recorded
    order, and per clique one weight per assignment with the clique's first
    (sorted) node as the least significant bit — so a seed pins the table.
    """
    if any(n.kind == "formula" for n in g.nodes):
        raise GraphError("factorized sampling is defined over variable nodes only")
    names = [n.name for n in g.nodes]
    _check_table_size(len(names), "variables")
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
# Independent separation check

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
