"""Exhaustive ground truth for small models: exact joint tables,
constraint and independence checking, and factorized sampling.

Everything here is deliberately brute-force.  Tables enumerate all 2^n
assignments (n ≤ 12), so every probability is an exact finite sum and the
results can arbitrate the graph-level algorithms.

Table rows follow the assignment layout of `lcn.formula` over the table's
`props`.  The JSON form is ``{"props": [...], "probs": [...]}`` with the
same row order.  Marginals and clique tables use the same layout over
their own propositions, and `_project` is the one place that maps rows to
such sub-indices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import GraphError, ModelError
from .formula import And, Formula, support, truth_mask
from .model import Constraint, Lcn

if TYPE_CHECKING:
    from .factorize import FactorizationPlan
    from .graph import MixedGraph
    from .markov import IndependenceStatement

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

    def to_json_dict(self) -> dict:
        return {"props": list(self.props), "probs": list(self.probs)}


def table_from_json_dict(data: Mapping) -> JointTable:
    try:
        props, probs = data["props"], data["probs"]
        if not isinstance(props, list) or not all(isinstance(p, str) for p in props):
            raise TypeError("'props' must be a list of strings")
        if not isinstance(probs, list) or any(isinstance(q, bool) for q in probs):
            raise TypeError("'probs' must be a list of numbers")
        probs = [float(q) for q in probs]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"malformed table JSON: {exc}") from None
    return JointTable(tuple(props), tuple(probs))


def _project(props: Sequence[str], names: Sequence[str]) -> list[int]:
    """For each row i of a table over `props`, the index of that row's
    values on `names` (`names[k]` is bit k; names outside `props` stay 0).
    Each step doubles the list: the rows with `props[j]` set are the rows
    without it plus the bits of `props[j]` in `names`."""
    index = [0]
    for p in props:
        bit = sum(1 << k for k, name in enumerate(names) if name == p)
        index += [j + bit for j in index]
    return index


def _marginal(props: Sequence[str], names: Sequence[str], values: Sequence[float]) -> list[float]:
    """Sums of `values`, one per row of a table over `props`, into cells
    indexed over `names` as `_project` indexes them.  Each cell adds its
    rows in ascending row order."""
    cells = [0.0] * (1 << len(names))
    for j, value in zip(_project(props, names), values):
        cells[j] += value
    return cells


def _check_support(table: JointTable, f: Formula) -> None:
    unknown = support(f) - set(table.props)
    if unknown:
        raise ModelError(f"formula mentions propositions outside the table: "
                         f"{', '.join(sorted(unknown))}")


def prob(table: JointTable, f: Formula) -> float:
    """Total mass of the assignments satisfying `f`, summed in ascending
    index order."""
    _check_support(table, f)
    rows = bin(truth_mask(f, table.props))[:1:-1]  # bit i at position i
    return sum(compress(table.probs, map("1".__eq__, rows)))


def cond_prob(table: JointTable, phi: Formula, psi: Formula) -> float | None:
    """P(phi | psi), or None when P(psi) = 0."""
    _check_support(table, phi)
    margin = prob(table, psi)
    if margin == 0.0:
        return None
    return prob(table, And(psi, phi)) / margin


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
    x, y, z = statement.x, statement.y, statement.z
    for name in x + y + z:
        if name not in table.props:
            raise ModelError(f"statement mentions unknown proposition {name!r}")
    pxyz, pxz, pyz, pz = (_marginal(table.props, names, table.probs)
                          for names in (x + y + z, x + z, y + z, z))

    nx, ny = 1 << len(x), 1 << len(y)
    worst = 0.0
    for zv, mass in enumerate(pz):
        if mass <= 0.0:
            continue
        for xv in range(nx):
            for yv in range(ny):
                lhs = pxyz[(zv * ny + yv) * nx + xv] / mass
                rhs = (pxz[zv * nx + xv] / mass) * (pyz[zv * ny + yv] / mass)
                worst = max(worst, abs(lhs - rhs))
    return StatementCheck(statement, worst <= tol, worst)


@dataclass(frozen=True)
class CheckReport:
    constraints: tuple[ConstraintCheck, ...]

    def ok(self, strict: bool = False) -> bool:
        return all(c.ok(strict) for c in self.constraints)


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
    order, and per clique one weight per assignment in the layout of
    `lcn.formula` over the clique's (sorted) nodes — so a seed pins the
    table.
    """
    if any(n.kind == "formula" for n in g.nodes):
        raise GraphError("factorized sampling is defined over variable nodes only")
    names = [n.name for n in g.nodes]
    _check_table_size(len(names), "variables")
    if not {n.name for f in plan.factors for c in f.cliques for n in c} <= set(names):
        raise GraphError("the plan mentions nodes outside the graph")
    rng = random.Random(seed)
    size = 1 << len(names)

    probs = [1.0] * size
    for factor in plan.factors:
        potential = [1.0] * size
        for clique in factor.cliques:
            clique_names = [n.name for n in clique]
            weights = [rng.uniform(WEIGHT_FLOOR, 1.0)
                       for _ in range(1 << len(clique_names))]
            potential = [v * weights[j]
                         for v, j in zip(potential, _project(names, clique_names))]
        # The rows that differ only on the component share one normalizer:
        # the potential's marginal over the other variables.
        rest = [n.name for n in g.nodes if n not in factor.component]
        normalizer = _marginal(names, rest, potential)
        probs = [p * (v / normalizer[j])
                 for p, v, j in zip(probs, potential, _project(names, rest))]
    total = sum(probs)
    return JointTable(tuple(names), tuple(q / total for q in probs))
