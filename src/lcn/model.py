"""Constraint models and their textual file format.

A model is a set of named propositions plus probability-interval
constraints on conditional formulas, split into two groups `U` and `D`
that later drive different graph constructions.  The file format is
line-oriented::

    # smokers example
    U: 0.5 <= P(F1 given F2 & F3) <= 1
    D: P(C1 given S1) in [0.03, 0.04]
    U: P(A | B) = 0.4

Every line is `U:` or `D:` followed by a bound expression; `#` starts a
comment and blank lines are skipped.  Bound sugar (`= x`, `<= x`, `>= x`,
`in [a, b]`) normalizes to the two-sided interval.  Propositions are
declared implicitly, in order of first appearance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import ModelError, ParseError
from .formula import (
    BOTTOM_KEY,
    TOP,
    TOP_KEY,
    Formula,
    TokenStream,
    canonical_key,
    format_formula,
    support_in_order,
    _parse_or,
)

GROUPS = ("U", "D")


@dataclass(frozen=True)
class Constraint:
    """One interval constraint `lo <= P(phi | psi) <= hi` in group U or D."""

    lo: float
    hi: float
    phi: Formula
    psi: Formula = TOP
    group: str = "U"
    line: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.group not in GROUPS:
            raise ModelError(f"constraint group must be one of {GROUPS}, got {self.group!r}")
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ModelError(
                f"bounds must satisfy 0 <= lo <= hi <= 1, got [{self.lo}, {self.hi}]"
            )
        key = canonical_key(self.phi)
        if key == TOP_KEY or key == BOTTOM_KEY:
            raise ModelError(
                "the conditioned formula must not be a tautology or a contradiction"
            )

    @property
    def is_conditional(self) -> bool:
        """Whether the conditioning side is anything other than literal truth."""
        return canonical_key(self.psi) != TOP_KEY

    def __str__(self) -> str:
        return format_constraint(self)


@dataclass(frozen=True)
class Lcn:
    """A constraint model: ordered propositions plus a constraint list."""

    props: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if not self.props:
            raise ModelError("a model must declare at least one proposition")
        if len(set(self.props)) != len(self.props):
            raise ModelError("duplicate proposition declaration")
        known = set(self.props)
        for c in self.constraints:
            missing = (support_in_order(c.phi) + support_in_order(c.psi))
            for name in missing:
                if name not in known:
                    raise ModelError(
                        f"constraint {format_constraint(c)!r} uses undeclared "
                        f"proposition {name!r}"
                    )


def make_lcn(constraints: Iterable[Constraint], props: Iterable[str] | None = None) -> Lcn:
    """Build a model from constraints, declaring propositions on first use.

    With explicit `props`, the declaration order is taken from there instead
    (and the constraints must not mention anything else).
    """
    constraints = tuple(constraints)
    if props is not None:
        return Lcn(tuple(props), constraints)
    order: dict[str, None] = {}
    for c in constraints:
        for name in support_in_order(c.phi) + support_in_order(c.psi):
            order.setdefault(name)
    return Lcn(tuple(order), constraints)


# ---------------------------------------------------------------------------
# Parsing

def parse_lcn(text: str) -> Lcn:
    """Parse the text of a model file.

    Raises ParseError with a 1-based line number on any malformed line, and
    ModelError for out-of-range bounds.
    """
    scope: dict[str, None] = {}
    constraints: list[Constraint] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            constraints.append(_parse_line(line, lineno, scope))
        except ParseError as exc:
            raise ParseError(exc.message, line=lineno, column=exc.column) from None
        except ModelError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if not scope:
        raise ModelError("model file declares no propositions")
    return Lcn(tuple(scope), tuple(constraints))


def _parse_line(line: str, lineno: int, scope: dict[str, None]) -> Constraint:
    stream = TokenStream(line)
    if stream.text not in GROUPS:
        raise ParseError("each constraint line must start with 'U:' or 'D:'",
                         column=stream.column)
    group = stream.advance()
    stream.expect_op(":")

    if stream.kind == "num":
        # NUM '<=' P(...) '<=' NUM
        lo = _parse_number(stream)
        stream.expect_op("<=")
        phi, psi = _parse_prob(stream, scope)
        stream.expect_op("<=")
        hi = _parse_number(stream)
    else:
        phi, psi = _parse_prob(stream, scope)
        op = stream.text
        if op in ("=", "<=", ">="):
            stream.advance()
            value = _parse_number(stream)
            lo, hi = {"=": (value, value), "<=": (0.0, value), ">=": (value, 1.0)}[op]
        elif op == "in":
            stream.advance()
            stream.expect_op("[")
            lo = _parse_number(stream)
            stream.expect_op(",")
            hi = _parse_number(stream)
            stream.expect_op("]")
        else:
            raise stream.expected("a bound ('=', '<=', '>=', or 'in [lo, hi]')", found_end=False)

    stream.expect_end()
    return Constraint(lo, hi, phi, psi, group, line=lineno)


def _parse_prob(stream: TokenStream, scope: dict[str, None]) -> tuple[Formula, Formula]:
    if stream.text != "P":
        raise stream.expected("'P('")
    stream.advance()
    stream.expect_op("(")
    phi = _parse_or(stream, scope)
    psi: Formula = TOP
    if stream.text == "given":
        stream.advance()
        psi = _parse_or(stream, scope)
    stream.expect_op(")")
    return phi, psi


def _parse_number(stream: TokenStream) -> float:
    if stream.kind != "num":
        raise stream.expected("a number")
    return float(stream.advance())


# ---------------------------------------------------------------------------
# Printing

def format_constraint(c: Constraint) -> str:
    """Canonical one-line rendering (always the two-sided form)."""
    prob = f"P({format_formula(c.phi)})" if not c.is_conditional else \
        f"P({format_formula(c.phi)} given {format_formula(c.psi)})"
    return f"{c.group}: {c.lo!r} <= {prob} <= {c.hi!r}"


def format_lcn(lcn: Lcn) -> str:
    """Render a model back to file text; `parse_lcn` round-trips it."""
    return "".join(format_constraint(c) + "\n" for c in lcn.constraints)


# ---------------------------------------------------------------------------
# Validation diagnostics

@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning" | "info"
    message: str
    line: int | None = None

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line is not None else ""
        return f"{self.severity}: {self.message}{where}"


def validate(lcn: Lcn) -> list[Diagnostic]:
    """Non-fatal review of a model.

    Reports hard constraints (informational), conditioning on a
    contradiction (error), duplicated constraints, and pairs of constraints
    on the same conditional with non-overlapping intervals (both warnings).
    Feasibility of the model as a whole is out of scope here.
    """
    out: list[Diagnostic] = []
    seen: dict[tuple, int | None] = {}
    by_conditional: dict[tuple, list[Constraint]] = {}
    for c in lcn.constraints:
        phi_key = canonical_key(c.phi)
        psi_key = canonical_key(c.psi)
        if (c.lo == c.hi == 1.0) or c.hi == 0.0:
            out.append(Diagnostic("info", f"hard constraint: {format_constraint(c)}", c.line))
        if psi_key == BOTTOM_KEY:
            out.append(Diagnostic("error",
                                  f"conditioning formula is a contradiction: {format_constraint(c)}",
                                  c.line))
        ident = (c.group, c.lo, c.hi, phi_key, psi_key)
        if ident in seen:
            out.append(Diagnostic("warning",
                                  f"duplicate constraint: {format_constraint(c)}", c.line))
        else:
            seen[ident] = c.line
        by_conditional.setdefault((phi_key, psi_key), []).append(c)
    for (_, _), group in by_conditional.items():
        lo = max(c.lo for c in group)
        hi = min(c.hi for c in group)
        if len(group) > 1 and lo > hi:
            out.append(Diagnostic(
                "warning",
                "conflicting intervals for the same conditional: "
                + "; ".join(format_constraint(c) for c in group),
                group[0].line))
    return out
