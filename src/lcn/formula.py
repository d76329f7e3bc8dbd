"""Propositional formulas: syntax tree, parser, evaluation, canonicalization.

Formulas are built from named propositions with negation (`!`), conjunction
(`&`), disjunction (`|`), parentheses, and the literals `true` / `false`.
Two formulas are treated as interchangeable when they are logically
equivalent; `canonical_key` computes a semantic fingerprint (the set of
propositions the formula actually depends on plus its truth table) so that
equivalent formulas can share identity wherever that matters.

Truth tables are Python ints used as bitsets, all built by one kernel,
`truth_mask`, in the one assignment layout of the package: over
propositions `props`, index i stands for the assignment that gives
`props[j]` bit j of i, as the rows of `lcn.oracle` joint tables and the
configurations of `lcn.factorize` pruning are numbered.  `canonical_key`
reads the kernel over its sorted propositions reversed, so its masks list
assignments in lexicographic order of value tuples.

Grammar::

    formula := or
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | '(' formula ')' | 'true' | 'false' | IDENT

Operator precedence is `!` > `&` > `|`.  Parentheses nest at most
`MAX_NESTING` deep.  Identifiers are the usual letters/digits/underscore,
not starting with a digit.  The words `given`, `true`, `false`, `U` and
`D` are reserved and cannot name propositions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .errors import ParseError, LcnError

RESERVED_WORDS = frozenset({"given", "true", "false", "U", "D"})

#: Largest joint support for truth-table operations on formulas (the joint
#: probability tables of `lcn.oracle` have their own, smaller limit), and
#: largest clique that `lcn.factorize` pruning masks.  At 20 propositions
#: (2-core VM, Python 3.11.7): pruning a clique with one hard constraint
#: takes 1.5 ms; `lcn factorize --prune --format json` on the model
#: `U: P(A0 & ... & A19) = 0.5`, `U: 1 <= P(A0 | A1) <= 1` takes 0.13 s,
#: writes 264 KB and peaks at 20 MB RSS.
MAX_TRUTH_TABLE_PROPS = 20

#: Deepest parenthesis nesting the parser accepts.  Runs of `!` and chains
#: of one connective are read and printed in loops, so only parentheses
#: nest the parser's and the printer's recursion.
MAX_NESTING = 100


class Formula:
    """Base class of all formula nodes.  Instances are immutable.  `==` and
    `hash` read the postfix sequence of node types and proposition names,
    which spells the tree out, so deep formulas do not recurse."""

    __slots__ = ()

    def _postfix(self) -> tuple:
        return tuple(node.name if type(node) is Prop else type(node)
                     for node in _postorder(self))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or self._postfix() == other._postfix()

    def __hash__(self) -> int:
        return hash(self._postfix())

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_formula(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Prop(Formula):
    """A proposition leaf."""

    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Top(Formula):
    """The tautology literal (`true`)."""


@dataclass(frozen=True, eq=False, repr=False)
class Bottom(Formula):
    """The contradiction literal (`false`)."""


TOP = Top()
BOTTOM = Bottom()


# ---------------------------------------------------------------------------
# Parsing (the token cursor is shared with the model-file parser)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|=|\(|\)|\[|\]|!|&|\||,|:)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class TokenStream:
    """Cursor over the tokens of `text`, scanned all at once.

    Tokens are `(kind, text, column)` tuples: kind is "ident", "num", "op"
    or "end", column is 1-based.  The current token's fields are the
    attributes `kind`, `text` and `column`.  The kinds never share a text,
    so a token can be tested by its text alone.
    """

    def __init__(self, text: str):
        tokens = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", column=m.start() + 1)
            if kind != "ws":
                tokens.append((kind, m.group(), m.start() + 1))
        tokens.append(("end", "", len(text) + 1))
        self._next = iter(tokens).__next__
        self.kind, self.text, self.column = self._next()
        self.depth = 0  # open parentheses around the cursor

    def advance(self) -> str:
        """Move past the current token (never past the end); return its text."""
        text = self.text
        if self.kind != "end":
            self.kind, self.text, self.column = self._next()
        return text

    def expected(self, what: str, found_end: bool = True) -> ParseError:
        """The error "expected <what>, found <current token>".  At the end
        of input it reads "found end of input", or stops after `what` when
        `found_end` is false."""
        if self.kind != "end":
            what += f", found {self.text!r}"
        elif found_end:
            what += ", found end of input"
        return ParseError(f"expected {what}", column=self.column)

    def expect_op(self, text: str) -> None:
        if self.text != text:
            raise self.expected(repr(text))
        self.advance()

    def expect_end(self) -> None:
        if self.kind != "end":
            raise ParseError(f"unexpected trailing input {self.text!r}", column=self.column)


def parse_formula(text: str, scope: dict[str, None] | None = None) -> Formula:
    """Parse `text` into a Formula.

    `scope` is an optional dict used as an ordered set: every proposition
    name is added to it in order of first appearance.
    """
    if not text.strip():
        raise ParseError("empty formula")
    stream = TokenStream(text)
    formula = _parse_or(stream, {} if scope is None else scope)
    stream.expect_end()
    return formula


def _parse_or(stream: TokenStream, scope: dict[str, None]) -> Formula:
    node = _parse_and(stream, scope)
    while stream.text == "|":
        stream.advance()
        node = Or(node, _parse_and(stream, scope))
    return node


def _parse_and(stream: TokenStream, scope: dict[str, None]) -> Formula:
    node = _parse_unary(stream, scope)
    while stream.text == "&":
        stream.advance()
        node = And(node, _parse_unary(stream, scope))
    return node


def _parse_unary(stream: TokenStream, scope: dict[str, None]) -> Formula:
    negations = 0
    while stream.text == "!":
        stream.advance()
        negations += 1
    kind, text = stream.kind, stream.text
    if text == "(":
        if stream.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                             column=stream.column)
        stream.advance()
        stream.depth += 1
        node = _parse_or(stream, scope)
        stream.expect_op(")")
        stream.depth -= 1
    elif kind == "ident":
        if text == "true":
            node = TOP
        elif text == "false":
            node = BOTTOM
        elif text in RESERVED_WORDS:
            raise ParseError(f"{text!r} is a reserved word and cannot name a proposition",
                             column=stream.column)
        else:
            scope.setdefault(text)
            node = Prop(text)
        stream.advance()
    elif kind == "end":
        raise ParseError("unexpected end of formula", column=stream.column)
    else:
        raise ParseError(f"unexpected token {text!r}", column=stream.column)
    while negations:
        node, negations = Not(node), negations - 1
    return node


# ---------------------------------------------------------------------------
# Printing

def format_formula(f: Formula) -> str:
    """Render `f` with minimal parentheses.

    Chains of the same connective are printed flat, so re-parsing the output
    of a parsed formula reproduces the same (left-associated) tree.
    """
    return _format(f, 0)


# precedence levels: 0 = or, 1 = and, 2 = unary
def _format(f: Formula, level: int) -> str:
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, And):
        op, inner, sep = And, 1, " & "
    elif isinstance(f, Or):
        op, inner, sep = Or, 0, " | "
    elif isinstance(f, Not):
        negations = 0
        while isinstance(f, Not):
            f, negations = f.child, negations + 1
        return "!" * negations + _format(f, 2)
    elif isinstance(f, Top):
        return "true"
    elif isinstance(f, Bottom):
        return "false"
    else:
        raise TypeError(f"not a formula: {f!r}")
    # The left-leaning chain prints flat, walked from its last operand.
    parts = []
    while isinstance(f, op):
        parts.append(_format(f.right, inner))
        f = f.left
    parts.append(_format(f, inner))
    parts.reverse()
    text = sep.join(parts)
    return f"({text})" if level > inner else text


# ---------------------------------------------------------------------------
# Semantics

def _postorder(f: Formula) -> list[Formula]:
    """The nodes of `f` with operands first, left to right: the one walk
    over a formula tree outside the parser and the printer.  It keeps its
    own stack, so deep formulas do not recurse."""
    order: list[Formula] = []
    stack = [f]
    while stack:
        node = stack.pop()
        order.append(node)
        kind = type(node)
        if kind is And or kind is Or:
            stack += (node.left, node.right)
        elif kind is Not:
            stack.append(node.child)
        elif kind is not Prop and kind is not Top and kind is not Bottom:
            raise TypeError(f"not a formula: {node!r}")
    # Every node precedes the nodes of its right operand and those of its
    # left one, so the reversed order is the postorder.
    order.reverse()
    return order


def eval_formula(f: Formula, assignment: Mapping[str, int]) -> bool:
    """Evaluate `f` under a total truth assignment.

    Values may be bools or 0/1 integers.  A proposition missing from the
    assignment raises LcnError.  Operands are read left to right and `&`
    and `|` short-circuit, so a missing proposition is only reported when
    its value is needed.  The walk keeps its own stack, so deep formulas
    do not recurse.
    """
    # A missing proposition stands for its own value, and each operator
    # passes it on exactly when short-circuit evaluation would need it.
    values: list[bool | Prop] = []
    for node in _postorder(f):
        kind = type(node)
        if kind is Prop:
            values.append(bool(assignment[node.name]) if node.name in assignment else node)
        elif kind is And or kind is Or:
            right = values.pop()
            # A true left side of `&` or a false one of `|`: the right
            # side's value is the whole operation's value.
            if values[-1] is (kind is And):
                values[-1] = right
        elif kind is Not:
            if type(values[-1]) is bool:
                values[-1] = not values[-1]
        else:
            values.append(kind is Top)
    if isinstance(values[0], Prop):
        raise LcnError(f"assignment is missing proposition {values[0].name!r}")
    return values[0]


def support_in_order(f: Formula) -> list[str]:
    """Proposition names of `f` in left-to-right syntactic order, first
    occurrence only."""
    return list(dict.fromkeys([node.name for node in _postorder(f) if type(node) is Prop]))


def support(f: Formula) -> frozenset[str]:
    """The set of proposition names occurring syntactically in `f`."""
    return frozenset(support_in_order(f))


def _columns(props: tuple[str, ...]) -> tuple[dict[str, int], int]:
    """Truth-table columns of `props` over their 2^k assignments, plus the
    all-ones mask.

    The column of `props[j]` has bit i set iff bit j of i is set: runs of
    2^j zeros and ones, built by doubling one period.
    """
    size = 1 << len(props)
    columns: dict[str, int] = {}
    for j, p in enumerate(props):
        half = 1 << j
        column = ((1 << half) - 1) << half
        width = half << 1
        while width < size:
            column |= column << width
            width <<= 1
        columns[p] = column
    return columns, (1 << size) - 1


def _eval_mask(nodes: list[Formula], columns: Mapping[str, int], full: int) -> int:
    """Evaluate the formula whose `_postorder` is `nodes` over whole
    truth-table columns; propositions without a column are held false."""
    values: list[int] = []
    for node in nodes:
        kind = type(node)
        if kind is Prop:
            values.append(columns.get(node.name, 0))
        elif kind is And or kind is Or:
            right = values.pop()
            values[-1] = values[-1] & right if kind is And else values[-1] | right
        elif kind is Not:
            values[-1] ^= full
        else:
            values.append(full if kind is Top else 0)
    return values[0]


def truth_mask(f: Formula, props: tuple[str, ...]) -> int:
    """Bitmask of `f`'s truth table over `props`: bit i is set iff `f` holds
    when each `props[j]` takes bit j of i.  Propositions of `f` missing
    from `props` are held false."""
    return _eval_mask(_postorder(f), *_columns(props))


def semantically_equal(f: Formula, g: Formula) -> bool:
    """True iff `f` and `g` agree on every assignment of their joint
    support, that is, iff their canonical keys are equal.  Raises LcnError
    when either support exceeds the truth-table cap."""
    return canonical_key(f) == canonical_key(g)


CanonicalKey = tuple[tuple[str, ...], int]


def canonical_key(f: Formula) -> CanonicalKey:
    """Semantic fingerprint of `f`: `(deps, mask)`.

    `deps` is the sorted tuple of propositions `f` semantically depends on
    (syntactic support minus propositions whose value never matters) and
    `mask` is `truth_mask(f, deps[::-1])`, so it lists the assignments in
    lexicographic order of value tuples.  Two formulas are logically
    equivalent exactly when their keys are equal.  The key is stored on `f`
    after the first call.
    """
    if "_canonical_key" in f.__dict__:
        return f._canonical_key  # type: ignore[attr-defined]
    nodes = _postorder(f)
    props = tuple(sorted({node.name for node in nodes if type(node) is Prop}, reverse=True))
    k = len(props)
    if k > MAX_TRUTH_TABLE_PROPS:
        raise LcnError(f"support of {k} propositions exceeds "
                       f"the {MAX_TRUTH_TABLE_PROPS}-proposition truth-table cap")
    columns, full = _columns(props)
    mask = _eval_mask(nodes, columns, full)
    # Prop j is irrelevant when the table equals itself with prop j flipped:
    # comparing each assignment with prop j clear against its partner 2^j
    # positions up.
    deps = tuple(p for j, p in enumerate(props)
                 if ((mask >> (1 << j)) ^ mask) & (full ^ columns[p]))
    if len(deps) < k:
        mask = _eval_mask(nodes, *_columns(deps))
    key = (deps[::-1], mask)
    object.__setattr__(f, "_canonical_key", key)
    return key


PROP_IDENTITY_MASK = 0b10  # key mask of a formula equivalent to a bare proposition


def key_as_single_prop(key: CanonicalKey) -> str | None:
    """If `key` is the fingerprint of a bare proposition, return its name."""
    deps, mask = key
    if len(deps) == 1 and mask == PROP_IDENTITY_MASK:
        return deps[0]
    return None


TOP_KEY: CanonicalKey = ((), 1)
BOTTOM_KEY: CanonicalKey = ((), 0)
