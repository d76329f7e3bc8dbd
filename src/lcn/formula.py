"""Propositional formulas: syntax tree, parser, evaluation, canonicalization.

Formulas are built from named propositions with negation (`!`), conjunction
(`&`), disjunction (`|`), parentheses, and the literals `true` / `false`.
Two formulas are treated as interchangeable when they are logically
equivalent; `canonical_key` computes a semantic fingerprint (the set of
propositions the formula actually depends on plus its truth table) so that
equivalent formulas can share identity wherever that matters.

Truth tables are Python ints used as bitsets, all built by one kernel,
`truth_mask`.  There is a single bit order: bit i is the i-th assignment
in lexicographic order of value tuples, so the first proposition is the
most significant position (MSB-first); canonical keys use it as is.  A
table that wants the first proposition as the least significant bit
(LSB-first, as `lcn.oracle` lays out joint tables) calls the kernel with
the propositions reversed.

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
#: probability tables of `lcn.oracle` have their own, smaller limit).
MAX_TRUTH_TABLE_PROPS = 20

#: Deepest parenthesis nesting the parser accepts.  Runs of `!` and chains
#: of one connective are read and printed in loops, so only parentheses
#: nest the parser's and the printer's recursion.
MAX_NESTING = 100


class Formula:
    """Base class of all formula nodes.  Instances are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_formula(self)!r})"


@dataclass(frozen=True, repr=False)
class Prop(Formula):
    """A proposition leaf."""

    name: str


@dataclass(frozen=True, repr=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Top(Formula):
    """The tautology literal (`true`)."""


@dataclass(frozen=True, repr=False)
class Bottom(Formula):
    """The contradiction literal (`false`)."""


TOP = Top()
BOTTOM = Bottom()


# ---------------------------------------------------------------------------
# Tokenizer (shared with the model-file parser)

@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "num" | "op" | "end"
    text: str
    column: int  # 1-based position in the source text


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|=|\(|\)|\[|\]|!|&|\||,|:)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """Split `text` into tokens, raising ParseError on foreign characters."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", column=pos + 1)
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    tokens.append(Token("end", "", len(text) + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with small convenience accessors."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._i = 0
        self.depth = 0  # open parentheses around the cursor

    @property
    def current(self) -> Token:
        return self._tokens[self._i]

    def advance(self) -> Token:
        tok = self._tokens[self._i]
        if tok.kind != "end":
            self._i += 1
        return tok

    def expect_op(self, text: str) -> Token:
        tok = self.current
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}" if tok.kind != "end"
                             else f"expected {text!r}, found end of input",
                             column=tok.column)
        return self.advance()

    def at_op(self, text: str) -> bool:
        return self.current.kind == "op" and self.current.text == text

    def at_keyword(self, word: str) -> bool:
        return self.current.kind == "ident" and self.current.text == word


def parse_formula(text: str, scope: dict[str, None] | None = None, *,
                  declare: bool = True) -> Formula:
    """Parse `text` into a Formula.

    `scope` is an optional dict of known proposition names, used as an
    ordered set.  Identifiers missing from the scope are added to it when
    `declare` is true and rejected otherwise.  With no scope every
    identifier is accepted.
    """
    if not text.strip():
        raise ParseError("empty formula")
    if scope is None:
        scope, declare = {}, True
    stream = TokenStream(tokenize(text))
    formula = _parse_or(stream, scope, declare)
    tok = stream.current
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", column=tok.column)
    return formula


def _parse_or(stream: TokenStream, scope: dict[str, None], declare: bool) -> Formula:
    node = _parse_and(stream, scope, declare)
    while stream.at_op("|"):
        stream.advance()
        node = Or(node, _parse_and(stream, scope, declare))
    return node


def _parse_and(stream: TokenStream, scope: dict[str, None], declare: bool) -> Formula:
    node = _parse_unary(stream, scope, declare)
    while stream.at_op("&"):
        stream.advance()
        node = And(node, _parse_unary(stream, scope, declare))
    return node


def _parse_unary(stream: TokenStream, scope: dict[str, None], declare: bool) -> Formula:
    tok = stream.current
    negations = 0
    while tok.kind == "op" and tok.text == "!":
        stream.advance()
        negations += 1
        tok = stream.current
    if tok.kind == "op" and tok.text == "(":
        if stream.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                             column=tok.column)
        stream.advance()
        stream.depth += 1
        node = _parse_or(stream, scope, declare)
        stream.expect_op(")")
        stream.depth -= 1
    elif tok.kind == "ident":
        if tok.text == "true":
            node = TOP
        elif tok.text == "false":
            node = BOTTOM
        elif tok.text in RESERVED_WORDS:
            raise ParseError(f"{tok.text!r} is a reserved word and cannot name a proposition",
                             column=tok.column)
        elif declare:
            scope.setdefault(tok.text)
            node = Prop(tok.text)
        elif tok.text not in scope:
            raise ParseError(f"undeclared proposition {tok.text!r}", column=tok.column)
        else:
            node = Prop(tok.text)
        stream.advance()
    elif tok.kind == "end":
        raise ParseError("unexpected end of formula", column=tok.column)
    else:
        raise ParseError(f"unexpected token {tok.text!r}", column=tok.column)
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

def eval_formula(f: Formula, assignment: Mapping[str, int]) -> bool:
    """Evaluate `f` under a total truth assignment.

    Values may be bools or 0/1 integers.  A proposition missing from the
    assignment raises LcnError.  Operands are read left to right and `&`
    and `|` short-circuit, so a missing proposition is only reported when
    its value is needed.  The walk keeps its own stack, so deep formulas
    do not recurse.
    """
    pending: list[Formula] = []
    node = f
    while True:
        while isinstance(node, (Not, And, Or)):
            pending.append(node)
            node = node.child if isinstance(node, Not) else node.left
        if isinstance(node, Prop):
            try:
                value = bool(assignment[node.name])
            except KeyError:
                raise LcnError(f"assignment is missing proposition {node.name!r}") from None
        elif isinstance(node, Top):
            value = True
        elif isinstance(node, Bottom):
            value = False
        else:
            raise TypeError(f"not a formula: {node!r}")
        while pending:
            op = pending.pop()
            if isinstance(op, Not):
                value = not value
            elif value == isinstance(op, And):
                # A true left side of `&` or a false one of `|`: the right
                # side's value is the whole operation's value.
                node = op.right
                break
        else:
            return value


def support_in_order(f: Formula) -> list[str]:
    """Proposition names of `f` in left-to-right syntactic order, first
    occurrence only."""
    seen: dict[str, None] = {}
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Prop):
            seen.setdefault(node.name)
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack += (node.right, node.left)
    return list(seen)


def support(f: Formula) -> frozenset[str]:
    """The set of proposition names occurring syntactically in `f`."""
    return frozenset(support_in_order(f))


def _columns(props: tuple[str, ...]) -> tuple[dict[str, int], int]:
    """Truth-table columns of `props` over 2^k assignments, MSB-first, plus
    the all-ones mask.

    The column of `props[j]` has bit i set iff bit k-1-j of i is set: runs
    of 2^(k-1-j) zeros and ones, built by doubling one period.
    """
    k = len(props)
    size = 1 << k
    columns: dict[str, int] = {}
    for j, p in enumerate(props):
        half = 1 << (k - 1 - j)
        column = ((1 << half) - 1) << half
        width = half << 1
        while width < size:
            column |= column << width
            width <<= 1
        columns[p] = column
    return columns, (1 << size) - 1


def _eval_mask(f: Formula, columns: Mapping[str, int], full: int) -> int:
    """Evaluate `f` over whole truth-table columns in one iterative
    post-order pass; propositions without a column are held false."""
    values: list[int] = []
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Prop):
            values.append(columns.get(node.name, 0))
        elif isinstance(node, Not):
            if ready:
                values.append(values.pop() ^ full)
            else:
                stack += ((node, True), (node.child, False))
        elif isinstance(node, (And, Or)):
            if ready:
                right = values.pop()
                left = values.pop()
                values.append(left & right if isinstance(node, And) else left | right)
            else:
                stack += ((node, True), (node.right, False), (node.left, False))
        elif isinstance(node, Top):
            values.append(full)
        elif isinstance(node, Bottom):
            values.append(0)
        else:
            raise TypeError(f"not a formula: {node!r}")
    return values[0]


def truth_mask(f: Formula, props: tuple[str, ...]) -> int:
    """Bitmask of `f`'s truth table over `props`: bit i is set iff `f` holds
    under the i-th assignment in lexicographic order, `props[0]` being the
    most significant position.  Propositions of `f` missing from `props`
    are held false."""
    return _eval_mask(f, *_columns(props))


def _check_table_size(what: str, k: int) -> None:
    if k > MAX_TRUTH_TABLE_PROPS:
        raise LcnError(f"{what} of {k} propositions exceeds "
                       f"the {MAX_TRUTH_TABLE_PROPS}-proposition truth-table cap")


def semantically_equal(f: Formula, g: Formula) -> bool:
    """True iff `f` and `g` agree on every assignment of their joint support.

    Raises LcnError when the joint support exceeds the truth-table cap.
    """
    props = tuple(sorted(support(f) | support(g)))
    _check_table_size("joint support", len(props))
    columns, full = _columns(props)
    return _eval_mask(f, columns, full) == _eval_mask(g, columns, full)


CanonicalKey = tuple[tuple[str, ...], int]


def canonical_key(f: Formula) -> CanonicalKey:
    """Semantic fingerprint of `f`: `(deps, mask)`.

    `deps` is the sorted tuple of propositions `f` semantically depends on
    (syntactic support minus propositions whose value never matters) and
    `mask` is `truth_mask(f, deps)`.  Two formulas are logically equivalent
    exactly when their keys are equal.  The key is stored on `f` after the
    first call.
    """
    try:
        return f._canonical_key  # type: ignore[attr-defined]
    except AttributeError:
        pass
    props = tuple(sorted(support(f)))
    _check_table_size("support", len(props))
    k = len(props)
    columns, full = _columns(props)
    mask = _eval_mask(f, columns, full)
    # Prop j is irrelevant when the table equals itself with prop j flipped:
    # comparing each assignment with prop j clear against its partner
    # 2^(k-1-j) positions up.
    deps = tuple(p for j, p in enumerate(props)
                 if ((mask >> (1 << (k - 1 - j))) ^ mask) & (full ^ columns[p]))
    if len(deps) < k:
        mask = truth_mask(f, deps)
    key = (deps, mask)
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
