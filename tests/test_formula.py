from copy import deepcopy
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcn.formula
from helpers import (
    canonical_key_ref,
    eval_formula_ref,
    format_formula_ref,
    st_formulas,
    structure_ref,
    truth_mask_ref,
)
from lcn.errors import LcnError, ParseError
from lcn.formula import (
    And,
    BOTTOM,
    BOTTOM_KEY,
    Not,
    Or,
    Prop,
    TOP,
    TOP_KEY,
    canonical_key,
    eval_formula,
    format_formula,
    key_as_single_prop,
    parse_formula,
    semantically_equal,
    support,
    truth_mask,
)

A, B, C = Prop("A"), Prop("B"), Prop("C")


# ---------------------------------------------------------------------------
# Parsing

def test_parse_single_prop():
    assert parse_formula("A") == A


def test_parse_precedence_not_binds_tightest():
    assert parse_formula("!A & B") == And(Not(A), B)


def test_parse_precedence_and_over_or():
    f = parse_formula("!A & B | C")
    assert canonical_key(f) == canonical_key(Or(And(Not(A), B), C))
    assert format_formula(f) == "!A & B | C"


def test_parse_parentheses_override():
    f = parse_formula("!(A | B) & C")
    assert canonical_key(f) == canonical_key(And(Not(Or(A, B)), C))


def test_parse_truth_literals():
    assert parse_formula("true") == TOP
    assert parse_formula("false") == BOTTOM
    assert parse_formula("true & A") == And(TOP, A)


def test_parse_whitespace_insensitive():
    assert canonical_key(parse_formula("  A&B |!C ")) == \
        canonical_key(parse_formula("A & B | ! C"))


def test_parse_reserved_word_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse_formula("U & A")
    with pytest.raises(ParseError, match="reserved"):
        parse_formula("given")


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_formula("A & @")
    assert exc.value.column == 5

    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError):
        parse_formula("A &")
    with pytest.raises(ParseError):
        parse_formula("A B")  # trailing junk
    with pytest.raises(ParseError):
        parse_formula("(A")


def test_parse_scope_declares_in_order():
    scope: dict[str, None] = {}
    parse_formula("B & A | C", scope)
    assert list(scope) == ["B", "A", "C"]


# ---------------------------------------------------------------------------
# Printing

def test_format_flattens_chains():
    assert format_formula(And(And(A, B), C)) == "A & B & C"
    assert format_formula(Or(A, Or(B, C))) == "A | B | C"


def test_format_minimal_parens():
    assert format_formula(Or(And(A, B), C)) == "A & B | C"
    assert format_formula(And(Or(A, B), C)) == "(A | B) & C"
    assert format_formula(Not(And(A, B))) == "!(A & B)"
    assert format_formula(Not(Not(A))) == "!!A"
    assert format_formula(TOP) == "true"
    assert format_formula(BOTTOM) == "false"


def test_format_parse_fixpoint():
    for text in ("A & B | C", "(A | B) & !C", "!(A & !B) | true"):
        once = format_formula(parse_formula(text))
        assert format_formula(parse_formula(once)) == once


# ---------------------------------------------------------------------------
# Evaluation and support

def test_eval_formula():
    a = {"A": 1, "B": 0}
    assert eval_formula(And(A, Not(B)), a) is True
    assert eval_formula(Or(B, B), a) is False
    assert eval_formula(TOP, {}) is True
    assert eval_formula(BOTTOM, {}) is False


def test_eval_formula_short_circuits_left_to_right():
    # C is missing: it is only an error when its value is needed.
    assert eval_formula(And(B, C), {"A": 1, "B": 0}) is False
    assert eval_formula(Or(A, C), {"A": 1, "B": 0}) is True
    assert eval_formula(Not(Or(Not(A), C)), {"A": 0}) is False
    with pytest.raises(LcnError, match="missing proposition 'C'"):
        eval_formula(And(A, C), {"A": 1})
    with pytest.raises(LcnError, match="missing proposition 'C'"):
        eval_formula(Or(B, Not(C)), {"B": 0})


def test_eval_formula_on_deep_formulas():
    # far past the default recursion limit of 1000
    assert eval_formula(parse_formula("!" * 3000 + "A"), {"A": 1}) is True
    assert eval_formula(parse_formula("!" * 3001 + "A"), {"A": 1}) is False
    assert eval_formula(parse_formula(" & ".join(["A"] * 3000)), {"A": 1}) is True
    assert eval_formula(parse_formula(" | ".join(["B"] * 3000) + " | A"), {"A": 1, "B": 0})
    with pytest.raises(LcnError, match="missing proposition 'A'"):
        eval_formula(parse_formula("!" * 3000 + "A"), {})


@settings(max_examples=200, deadline=None)
@given(st_formulas(["A", "B", "C"], max_leaves=10),
       st.dictionaries(st.sampled_from(["A", "B", "C"]), st.booleans() | st.integers(0, 1)))
def test_eval_formula_matches_short_circuit_reference(f, assignment):
    # The assignment may leave propositions out: the value or the error
    # message must be the one of left-to-right short-circuit evaluation.
    def outcome(evaluate):
        try:
            return evaluate(f, assignment)
        except LcnError as exc:
            return str(exc)

    got, want = outcome(eval_formula), outcome(eval_formula_ref)
    assert got == want and type(got) is type(want)


def test_support_is_syntactic():
    assert support(Or(And(A, B), And(A, Not(B)))) == {"A", "B"}
    assert support(TOP) == frozenset()


# ---------------------------------------------------------------------------
# Semantic equality and canonical keys

def test_semantically_equal():
    assert semantically_equal(Or(A, Not(A)), TOP)
    assert semantically_equal(And(A, Not(A)), BOTTOM)
    assert semantically_equal(Not(And(A, B)), Or(Not(A), Not(B)))
    assert not semantically_equal(A, B)


def test_semantically_equal_past_the_cap_on_the_joint_support():
    # 30 propositions together, 15 in each support: each key is in reach.
    f = reduce(Or, (Prop(f"P{i}") for i in range(15)))
    g = reduce(Or, (Prop(f"Q{i}") for i in range(15)))
    assert not semantically_equal(f, g)
    assert semantically_equal(f, reduce(Or, (Prop(f"P{i}") for i in reversed(range(15)))))


def test_canonical_key_trivial():
    assert canonical_key(TOP) == TOP_KEY == ((), 1)
    assert canonical_key(BOTTOM) == BOTTOM_KEY == ((), 0)
    assert canonical_key(Or(A, Not(A))) == TOP_KEY


def test_canonical_key_single_prop():
    key = canonical_key(A)
    assert key == (("A",), 0b10)
    assert key_as_single_prop(key) == "A"
    assert canonical_key(And(A, A)) == key
    assert key_as_single_prop(canonical_key(Not(A))) is None
    assert canonical_key(Not(A)) == (("A",), 0b01)


def test_canonical_key_drops_irrelevant_props():
    f = Or(And(A, B), And(A, Not(B)))  # equivalent to A
    assert canonical_key(f) == (("A",), 0b10)
    assert key_as_single_prop(canonical_key(f)) == "A"


def test_canonical_key_golden_masks():
    # Assignment order is lexicographic with the first (sorted) proposition
    # most significant: rows 00, 01, 10, 11.
    assert canonical_key(And(A, B)) == (("A", "B"), 0b1000)
    assert canonical_key(Or(A, B)) == (("A", "B"), 0b1110)
    assert canonical_key(And(B, A)) == canonical_key(And(A, B))


def test_truth_table_cap():
    wide = Prop("P0")
    for i in range(1, 21):
        wide = Or(wide, Prop(f"P{i}"))
    with pytest.raises(LcnError, match="cap"):
        canonical_key(wide)
    with pytest.raises(LcnError, match="support of 21 propositions exceeds"):
        semantically_equal(A, wide)


# ---------------------------------------------------------------------------
# Property tests

formulas = st_formulas(["A", "B", "C", "Q1", "x_y"], max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(formulas)
def test_print_parse_roundtrip_preserves_meaning(f):
    text = format_formula(f)
    g = parse_formula(text)
    assert canonical_key(g) == canonical_key(f)
    assert format_formula(g) == text


@settings(max_examples=150, deadline=None)
@given(formulas)
def test_format_matches_recursive_reference(f):
    assert format_formula(f) == format_formula_ref(f)


def test_deep_negations_and_chains_parse_and_print_in_loops():
    # far past the default recursion limit of 1000
    for text in ("!" * 3000 + "A", " & ".join(["A"] * 3000), " | ".join(["B"] * 3000)):
        assert format_formula(parse_formula(text)) == text


def test_hash_and_eq_on_deep_formulas():
    # far past the default recursion limit of 1000
    text = "!" * 3000 + "A"
    f, g = parse_formula(text), parse_formula(text)
    assert f is not g
    assert f == g and hash(f) == hash(g)
    assert g in {f}
    assert f != parse_formula("!" * 3001 + "A")
    chain = " & ".join(["A"] * 3000)
    assert parse_formula(chain) == parse_formula(chain)


small_formulas = st_formulas(["A", "B"], max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(small_formulas, small_formulas)
def test_eq_and_hash_match_structural_reference(f, g):
    copy = deepcopy(f)  # the same tree, built from new nodes
    assert f == copy and hash(f) == hash(copy)
    assert (f == g) == (structure_ref(f) == structure_ref(g))
    if f == g:
        assert hash(f) == hash(g)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([A, B, TOP, Not(A)]), min_size=1, max_size=6),
       st.sampled_from([And, Or]))
def test_eq_tells_left_from_right_nesting(leaves, op):
    left = reduce(op, leaves)
    right = reduce(lambda acc, leaf: op(leaf, acc), reversed(leaves))
    assert (left == right) == (structure_ref(left) == structure_ref(right))
    assert (left == right) == (len(leaves) <= 2)
    assert left != Not(left) and left != op(left, left)


def test_parenthesis_nesting_limit():
    depth = lcn.formula.MAX_NESTING
    text = "(" * depth + "A" + ")" * depth
    assert parse_formula(text) == A
    with pytest.raises(ParseError, match=f"nested deeper than {depth}") as exc:
        parse_formula("!(" * (depth + 1) + "A" + ")" * (depth + 1))
    assert exc.value.column == 2 * depth + 2


@settings(max_examples=150, deadline=None)
@given(formulas, formulas)
def test_key_equality_matches_semantic_equality(f, g):
    assert (canonical_key(f) == canonical_key(g)) == semantically_equal(f, g)


@settings(max_examples=100, deadline=None)
@given(formulas)
def test_key_depends_only_on_relevant_props(f):
    deps, _ = canonical_key(f)
    assert set(deps) <= support(f)
    padded = And(f, Or(Prop("ZPAD"), Not(Prop("ZPAD"))))
    assert canonical_key(padded) == canonical_key(f)


# ---------------------------------------------------------------------------
# Bit-parallel truth-table kernel against the per-assignment references

def test_truth_mask_golden_bit_order():
    # Bit i gives props[j] bit j of i: over (A, B), bits 0-3 read A = 0,1,0,1
    # and B = 0,0,1,1.
    assert truth_mask(A, ("A", "B")) == 0b1010
    assert truth_mask(B, ("A", "B")) == 0b1100
    assert truth_mask(A, ("B", "A")) == 0b1100
    assert truth_mask(C, ("A", "B", "C")) == 0b11110000
    assert truth_mask(Not(A), ("A",)) == 0b01
    assert truth_mask(TOP, ()) == 1
    assert truth_mask(BOTTOM, ("A", "B")) == 0
    # propositions outside `props` are held false
    assert truth_mask(Or(A, C), ("A",)) == 0b10


WIDE_NAMES = [f"P{i}" for i in range(10)]
wide_names = st.sampled_from(WIDE_NAMES)
wide_formulas = st_formulas(WIDE_NAMES, max_leaves=24)


@st.composite
def kernel_formulas(draw):
    """Formulas over up to 10 propositions, with repeats, literals and,
    half of the time, an extra proposition that does not matter."""
    f = draw(wide_formulas)
    if draw(st.booleans()):
        pad = Prop(draw(wide_names))
        f = Or(f, And(pad, Not(pad))) if draw(st.booleans()) else And(Or(pad, Not(pad)), f)
    return f


@settings(max_examples=150, deadline=None)
@given(kernel_formulas())
def test_canonical_key_matches_reference(f):
    assert canonical_key(f) == canonical_key_ref(f)


@settings(max_examples=150, deadline=None)
@given(kernel_formulas(), st.lists(wide_names, max_size=10, unique=True))
def test_truth_mask_matches_reference_in_both_orders(f, extra):
    props = tuple(sorted(support(f) | set(extra)))
    assert truth_mask(f, props) == truth_mask_ref(f, props)
    assert truth_mask(f, props[::-1]) == truth_mask_ref(f, props[::-1])


def test_canonical_key_is_stored_on_the_formula(monkeypatch):
    f = Or(And(A, B), And(Not(C), B))
    key = canonical_key(f)

    def fail(*_args):
        raise AssertionError("canonical_key re-evaluated a formula it has seen")

    monkeypatch.setattr(lcn.formula, "_eval_mask", fail)
    assert canonical_key(f) is key
    assert f == Or(And(A, B), And(Not(C), B))  # the stored key is not a field
