import pytest
from hypothesis import given, settings

import helpers
from lcn.errors import ModelError, ParseError
from lcn.formula import And, BOTTOM, Not, Or, Prop, TOP, canonical_key
from lcn.model import (
    Constraint,
    Lcn,
    format_constraint,
    format_lcn,
    make_lcn,
    parse_lcn,
    validate,
)

A, B = Prop("A"), Prop("B")


# ---------------------------------------------------------------------------
# Constraint / Lcn construction

def test_constraint_defaults():
    c = Constraint(0.2, 0.7, A)
    assert c.psi == TOP
    assert c.group == "U"
    assert not c.is_conditional


def test_constraint_validation():
    with pytest.raises(ModelError, match="group"):
        Constraint(0.1, 0.2, A, group="X")
    with pytest.raises(ModelError, match="bounds"):
        Constraint(0.7, 0.2, A)
    with pytest.raises(ModelError, match="bounds"):
        Constraint(-0.1, 0.2, A)
    with pytest.raises(ModelError, match="bounds"):
        Constraint(0.1, 1.2, A)
    with pytest.raises(ModelError, match="tautology"):
        Constraint(0.1, 0.2, TOP)
    with pytest.raises(ModelError, match="tautology"):
        Constraint(0.1, 0.2, Or(A, Not(A)))  # semantically trivial
    with pytest.raises(ModelError, match="tautology"):
        Constraint(0.1, 0.2, BOTTOM)


def test_conditional_detection_is_semantic():
    assert not Constraint(0.1, 0.2, A, Or(B, Not(B))).is_conditional
    assert Constraint(0.1, 0.2, A, B).is_conditional


def test_make_lcn_declares_props_in_first_use_order():
    lcn = make_lcn([
        Constraint(0.1, 0.2, Prop("Y"), Prop("X")),
        Constraint(0.1, 0.2, And(Prop("Z"), Prop("X"))),
    ])
    assert lcn.props == ("Y", "X", "Z")


def test_lcn_validation():
    with pytest.raises(ModelError, match="at least one"):
        Lcn((), ())
    with pytest.raises(ModelError, match="duplicate"):
        Lcn(("A", "A"), ())
    with pytest.raises(ModelError, match="undeclared"):
        make_lcn([Constraint(0.1, 0.2, A)], props=["B"])


# ---------------------------------------------------------------------------
# Parsing

def test_parse_basic_model():
    lcn = parse_lcn(
        """
        # a comment
        U: 0.3 <= P(A | !B) <= 0.7

        D: P(C given A & B) in [0.1, 0.2]
        U: P(A) = 0.5
        """
    )
    assert lcn.props == ("A", "B", "C")
    c1, c2, c3 = lcn.constraints
    assert (c1.group, c1.lo, c1.hi) == ("U", 0.3, 0.7)
    assert canonical_key(c1.phi) == canonical_key(Or(A, Not(B)))
    assert not c1.is_conditional
    assert (c2.group, c2.lo, c2.hi) == ("D", 0.1, 0.2)
    assert canonical_key(c2.psi) == canonical_key(And(A, B))
    assert (c3.lo, c3.hi) == (0.5, 0.5)
    assert (c1.line, c2.line, c3.line) == (3, 5, 6)


def test_parse_one_sided_bounds():
    lcn = parse_lcn("U: P(A) <= 0.7\nU: P(A) >= 0.3\n")
    assert (lcn.constraints[0].lo, lcn.constraints[0].hi) == (0.0, 0.7)
    assert (lcn.constraints[1].lo, lcn.constraints[1].hi) == (0.3, 1.0)


def test_parse_number_forms():
    lcn = parse_lcn("U: 5e-1 <= P(A) <= 1\n")
    assert (lcn.constraints[0].lo, lcn.constraints[0].hi) == (0.5, 1.0)


def test_parse_errors_carry_line_numbers():
    cases = [
        ("U: 0.1 <= P(A) <= \n", "line 1"),
        ("U: P(A) = 0.5\nwhat is this\n", "line 2"),
        ("U: P(A) = 0.5\nQ: P(B) = 0.5\n", "line 2"),
        ("U: 0.9 <= P(A) <= 0.1\n", "line 1"),    # lo > hi
        ("U: P(A) = 1.5\n", "line 1"),            # out of range
        ("U: P(A) = 0.5 extra\n", "line 1"),      # trailing junk
        ("U: P(D) = 0.5\n", "line 1"),            # reserved proposition
        ("U: P(A given) = 0.5\n", "line 1"),
    ]
    for text, where in cases:
        with pytest.raises(ParseError) as exc:
            parse_lcn(text)
        assert where in str(exc.value)


def test_parse_empty_file_rejected():
    with pytest.raises(ModelError, match="declares no propositions"):
        parse_lcn("# only a comment\n")


def test_parse_fixture_order(quad_mixed_model):
    assert quad_mixed_model.props == ("b", "a", "d", "c")
    assert all(c.group == "D" for c in quad_mixed_model.constraints)


def test_parse_deep_conjunction_under_the_default_recursion_limit():
    lcn = parse_lcn("U: P(" + " & ".join(["A"] * 3000) + ") = 0.5\n")
    assert lcn.props == ("A",)
    assert canonical_key(lcn.constraints[0].phi) == canonical_key(A)


def test_models_with_deep_formulas_compare_and_hash():
    # 3,000 negations: far past the default recursion limit of 1000
    text = "U: P(" + "!" * 3000 + "A) = 0.5\n"
    lcn, again = parse_lcn(text), parse_lcn(text)
    assert lcn == again and hash(lcn) == hash(again)
    assert lcn != parse_lcn(text.replace("!A", "!!A"))


# ---------------------------------------------------------------------------
# Formatting

def test_format_constraint_two_sided():
    c = Constraint(0.1, 0.2, And(A, B), Prop("E"), "D")
    assert format_constraint(c) == "D: 0.1 <= P(A & B given E) <= 0.2"
    assert format_constraint(Constraint(0.5, 0.5, A)) == "U: 0.5 <= P(A) <= 0.5"


def test_format_parse_roundtrip(smokers, undirected_block_model, bidirected_block_model):
    for lcn in (smokers, undirected_block_model, bidirected_block_model):
        again = parse_lcn(format_lcn(lcn))
        assert again.props == lcn.props
        assert len(again.constraints) == len(lcn.constraints)
        for c, d in zip(lcn.constraints, again.constraints):
            assert (c.group, c.lo, c.hi) == (d.group, d.lo, d.hi)
            assert canonical_key(c.phi) == canonical_key(d.phi)
            assert canonical_key(c.psi) == canonical_key(d.psi)


@settings(max_examples=60, deadline=None)
@given(helpers.st_random_lcn())
def test_format_parse_roundtrip_random(lcn):
    again = parse_lcn(format_lcn(lcn))
    assert len(again.constraints) == len(lcn.constraints)
    for c, d in zip(lcn.constraints, again.constraints):
        assert (c.group, c.lo, c.hi) == (d.group, d.lo, d.hi)
        assert canonical_key(c.phi) == canonical_key(d.phi)
        assert canonical_key(c.psi) == canonical_key(d.psi)


# ---------------------------------------------------------------------------
# Validation diagnostics

def test_validate_clean_model(smokers):
    assert validate(smokers) == []


def test_validate_hard_constraints_are_informational():
    lcn = parse_lcn("U: P(A | B) = 1\nU: P(A) = 0\n")
    diags = validate(lcn)
    assert [d.severity for d in diags] == ["info", "info"]
    assert all("hard constraint" in d.message for d in diags)


def test_validate_contradictory_conditioning_is_error():
    lcn = make_lcn([Constraint(0.1, 0.2, A, And(B, Not(B)))])
    diags = validate(lcn)
    assert [d.severity for d in diags] == ["error"]
    assert "contradiction" in diags[0].message


def test_validate_duplicates_and_conflicts_warn():
    lcn = parse_lcn(
        "U: 0.1 <= P(A & B) <= 0.2\n"
        "U: 0.1 <= P(B & A) <= 0.2\n"
        "D: 0.5 <= P(A given B) <= 0.6\n"
        "D: 0.8 <= P(A given B) <= 0.9\n"
    )
    diags = validate(lcn)
    severities = sorted(d.severity for d in diags)
    assert severities == ["warning", "warning"]
    assert any("duplicate" in d.message for d in diags)
    assert any("conflicting" in d.message for d in diags)
