"""Golden messages of every ParseError the formula and model parsers raise.

Each case pins the whole `str(ParseError)`: line, column and message.
"""

import pytest

from lcn.errors import ModelError, ParseError
from lcn.formula import MAX_NESTING, parse_formula
from lcn.model import parse_lcn

TOO_DEEP = "(" * (MAX_NESTING + 1) + "A" + ")" * (MAX_NESTING + 1)
DEEPEST = "(" * MAX_NESTING + "A" + ")" * MAX_NESTING

FORMULA_ERRORS = [
    ("", "empty formula"),
    ("   ", "empty formula"),
    ("A $ B", "column 3: unexpected character '$'"),
    ("A & @", "column 5: unexpected character '@'"),
    ("é", "column 1: unexpected character 'é'"),
    ("A\x00", "column 2: unexpected character '\\x00'"),
    ("A & : $", "column 7: unexpected character '$'"),  # the scan runs first
    ("(A & B", "column 7: expected ')', found end of input"),
    ("(A & B]", "column 7: expected ')', found ']'"),
    ("A B", "column 3: unexpected trailing input 'B'"),
    ("A\nB", "column 3: unexpected trailing input 'B'"),
    ("A)", "column 2: unexpected trailing input ')'"),
    ("P(A)", "column 2: unexpected trailing input '('"),
    (DEEPEST + " B", "column 203: unexpected trailing input 'B'"),
    (TOO_DEEP, "column 101: parentheses nested deeper than 100"),
    ("given", "column 1: 'given' is a reserved word and cannot name a proposition"),
    ("A & U", "column 5: 'U' is a reserved word and cannot name a proposition"),
    ("!!D", "column 3: 'D' is a reserved word and cannot name a proposition"),
    ("A &", "column 4: unexpected end of formula"),
    ("!", "column 2: unexpected end of formula"),
    ("A | true &", "column 11: unexpected end of formula"),
    ("A & )", "column 5: unexpected token ')'"),
    ("A | 3", "column 5: unexpected token '3'"),
]

BOUND = "expected a bound ('=', '<=', '>=', or 'in [lo, hi]')"

MODEL_ERRORS = [
    ("V: P(A) = 1", "line 1, column 1: each constraint line must start with 'U:' or 'D:'"),
    ("given: P(A) = 1", "line 1, column 1: each constraint line must start with 'U:' or 'D:'"),
    ("U P(A) = 1", "line 1, column 3: expected ':', found 'P'"),
    ("U", "line 1, column 2: expected ':', found end of input"),
    ("U:", "line 1, column 3: expected 'P(', found end of input"),
    ("U: Q(A) = 1", "line 1, column 4: expected 'P(', found 'Q'"),
    ("U: 0.5", "line 1, column 7: expected '<=', found end of input"),
    ("U: 0.1 P(A)", "line 1, column 8: expected '<=', found 'P'"),
    ("U: 0.1 <=", "line 1, column 10: expected 'P(', found end of input"),
    ("U: 0.1 <= P(A) >= 0.2", "line 1, column 16: expected '<=', found '>='"),
    ("U: 0.1 <= P(A) <=", "line 1, column 18: expected a number, found end of input"),
    ("U: P A", "line 1, column 6: expected '(', found 'A'"),
    ("U: P", "line 1, column 5: expected '(', found end of input"),
    ("U: P(A", "line 1, column 7: expected ')', found end of input"),
    ("U: P(A]", "line 1, column 7: expected ')', found ']'"),
    ("U: P(A given", "line 1, column 13: unexpected end of formula"),
    ("U: P(A given B", "line 1, column 15: expected ')', found end of input"),
    ("U: P()", "line 1, column 6: unexpected token ')'"),
    ("U: P(A)", f"line 1, column 8: {BOUND}"),
    ("U: P(A) ! 1", f"line 1, column 9: {BOUND}, found '!'"),
    ("U: P(A) < 1", "line 1, column 9: unexpected character '<'"),
    ("U: P(A) = ", "line 1, column 10: expected a number, found end of input"),
    ("U: P(A) = x", "line 1, column 11: expected a number, found 'x'"),
    ("U: P(A) in", "line 1, column 11: expected '[', found end of input"),
    ("U: P(A) in 0.1, 0.2]", "line 1, column 12: expected '[', found '0.1'"),
    ("U: P(A) in [, 0.2]", "line 1, column 13: expected a number, found ','"),
    ("U: P(A) in [0.1 0.2]", "line 1, column 17: expected ',', found '0.2'"),
    ("U: P(A) in [0.1, 0.2", "line 1, column 21: expected ']', found end of input"),
    ("U: P(A) = 0.5 extra", "line 1, column 15: unexpected trailing input 'extra'"),
    ("U: P(A) = 0.5 )", "line 1, column 15: unexpected trailing input ')'"),
    ("U: P(A) = 1.5", "line 1: bounds must satisfy 0 <= lo <= hi <= 1, got [1.5, 1.5]"),
    ("U: P(A) in [0.7, 0.2]", "line 1: bounds must satisfy 0 <= lo <= hi <= 1, got [0.7, 0.2]"),
    ("U: P(A) = 1e999", "line 1: bounds must satisfy 0 <= lo <= hi <= 1, got [inf, inf]"),
    ("U: P(true) = 0.5",
     "line 1: the conditioned formula must not be a tautology or a contradiction"),
    ("U: P(A | !A) = 0.5",
     "line 1: the conditioned formula must not be a tautology or a contradiction"),
    ("U: P(given) = 0.5",
     "line 1, column 6: 'given' is a reserved word and cannot name a proposition"),
    ("D: P(A given D) = 0.5",
     "line 1, column 14: 'D' is a reserved word and cannot name a proposition"),
    (f"U: P({TOO_DEEP}) = 0.5", "line 1, column 106: parentheses nested deeper than 100"),
    ("U: P(A & ) = 0.5 $", "line 1, column 18: unexpected character '$'"),
    # Columns count from the start of the file line, leading blanks included.
    ("# comment\n\n   U: P(A) = 0.5 $  # x", "line 3, column 18: unexpected character '$'"),
    ("U: P(A) = 0.5\nD: P(B @", "line 2, column 8: unexpected character '@'"),
    ("U: P(A) = 0.5\nU: P(B) <= 1\nD: P(C given A) >= .5 5",
     "line 3, column 23: unexpected trailing input '5'"),
]


@pytest.mark.parametrize("text, message", FORMULA_ERRORS)
def test_formula_parse_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", MODEL_ERRORS)
def test_model_parse_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_lcn(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_model_without_constraints_is_a_model_error(text):
    with pytest.raises(ModelError) as exc:
        parse_lcn(text)
    assert type(exc.value) is ModelError
    assert str(exc.value) == "model file declares no propositions"
