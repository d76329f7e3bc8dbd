import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import stmt
from lcn.build import dependency_graph, structure
from lcn.errors import GraphError, ModelError
from lcn.factorize import factorization_plan
from lcn.formula import eval_formula, parse_formula
from lcn.graph import MixedGraph
from lcn.markov import LMC_C, LMC_CSTR, IndependenceStatement, local_statements
from lcn.model import Constraint, parse_lcn
from lcn.oracle import (
    DEFAULT_TOL,
    MAX_TABLE_PROPS,
    WEIGHT_FLOOR,
    JointTable,
    check_constraint,
    check_independence,
    check_model,
    cond_prob,
    prob,
    sample_chain_factorized,
    sample_positive_table,
    table_from_json_dict,
)

TABLE = JointTable(("A", "B"), (0.1, 0.2, 0.3, 0.4))
PRODUCT = JointTable(("A", "B"), (0.12, 0.18, 0.28, 0.42))  # P(A)=.6, P(B)=.7


# ---------------------------------------------------------------------------
# Joint tables

def test_assignment_uses_first_prop_as_low_bit():
    assert helpers.assignment(TABLE, 0) == {"A": 0, "B": 0}
    assert helpers.assignment(TABLE, 1) == {"A": 1, "B": 0}
    assert helpers.assignment(TABLE, 2) == {"A": 0, "B": 1}
    assert helpers.assignment(TABLE, 3) == {"A": 1, "B": 1}


def test_table_json_roundtrip():
    data = TABLE.to_json_dict()
    assert data == {"props": ["A", "B"], "probs": [0.1, 0.2, 0.3, 0.4]}
    assert table_from_json_dict(data) == TABLE


def test_table_json_malformed():
    with pytest.raises(ModelError, match="malformed"):
        table_from_json_dict({"props": ["A"]})
    with pytest.raises(ModelError, match="malformed"):
        table_from_json_dict({"props": ["A"], "probs": ["x", "y"]})


@pytest.mark.parametrize("data, message", [
    ({"props": "AB", "probs": [0.25] * 4}, "'props' must be a list of strings"),
    ({"props": ["A", 1], "probs": [0.25] * 4}, "'props' must be a list of strings"),
    ({"props": ["A"], "probs": [True, False]}, "'probs' must be a list of numbers"),
    ({"props": ["A"], "probs": "01"}, "'probs' must be a list of numbers"),
])
def test_table_json_rejects_wrong_types(data, message):
    with pytest.raises(ModelError) as info:
        table_from_json_dict(data)
    assert str(info.value) == f"malformed table JSON: {message}"


def test_table_validation():
    with pytest.raises(ModelError, match="must be distinct"):
        JointTable(("A", "A"), (0.25,) * 4)
    with pytest.raises(ModelError, match="expected 4 probabilities"):
        JointTable(("A", "B"), (0.5, 0.5))
    with pytest.raises(ModelError, match="nonnegative"):
        JointTable(("A",), (1.5, -0.5))
    with pytest.raises(ModelError, match="not 1"):
        JointTable(("A",), (0.6, 0.5))
    with pytest.raises(ModelError, match="table limit"):
        JointTable(tuple(f"P{i}" for i in range(MAX_TABLE_PROPS + 1)),
                   (0.0,) * (1 << (MAX_TABLE_PROPS + 1)))


def test_table_rejects_nan_and_inf():
    with pytest.raises(ModelError, match="finite"):
        JointTable(("A",), (float("nan"), 1.0))
    with pytest.raises(ModelError, match="finite"):
        JointTable(("A",), (float("inf"), 0.0))
    with pytest.raises(ModelError, match="finite"):
        table_from_json_dict({"props": ["A"], "probs": ["NaN", 1.0]})


def test_table_normalization_tolerance():
    JointTable(("A",), (0.5, 0.5 + 1e-13))  # inside the tolerance
    with pytest.raises(ModelError, match="not 1"):
        JointTable(("A",), (0.5, 0.5 + 1e-9))


def test_prob_golden_values():
    assert prob(TABLE, parse_formula("A")) == pytest.approx(0.6)
    assert prob(TABLE, parse_formula("B")) == pytest.approx(0.7)
    assert prob(TABLE, parse_formula("A & B")) == pytest.approx(0.4)
    assert prob(TABLE, parse_formula("A | B")) == pytest.approx(0.9)
    assert prob(TABLE, parse_formula("true")) == pytest.approx(1.0)
    assert prob(TABLE, parse_formula("false")) == 0.0


def test_cond_prob_golden_and_zero_condition():
    assert cond_prob(TABLE, parse_formula("A"), parse_formula("B")) == pytest.approx(4 / 7)
    no_b = JointTable(("A", "B"), (0.5, 0.5, 0.0, 0.0))
    assert cond_prob(no_b, parse_formula("A"), parse_formula("B")) is None


def test_prob_rejects_unknown_props():
    with pytest.raises(ModelError, match="outside the table"):
        prob(TABLE, parse_formula("A & C"))
    with pytest.raises(ModelError, match="outside the table"):
        cond_prob(TABLE, parse_formula("A"), parse_formula("Z"))


def prob_ref(table, f):
    """P(f) as the per-row sum of the rows satisfying `f`, in ascending
    index order."""
    return sum(p for i, p in enumerate(table.probs)
               if eval_formula(f, helpers.assignment(table, i)))


def cond_prob_ref(table, phi, psi):
    joint = margin = 0.0
    for i, p in enumerate(table.probs):
        a = helpers.assignment(table, i)
        if eval_formula(psi, a):
            margin += p
            if eval_formula(phi, a):
                joint += p
    return None if margin == 0.0 else joint / margin


table_formulas = helpers.st_formulas([f"T{i}" for i in range(6)], max_leaves=10)


@settings(max_examples=120, deadline=None)
@given(table_formulas, table_formulas, st.integers(0, 10**6), st.booleans())
def test_prob_and_cond_prob_are_bit_identical_to_per_row_sums(phi, psi, seed, sparse):
    table = sample_positive_table([f"T{i}" for i in range(6)], seed)
    if sparse:  # zero rows make P(psi) = 0 reachable
        rng = random.Random(seed)
        kept = [p if rng.random() < 0.3 else 0.0 for p in table.probs]
        total = sum(kept)
        if total > 0.0:
            table = JointTable(table.props, tuple(p / total for p in kept))
    assert prob(table, phi) == prob_ref(table, phi)
    assert cond_prob(table, phi, psi) == cond_prob_ref(table, phi, psi)


# ---------------------------------------------------------------------------
# Constraint checking

def test_check_constraint_satisfied():
    c = Constraint(0.5, 0.7, parse_formula("A"))
    res = check_constraint(TABLE, c)
    assert res.status == "satisfied" and res.ok()
    assert res.value == pytest.approx(0.6)
    assert res.margin == 0.0


def test_check_constraint_violated_margin():
    c = Constraint(0.0, 0.5, parse_formula("A"), parse_formula("B"))
    res = check_constraint(TABLE, c)
    assert res.status == "violated" and not res.ok()
    assert res.value == pytest.approx(4 / 7)
    assert res.margin == pytest.approx(4 / 7 - 0.5)


def test_check_constraint_tolerance_band():
    c = Constraint(0.0, 0.6, parse_formula("A"))
    fuzz = JointTable(("A", "B"), (0.1 - 2e-10, 0.2, 0.3, 0.4 + 2e-10))
    assert check_constraint(fuzz, c, tol=1e-9).status == "satisfied"
    assert check_constraint(fuzz, c, tol=1e-12).status == "violated"


def test_check_constraint_vacuous_and_strict():
    no_b = JointTable(("A", "B"), (0.5, 0.5, 0.0, 0.0))
    c = Constraint(0.2, 0.3, parse_formula("A"), parse_formula("B"))
    res = check_constraint(no_b, c)
    assert res.status == "vacuous" and res.value is None
    assert res.ok(strict=False) and not res.ok(strict=True)


def test_check_model_report(smokers):
    lcn = parse_lcn("U: 0.5 <= P(A) <= 0.7\nU: 0 <= P(B given A) <= 0.1\n")
    report = check_model(TABLE, lcn)
    assert [c.status for c in report.constraints] == ["satisfied", "violated"]
    assert not report.ok()
    with pytest.raises(ModelError, match="lacks model propositions"):
        check_model(TABLE, smokers)


# ---------------------------------------------------------------------------
# Independence checking

def test_check_independence_product_table():
    res = check_independence(PRODUCT, stmt("A", "B"))
    assert res.holds
    assert res.max_deviation <= 1e-12


def test_check_independence_correlated_table():
    res = check_independence(TABLE, stmt("A", "B"))
    assert not res.holds
    assert res.max_deviation == pytest.approx(0.02)
    assert check_independence(TABLE, stmt("A", "B"), tol=0.05).holds


def test_check_independence_conditional():
    # A and B agree perfectly when C=0 and are independent when C=1:
    # dependence shows marginally, not conditionally... construct the
    # reverse: independent within each C slice, correlated marginally.
    probs = [0.0] * 8  # props (A, B, C); A is bit 0
    for a in (0, 1):
        for b in (0, 1):
            pa = 0.9 if a else 0.1
            pb = 0.9 if b else 0.1
            probs[a | (b << 1)] = 0.5 * pa * pb          # C = 0
            pa = 0.1 if a else 0.9
            pb = 0.1 if b else 0.9
            probs[a | (b << 1) | 4] = 0.5 * pa * pb      # C = 1
    table = JointTable(("A", "B", "C"), tuple(probs))
    assert check_independence(table, stmt("A", "B", "C")).holds
    assert not check_independence(table, stmt("A", "B")).holds


def test_check_independence_skips_zero_mass_condition():
    probs = (0.12, 0.18, 0.28, 0.42, 0.0, 0.0, 0.0, 0.0)
    table = JointTable(("A", "B", "C"), probs)
    res = check_independence(table, stmt("A", "B", "C"))
    assert res.holds and res.max_deviation <= 1e-12


def test_check_independence_unknown_prop():
    with pytest.raises(ModelError, match="unknown proposition"):
        check_independence(TABLE, stmt("A", "Z"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_check_independence_agrees_with_mutual_information(seed):
    # Verdict agreement with the conditional-mutual-information-zero
    # formulation: exact conditional product tables sit at zero, generic
    # random tables sit far from it.
    rng = random.Random(seed)
    names = ("A", "B", "C", "D")[: rng.randint(2, 4)]
    statement_props = list(names)
    rng.shuffle(statement_props)
    x, y = statement_props[0], statement_props[1]
    z = statement_props[2:]
    statement = stmt(x, y, ",".join(z))

    generic = sample_positive_table(names, seed)
    res = check_independence(generic, statement)
    assert (helpers.cmi(generic, statement) <= 1e-9) == res.holds

    product = helpers.conditional_product_table(rng, names, x, y, z)
    res2 = check_independence(product, statement)
    assert res2.holds
    assert helpers.cmi(product, statement) <= 1e-9


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_check_independence_is_bit_identical_to_per_row_reference(seed, sparse):
    rng = random.Random(seed)
    g = helpers.random_chain_graph(rng, rng.randint(2, 8))
    sampled = sample_chain_factorized(g, factorization_plan(g), seed)
    # shuffled table order, so the sorted statement sides list it out of order
    table = JointTable(tuple(rng.sample(sampled.props, len(sampled.props))), sampled.probs)
    names = rng.sample(table.props, len(table.props))
    a = rng.randint(1, len(names) - 1)
    b = rng.randint(a + 1, len(names))
    statement = IndependenceStatement(tuple(names[:a]), tuple(names[a:b]), tuple(names[b:]))
    if sparse:  # zero mass on every z configuration with z[0] set, and on random rows
        bit = 1 << table.props.index(statement.z[0]) if statement.z else 0
        kept = [0.0 if i & bit or rng.random() < 0.5 else p
                for i, p in enumerate(table.probs)]
        total = sum(kept)
        if total > 0.0:
            table = JointTable(table.props, tuple(p / total for p in kept))
    assert check_independence(table, statement) == helpers.check_independence_ref(table, statement)


# ---------------------------------------------------------------------------
# Sampling

def test_sample_positive_table_deterministic_and_positive():
    t1 = sample_positive_table(("A", "B", "C"), 7)
    t2 = sample_positive_table(("A", "B", "C"), 7)
    t3 = sample_positive_table(("A", "B", "C"), 8)
    assert t1 == t2 and t1 != t3
    assert all(p > 0 for p in t1.probs)
    assert min(t1.probs) >= WEIGHT_FLOOR / (len(t1.probs) * 1.0)
    with pytest.raises(ModelError, match="table limit"):
        sample_positive_table([f"P{i}" for i in range(13)], 0)


def test_sample_chain_factorized_deterministic():
    g = helpers.quad_chain()
    plan = factorization_plan(g)
    t1 = sample_chain_factorized(g, plan, 3)
    t2 = sample_chain_factorized(g, plan, 3)
    assert t1 == t2
    assert t1 != sample_chain_factorized(g, plan, 4)
    assert all(p > 0 for p in t1.probs)
    assert abs(sum(t1.probs) - 1.0) <= 1e-12


def test_sample_chain_factorized_satisfies_markov_statements():
    g = helpers.quad_chain()
    plan = factorization_plan(g)
    for seed in range(5):
        table = sample_chain_factorized(g, plan, seed)
        for s in local_statements(g, LMC_CSTR):
            res = check_independence(table, s, tol=1e-9)
            assert res.holds, (seed, str(s), res.max_deviation)


def test_sample_chain_factorized_matches_dag_mirror():
    for seed in range(4):
        rng = random.Random(seed)
        g = helpers.random_chain_graph(rng, 5, p_within=0.0, p_between=0.5)
        plan = factorization_plan(g)
        sampled = sample_chain_factorized(g, plan, seed + 100)
        mirror = helpers.dag_mirror_table(g, plan, seed + 100)
        assert sampled.props == mirror.props
        for a, b in zip(sampled.probs, mirror.probs):
            assert abs(a - b) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_sample_chain_factorized_is_bit_identical_to_per_row_reference(seed):
    rng = random.Random(seed)
    g = helpers.random_chain_graph(rng, rng.randint(1, 8))
    plan = factorization_plan(g)
    assert sample_chain_factorized(g, plan, seed) == helpers.sample_chain_factorized_ref(g, plan, seed)


def test_oracle_at_the_table_limit_is_bit_identical_to_per_row_references():
    g = helpers.random_chain_graph(random.Random(MAX_TABLE_PROPS), MAX_TABLE_PROPS)
    plan = factorization_plan(g)
    table = sample_chain_factorized(g, plan, 0)
    assert table == helpers.sample_chain_factorized_ref(g, plan, 0)
    for s in local_statements(g, LMC_C):
        assert check_independence(table, s) == helpers.check_independence_ref(table, s)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_sample_chain_factorized_markov_property(seed):
    rng = random.Random(seed)
    g = helpers.random_chain_graph(rng, rng.randint(2, 6))
    plan = factorization_plan(g)
    table = sample_chain_factorized(g, plan, seed)
    for s in local_statements(g, LMC_C):
        res = check_independence(table, s, tol=1e-7)
        assert res.holds, (str(s), res.max_deviation)


def test_sample_chain_factorized_guards(smokers):
    dep = dependency_graph(smokers)
    with pytest.raises(GraphError, match="variable nodes"):
        sample_chain_factorized(dep, factorization_plan(helpers.quad_chain()), 0)
    big = MixedGraph.from_props([f"P{i}" for i in range(13)], [])
    with pytest.raises(ModelError, match="table limit"):
        sample_chain_factorized(big, factorization_plan(big), 0)
    tail_plan = factorization_plan(helpers.quad_chain_tail())
    with pytest.raises(GraphError, match="outside the graph"):
        sample_chain_factorized(helpers.quad_chain(), tail_plan, 0)


# ---------------------------------------------------------------------------
# Brute-force separation

def test_separation_bruteforce_goldens():
    g = helpers.quad_undirected()
    assert helpers.separation_bruteforce(g, ["A"], ["B"], ["D"])
    assert not helpers.separation_bruteforce(g, ["A"], [], ["D"])
    assert helpers.separation_bruteforce(g, ["A"], ["B", "D"], ["C"])
    assert not helpers.separation_bruteforce(g, ["A"], ["D"], ["C", "B"])


def test_separation_bruteforce_guards():
    with pytest.raises(GraphError, match="undirected graphs only"):
        helpers.separation_bruteforce(helpers.quad_dag(), ["A"], [], ["D"])
    with pytest.raises(GraphError, match="disjoint"):
        helpers.separation_bruteforce(helpers.quad_undirected(), ["A"], ["A"], ["D"])
    big = MixedGraph.from_props([f"P{i}" for i in range(13)], [])
    with pytest.raises(GraphError, match="brute-force limit"):
        helpers.separation_bruteforce(big, ["P0"], [], ["P1"])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_separation_bruteforce_agrees_with_separates(seed):
    rng = random.Random(seed)
    g = helpers.random_undirected_graph(rng, rng.randint(2, 7))
    names = [n.name for n in g.nodes]
    rng.shuffle(names)
    k1 = rng.randint(1, max(1, len(names) - 2))
    k3 = rng.randint(1, max(1, len(names) - k1 - 1)) if len(names) - k1 > 1 else 0
    s1, s3 = names[:k1], names[k1:k1 + k3]
    if not s3:
        return
    rest = names[k1 + k3:]
    s2 = [n for n in rest if rng.random() < 0.5]
    assert helpers.separation_bruteforce(g, s1, s2, s3) == g.separates(s1, s2, s3)
