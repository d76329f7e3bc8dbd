import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from lcn.build import mixed_structure, structure
from lcn.errors import GraphError
from lcn.factorize import (
    CliqueConfigurations,
    FactorizationPlan,
    component_dag,
    condense_cycles,
    factorization_plan,
    prune_hard_constraints,
)
from lcn.graph import MixedGraph, prop_node
from lcn.formula import Not, Or, canonical_key, eval_formula, support
from lcn.model import Constraint, make_lcn, parse_lcn


def comp_names(components):
    return [tuple(sorted(n.name for n in comp)) for comp in components]


def clique_names(factor):
    return [tuple(n.name for n in clique) for clique in factor.cliques]


# ---------------------------------------------------------------------------
# Component ordering

def test_component_dag_smokers_order(smokers):
    order = component_dag(structure(smokers))
    assert comp_names(order) == [
        ("F1", "F2", "F3"),
        ("S1", "S2", "S3"),
        ("C1",),
        ("C2",),
        ("C3",),
    ]


def test_component_dag_singletons_in_topological_order():
    assert comp_names(component_dag(helpers.quad_dag())) == [
        ("A",), ("B",), ("C",), ("D",)
    ]


def test_component_dag_rejects_directed_cycles():
    with pytest.raises(GraphError, match="directed cycle"):
        component_dag(helpers.quad_mixed())
    with pytest.raises(GraphError, match="directed cycle"):
        component_dag(helpers.cycle_graph(4))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_component_dag_is_topological(seed):
    rng = random.Random(seed)
    g = helpers.random_chain_graph(rng, rng.randint(2, 8))
    order = component_dag(g)
    assert sorted(comp_names(order)) == sorted(comp_names(g.chain_components()))
    position = {n: i for i, comp in enumerate(order) for n in comp}
    for a, b in g.directed:
        assert position[a] <= position[b]


# ---------------------------------------------------------------------------
# Factorization plans

def test_plan_expression_smokers(smokers):
    plan = factorization_plan(structure(smokers))
    assert plan.expression == (
        "P(F1,F2,F3) * P(S1,S2,S3 | F1,F2,F3) * "
        "P(C1 | S1) * P(C2 | S2) * P(C3 | S3)"
    )
    assert plan.positivity_assumed


def test_plan_factors_smokers(smokers):
    plan = factorization_plan(structure(smokers))
    f, s, c1, c2, c3 = plan.factors
    assert [n.name for n in f.component] == ["F1", "F2", "F3"]
    assert f.boundary == ()
    assert clique_names(f) == [("F1", "F2", "F3")]
    assert [n.name for n in s.boundary] == ["F1", "F2", "F3"]
    s_cliques = set(clique_names(s))
    assert ("S1", "S2", "S3") in s_cliques
    assert ("F1", "F2", "F3") in s_cliques  # boundary-only cliques are real
    assert ("F1", "F2", "S2") in s_cliques
    assert [(c.expression, clique_names(c)) for c in (c1, c2, c3)] == [
        ("P(C1 | S1)", [("C1", "S1")]),
        ("P(C2 | S2)", [("C2", "S2")]),
        ("P(C3 | S3)", [("C3", "S3")]),
    ]


def test_plan_variant_splits_first_factor(smokers, smokers_variant):
    base = factorization_plan(structure(smokers))
    variant = factorization_plan(structure(smokers_variant))
    assert clique_names(base.factors[0]) == [("F1", "F2", "F3")]
    assert clique_names(variant.factors[0]) == [("F1", "F2"), ("F2", "F3")]
    # Same components and expression either way: only the clique structure
    # inside the first factor changes.
    assert variant.expression == base.expression


def test_plan_dag_conditional_factors():
    plan = factorization_plan(helpers.quad_dag())
    assert plan.expression == "P(A) * P(B | A) * P(C) * P(D | B,C)"
    last = plan.factors[-1]
    # Co-parents B and C get married by boundary completion.
    assert clique_names(last) == [("B", "C", "D")]


def test_plan_pure_undirected_single_factor():
    plan = factorization_plan(helpers.quad_undirected())
    assert plan.expression == "P(A,B,C,D)"
    assert clique_names(plan.factors[0]) == [("A", "B"), ("B", "D"), ("C", "D")]


def test_plan_on_condensed_graph():
    g, _ = condense_cycles(helpers.bidirected_block())
    plan = factorization_plan(g)
    assert plan.expression == "P(A) * P(E) * P({B,C,D} | A,E)"


def test_plan_rejects_directed_cycles():
    with pytest.raises(GraphError, match="directed cycle"):
        factorization_plan(helpers.quad_mixed())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_plan_cliques_match_bruteforce(seed):
    rng = random.Random(seed)
    for g in (helpers.random_chain_graph(rng, rng.randint(2, 7)),
              helpers.random_undirected_graph(rng, rng.randint(2, 9))):
        for factor in factorization_plan(g).factors:
            got = {frozenset(names) for names in clique_names(factor)}
            assert got == helpers.brute_force_cliques(factor.graph)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_plan_component_graph_covers_component_and_boundary(seed):
    rng = random.Random(seed)
    g = helpers.random_chain_graph(rng, rng.randint(2, 7))
    for factor in factorization_plan(g).factors:
        covered = set().union(frozenset(), *factor.cliques)
        assert set(factor.component) <= covered | set(factor.graph.nodes)
        assert set(factor.graph.nodes) == set(factor.component) | set(factor.boundary)
        assert not factor.graph.directed


# ---------------------------------------------------------------------------
# Cycle condensation

def test_condense_contracts_bidirected_component():
    g, mapping = condense_cycles(helpers.bidirected_block())
    assert sorted(n.name for n in g.nodes) == ["A", "E", "{B,C,D}"]
    assert {(a.name, b.name) for a, b in g.directed} == {
        ("A", "{B,C,D}"),
        ("E", "{B,C,D}"),
    }
    assert not g.undirected
    super_ = next(n for n in g.nodes if n.kind == "super")
    assert super_.members == frozenset({"B", "C", "D"})
    assert {k.name: v.name for k, v in mapping.items()} == {
        "A": "A", "E": "E",
        "B": "{B,C,D}", "C": "{B,C,D}", "D": "{B,C,D}",
    }


def test_condense_directed_cycle_to_point():
    g, mapping = condense_cycles(helpers.cycle_graph(6))
    assert [n.name for n in g.nodes] == ["{A1,A2,A3,A4,A5,A6}"]
    assert not g.directed and not g.undirected
    assert len(set(mapping.values())) == 1


def test_condense_smokers_mixed_structure(smokers):
    g, mapping = condense_cycles(mixed_structure(smokers))
    assert sorted(n.name for n in g.nodes) == [
        "C1", "C2", "C3", "S1", "S2", "S3", "{F1,F2,F3}"
    ]
    assert {(a.name, b.name) for a, b in g.directed} == {
        ("{F1,F2,F3}", "S1"), ("{F1,F2,F3}", "S2"), ("{F1,F2,F3}", "S3"),
        ("S1", "C1"), ("S2", "C2"), ("S3", "C3"),
    }
    assert helpers.und_names(g) == {
        frozenset({"S1", "S2"}), frozenset({"S1", "S3"}), frozenset({"S2", "S3"})
    }
    assert not g.has_directed_cycle()
    # The undirected S-triangle is not on any directed cycle and survives.
    assert mapping[g.resolve("S1")].name == "S1"


def test_condense_identity_on_chain_graphs():
    g, mapping = condense_cycles(helpers.quad_chain())
    assert g == helpers.quad_chain()
    assert all(k == v for k, v in mapping.items())


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_condense_yields_chain_graph(seed):
    rng = random.Random(seed)
    g = helpers.random_mixed_graph(rng, rng.randint(2, 10))
    condensed, mapping = condense_cycles(g)
    assert not condensed.has_directed_cycle()
    assert set(mapping) == set(g.nodes)
    assert set(mapping.values()) == set(condensed.nodes)
    # No bi-directed pairs survive contraction.
    directed = set(condensed.directed)
    assert not any((b, a) in directed for a, b in directed)
    for node in condensed.nodes:
        if node.kind == "super":
            assert node.members == {
                k.name for k, v in mapping.items() if v == node
            }
        else:
            assert mapping[node] == node


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_condense_merges_exactly_the_cyclic_step_classes(seed):
    rng = random.Random(seed)
    g = helpers.random_mixed_graph(rng, rng.randint(2, 10))
    # An extra bi-directed pair, so that merging across classes shows
    # whenever the random part has a directed cycle too.
    y0, y1 = prop_node("Y0"), prop_node("Y1")
    g = MixedGraph(g.nodes + (y0, y1),
                   g.directed | {(y0, y1), (y1, y0), (g.nodes[0], y0)}, g.undirected)
    _, mapping = condense_cycles(g)
    reach = {n: helpers.step_reach(g, n) | {n} for n in g.nodes}
    classes = {frozenset(m for m in g.nodes if m in reach[n] and n in reach[m])
               for n in g.nodes}
    expected = {frozenset(n.name for n in c) for c in classes
                if any(a in c and b in c for a, b in g.directed)}
    assert {n.members for n in mapping.values() if n.kind == "super"} == expected


def test_condense_long_mixed_cycle_under_the_default_recursion_limit():
    names = [f"X{i}" for i in range(5000)]
    g = MixedGraph.from_props(names, [(names[-1], names[0])], list(zip(names, names[1:])))
    assert g.has_directed_cycle()
    condensed, _ = condense_cycles(g)
    assert [n.members for n in condensed.nodes] == [frozenset(names)]


# ---------------------------------------------------------------------------
# Hard-constraint pruning

def test_prune_removes_all_false_configuration():
    lcn = parse_lcn("U: 1 <= P(A | B) <= 1\n")
    report = prune_hard_constraints(lcn, factorization_plan(structure(lcn)))
    assert report.errors == ()
    (cfg,) = report.cliques
    assert cfg == CliqueConfigurations(
        component_index=0,
        clique=("A", "B"),
        configurations=((1, 0), (0, 1), (1, 1)),
        removed=1,
    )


def test_prune_conditional_keeps_antecedent_false_rows():
    lcn = parse_lcn(
        "D: 1 <= P(a given b) <= 1\n"
        "U: 0.2 <= P(b) <= 0.9\n"
    )
    report = prune_hard_constraints(lcn, factorization_plan(structure(lcn)))
    assert report.errors == ()
    by_clique = {c.clique: c for c in report.cliques}
    assert by_clique[("b",)].configurations == ((0,), (1,))
    # Only b=1, a=0 violates the almost-sure implication b -> a.
    assert by_clique[("a", "b")].configurations == ((0, 0), (1, 0), (1, 1))
    assert by_clique[("a", "b")].removed == 1


def test_prune_tautological_implication_is_noop():
    lcn = parse_lcn(
        "D: 1 <= P(a given a) <= 1\n"
        "U: 0.3 <= P(a | b) <= 0.9\n"
    )
    report = prune_hard_constraints(lcn, factorization_plan(structure(lcn)))
    assert report.errors == ()
    assert all(c.removed == 0 for c in report.cliques)
    assert all(len(c.configurations) == 2 ** len(c.clique) for c in report.cliques)


def test_prune_reports_unfittable_constraint():
    lcn = parse_lcn(
        "U: 0.1 <= P(x | y) <= 0.9\n"
        "U: 0.1 <= P(y | z) <= 0.9\n"
        "D: 1 <= P(x | z) <= 1\n"
    )
    report = prune_hard_constraints(lcn, factorization_plan(structure(lcn)))
    assert len(report.errors) == 1
    assert "do not fit" in report.errors[0]
    assert "P(x | z)" in report.errors[0]
    assert all(c.removed == 0 for c in report.cliques)


def test_prune_without_hard_constraints_keeps_everything(smokers):
    plan = factorization_plan(structure(smokers))
    report = prune_hard_constraints(smokers, plan)
    assert report.errors == ()
    assert all(c.removed == 0 for c in report.cliques)
    total_cliques = sum(len(f.cliques) for f in plan.factors)
    assert len(report.cliques) == total_cliques


def test_prune_initial_configurations_enumerate_low_bit_first():
    lcn = parse_lcn("U: 0.2 <= P(a | b) <= 0.9\n")
    report = prune_hard_constraints(lcn, factorization_plan(structure(lcn)))
    (cfg,) = report.cliques
    assert cfg.configurations == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_prune_soft_and_upper_zero_bounds_untouched():
    lcn = parse_lcn(
        "U: 0 <= P(a | b) <= 0\n"
        "U: 0.5 <= P(a & b) <= 1\n"
    )
    report = prune_hard_constraints(lcn, factorization_plan(structure(lcn)))
    assert report.errors == ()
    assert all(c.removed == 0 for c in report.cliques)


def test_prune_ignores_propositions_outside_the_clique_that_do_not_matter():
    # C appears in the formula but never changes its value; the home clique
    # {A,B} does not hold it.
    lcn = parse_lcn("D: P(A | (C & !C) given B) = 1\n")
    report = prune_hard_constraints(lcn, factorization_plan(structure(lcn)))
    assert report.errors == ()
    by_clique = {c.clique: c for c in report.cliques}
    # Only B=1, A=0 violates B -> A.
    assert by_clique[("A", "B")].configurations == ((0, 0), (1, 0), (1, 1))
    assert by_clique[("A", "B")].removed == 1


def prune_ref(lcn, plan):
    """Surviving configurations per plan clique, by evaluating each hard
    constraint's implication form on every configuration of its home
    clique (the first one holding the propositions it depends on)."""
    spaces = [[tuple(n.name for n in clique),
               [tuple((i >> j) & 1 for j in range(len(clique))) for i in range(1 << len(clique))]]
              for factor in plan.factors for clique in factor.cliques]
    for c in lcn.constraints:
        if c.lo != 1.0:
            continue
        effective = Or(Not(c.psi), c.phi)
        deps = set(canonical_key(effective)[0])
        home = next((space for space in spaces if deps <= set(space[0])), None)
        if home is not None and deps:
            off = dict.fromkeys(support(effective), 0)
            home[1] = [cfg for cfg in home[1]
                       if eval_formula(effective, {**off, **dict(zip(home[0], cfg))})]
    return [(names, tuple(configs)) for names, configs in spaces]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_prune_matches_per_configuration_reference(seed):
    rng = random.Random(seed)
    lcn = helpers.random_chain_lcn(rng)
    lcn = make_lcn([Constraint(1.0, 1.0, c.phi, c.psi, c.group) if rng.random() < 0.6 else c
                    for c in lcn.constraints], lcn.props)
    plan = factorization_plan(structure(lcn))
    report = prune_hard_constraints(lcn, plan)
    assert [(c.clique, c.configurations) for c in report.cliques] == prune_ref(lcn, plan)
