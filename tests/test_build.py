import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import dir_names, und, und_names
from lcn.build import (
    dependency_graph,
    lcn_descendants,
    lcn_parents,
    mixed_structure,
    structure,
)
from lcn.errors import GraphError
from lcn.formula import parse_formula
from lcn.graph import MixedGraph, formula_node, prop_node
from lcn.model import parse_lcn


def names(nodes) -> set[str]:
    return {n.name for n in nodes}


# ---------------------------------------------------------------------------
# Dependency graph

def smokers_expected_dep_edges():
    """The full 33-edge dependency graph of the smokers model."""
    p = prop_node
    f = lambda text: formula_node(parse_formula(text))
    edges = []
    for i, j, k in ((1, 2, 3), (2, 1, 3), (3, 1, 2)):
        psi = f(f"F{j} & F{k}")
        edges += [(p(f"F{j}"), psi), (p(f"F{k}"), psi), (psi, p(f"F{i}"))]
    for i, j, k in ((1, 2, 1), (2, 3, 2), (1, 3, 3)):
        phi = f(f"S{i} | S{j}")
        edges += [
            (p(f"F{k}"), phi),
            (phi, p(f"S{i}")), (phi, p(f"S{j}")),
            (p(f"S{i}"), phi), (p(f"S{j}"), phi),
        ]
    for i in (1, 2, 3):
        edges.append((p(f"S{i}"), p(f"C{i}")))
        neg = f(f"!S{i}")
        edges += [(p(f"S{i}"), neg), (neg, p(f"C{i}"))]
    return set(edges)


def test_smokers_dependency_graph_golden(smokers):
    dep = dependency_graph(smokers)
    assert len(dep.nodes) == 18  # 9 propositions + 9 formula nodes
    assert not dep.undirected
    assert set(dep.directed) == smokers_expected_dep_edges()


def test_single_prop_formulas_attach_directly():
    lcn = parse_lcn("D: 0.1 <= P(a given b) <= 0.2\n")
    dep = dependency_graph(lcn)
    assert names(dep.nodes) == {"a", "b"}
    assert dir_names(dep) == {("b", "a")}


def test_negated_prop_is_materialized(smokers):
    dep = dependency_graph(smokers)
    labels = {n.name for n in dep.nodes if n.kind == "formula"}
    assert {"!S1", "!S2", "!S3"} <= labels


def test_undirected_group_adds_back_edges():
    lcn = parse_lcn("U: 0.1 <= P(a | b given c) <= 0.2\n")
    dep = dependency_graph(lcn)
    phi = next(n for n in dep.nodes if n.kind == "formula")
    assert names(dep.parents(phi)) == {"a", "b", "c"}
    assert names(dep.children(phi)) == {"a", "b"}

    directed_only = parse_lcn("D: 0.1 <= P(a | b given c) <= 0.2\n")
    dep_d = dependency_graph(directed_only)
    phi_d = next(n for n in dep_d.nodes if n.kind == "formula")
    assert names(dep_d.parents(phi_d)) == {"c"}


def test_tautological_condition_dropped_semantically():
    lcn = parse_lcn("U: 0.1 <= P(a | b given c | !c) <= 0.2\n")
    dep = dependency_graph(lcn)
    assert {n.name for n in dep.nodes if n.kind == "formula"} == {"a | b"}
    assert ("c", "a") not in dir_names(dep)
    # The syntactic structure procedure still sees the condition's support.
    assert ("c", "a") in dir_names(mixed_structure(lcn))


def test_equivalent_formulas_share_a_node_semantic_merge():
    lcn = parse_lcn(
        "U: 0.1 <= P(a & b) <= 0.2\n"
        "U: 0.3 <= P(b & a) <= 0.4\n"
    )
    dep = dependency_graph(lcn)
    formulas = [n for n in dep.nodes if n.kind == "formula"]
    assert len(formulas) == 1
    assert formulas[0].name == "a & b"  # first rendering wins

    dep_syn = dependency_graph(lcn, merge="syntactic")
    assert len([n for n in dep_syn.nodes if n.kind == "formula"]) == 2


def test_self_loops_are_dropped():
    lcn = parse_lcn("D: 0.1 <= P(a given a) <= 0.9\n")
    dep = dependency_graph(lcn)
    assert not dep.directed and not dep.undirected


def test_unused_declared_props_stay_as_isolated_nodes():
    from lcn.model import Constraint, make_lcn
    from lcn.formula import Prop
    lcn = make_lcn([Constraint(0.1, 0.2, Prop("a"))], props=["a", "zzz"])
    assert names(dependency_graph(lcn).nodes) == {"a", "zzz"}
    assert names(structure(lcn).nodes) == {"a", "zzz"}


def test_cross_role_key_collision_changes_lcn_parents():
    # The same disjunction appears as a consequent in one constraint and as
    # a condition in another; the merged node inherits both roles' edges,
    # so lcn-parents(x) picks up e even though the structure keeps bd(x) at
    # {a, b}.  Collision-free models avoid this by construction.
    lcn = parse_lcn(
        "D: 0.1 <= P(x given a | b) <= 0.2\n"
        "D: 0.1 <= P(a | b given e) <= 0.2\n"
    )
    dep = dependency_graph(lcn)
    assert names(lcn_parents(dep, "x")) == {"a", "b", "e"}
    assert names(structure(lcn).boundary("x")) == {"a", "b"}


# ---------------------------------------------------------------------------
# Structure and mixed structure

def test_smokers_structure_golden(smokers):
    s = structure(smokers)
    assert dir_names(s) == {
        ("F1", "S1"), ("F1", "S2"), ("F2", "S2"), ("F2", "S3"),
        ("F3", "S1"), ("F3", "S3"), ("S1", "C1"), ("S2", "C2"), ("S3", "C3"),
    }
    assert und_names(s) == {
        frozenset(p) for p in (
            ("F1", "F2"), ("F1", "F3"), ("F2", "F3"),
            ("S1", "S2"), ("S1", "S3"), ("S2", "S3"),
        )
    }


def test_smokers_mixed_structure_golden(smokers):
    ms = mixed_structure(smokers)
    f_pairs = {("F1", "F2"), ("F2", "F1"), ("F1", "F3"),
               ("F3", "F1"), ("F2", "F3"), ("F3", "F2")}
    assert dir_names(ms) == f_pairs | {
        ("F1", "S1"), ("F1", "S2"), ("F2", "S2"), ("F2", "S3"),
        ("F3", "S1"), ("F3", "S3"), ("S1", "C1"), ("S2", "C2"), ("S3", "C3"),
    }
    assert und_names(ms) == {
        frozenset(p) for p in (("S1", "S2"), ("S1", "S3"), ("S2", "S3"))
    }
    assert ms.has_directed_cycle()
    assert not structure(smokers).has_directed_cycle()


def test_example_graphs_from_fixtures(undirected_block_model, bidirected_block_model, quad_mixed_model):
    low = lambda g: ({(a.lower(), b.lower()) for a, b in dir_names(g)},
                     {frozenset(x.lower() for x in e) for e in und_names(g)})
    s1 = structure(undirected_block_model)
    m1 = mixed_structure(undirected_block_model)
    expect_a = ({("a", "b"), ("e", "d")}, und("bc", "cd"))
    assert low(s1) == expect_a and low(m1) == expect_a

    s2 = structure(bidirected_block_model)
    m2 = mixed_structure(bidirected_block_model)
    assert low(s2) == expect_a
    assert low(m2) == ({("a", "b"), ("e", "d"), ("b", "c"), ("c", "b"),
                        ("c", "d"), ("d", "c")}, set())

    md = mixed_structure(quad_mixed_model)
    assert low(md) == ({("a", "b"), ("c", "d"), ("b", "d"), ("d", "b")}, set())
    sd = structure(quad_mixed_model)
    assert low(sd) == ({("a", "b"), ("c", "d")}, und("bd"))


def test_structure_is_collapse_of_mixed_structure_random():
    rng = random.Random(20240817)
    for _ in range(40):
        lcn = helpers.random_lcn(rng)
        ms = mixed_structure(lcn)
        bidir = {(a, b) for a, b in ms.directed if (b, a) in ms.directed}
        collapsed = MixedGraph(
            ms.nodes,
            {(a, b) for a, b in ms.directed if (b, a) not in ms.directed},
            set(ms.undirected) | {(a, b) for a, b in bidir},
        )
        assert structure(lcn) == collapsed


# ---------------------------------------------------------------------------
# lcn-parents / lcn-descendants

def test_lcn_parents_smokers(smokers):
    dep = dependency_graph(smokers)
    assert names(lcn_parents(dep, "S1")) == {"F1", "F3", "S2", "S3"}
    assert names(lcn_parents(dep, "C1")) == {"S1"}
    assert names(lcn_parents(dep, "F1")) == {"F2", "F3"}


def test_lcn_descendants_smokers(smokers):
    dep = dependency_graph(smokers)
    # S2/S3 are lcn-parents of S1 yet still end paths out of S1; only C1
    # is reached through unblocked territory.
    assert names(lcn_descendants(dep, "S1")) == {"C1", "S2", "S3"}
    assert names(lcn_descendants(dep, "C1")) == set()


def test_lcn_descendants_blocked_intermediate():
    # b is a parent of a (via the a-given-b constraint), so the walk from a
    # may end at b but never continue through it: c stays unreachable.
    lcn = parse_lcn(
        """
        D: 0.1 <= P(b given a) <= 0.2
        D: 0.1 <= P(a given b) <= 0.2
        D: 0.1 <= P(c given b) <= 0.2
        """
    )
    dep = dependency_graph(lcn)
    assert names(lcn_descendants(dep, "a")) == {"b"}
    assert names(lcn_descendants(dep, "b")) == {"a", "c"}


def test_lcn_relations_reject_formula_nodes(smokers):
    dep = dependency_graph(smokers)
    phi = next(n for n in dep.nodes if n.kind == "formula")
    with pytest.raises(GraphError, match="proposition-node"):
        lcn_parents(dep, phi)
    with pytest.raises(GraphError, match="proposition-node"):
        lcn_descendants(dep, phi)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_lcn_parents_equal_structure_boundary(seed):
    # Boundary-in-the-structure characterization of lcn-parents, for
    # collision-free models.
    lcn = helpers.random_lcn(random.Random(seed))
    dep = dependency_graph(lcn)
    s = structure(lcn)
    for p in lcn.props:
        assert lcn_parents(dep, p) == s.boundary(p)


@settings(max_examples=80, deadline=None)
@given(helpers.st_random_lcn(), st.sampled_from(["semantic", "syntactic"]))
def test_lcn_walks_match_set_based_reference(lcn, merge):
    dep = dependency_graph(lcn, merge=merge)
    for p in lcn.props:
        assert lcn_parents(dep, p) == helpers.lcn_parents_ref(dep, p)
        assert lcn_descendants(dep, p) == helpers.lcn_descendants_ref(dep, p)


WIDE_MODEL = ("U: 0.1 <= P(" + " | ".join(f"X{i}" for i in range(14)) + ") <= 0.9\n"
              "D: 0.2 <= P(X0 & X1) <= 0.5\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_wide_formula_builds_under_the_default_int_str_limit():
    # A support-14 formula has a 2^14-bit truth table, about 4,900 decimal
    # digits: past Python's default int-to-str limit of 4,300.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        g = dependency_graph(parse_lcn(WIDE_MODEL))
    finally:
        sys.set_int_max_str_digits(limit)
    formulas = [n for n in g.nodes if n.kind == "formula"]
    assert len(formulas) == 2
    sys.set_int_max_str_digits(0)
    try:
        # node order is still that of repr(key)
        assert all(n.sort_key == (2, repr(n.key)) for n in formulas)
    finally:
        sys.set_int_max_str_digits(limit)
