import functools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import lcn
from helpers import stmt, stmt_strs
from lcn import markov
from lcn.build import dependency_graph, mixed_structure, structure
from lcn.errors import GraphError
from lcn.factorize import condense_cycles
from lcn.graph import MixedGraph, prop_node, super_node
from lcn.markov import (
    CONDITIONS,
    GMC_C,
    LMC_C,
    LMC_CSTR,
    LMC_D,
    LMC_LCN,
    LOCAL_CONDITIONS,
    IndependenceStatement,
    compare_conditions,
    enumerate_gmc,
    gmc_implies,
    local_statements,
    statement_decomposes,
    statements_for,
    weak_descendants,
)
from lcn.formula import parse_formula


# ---------------------------------------------------------------------------
# IndependenceStatement canonical form

def test_statement_sides_sorted_and_deduped():
    s = IndependenceStatement(("B", "A", "A"), ("D", "C"), ("F", "E"))
    assert s.x == ("A", "B")
    assert s.y == ("C", "D")
    assert s.z == ("E", "F")


def test_statement_swaps_sides_into_canonical_order():
    assert IndependenceStatement(("C",), ("A", "B")) == IndependenceStatement(
        ("A", "B"), ("C",)
    )
    s = IndependenceStatement(("C",), ("A", "B"))
    assert s.x == ("A", "B") and s.y == ("C",)


def test_statement_requires_nonempty_sides():
    with pytest.raises(GraphError, match="nonempty"):
        IndependenceStatement((), ("A",))
    with pytest.raises(GraphError, match="nonempty"):
        IndependenceStatement(("A",), ())


def test_statement_requires_disjoint_sides():
    with pytest.raises(GraphError, match="disjoint"):
        IndependenceStatement(("A",), ("A", "B"))
    with pytest.raises(GraphError, match="disjoint"):
        IndependenceStatement(("A",), ("B",), ("A",))
    with pytest.raises(GraphError, match="disjoint"):
        IndependenceStatement(("A",), ("B",), ("B", "C"))


@pytest.mark.parametrize("sides", [("AB", ("C",)), ("X1", "X2"), (("A",), ("B",), "Z")])
def test_statement_rejects_a_bare_string_side(sides):
    # A string is a collection of characters: "AB" would read as {A, B}.
    with pytest.raises(GraphError, match="not a single string"):
        IndependenceStatement(*sides)


def test_statement_str_forms():
    assert str(stmt("A", "C")) == "A _||_ C"
    assert str(stmt("B", "C", "A,D")) == "B _||_ C | A,D"
    assert str(stmt("B,A", "D,C", "F,E")) == "A,B _||_ C,D | E,F"


def test_statement_json_dict():
    assert stmt("B", "C", "A,D").to_json_dict() == {
        "x": ["B"],
        "y": ["C"],
        "z": ["A", "D"],
    }


def test_statement_sort_key_orders_statements():
    stmts = [stmt("B", "C", "A,D"), stmt("A", "C"), stmt("A", "D", "B,C")]
    ordered = sorted(stmts, key=lambda s: s.sort_key)
    assert [str(s) for s in ordered] == [
        "A _||_ C",
        "A _||_ D | B,C",
        "B _||_ C | A,D",
    ]


# ---------------------------------------------------------------------------
# Local conditions

def test_lmc_d_two_directed_cycles_graph():
    got = local_statements(helpers.quad_mixed(), LMC_D)
    assert stmt_strs(got) == {"A _||_ C", "B _||_ C | A,D", "A _||_ D | B,C"}


def test_lmc_c_and_cstr_chain_graph():
    e = helpers.quad_chain()
    expected = {"A _||_ C", "B _||_ C | A,D", "A _||_ D | B,C"}
    assert stmt_strs(local_statements(e, LMC_C)) == expected
    assert stmt_strs(local_statements(e, LMC_CSTR)) == expected


def test_lmc_c_and_cstr_differ_on_weak_descendants():
    # E is a plain descendant of B (B ~ D -> E) but not a strict one (the
    # path runs through D, inside B's boundary), so only the
    # strict-descendant condition keeps E in B's remainder.
    ep = helpers.quad_chain_tail()
    c = {str(s) for s in local_statements(ep, LMC_C) if s.x == ("B",)}
    cstr = {str(s) for s in local_statements(ep, LMC_CSTR) if s.x == ("B",)}
    assert c == {"B _||_ C | A,D"}
    assert cstr == {"B _||_ C,E | A,D"}


def test_lmc_lcn_on_dependency_graph(quad_mixed_model):
    dep = dependency_graph(quad_mixed_model)
    got = local_statements(dep, LMC_LCN)
    assert stmt_strs(got) == {"a _||_ c", "b _||_ c | a,d", "a _||_ d | b,c"}


def test_lmc_lcn_smokers_membership(smokers):
    dep = dependency_graph(smokers)
    got = stmt_strs(local_statements(dep, LMC_LCN))
    assert "C1 _||_ C2,C3,F1,F2,F3,S2,S3 | S1" in got


def test_local_statements_skip_empty_remainders():
    triangle = MixedGraph.from_props(
        "ABC", [], [("A", "B"), ("B", "C"), ("A", "C")]
    )
    assert local_statements(triangle, LMC_C) == frozenset()


def test_cycle_model_yields_no_local_statements(cycle6_model):
    dep = dependency_graph(cycle6_model)
    assert local_statements(dep, LMC_LCN) == frozenset()
    assert local_statements(mixed_structure(cycle6_model), LMC_D) == frozenset()
    assert local_statements(structure(cycle6_model), LMC_CSTR) == frozenset()


def test_local_statements_unknown_condition():
    with pytest.raises(GraphError, match="unknown local condition"):
        local_statements(helpers.quad_chain(), GMC_C)
    with pytest.raises(GraphError, match="unknown local condition"):
        local_statements(helpers.quad_chain(), "lmc-x")


def test_non_lcn_conditions_reject_formula_nodes(smokers):
    dep = dependency_graph(smokers)
    for condition in (LMC_C, LMC_CSTR, LMC_D):
        with pytest.raises(GraphError, match="mismatch"):
            local_statements(dep, condition)


# Directed cycles are common at this density.
dense_mixed_graph = functools.partial(helpers.random_mixed_graph, p_dir=0.25, p_und=0.2, p_bi=0.1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([helpers.random_chain_graph, helpers.random_mixed_graph,
                        dense_mixed_graph, helpers.random_overlapping_graph]),
       st.integers(1, 8), st.integers(0, 10**6), st.sampled_from([LMC_C, LMC_CSTR, LMC_D]))
def test_local_statements_match_set_based_reference(family, n, seed, condition):
    g = family(random.Random(seed), n)
    assert local_statements(g, condition) == helpers.local_statements_ref(g, condition)


def test_local_statements_need_no_whole_graph_path_search():
    # Strict descendants never search, and a chain graph has no step
    # component holding a directed edge.  A search over every simple path
    # of the whole graph takes minutes on each of these.
    script = textwrap.dedent("""
        import random
        from helpers import random_chain_graph, random_mixed_graph
        from lcn.markov import local_statements
        local_statements(random_mixed_graph(random.Random(22), 22, 0.2, 0.1, 0.05), "lmc-cstr")
        chain = random_chain_graph(random.Random(200), 200)
        for condition in ("lmc-c", "lmc-cstr", "lmc-d"):
            local_statements(chain, condition)
    """)
    path = os.pathsep.join([str(Path(lcn.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                   timeout=30, check=True)


@settings(max_examples=60, deadline=None)
@given(helpers.st_random_lcn(), st.sampled_from(["semantic", "syntactic"]))
def test_lmc_lcn_matches_set_based_reference(lcn, merge):
    for g in (dependency_graph(lcn, merge=merge), structure(lcn)):
        assert local_statements(g, LMC_LCN) == helpers.local_statements_ref(g, LMC_LCN)


def test_lmc_lcn_rejects_super_nodes(bidirected_block_model):
    g, _ = condense_cycles(mixed_structure(bidirected_block_model))
    with pytest.raises(GraphError) as info:
        local_statements(g, LMC_LCN)
    assert str(info.value) == "expected a proposition-node, got Node(super:{b,c,d})"


# ---------------------------------------------------------------------------
# Global condition

def test_gmc_implies_golden_quad():
    g = helpers.quad_mixed()
    assert gmc_implies(g, ["A"], [], ["C"])
    assert gmc_implies(g, ["A"], ["B", "D"], ["C"])
    assert not gmc_implies(g, ["B"], ["A", "D"], ["C"])
    assert not gmc_implies(g, ["A"], ["B", "C"], ["D"])


def test_gmc_implies_requires_nonempty_outer_sets():
    g = helpers.quad_mixed()
    with pytest.raises(GraphError, match="nonempty"):
        gmc_implies(g, [], ["B"], ["C"])
    with pytest.raises(GraphError, match="nonempty"):
        gmc_implies(g, ["A"], ["B"], [])


def test_gmc_implies_rejects_formula_nodes(smokers):
    dep = dependency_graph(smokers)
    phi = next(n for n in dep.nodes if n.kind == "formula")
    with pytest.raises(GraphError, match="variable nodes"):
        gmc_implies(dep, [phi], [], ["C1"])


def test_enumerate_gmc_golden_sets():
    assert stmt_strs(enumerate_gmc(helpers.quad_mixed())) == {
        "A _||_ C",
        "A _||_ C | B,D",
    }
    assert stmt_strs(enumerate_gmc(helpers.quad_chain())) == {
        "A _||_ C",
        "B _||_ C | A,D",
        "A _||_ D | B,C",
    }


def test_enumerate_gmc_mixed_structure_memberships():
    first = enumerate_gmc(helpers.undirected_block())
    second = enumerate_gmc(helpers.bidirected_block())
    joint_d = stmt("A,B", "D", "C,E")
    joint_e = stmt("A,B", "E", "C,D")
    assert joint_d in first and joint_e not in first
    assert joint_e in second and joint_d not in second


def test_enumerate_gmc_respects_size_bounds():
    first = enumerate_gmc(helpers.undirected_block(), max_x=1, max_y=1, max_z=3)
    assert all(len(s.x) == 1 and len(s.y) == 1 for s in first)
    assert stmt("A,B", "D", "C,E") not in first


@pytest.mark.parametrize("bounds", [dict(max_x=0), dict(max_y=0), dict(max_z=-1)])
def test_enumerate_gmc_rejects_vacuous_bounds(bounds):
    with pytest.raises(GraphError, match="enumeration bounds"):
        enumerate_gmc(helpers.undirected_block(), **bounds)


def test_enumerate_gmc_node_guard():
    big = MixedGraph.from_props([f"N{i}" for i in range(13)], [])
    with pytest.raises(GraphError, match="guard"):
        enumerate_gmc(big)


def test_enumerate_gmc_statement_guard(monkeypatch):
    # Above the largest random-chain output at 12 nodes, below the edgeless
    # 12-node graph's 2,934,207 statements.
    assert 655_108 <= markov.MAX_ENUMERATION_STATEMENTS < 2_934_207
    edgeless = MixedGraph.from_props([f"N{i}" for i in range(6)], [])
    total = len(enumerate_gmc(edgeless))
    monkeypatch.setattr(markov, "MAX_ENUMERATION_STATEMENTS", total)
    assert len(enumerate_gmc(edgeless)) == total
    monkeypatch.setattr(markov, "MAX_ENUMERATION_STATEMENTS", total - 1)
    with pytest.raises(GraphError, match=f"more than the {total - 1}-statement guard"):
        enumerate_gmc(edgeless)


def test_gmc_cycle_patterns():
    c6 = helpers.cycle_graph(6)
    assert gmc_implies(c6, ["A1"], ["A2", "A6"], ["A3", "A4", "A5"])
    assert gmc_implies(c6, ["A3"], ["A2", "A4"], ["A1", "A5", "A6"])
    assert not gmc_implies(c6, ["A1"], ["A2"], ["A3", "A4", "A5", "A6"])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_gmc_implies_every_local_cstr_statement(seed):
    rng = random.Random(seed)
    g = helpers.random_chain_graph(rng, rng.randint(2, 7))
    for s in local_statements(g, LMC_CSTR):
        assert gmc_implies(g, s.x, s.z, s.y)


graph_families = st.sampled_from([helpers.random_chain_graph, helpers.random_mixed_graph])
# The sweep serves every graph: the mixed and overlapping families draw
# directed cycles and bi-directed pairs, the sparse chain family n - 1 edges.
gmc_families = st.sampled_from([helpers.random_chain_graph, helpers.sparse_chain_graph,
                                helpers.random_mixed_graph, helpers.random_overlapping_graph])


@settings(max_examples=100, deadline=None)
@given(gmc_families, st.integers(1, 8), st.integers(0, 10**6), st.integers(1, 3),
       st.one_of(st.none(), st.integers(1, 7)), st.integers(0, 4))
def test_enumerate_gmc_matches_per_triple_reference(family, n, seed, max_x, max_y, max_z):
    g = family(random.Random(seed), n)
    assert enumerate_gmc(g, max_x, max_y, max_z) == \
        helpers.enumerate_gmc_ref(g, max_x, max_y, max_z)


@pytest.mark.parametrize("make", [helpers.quad_bidirected, helpers.bidirected_block,
                                  functools.partial(helpers.cycle_graph, 6)])
def test_enumerate_gmc_on_directed_cycles_matches_reference(make):
    g = make()
    assert g.has_directed_cycle()
    for bounds in [(2, None, 3), (1, 2, 1), (3, 1, 4)]:
        assert enumerate_gmc(g, *bounds) == helpers.enumerate_gmc_ref(g, *bounds)


@settings(max_examples=40, deadline=None)
@given(gmc_families, st.integers(1, 8), st.integers(0, 10**6))
def test_enumerate_gmc_statements_equal_their_checked_construction(family, n, seed):
    for s in enumerate_gmc(family(random.Random(seed), n)):
        checked = IndependenceStatement(s.x, s.y, s.z)
        assert checked == s and hash(checked) == hash(s)
        assert (checked.x, checked.y, checked.z) == (s.x, s.y, s.z)
        assert str(checked) == str(s) and checked.to_json_dict() == s.to_json_dict()


def test_enumerate_gmc_names_sides_by_name_not_node_order():
    # Props sort before super-nodes, so "~z" comes before "{a,b}" in node
    # order but after it by name.
    got = enumerate_gmc(MixedGraph([prop_node("c"), prop_node("~z"), super_node(["a", "b"])]))
    assert len(got) == 9
    assert {"c _||_ {a,b},~z", "c _||_ ~z | {a,b}", "c,{a,b} _||_ ~z"} <= stmt_strs(got)
    assert got == {IndependenceStatement(s.x, s.y, s.z) for s in got}


@settings(max_examples=60, deadline=None)
@given(graph_families, st.integers(2, 7), st.integers(0, 10**6))
def test_gmc_implies_matches_gma_separation(family, n, seed):
    rng = random.Random(seed)
    g = family(rng, n)
    nodes = list(g.nodes)
    for _ in range(20):
        rng.shuffle(nodes)
        size = rng.randint(2, n)
        cut_x = rng.randint(1, size - 1)
        cut_z = rng.randint(cut_x, size - 1)
        x, z, y = nodes[:cut_x], nodes[cut_x:cut_z], nodes[cut_z:size]
        want = helpers.separated_ref(helpers.gma_ref(g, x, z, y), x, z, y)
        assert gmc_implies(g, x, z, y) == g.gma(x, z, y).separates(x, z, y) == want


# ---------------------------------------------------------------------------
# Weak descendants and the strict/weak split

def test_weak_descendants_golden():
    ep = helpers.quad_chain_tail()
    assert {n.name for n in weak_descendants(ep, "B")} == {"E"}
    assert {n.name for n in weak_descendants(ep, "C")} == set()


def test_weak_descendants_require_chain_graph():
    with pytest.raises(GraphError, match="chain graphs"):
        weak_descendants(helpers.quad_bidirected(), "B")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_strict_weak_descendant_split(seed):
    # Complement identity: non-strict-descendants = non-descendants plus
    # weak descendants, and the strict/weak sets never overlap.
    rng = random.Random(seed)
    g = helpers.random_chain_graph(rng, rng.randint(2, 7))
    nodes = frozenset(g.nodes)
    for a in g.nodes:
        de = g.descendants(a)
        sde = g.strict_descendants(a)
        wde = weak_descendants(g, a)
        assert sde <= de
        assert wde == de - sde
        assert nodes - sde == (nodes - de) | wde
        assert not (sde & wde)


# ---------------------------------------------------------------------------
# Decomposition, dispatch, comparison

def test_statement_decomposes_by_shrinking_one_side():
    strong = stmt("B", "C,E", "A,D")
    assert statement_decomposes(strong, stmt("B", "C", "A,D"))
    assert statement_decomposes(strong, stmt("B", "E", "A,D"))
    assert statement_decomposes(strong, strong)


def test_statement_decomposes_handles_canonical_swaps():
    # C,E _||_ B and B _||_ C are the same statements after
    # canonicalization even though x/y trade places.
    strong = IndependenceStatement(("C", "E"), ("B",), ("A", "D"))
    weak = IndependenceStatement(("C",), ("B",), ("A", "D"))
    assert statement_decomposes(strong, weak)


def test_statement_decomposes_rejects_mismatches():
    strong = stmt("B", "C,E", "A,D")
    assert not statement_decomposes(strong, stmt("B", "C", "A"))   # other z
    assert not statement_decomposes(strong, stmt("B", "F", "A,D"))  # not subset
    assert not statement_decomposes(strong, stmt("A", "C", ""))


def test_statements_for_dispatch():
    g = helpers.quad_mixed()
    assert statements_for(g, LMC_D) == local_statements(g, LMC_D)
    assert statements_for(g, GMC_C) == enumerate_gmc(g)
    with pytest.raises(GraphError, match="unknown condition"):
        statements_for(g, "nope")


def test_condition_constant_groups():
    assert set(LOCAL_CONDITIONS) == {LMC_LCN, LMC_C, LMC_CSTR, LMC_D}
    assert set(CONDITIONS) == set(LOCAL_CONDITIONS) | {GMC_C}


def test_compare_conditions_local_vs_global():
    g = helpers.quad_mixed()
    rep = compare_conditions(g, LMC_D, g, GMC_C)
    assert stmt_strs(rep.only_in_a) == {"A _||_ D | B,C", "B _||_ C | A,D"}
    assert stmt_strs(rep.only_in_b) == {"A _||_ C | B,D"}
    assert stmt_strs(rep.shared) == {"A _||_ C"}
    assert [s.sort_key for s in rep.only_in_a] == sorted(
        s.sort_key for s in rep.only_in_a
    )


def test_compare_conditions_same_sets():
    e = helpers.quad_chain()
    rep = compare_conditions(e, LMC_C, e, LMC_CSTR)
    assert rep.only_in_a == () and rep.only_in_b == ()
    assert len(rep.shared) == 3


# ---------------------------------------------------------------------------
# Dependency-graph/structure correspondence at module scale

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_lmc_lcn_matches_lmc_cstr_on_structure(seed):
    lcn = helpers.random_lcn(random.Random(seed))
    dep = dependency_graph(lcn)
    assert local_statements(dep, LMC_LCN) == local_statements(
        structure(lcn), LMC_CSTR
    )
