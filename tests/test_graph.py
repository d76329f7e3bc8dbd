import functools
import importlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    chain_descendants_ref,
    chain_strict_descendants_ref,
    cycle_graph,
    dir_names,
    quad_dag,
    quad_bidirected,
    quad_undirected,
    quad_mixed,
    quad_chain,
    quad_chain_tail,
    naive_directed_cycle,
    random_chain_graph,
    random_mixed_graph,
    und,
    und_names,
)
import lcn
from lcn.errors import GraphError
from lcn.formula import And, Prop, parse_formula
from lcn.graph import MixedGraph, prop_node, super_node, to_dot, to_json_dict
from lcn.markov import weak_descendants
from lcn.model import parse_lcn


def names(nodes) -> set[str]:
    return {n.name for n in nodes}


# ---------------------------------------------------------------------------
# Nodes

def test_node_kinds_and_identity():
    a = prop_node("A")
    assert a.kind == "prop" and a.name == "A"
    assert a == prop_node("A")
    assert hash(a) == hash(prop_node("A"))

    f1 = helpers.formula_node(parse_formula("A & B"))
    f2 = helpers.formula_node(parse_formula("B & A"))
    assert f1 == f2  # same meaning, one node
    assert f1.name == "A & B"  # display keeps the first rendering
    assert f1 != helpers.formula_node(parse_formula("A | B"))

    s = super_node(["B", "D", "C"])
    assert s.name == "{B,C,D}"
    assert s == super_node(["D", "C", "B"])


def test_node_sort_order():
    p = prop_node("Z")
    s = super_node(["A"])
    f = helpers.formula_node(And(Prop("A"), Prop("B")))
    assert sorted([f, s, p]) == [p, s, f]  # props < supers < formulas


def test_invalid_nodes():
    from lcn.graph import Node
    with pytest.raises(GraphError):
        Node("mystery", "A")
    with pytest.raises(GraphError):
        Node("formula", "A")  # no key
    with pytest.raises(GraphError):
        Node("super", "{}", members=frozenset())


# ---------------------------------------------------------------------------
# Construction and basic queries

def test_graph_rejects_bad_edges():
    a, b = prop_node("A"), prop_node("B")
    with pytest.raises(GraphError, match="self-loop"):
        MixedGraph([a, b], [(a, a)])
    with pytest.raises(GraphError, match="not in graph"):
        MixedGraph([a], [(a, b)])
    with pytest.raises(GraphError, match="not declared"):
        MixedGraph.from_props("A", [("A", "B")])


def test_from_props_reads_one_shot_iterators():
    g = MixedGraph.from_props(iter("ABC"), iter([("A", "B")]), iter([("B", "C")]))
    assert g == MixedGraph.from_props("ABC", [("A", "B")], [("B", "C")])
    assert names(g.children("A")) == {"B"} and names(g.neighbors("B")) == {"C"}
    with pytest.raises(GraphError, match="edge endpoint 'D' not declared"):
        MixedGraph.from_props("ABC", iter([("A", "B")]), iter([("C", "D")]))


def test_duplicate_edges_collapse():
    g = MixedGraph.from_props("AB", [("A", "B"), ("A", "B")], [("A", "B"), ("B", "A")])
    assert len(g.directed) == 1
    assert len(g.undirected) == 1


def test_parents_of_b_across_quad_variants():
    assert names(quad_dag().parents("B")) == {"A"}
    assert names(quad_bidirected().parents("B")) == {"A", "D"}
    assert names(quad_undirected().parents("B")) == set()
    assert names(quad_mixed().parents("B")) == {"A", "D"}
    assert names(quad_chain().parents("B")) == {"A"}


def test_children_neighbors_boundary():
    g = quad_chain()
    assert names(g.children("A")) == {"B"}
    assert names(g.neighbors("B")) == {"D"}
    assert names(g.boundary("B")) == {"A", "D"}
    assert names(g.boundary_of_set({"B", "D"})) == {"A", "C"}
    assert names(g.boundary_of_set({"A"})) == set()


def test_resolution():
    g = quad_dag()
    assert g.resolve("A") == prop_node("A")
    assert "A" in g and prop_node("A") in g
    assert "Z" not in g
    with pytest.raises(GraphError, match="unknown node"):
        g.resolve("Z")


def test_graph_equality_ignores_construction_order():
    g1 = MixedGraph.from_props("AB", [("A", "B")])
    g2 = MixedGraph.from_props("BA", [("A", "B")])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != MixedGraph.from_props("AB", [], [("A", "B")])


# ---------------------------------------------------------------------------
# Edge views and derived graphs

GRAPH_FAMILIES = [random_chain_graph, random_mixed_graph, helpers.random_mixed_kinds_graph]


def _dot_quote_ref(s: str) -> str:
    keyword = s.lower() in ("node", "edge", "graph", "digraph", "subgraph", "strict")
    return s if s.isidentifier() and not keyword else '"' + s.replace('"', '\\"') + '"'


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(GRAPH_FAMILIES), st.integers(1, 9), st.integers(0, 10**6))
def test_edge_views_rebuild_the_graph(family, n, seed):
    rng = random.Random(seed)
    g = family(rng, n)
    rebuilt = MixedGraph(g.nodes, g.directed, g.undirected)
    assert rebuilt == g and hash(rebuilt) == hash(g)
    assert all(a.sort_key < b.sort_key for a, b in g.undirected)

    # DOT lists each edge kind sorted by its endpoints' sort keys.
    ids = {node: entry["id"] for node, entry in zip(g.nodes, to_json_dict(g)["nodes"])}
    order = lambda edges: sorted(edges, key=lambda e: (e[0].sort_key, e[1].sort_key))
    link = " -- " if not g.directed else " -> "
    tail = ";" if not g.directed else " [dir=none];"
    expected = [f"  {_dot_quote_ref(ids[a])} -> {_dot_quote_ref(ids[b])};"
                for a, b in order(g.directed)]
    expected += [f"  {_dot_quote_ref(ids[a])}{link}{_dot_quote_ref(ids[b])}{tail}"
                 for a, b in order(g.undirected)]
    assert to_dot(g).splitlines()[1 + len(g.nodes):-1] == expected

    keep = set(rng.sample(g.nodes, rng.randint(0, n)))
    assert g.induced_subgraph(keep) == MixedGraph(
        keep,
        [(a, b) for a, b in g.directed if a in keep and b in keep],
        [(a, b) for a, b in g.undirected if a in keep and b in keep],
    )


# ---------------------------------------------------------------------------
# Ancestral sets and chain components

def test_smallest_ancestral_set():
    g = quad_chain()
    assert names(g.smallest_ancestral_set({"A"})) == {"A"}
    assert names(g.smallest_ancestral_set({"B"})) == {"A", "B", "C", "D"}
    assert names(quad_dag().smallest_ancestral_set({"B"})) == {"A", "B"}
    assert names(quad_mixed().smallest_ancestral_set({"A", "C"})) == {"A", "C"}


def test_chain_components():
    assert [names(c) for c in quad_chain().chain_components()] == [{"A"}, {"B", "D"}, {"C"}]
    assert [names(c) for c in quad_bidirected().chain_components()] == [{"A"}, {"B"}, {"C"}, {"D"}]
    assert [names(c) for c in quad_undirected().chain_components()] == [{"A", "B", "C", "D"}]


# ---------------------------------------------------------------------------
# Cycles

def test_directed_cycles_across_quad_variants():
    assert not quad_dag().has_directed_cycle()
    assert quad_bidirected().has_directed_cycle()       # bi-directed pair is a cycle
    assert not quad_undirected().has_directed_cycle()
    assert quad_mixed().has_directed_cycle()
    assert not quad_chain().has_directed_cycle()
    assert quad_dag().is_chain_graph()
    assert not quad_mixed().is_chain_graph()


def test_mixed_pair_is_a_cycle():
    g = MixedGraph.from_props("AB", [("A", "B")], [("A", "B")])
    assert g.has_directed_cycle()


def test_undirected_cycle_is_not_directed():
    g = MixedGraph.from_props("ABC", [], [("A", "B"), ("B", "C"), ("C", "A")])
    assert not g.has_directed_cycle()


def test_long_mixed_cycle():
    g = MixedGraph.from_props(
        "ABC", [("A", "B")], [("B", "C"), ("C", "A")])
    assert g.has_directed_cycle()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 7))
def test_cycle_detection_matches_naive_search(seed, n):
    g = random_mixed_graph(random.Random(seed), n)
    assert g.has_directed_cycle() == naive_directed_cycle(g)


def test_step_components_are_computed_once():
    g = quad_mixed()
    roots = g._step_components()
    assert g._step_components() is roots
    assert g.has_directed_cycle()
    assert g._step_components() is roots


# ---------------------------------------------------------------------------
# Descendants

def test_descendants_quad_chain():
    g = quad_chain()
    assert names(g.descendants("A")) == {"B", "D"}
    assert names(g.descendants("C")) == {"B", "D"}
    assert names(g.descendants("B")) == set()


def test_descendants_need_a_directed_edge_on_a_simple_path():
    # Walk-based shortcuts would wrongly reach B via A -> C ~ A ~ B.
    g = MixedGraph.from_props("ABC", [("A", "C")], [("C", "A"), ("A", "B")])
    assert names(g.descendants("A")) == {"C"}
    assert names(g.descendants("B")) == {"C"}
    assert g.has_directed_cycle()


def test_strict_descendants_block_boundary_interiors():
    g = quad_chain_tail()
    assert names(g.descendants("B")) == {"E"}
    assert names(g.strict_descendants("B")) == set()
    assert names(g.strict_descendants("C")) == {"B", "D", "E"}
    # The boundary may still end a path, just not continue one.
    h = MixedGraph.from_props("ABC", [("A", "B"), ("B", "C"), ("A", "C")])
    assert names(h.strict_descendants("A")) == {"B", "C"}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8))
def test_chain_graph_descendants_match_component_reference(seed, n):
    g = random_chain_graph(random.Random(seed), n)
    for node in g.nodes:
        assert g.descendants(node) == frozenset(chain_descendants_ref(g, node))
        assert g.strict_descendants(node) == frozenset(
            chain_strict_descendants_ref(g, node))



@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8),
       st.sampled_from([random_chain_graph, random_mixed_graph,
                        functools.partial(random_mixed_graph, p_dir=0.3, p_und=0.3, p_bi=0.1),
                        # Dense undirected edges: long undirected prefixes.
                        functools.partial(random_mixed_graph, p_dir=0.05, p_und=0.4, p_bi=0.02),
                        helpers.random_overlapping_graph, helpers.random_mixed_kinds_graph]))
def test_descendants_match_simple_path_reference(seed, n, family):
    g = family(random.Random(seed), n)
    for node in g.nodes:
        de = helpers.directed_path_reach_ref(g, node)
        sde = helpers.directed_path_reach_ref(g, node, g.boundary(node))
        assert g.descendants(node) == de
        assert g.strict_descendants(node) == sde
        if g.is_chain_graph():
            assert weak_descendants(g, node) == de - sde


def test_path_search_stops_at_its_frame_budget(monkeypatch):
    # From X1 the search takes seven undirected prefixes:
    #   X1;
    #   X1 X4, where X4 -> X0 reaches X0, X2, X3 and covers the bound;
    #   X1 X2, whose bound still holds X4;
    #   X1 X2 X4 and X1 X2 X0, skipped by the bound inside the free nodes;
    #   X1 X0;
    #   X1 X0 X3, where X3 -> X2 reaches X4, and the search stops with
    #   X1 X0 X2 still on the stack.
    g = MixedGraph.from_props(["X0", "X1", "X2", "X3", "X4"], [("X3", "X2"), ("X4", "X0")],
                              [("X0", "X1"), ("X0", "X2"), ("X0", "X3"), ("X1", "X2"),
                               ("X1", "X4"), ("X2", "X4")])
    assert g._step_components()[1] == 0b11111
    monkeypatch.setattr(lcn.graph, "MAX_PATH_SEARCH_FRAMES", 7)
    assert names(g.descendants("X1")) == {"X0", "X2", "X3", "X4"}
    assert g.descendants("X1") == helpers.directed_path_reach_ref(g, "X1")
    monkeypatch.setattr(lcn.graph, "MAX_PATH_SEARCH_FRAMES", 6)
    with pytest.raises(GraphError, match="descendants of 'X1' in its 5-node cyclic step "
                                         "component exceeds the 6-frame budget"):
        g.descendants("X1")
    assert names(g.strict_descendants("X1")) == set()  # never searches


def test_descendants_cover_the_dense_cyclic_component():
    # One 16-node step component full of directed cycles: the search over
    # every simple path ran past the budget here; every node's first prefix
    # now reaches the other fifteen.
    g = random_mixed_graph(random.Random(16), 16, 0.2, 0.1, 0.05)
    everything = frozenset(g.nodes)
    assert all(component == 2**16 - 1 for component in g._step_components())
    for node in g.nodes:
        assert g.descendants(node) == everything - {node}


def test_long_directed_path_answers_at_the_default_recursion_limit():
    # A 1,500-node directed path N0 -> ... -> N1499 with one undirected edge
    # M ~ N0 at its head: from M every directed path leaves through N0,
    # which is in M's boundary, so all of M's descendants are weak.
    chain = [f"N{i}" for i in range(1500)]
    g = MixedGraph.from_props(["M"] + chain, list(zip(chain, chain[1:])), [("M", "N0")])
    tail = set(chain[1:])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert names(g.descendants("N0")) == tail
        assert names(g.strict_descendants("N0")) == tail
        assert weak_descendants(g, "N0") == frozenset()
        assert names(g.descendants("M")) == tail
        assert g.strict_descendants("M") == frozenset()
        assert names(weak_descendants(g, "M")) == tail
    finally:
        sys.setrecursionlimit(limit)

# ---------------------------------------------------------------------------
# Induced subgraphs and moralization

def test_induced_subgraph():
    g = quad_chain()
    h = g.induced_subgraph({"A", "B", "D"})
    assert dir_names(h) == {("A", "B")}
    assert und_names(h) == und("BD")
    with pytest.raises(GraphError):
        g.induced_subgraph({"A", "Z"})


def test_moral_golden_suite():
    assert und_names(quad_dag().moral_graph()) == und("AB", "CD", "BD", "BC")
    assert und_names(quad_bidirected().moral_graph()) == und("AB", "CD", "BD", "AD", "BC")
    assert und_names(quad_undirected().moral_graph()) == und("AB", "CD", "BD")
    assert und_names(quad_mixed().moral_graph()) == und("AB", "CD", "BD", "AD", "BC")
    assert und_names(quad_chain().moral_graph()) == und("AB", "CD", "BD", "AC")
    for g in (quad_dag(), quad_bidirected(), quad_undirected(), quad_mixed(), quad_chain()):
        assert not g.moral_graph().directed


def test_moral_graph_of_undirected_graph_is_unchanged():
    g = quad_undirected()
    assert g.moral_graph() == g


def test_moral_joins_co_parents_of_a_shared_component():
    # A and E point into the same chain component {B,C,D} of undirected_block,
    # so moralization marries them.
    assert und("AE") <= und_names(helpers.undirected_block().moral_graph())


# ---------------------------------------------------------------------------
# gma and separation

def test_gma_uses_the_ancestral_subgraph():
    g = quad_mixed()
    assert und_names(g.gma({"A"}, {"B", "D"}, {"C"})) == \
        und("AB", "CD", "BD", "AD", "BC")
    # Restricted to the ancestral set of {A, C}, the graph is empty.
    assert und_names(g.gma({"A"}, set(), {"C"})) == set()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(GRAPH_FAMILIES), st.integers(1, 8), st.integers(0, 10**6))
def test_moral_graph_and_gma_match_straight_line_reference(family, n, seed):
    rng = random.Random(seed)
    g = family(rng, n)
    assert g.moral_graph() == helpers.gma_ref(g, g.nodes, (), ())
    nodes = list(g.nodes)
    for _ in range(10):
        rng.shuffle(nodes)
        cut_1, cut_2, cut_3 = sorted(rng.randint(0, n) for _ in range(3))
        s1, s2, s3 = nodes[:cut_1], nodes[cut_1:cut_2], nodes[cut_2:cut_3]
        assert g.gma(s1, s2, s3) == helpers.gma_ref(g, s1, s2, s3)
        assert g.smallest_ancestral_set(s1) == frozenset(helpers.gma_ref(g, s1, (), ()).nodes)


def test_gma_rejects_overlapping_sets():
    with pytest.raises(GraphError, match="disjoint"):
        quad_mixed().gma({"A"}, {"A"}, {"C"})


def test_separates():
    path = MixedGraph.from_props("ABC", [], [("A", "B"), ("B", "C")])
    assert path.separates({"A"}, {"B"}, {"C"})
    assert not path.separates({"A"}, set(), {"C"})
    moral = quad_mixed().moral_graph()
    assert not moral.separates({"A"}, set(), {"C"})
    assert moral.separates({"A"}, {"B", "D"}, {"C"})
    with pytest.raises(GraphError, match="undirected"):
        quad_dag().separates({"A"}, set(), {"C"})



# The benchmark's tracer rebinds several of these methods by name, so
# removing or renaming one breaks traced runs as well as callers.
PUBLIC_GRAPH_METHODS = [
    "boundary", "boundary_of_set", "chain_components", "children", "descendants",
    "directed", "from_props", "gma", "has_directed_cycle", "induced_subgraph",
    "is_chain_graph", "moral_graph", "neighbors", "parents", "resolve", "resolve_set",
    "separates", "smallest_ancestral_set", "strict_descendants", "undirected",
]

PUBLIC_PACKAGE_NAMES = [
    "ComparisonReport", "Constraint", "FactorizationPlan", "Formula", "GMC_C",
    "GraphError", "IndependenceStatement", "JointTable", "LMC_C", "LMC_CSTR", "LMC_D",
    "LMC_LCN", "Lcn", "LcnError", "MixedGraph", "ModelError", "Node", "ParseError",
    "PruneReport", "build", "canonical_key", "check_constraint", "check_independence",
    "check_model", "compare_conditions", "component_dag", "cond_prob", "condense_cycles",
    "dependency_graph", "enumerate_gmc", "errors", "eval_formula", "factorization_plan",
    "factorize", "format_formula", "format_lcn", "formula", "gmc_implies", "graph",
    "lcn_descendants", "lcn_parents", "local_statements", "make_lcn", "markov",
    "mixed_structure", "model", "oracle", "parse_formula", "parse_lcn", "prob",
    "prop_node", "prune_hard_constraints", "sample_chain_factorized",
    "sample_positive_table", "semantically_equal",
    "statement_decomposes", "structure", "support", "to_dot", "to_json_dict",
    "validate", "weak_descendants",
]


def test_public_graph_surface_is_pinned():
    assert sorted(n for n in dir(MixedGraph) if not n.startswith("_")) == PUBLIC_GRAPH_METHODS
    assert sorted(lcn.__all__) == PUBLIC_PACKAGE_NAMES


def test_every_public_package_name_resolves():
    # `lcn` resolves its names lazily; each one is the object its module defines.
    star: dict = {}
    exec("from lcn import *", star)
    for name in lcn.__all__:
        home = lcn._HOME.get(name)
        expected = (importlib.import_module(f"lcn.{name}") if home is None
                    else getattr(importlib.import_module(f"lcn.{home}"), name))
        assert getattr(lcn, name) is expected
        assert star[name] is expected
    assert set(lcn.__all__) <= set(dir(lcn))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        lcn.nonexistent

# ---------------------------------------------------------------------------
# Serialization

def test_to_json_dict_shape():
    g = quad_chain()
    data = to_json_dict(g)
    assert {n["id"] for n in data["nodes"]} == {"A", "B", "C", "D"}
    assert all(n["kind"] == "prop" for n in data["nodes"])
    assert data["directed"] == [["A", "B"], ["C", "D"]]
    assert data["undirected"] == [["B", "D"]]


def test_to_json_dict_formula_ids():
    from lcn.build import dependency_graph
    data = to_json_dict(dependency_graph(helpers.load_fixture("smokers.lcn")))
    ids = [n["id"] for n in data["nodes"]]
    assert len(ids) == len(set(ids))
    formula_ids = [n["id"] for n in data["nodes"] if n["kind"] == "formula"]
    assert formula_ids and all(i.startswith("f") for i in formula_ids)
    labels = {n["label"] for n in data["nodes"] if n["kind"] == "formula"}
    assert "!S1" in labels


def test_to_dot_directed_and_mixed():
    text = to_dot(quad_chain())
    assert text.startswith("digraph G {")
    assert "A -> B;" in text
    assert "B -> D [dir=none];" in text
    assert to_dot(quad_chain()) == text  # deterministic


def test_to_dot_quotes_dot_keywords():
    # DOT keywords are case-insensitive; unquoted, `node;` is not a node statement.
    lcn = parse_lcn("U: P(node | Edge) = 0.5\nD: P(GRAPH given Strict & subgraph) = 0.2\n"
                    "U: P(digraph) = 0.1\nU: P(nodes) = 0.1\n")
    from lcn.build import structure
    lines = to_dot(structure(lcn)).splitlines()
    for name in ("node", "Edge", "GRAPH", "Strict", "subgraph", "digraph"):
        assert f'  "{name}";' in lines
    assert "  nodes;" in lines
    assert '  "Strict" -> "GRAPH";' in lines


def test_to_dot_pure_undirected():
    text = to_dot(quad_undirected())
    assert text.startswith("graph G {")
    assert "--" in text and "->" not in text


def test_to_dot_marks_formula_nodes():
    lcn = helpers.load_fixture("smokers.lcn")
    from lcn.build import dependency_graph
    text = to_dot(dependency_graph(lcn))
    assert "shape=box" in text
