"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line.  Run `pytest tests/test_acceptance.py -v -s` to watch the
lines appear as the criteria execute.
"""

import random
import time

import helpers
from helpers import stmt, und, und_names, dir_names
from lcn.build import dependency_graph, mixed_structure, structure
from lcn.factorize import (
    condense_cycles,
    factorization_plan,
    prune_hard_constraints,
)
from lcn.markov import (
    LMC_C,
    LMC_CSTR,
    LMC_D,
    LMC_LCN,
    IndependenceStatement,
    enumerate_gmc,
    gmc_implies,
    local_statements,
    statement_decomposes,
)
from lcn.model import parse_lcn
from lcn.oracle import (
    check_independence,
    sample_chain_factorized,
    sample_positive_table,
)


def _gate(num: int, description: str, check) -> None:
    try:
        ok = bool(check())
        detail = ""
    except Exception as exc:
        ok = False
        detail = f" ({type(exc).__name__}: {exc})"
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}{detail}")
    assert ok, f"criterion {num}: {description}{detail}"


def test_criterion_01_moral_graph_goldens():
    def check():
        t0 = time.perf_counter()
        assert und_names(helpers.quad_dag().moral_graph()) == und("AB", "CD", "BD", "BC")
        assert und_names(helpers.quad_bidirected().moral_graph()) == \
            und("AB", "CD", "BD", "AD", "BC")
        assert und_names(helpers.quad_undirected().moral_graph()) == und("AB", "CD", "BD")
        assert und_names(helpers.quad_mixed().moral_graph()) == \
            und("AB", "CD", "BD", "AD", "BC")
        assert und_names(helpers.quad_chain().moral_graph()) == \
            und("AB", "CD", "BD", "AC")
        for g in (helpers.quad_dag(), helpers.quad_bidirected(), helpers.quad_undirected(),
                  helpers.quad_mixed(), helpers.quad_chain()):
            assert not g.moral_graph().directed
        return time.perf_counter() - t0 < 1.0

    _gate(1, "moral graphs of the five four-node examples match "
             "frozen goldens in under 1 s", check)


def test_criterion_02_mixed_local_condition_and_global_queries():
    def check():
        g = helpers.quad_mixed()
        expected = {stmt("A", "C"), stmt("B", "C", "A,D"), stmt("A", "D", "B,C")}
        assert local_statements(g, LMC_D) == expected
        assert gmc_implies(g, {"A"}, set(), {"C"})
        assert gmc_implies(g, {"A"}, {"B", "D"}, {"C"})
        assert not gmc_implies(g, {"B"}, {"A", "D"}, {"C"})
        assert not gmc_implies(g, {"A"}, {"B", "C"}, {"D"})
        return True

    _gate(2, "partially directed four-node example: directed-style local "
             "statements and global separation queries", check)


def test_criterion_03_directed_cycle_statements():
    def check():
        k = 6
        model = helpers.load_fixture("cycle6.lcn")
        dep = dependency_graph(model)
        s = structure(model)
        assert local_statements(dep, LMC_LCN) == frozenset()
        assert local_statements(s, LMC_D) == frozenset()
        assert local_statements(mixed_structure(model), LMC_D) == frozenset()
        assert gmc_implies(s, {"A1"}, {"A2", "A6"}, {"A3", "A4", "A5"})
        for i in range(3, k - 2):
            rest = {f"A{j}" for j in range(1, k + 1)} - {f"A{i - 1}",
                                                         f"A{i}", f"A{i + 1}"}
            assert gmc_implies(s, {f"A{i}"}, {f"A{i - 1}", f"A{i + 1}"}, rest)
        return True

    _gate(3, "six-cycle model: no local statements, yet cutting a node's "
             "two neighbours separates it globally", check)


def test_criterion_04_smokers_pipeline():
    def check():
        smokers = helpers.load_fixture("smokers.lcn")
        s = structure(smokers)
        assert dir_names(s) == {
            ("F1", "S1"), ("F1", "S2"), ("F2", "S2"), ("F2", "S3"),
            ("F3", "S1"), ("F3", "S3"),
            ("S1", "C1"), ("S2", "C2"), ("S3", "C3"),
        }
        assert und_names(s) == {
            frozenset({"F1", "F2"}), frozenset({"F1", "F3"}),
            frozenset({"F2", "F3"}),
            frozenset({"S1", "S2"}), frozenset({"S1", "S3"}),
            frozenset({"S2", "S3"}),
        }
        components = {frozenset(n.name for n in c) for c in s.chain_components()}
        assert components == {
            frozenset({"F1", "F2", "F3"}), frozenset({"S1", "S2", "S3"}),
            frozenset({"C1"}), frozenset({"C2"}), frozenset({"C3"}),
        }
        plan = factorization_plan(s)
        assert len(plan.factors) == 5
        assert plan.expression == (
            "P(F1,F2,F3) * P(S1,S2,S3 | F1,F2,F3) * "
            "P(C1 | S1) * P(C2 | S2) * P(C3 | S3)"
        )
        variant = factorization_plan(
            structure(helpers.load_fixture("smokers_variant.lcn")))
        first = variant.factors[0]
        assert [tuple(n.name for n in c) for c in first.cliques] == \
            [("F1", "F2"), ("F2", "F3")]
        assert variant.expression == plan.expression
        return True

    _gate(4, "smokers pipeline: structure edges, chain components, "
             "five-factor plan, and the chained-variant clique split", check)


def test_criterion_05_dependency_graph_condition_matches_structure():
    def check():
        t0 = time.perf_counter()
        for seed in range(200):
            model = helpers.random_lcn(random.Random(seed))
            left = local_statements(dependency_graph(model), LMC_LCN)
            right = local_statements(structure(model), LMC_CSTR)
            assert left == right, f"seed {seed}"
        return time.perf_counter() - t0 < 30.0

    _gate(5, "dependency-graph local condition equals the strict structure "
             "condition on 200 random models in under 30 s", check)


def test_criterion_06_chain_graph_suite():
    def check():
        for seed in range(100):
            model = helpers.random_chain_lcn(random.Random(seed))
            g = structure(model)
            assert g.is_chain_graph(), f"seed {seed}"

            strict = local_statements(g, LMC_CSTR)
            for s in strict:
                assert gmc_implies(g, s.x, s.z, s.y), f"seed {seed}: {s}"
            for s in local_statements(g, LMC_C):
                assert any(statement_decomposes(k, s) for k in strict), \
                    f"seed {seed}: {s}"

            table = sample_chain_factorized(g, factorization_plan(g), seed)
            for s in local_statements(dependency_graph(model), LMC_LCN):
                res = check_independence(table, s, tol=1e-7)
                assert res.holds, f"seed {seed}: {s} off by {res.max_deviation}"
        return True

    _gate(6, "100 random chain-graph models: strict statements hold "
             "globally, plain ones decompose from them, and factorized "
             "samples satisfy the dependency-graph condition", check)


def test_criterion_07_mixed_structure_goldens():
    def check():
        ga = mixed_structure(helpers.load_fixture("undirected_block.lcn"))
        assert dir_names(ga) == {("a", "b"), ("e", "d")}
        assert und_names(ga) == {frozenset({"b", "c"}), frozenset({"c", "d"})}

        gb = mixed_structure(helpers.load_fixture("bidirected_block.lcn"))
        assert dir_names(gb) == {
            ("a", "b"), ("e", "d"),
            ("b", "c"), ("c", "b"), ("c", "d"), ("d", "c"),
        }
        assert not gb.undirected

        sa = stmt("a,b", "d", "c,e")
        sb = stmt("a,b", "e", "c,d")
        from_a = enumerate_gmc(ga)
        from_b = enumerate_gmc(gb)
        assert sa in from_a and sb not in from_a
        assert sb in from_b and sa not in from_b
        return True

    _gate(7, "five-node undirected vs bi-directed variants: exact mixed "
             "structures and their distinguishing global statements", check)


def test_criterion_08_oracle_cross_validation():
    def check():
        rng = random.Random(2026)
        for _ in range(500):
            n = rng.randint(2, 7)
            g = helpers.random_undirected_graph(rng, n)
            names = sorted(node.name for node in g.nodes)
            rng.shuffle(names)
            a = rng.randint(1, n - 1)
            c = rng.randint(1, n - a)
            b = rng.randint(0, n - a - c)
            s1, s3, s2 = names[:a], names[a:a + c], names[a + c:a + c + b]
            assert g.separates(s1, s2, s3) == \
                helpers.separation_bruteforce(g, s1, s2, s3)

        rng = random.Random(77)
        for case in range(100):
            k = rng.randint(2, 4)
            names = [f"P{i}" for i in range(k)]
            x, y = rng.sample(names, 2)
            z = tuple(sorted(nm for nm in names
                             if nm not in (x, y) and rng.random() < 0.5))
            statement = IndependenceStatement((x,), (y,), z)
            if case % 2 == 0:
                table = helpers.conditional_product_table(rng, names, x, y, z)
            else:
                table = sample_positive_table(tuple(names), seed=case)
            res = check_independence(table, statement)
            assert res.holds == (helpers.cmi(table, statement) <= 1e-9), \
                f"case {case}: deviation {res.max_deviation}"
        return True

    _gate(8, "separation agrees with brute-force path search on 500 graphs; "
             "independence checks agree with conditional mutual information "
             "on 100 tables", check)


def test_criterion_09_hard_disjunction_pruning():
    def check():
        model = parse_lcn("U: 1 <= P(A | B) <= 1\n")
        report = prune_hard_constraints(model, factorization_plan(structure(model)))
        assert not report.errors
        [cc] = report.cliques
        assert cc.clique == ("A", "B")
        assert cc.removed == 1
        assert (0, 0) not in cc.configurations
        assert set(cc.configurations) == {(1, 0), (0, 1), (1, 1)}
        return True

    _gate(9, "an always-true disjunction prunes exactly the all-false "
             "clique configuration", check)


def test_criterion_10_cycle_condensation():
    def check():
        rng = random.Random(10)
        for _ in range(200):
            g = helpers.random_mixed_graph(rng, rng.randint(1, 10))
            condensed, _ = condense_cycles(g)
            assert not helpers.naive_directed_cycle(condensed)

        g, mapping = condense_cycles(
            mixed_structure(helpers.load_fixture("bidirected_block.lcn")))
        super_ = next(n for n in g.nodes if n.kind == "super")
        assert super_.members == frozenset({"b", "c", "d"})
        assert dir_names(g) == {("a", super_.name), ("e", super_.name)}
        assert not g.undirected
        return True

    _gate(10, "condensation always yields an acyclic graph and collapses "
              "the bi-directed block into one super-node fed by its two "
              "parents", check)
