"""Logical credal networks: constraint models over propositional formulas,
the graphs they induce, Markov conditions, chain-graph factorization plans,
and exact desk-scale probability checks.

Public names resolve on first use (PEP 562 module ``__getattr__``), so
``import lcn`` loads no submodule and a caller pays only for the layers it
touches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Each public submodule with the names the package re-exports from it.
_EXPORTS = {
    "build": ("dependency_graph", "lcn_descendants", "lcn_parents", "mixed_structure",
              "structure"),
    "errors": ("GraphError", "LcnError", "ModelError", "ParseError"),
    "factorize": ("FactorizationPlan", "PruneReport", "component_dag", "condense_cycles",
                  "factorization_plan", "prune_hard_constraints"),
    "formula": ("Formula", "canonical_key", "eval_formula", "format_formula", "parse_formula",
                "semantically_equal", "support"),
    "graph": ("MixedGraph", "Node", "prop_node", "to_dot", "to_json_dict"),
    "markov": ("GMC_C", "LMC_C", "LMC_CSTR", "LMC_D", "LMC_LCN", "ComparisonReport",
               "IndependenceStatement", "compare_conditions", "enumerate_gmc", "gmc_implies",
               "local_statements", "statement_decomposes", "weak_descendants"),
    "model": ("Constraint", "Lcn", "format_lcn", "make_lcn", "parse_lcn", "validate"),
    "oracle": ("JointTable", "check_constraint", "check_independence", "check_model",
               "cond_prob", "prob", "sample_chain_factorized", "sample_positive_table"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
