"""Exact subset-sum sets and exhaustive cover verifiers for finite abelian groups."""

import json
from importlib import import_module

__version__ = "0.1.0"


def dumps(payload) -> str:
    """Canonical JSON rendering; parsing and re-rendering is byte-identical."""
    return json.dumps(payload, indent=2, sort_keys=True)


# Each public name and the module it lives in.  A module is imported when one
# of its names is first asked for (PEP 562), so a CLI call compiles only the
# modules its command runs.
_HOMES = {name: module for module, names in (
    ("groups", "AbelianGroup GroupSpecError GroupSubset enumerate_groups_of_order "
               "invariant_factors is_generating parse_group_spec subgroup_generated torsion_two"),
    ("subsets", "h_hat naive_subset_sums pair_cover sigma"),
    ("constructions", "ConstructionError even_counterexample near_tight_construction tight_example "
                      "two_mod_four_counterexample"),
    ("verify", "REFUTED VACUOUS VERIFIED BudgetExceededError Verdict critical_number "
               "search_lemma2_counterexamples sweep verify_pair_cover_threshold "
               "verify_subset_sum_bound verify_three_fold_cover"),
) for name in names.split()}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
