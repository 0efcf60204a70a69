"""Exact-arithmetic certificates for edge-count statistics of random vertex subsets."""

from .constructions import (
    HostGraph,
    MonotonicityScan,
    PartFamily,
    bipartite_family,
    blocker_with_buffer_family,
    build_host,
    clique_decomposition,
    clique_decomposition_bound,
    clique_union_family,
    crossed_clique_family,
    edge_count_dist,
    edge_polynomial,
    limit_probability,
    monotonicity_scan,
    poisson_reference,
    verify_goodman,
    verify_poisson_emergence,
)
from .dist import (
    SliceSpec,
    ValueDist,
    as_probability,
    as_rational,
    bernoulli_value_dist,
    binmax,
    binmaxplus,
    format_rational,
    parse_rational,
    point_probability,
    poisson_pmf,
    poisson_tv_check,
    product_slice_tv,
    slice_value_dist,
    tv_distance,
)
from .errors import InputError, ResourceLimitError
from .gm import GmFamily, StructureStats, enumerate_gm, max_structure_stats, var_bound
from .poly import (
    CanonicalKey,
    GPolynomial,
    MultilinearPoly,
    achievable_values,
    canonical_form,
    canonical_key,
    evaluate,
    format_poly,
    gm_membership,
    parse_poly,
    permute_variables,
    poly_from_json,
    poly_to_json,
    substitute,
    value_weight_counts,
    zero_poly,
)
from .report import CheckRecord, VerificationReport, check, report_from_json, reverify
from .verify import (
    ReductionBound,
    StarWitness,
    antichain_expectation_check,
    blym_check,
    check_better34_inequalities,
    elo_max,
    large_linear_part_check,
    optimize_p,
    reduction_bound,
    star_zero_probability_search,
    verify_counts,
    verify_lemmas,
    verify_prop_027,
    verify_prop_033,
    verify_star_search,
    verify_table,
)

__version__ = "0.1.0"
