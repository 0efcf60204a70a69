"""Exact-arithmetic certificates for edge-count statistics of random vertex subsets."""

from .constructions import (
    HostGraph,
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
    exp_enclosure,
    format_rational,
    point_probability,
    poisson_tv_check,
    product_slice_tv,
    slice_value_dist,
    tv_distance,
)
from .errors import InputError, ResourceLimitError
from .gm import GmFamily, enumerate_gm, var_bound
from .poly import (
    CanonicalKey,
    GPolynomial,
    MultilinearPoly,
    canonical_form,
    canonical_key,
    format_poly,
    gm_membership,
    parse_poly,
    poly_to_json,
    substitute,
    value_weight_counts,
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
