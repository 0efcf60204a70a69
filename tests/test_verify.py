"""Tests for the certificate layer: reduction bounds, the named certificates,
the finite lemma oracles, and self-checking report plumbing."""

import json
from fractions import Fraction
from itertools import combinations

import pytest

from edgestat.dist import bernoulli_value_dist, binmax
from edgestat.errors import InputError
from edgestat.gm import enumerate_gm
from edgestat.poly import parse_poly
from edgestat.report import check, report_from_json, reverify
from edgestat.verify import (
    LEMMA_SUITES,
    antichain_expectation_check,
    blym_check,
    check_better34_inequalities,
    default_grid,
    elo_max,
    large_linear_part_check,
    optimize_p,
    reduction_bound,
    star_zero_probability_search,
    suite_antichain_expectation,
    suite_blym,
    suite_elo,
    suite_large_linear_part,
    suite_product_slice,
    suite_reduction_spot,
    verify_counts,
    verify_prop_027,
    verify_prop_033,
    verify_star_search,
    verify_table,
)

from helpers import member_profiles, reduction_bound_unpruned


# ---------------------------------------------------------------------------
# Check records and report round trips
# ---------------------------------------------------------------------------


def test_check_operators():
    assert check("a", Fraction(1, 3), "<", Fraction(1, 2)).ok
    assert not check("a", Fraction(1, 2), "<", Fraction(1, 3)).ok
    assert check("a", Fraction(2, 4), "==", Fraction(1, 2)).ok
    assert check("a", "n1|L1|E", "==s", "n1|L1|E").ok
    assert check("a", 0.5, "<=~", 0.5).ok
    with pytest.raises(InputError):
        check("a", Fraction(1), "!=", Fraction(2))


def test_report_round_trip_and_reverify():
    report = verify_prop_027()
    data = json.loads(report.to_json_str())
    loaded = report_from_json(data)
    assert loaded.passed
    assert loaded.checks == report.checks
    assert loaded.exact_values == report.exact_values
    assert reverify(data)


def test_tampered_report_is_rejected():
    data = verify_prop_027().to_json()
    flipped = json.loads(json.dumps(data))
    flipped["checks"][0]["ok"] = False
    with pytest.raises(InputError):
        report_from_json(flipped)
    # Keep the stored verdicts self-consistent but break a recorded value:
    # loading succeeds, re-running the comparisons does not.
    forged = json.loads(json.dumps(data))
    forged["checks"][0]["lhs"] = "99/100"
    assert not reverify(forged)
    with pytest.raises(InputError):
        report_from_json({"name": "incomplete"})


# ---------------------------------------------------------------------------
# Reduction bound
# ---------------------------------------------------------------------------


def test_reduction_bound_m2_by_hand():
    # G(2) holds x1, x1+x2, x1+x2+x1*x2 and x1+x1*x2; at p=1/2 the first
    # three all hit 1/2 at value 1, as does the binomial part.  The witness
    # tie-break lands on the smallest canonical key.
    rb = reduction_bound(2, Fraction(1, 2), 1)
    assert rb.bound == Fraction(1, 2)
    assert rb.binmax_part == Fraction(1, 2)
    assert rb.gm_part == Fraction(1, 2)
    assert rb.witness_key is not None
    assert rb.witness_key.text == "n1|L1|E"
    assert rb.witness_ell == 1


def test_reduction_bound_reference_points():
    assert reduction_bound(2, Fraction(2, 3), 2).bound == Fraction(4, 9)
    assert reduction_bound(3, Fraction(1, 2), 2).bound == Fraction(3, 8)


def test_reduction_bound_matches_direct_distribution_scan():
    # Independent route: full value distributions via the distribution
    # module instead of the cached weight profiles.
    p = Fraction(2, 5)
    family = enumerate_gm(3)
    best = Fraction(0)
    for g in family.members:
        dist = bernoulli_value_dist(g.poly, p)
        for value, prob in dist.probs.items():
            if value >= 1:
                best = max(best, prob)
    rb = reduction_bound(3, p, 1, family)
    assert rb.gm_part == best
    assert rb.bound == max(binmax(3, p), best)


def test_reduction_bound_input_validation():
    with pytest.raises(InputError):
        reduction_bound(3, Fraction(0), 1)
    with pytest.raises(InputError):
        reduction_bound(3, Fraction(1), 1)
    with pytest.raises(InputError):
        reduction_bound(3, Fraction(1, 2), 0)
    with pytest.raises(InputError):
        reduction_bound(3, Fraction(1, 2), 1, family=enumerate_gm(2))


def test_optimize_p_tie_breaks_to_larger_p():
    # m=2 has two exact minimizers of the bound; the reference table quotes
    # the larger one.
    assert reduction_bound(2, Fraction(1, 3), 2).bound == Fraction(4, 9)
    assert reduction_bound(2, Fraction(2, 3), 2).bound == Fraction(4, 9)
    p_star, bound = optimize_p(2, grid=[Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
    assert (p_star, bound) == (Fraction(2, 3), Fraction(4, 9))


def test_reduction_bound_equals_unpruned_oracle():
    # The pruned integer path against a Fraction loop over every value row.
    spots = {m: default_grid()[::7] + [Fraction(97, 250)] for m in (2, 3, 4)}
    spots[5] = [Fraction(1, 300), Fraction(1, 3), Fraction(1, 2), Fraction(97, 250), Fraction(299, 300)]
    for m, ps in spots.items():
        family = enumerate_gm(m)
        profiles = member_profiles(family)
        for ell_min in (1, 2):
            for p in ps:
                rb = reduction_bound(m, p, ell_min, family)
                got = (rb.bound, rb.gm_part, rb.witness_key, rb.witness_ell)
                assert got == reduction_bound_unpruned(family, profiles, p, ell_min), (m, p, ell_min)


def test_optimize_p_equals_unpruned_argmin():
    grid = default_grid()
    for m in (2, 3, 4):
        family = enumerate_gm(m)
        profiles = member_profiles(family)
        bounds = {p: reduction_bound_unpruned(family, profiles, p, 2)[0] for p in grid}
        least = min(bounds.values())
        p_star = max(p for p, bound in bounds.items() if bound == least)
        assert optimize_p(m, family=family) == (p_star, least)


def test_optimize_p_grid_validation():
    with pytest.raises(InputError):
        optimize_p(2, grid=[])
    with pytest.raises(InputError):
        optimize_p(2, grid=[Fraction(0), Fraction(1, 2)])


# ---------------------------------------------------------------------------
# Named certificates, exact values frozen
# ---------------------------------------------------------------------------


def test_prop033_certificate():
    report = verify_prop_033()
    assert report.passed
    assert report.exact_values["bound"] == Fraction(80, 243)
    assert report.exact_values["binmax_part"] == report.exact_values["family_part"]
    assert report.threshold == Fraction(3293, 10000)
    assert report.witness is not None
    assert report.witness["ell"] == 2
    assert report.witness["key"] == "n5|L1,2,3,4|E1-5,2-5,3-5,4-5"
    assert reverify(report.to_json())


def test_prop027_certificate():
    report = verify_prop_027()
    assert report.passed
    values = report.exact_values
    assert values["binmax8"] == Fraction(131718365836587982053, 488281250000000000000)
    assert values["expectation"] == Fraction(402783, 25000)
    assert values["markov"] == Fraction(134261, 500000)
    assert report.threshold == Fraction(27, 100)


def test_counts_certificate():
    report = verify_counts()
    assert report.passed
    assert report.exact_values["count_m5"] == 1653


def test_table_certificate_rows():
    report, rows = verify_table()
    assert report.passed
    assert [row["m"] for row in rows] == [2, 3, 4, 5]
    by_m = {row["m"]: row for row in rows}
    assert (by_m[2]["p_star"], by_m[2]["bound_exact"]) == ("2/3", "4/9")
    assert (by_m[3]["p_star"], by_m[3]["bound_exact"]) == ("1/2", "3/8")
    assert (by_m[4]["p_star"], by_m[4]["bound_exact"]) == ("2/5", "216/625")
    assert (by_m[5]["p_star"], by_m[5]["bound_exact"]) == ("1/3", "80/243")
    assert by_m[5]["bound_decimal"] == "0.3292181070"
    assert [by_m[m]["count"] for m in (2, 3, 4, 5)] == [4, 16, 99, 1653]


def test_better34_certificate():
    report = check_better34_inequalities()
    assert report.passed
    values = report.exact_values
    assert values["binmax2"] == Fraction(14841, 31250)
    assert values["binmaxplus_scan_max"] == Fraction(14841, 31250)
    assert values["combined"] == Fraction(1811979, 2500000)
    assert values["multipartite"] == Fraction(1159, 1600)
    assert values["two_layer_s3"] == Fraction(44523, 62500)
    assert values["two_layer_tail"] == Fraction(347412969, 488281250)


# ---------------------------------------------------------------------------
# Star-form zero-probability search
# ---------------------------------------------------------------------------


def test_star_search_two_vertices_by_hand():
    # On two vertices with ell=1 the candidates are 1-x1 (prob p),
    # 1-x1-x2 (prob 2pq) and (1-x1)(1-x2) (prob 1-q^2); the last wins.
    best, witness = star_zero_probability_search(max_vars=2, ell_values=(1,))
    assert best == Fraction(39091, 62500)
    assert witness.ell == 1
    assert witness.num_vars == 2
    assert witness.edges == ((0, 1),)
    assert witness.prob == best


def test_star_search_full_maximum_frozen():
    best, witness = star_zero_probability_search()
    assert best == Fraction(707307219, 976562500)
    assert witness.ell == 1
    assert witness.num_vars == 4
    assert set(witness.edges) == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_verify_star_search_report():
    report = verify_star_search()
    assert report.passed
    assert report.exact_values["max_zero_probability"] == Fraction(707307219, 976562500)
    assert report.threshold == Fraction(29, 40)
    assert report.witness["edges"] == [[1, 3], [1, 4], [2, 3], [2, 4]]


def test_star_search_input_validation():
    with pytest.raises(InputError):
        star_zero_probability_search(max_vars=6)
    with pytest.raises(InputError):
        star_zero_probability_search(ell_values=(0,))
    with pytest.raises(InputError):
        star_zero_probability_search(ell_values=(5,))


# ---------------------------------------------------------------------------
# Finite lemma oracles
# ---------------------------------------------------------------------------


def test_blym_examples():
    total, ok = blym_check(4, list(combinations(range(4), 2)))
    assert total == 1 and ok
    total, ok = blym_check(3, [{0}, {1, 2}])
    assert total == Fraction(2, 3) and ok
    total, ok = blym_check(3, [])
    assert total == 0 and ok
    with pytest.raises(InputError):
        blym_check(3, [{0}, {0, 1}])
    with pytest.raises(InputError):
        blym_check(2, [{5}])
    with pytest.raises(InputError):
        blym_check(3, [{0}, {0}])


def test_antichain_expectation_examples():
    lhs, _, ok = antichain_expectation_check(5, {}, Fraction(1, 5))
    assert lhs == 0 and ok
    singles = {frozenset([i]): Fraction(1) for i in range(10)}
    lhs, _, ok = antichain_expectation_check(10, singles, Fraction(1, 10))
    assert lhs == Fraction(9**9, 10**9) and ok
    middle = {frozenset(c): Fraction(1) for c in combinations(range(4), 2)}
    lhs, rhs, ok = antichain_expectation_check(4, middle, Fraction(1, 4))
    assert lhs == Fraction(27, 128) and ok
    assert rhs == pytest.approx(4 / (2.718281828459045**2 * 2) + 0.25, abs=1e-9)


def test_antichain_expectation_validation():
    chain = {frozenset([0]): Fraction(1), frozenset([0, 1]): Fraction(1, 2)}
    with pytest.raises(InputError):
        antichain_expectation_check(4, chain, Fraction(1, 4))
    with pytest.raises(InputError):
        antichain_expectation_check(4, {frozenset([0]): Fraction(2)}, Fraction(1, 4))
    with pytest.raises(InputError):
        antichain_expectation_check(21, {}, Fraction(1, 4))


def test_elo_examples():
    assert elo_max([1, 1]) == (Fraction(1, 2), Fraction(1, 2), True)
    max_prob, bound, ok = elo_max([1, 2, 4])
    assert (max_prob, bound, ok) == (Fraction(1, 8), Fraction(3, 8), True)
    max_prob, bound, ok = elo_max([1, 1, 1, 1])
    assert max_prob == bound == Fraction(3, 8) and ok
    with pytest.raises(InputError):
        elo_max([1, 0, 2])
    with pytest.raises(InputError):
        elo_max([])


def test_large_linear_part_examples():
    pure = parse_poly("x1+x2+x3+x4+x5")
    prob, bound, ok = large_linear_part_check(pure, 5, Fraction(1, 3), 2)
    assert prob == bound == Fraction(80, 243) and ok
    mixed = parse_poly("x1+x2+x1*x2")
    prob, bound, ok = large_linear_part_check(mixed, 2, Fraction(1, 2), 3)
    assert prob == Fraction(1, 4) and bound == Fraction(1, 2) and ok
    prob, _, ok = large_linear_part_check(mixed, 2, Fraction(1, 2), 5)
    assert prob == 0 and ok


def test_large_linear_part_validation():
    with pytest.raises(InputError):
        large_linear_part_check(parse_poly("x1-x2"), 1, Fraction(1, 2), 1)
    with pytest.raises(InputError):
        large_linear_part_check(parse_poly("x1+x1*x2"), 2, Fraction(1, 2), 1)


# ---------------------------------------------------------------------------
# Seeded suites
# ---------------------------------------------------------------------------


def test_lemma_suites_report_no_violations_on_small_runs():
    assert suite_blym(7, 50) == 0
    assert suite_antichain_expectation(7, 50) == 0
    assert suite_elo(7, 50) == 0
    assert suite_product_slice(7, 25) == 0
    assert suite_large_linear_part(7, 50) == 0
    assert suite_reduction_spot(7, 25) == 0


def test_lemma_suite_registry_is_complete():
    assert set(LEMMA_SUITES) == {
        "blym",
        "antichain_expectation",
        "elo",
        "poisson_tv",
        "product_slice_tv",
        "large_linear_part",
        "reduction_spot",
    }
