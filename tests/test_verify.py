"""Tests for the certificate layer: reduction bounds, the named certificates,
the finite lemma oracles, and self-checking report plumbing."""

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from edgestat import verify
from edgestat.dist import SliceSpec, ValueDist, bernoulli_value_dist, binmax
from edgestat.errors import InputError
from edgestat.gm import GmFamily, enumerate_gm, var_bound
from edgestat.poly import MultilinearPoly, parse_poly
from edgestat.report import check, report_from_json, reverify
from edgestat.verify import (
    DEFAULT_SUITE_SEED,
    GRID,
    LEMMA_SUITES,
    antichain_expectation_check,
    blym_check,
    check_better34_inequalities,
    elo_max,
    large_linear_part_check,
    optimize_p,
    reduction_bound,
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

from helpers import member_profiles, reduction_bound_unpruned, star_search_oracle


# ---------------------------------------------------------------------------
# Check records and report round trips
# ---------------------------------------------------------------------------


def test_check_operators():
    assert check("a", Fraction(1, 3), "<", Fraction(1, 2)).ok
    assert not check("a", Fraction(1, 2), "<", Fraction(1, 3)).ok
    assert check("a", Fraction(2, 4), "==", Fraction(1, 2)).ok
    assert check("a", "n1|L1|E", "==s", "n1|L1|E").ok
    with pytest.raises(InputError):
        check("a", 0.5, "<=~", 0.5)
    with pytest.raises(InputError):
        check("a", Fraction(1), "!=", Fraction(2))
    # 0.1 used to pass as the rounded double 3602879701896397/36028797018963968.
    for lhs, rhs in ((0.1, 1), (Fraction(1, 10), 0.5)):
        with pytest.raises(InputError):
            check("x", lhs, "<", rhs)
    assert check("x", "1/10", "<", 1).lhs == "1/10"


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
    # module instead of the family's value rows.
    p = Fraction(2, 5)
    family = enumerate_gm(3)
    best = Fraction(0)
    for key in family.keys:
        dist = bernoulli_value_dist(key.member, p)
        for value, prob in dist.probs.items():
            if value >= 1:
                best = max(best, prob)
    rb = reduction_bound(3, p, 1)
    assert rb.gm_part == best
    assert rb.bound == max(binmax(3, p), best)


def test_reduction_bound_input_validation(monkeypatch):
    with pytest.raises(InputError):
        reduction_bound(3, Fraction(0), 1)
    with pytest.raises(InputError):
        reduction_bound(3, Fraction(1), 1)
    with pytest.raises(InputError):
        reduction_bound(3, Fraction(1, 2), 0)
    for ell_min in (1.5, Fraction(3, 2)):
        with pytest.raises(InputError):
            reduction_bound(2, Fraction(1, 2), ell_min)

    # ell_min is checked before G(m) is enumerated.
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerate_gm ran before ell_min was checked")

    monkeypatch.setattr("edgestat.verify.enumerate_gm", no_enumeration)
    with pytest.raises(InputError):
        reduction_bound(5, Fraction(1, 3), 0)


def test_optimize_p_tie_breaks_to_larger_p():
    # m=2 has two exact minimizers of the bound; the reference table quotes
    # the larger one.
    assert reduction_bound(2, Fraction(1, 3), 2).bound == Fraction(4, 9)
    assert reduction_bound(2, Fraction(2, 3), 2).bound == Fraction(4, 9)
    p_star, bound = optimize_p(2)
    assert (p_star, bound) == (Fraction(2, 3), Fraction(4, 9))


def test_reduction_bound_equals_unpruned_oracle():
    # The pruned integer path against a Fraction loop over every value row.
    spots = {m: GRID[::7] + [Fraction(97, 250)] for m in (2, 3, 4)}
    spots[5] = [Fraction(1, 300), Fraction(1, 3), Fraction(1, 2), Fraction(97, 250), Fraction(299, 300)]
    for m, ps in spots.items():
        family = enumerate_gm(m)
        profiles = member_profiles(family)
        for ell_min in (1, 2):
            for p in ps:
                rb = reduction_bound(m, p, ell_min)
                got = (rb.bound, rb.gm_part, rb.witness_key, rb.witness_ell)
                assert got == reduction_bound_unpruned(family, profiles, p, ell_min), (m, p, ell_min)


def test_optimize_p_equals_unpruned_argmin():
    for m in (2, 3, 4):
        family = enumerate_gm(m)
        profiles = member_profiles(family)
        bounds = {p: reduction_bound_unpruned(family, profiles, p, 2)[0] for p in GRID}
        least = min(bounds.values())
        p_star = max(p for p, bound in bounds.items() if bound == least)
        assert optimize_p(m) == (p_star, least)


def test_value_rows_are_built_once_per_family():
    family = enumerate_gm(4)
    rows = family.value_rows
    assert family.value_rows is rows
    assert list(rows) == sorted(rows) and sum(map(len, rows.values())) == 30
    assert GmFamily(family.m, family.keys).value_rows == rows


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_value_rows_cover_every_member_and_weigh_its_law(m):
    # Lift each unlifted profile to N slots here: a free slot adds j ones in C(N - s, j) ways.
    family = enumerate_gm(m)
    rows, width = family.value_rows, var_bound(m)
    for key, profile in zip(family.keys, member_profiles(family)):
        free = width - key.code[0]
        for value, per_w in profile.items():
            lifted = [
                sum(c * math.comb(free, w - v) for v, c in per_w.items() if 0 <= w - v <= free)
                for w in range(width + 1)
            ]
            assert any(all(a <= b for a, b in zip(lifted, counts)) for counts, _ in rows[value]), (key, value)
    for p in (Fraction(1, 3), Fraction(1, 2), Fraction(97, 250)):
        for value, kept in rows.items():
            for counts, key in kept:
                mass = sum(c * p**w * (1 - p) ** (width - w) for w, c in enumerate(counts))
                assert mass == bernoulli_value_dist(key.member, p).prob(value), (p, key, value)


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
    report = verify_star_search(max_s=2, ell_values=(1,))
    best = report.exact_values["max_zero_probability"]
    assert best == Fraction(39091, 62500)
    assert report.witness == {"ell": 1, "num_vars": 2, "edges": [[1, 2]], "prob": "39091/62500"}


def test_star_search_full_maximum_frozen():
    report = verify_star_search()
    assert report.exact_values["max_zero_probability"] == Fraction(707307219, 976562500)
    assert report.witness == {
        "ell": 1,
        "num_vars": 4,
        "edges": [[1, 3], [1, 4], [2, 3], [2, 4]],
        "prob": "707307219/976562500",
    }


def test_verify_star_search_report():
    report = verify_star_search()
    assert report.passed
    assert report.inputs == {"max_vars": 5, "ell_values": [-2, -1, 1, 2], "p": "97/250"}
    assert report.threshold == Fraction(29, 40)
    assert [(c.name, c.op, c.rhs) for c in report.checks] == [("max_zero_probability", "<", "29/40")]


@pytest.mark.parametrize("ells", [(1,), (-1,), (-2, 2), (-2, -1, 1, 2)])
@pytest.mark.parametrize("max_s", [1, 2, 3, 4])
def test_star_search_equals_oracle(max_s, ells):
    p = Fraction(97, 250)
    best, (ell, s, edges) = star_search_oracle(max_s, ells, p)
    report = verify_star_search(max_s, ells, p)
    assert report.exact_values["max_zero_probability"] == best
    assert report.witness == {
        "ell": ell,
        "num_vars": s,
        "edges": [[a + 1, b + 1] for a, b in edges],
        "prob": f"{best.numerator}/{best.denominator}",
    }


def test_verify_star_search_records_iterator_ell_values():
    report = verify_star_search(max_s=2, ell_values=iter([1, -1, 1]))
    assert report.inputs["ell_values"] == [-1, 1]
    expected = verify_star_search(2, (-1, 1))
    assert report.exact_values == expected.exact_values
    assert report.witness == expected.witness


def test_star_search_rejects_a_law_that_does_not_total_one(monkeypatch):
    # Weight 1 is missing from the one-vertex table, so its mass is b - a, not b.
    monkeypatch.setattr(verify, "value_weight_counts", lambda f: {0: {0: 1}})
    with pytest.raises(RuntimeError, match="does not total 1"):
        verify_star_search(max_s=1)


def test_star_search_input_validation():
    with pytest.raises(InputError):
        verify_star_search(max_s=6)
    with pytest.raises(InputError):
        verify_star_search(ell_values=(0,))
    with pytest.raises(InputError):
        verify_star_search(ell_values=(5,))
    with pytest.raises(InputError):
        verify_star_search(ell_values=[])
    # 1.5 used to be searched as ell = 1 and recorded as [1].
    for ell in (1.5, Fraction(3, 2), "1/2"):
        with pytest.raises(InputError):
            verify_star_search(max_s=2, ell_values=(ell,))
    with pytest.raises(InputError):
        verify_star_search(max_s=2.0)
    assert verify_star_search(max_s="2").exact_values == verify_star_search(max_s=2).exact_values
    assert verify_star_search(max_s=2, ell_values=(Fraction(2), "1")).inputs["ell_values"] == [1, 2]


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


def test_blym_reads_integers_exactly():
    assert blym_check("3", [["1"], [0]]) == (Fraction(2, 3), True)
    for n, antichain in ((3, [[0.5], [1]]), (3.0, [[0], [1]]), (3, [[Fraction(1, 2)], [1]])):
        with pytest.raises(InputError):
            blym_check(n, antichain)


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


def test_antichain_expectation_rejects_float_weights():
    with pytest.raises(InputError):
        antichain_expectation_check(2, {frozenset({0}): 0.5}, "1/3")


def test_antichain_expectation_reads_integers_exactly():
    lhs, _, ok = antichain_expectation_check("2", {frozenset({"1"}): Fraction(1)}, "1/3")
    assert lhs == Fraction(2, 9) and ok
    for ground_size, a in ((2, frozenset({0.5})), (2.0, frozenset({0})), (2, frozenset({Fraction(1, 2)}))):
        with pytest.raises(InputError):
            antichain_expectation_check(ground_size, {a: Fraction(1)}, "1/3")


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


def test_elo_rejects_float_coefficients():
    with pytest.raises(InputError):
        elo_max([0.1, 0.2])


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


def test_large_linear_part_reads_ell_exactly():
    # P[x1 + x2 = 1] = 1/2 at p = 1/2, with ell given as a string
    assert large_linear_part_check(parse_poly("x1+x2"), 2, "1/2", "1") == (Fraction(1, 2), Fraction(1, 2), True)
    with pytest.raises(InputError):
        large_linear_part_check(parse_poly("x1+x2"), 2, "1/2", 1.0)
    assert large_linear_part_check(parse_poly("x1+x2"), "2", "1/2", 1) == (Fraction(1, 2), Fraction(1, 2), True)
    with pytest.raises(InputError):
        large_linear_part_check(parse_poly("x1+x2"), 2.0, "1/2", 1)


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


def test_lemma_suites_count_failing_cases(monkeypatch):
    monkeypatch.setattr(verify, "blym_check", lambda n, antichain: (Fraction(2), False))
    assert LEMMA_SUITES["blym"](DEFAULT_SUITE_SEED) == 1000
    for name in LEMMA_SUITES.keys() - {"blym"}:
        monkeypatch.setitem(LEMMA_SUITES, name, lambda seed: 0)
    report = verify.verify_lemmas()
    assert not report.passed
    assert [(c.name, c.lhs) for c in report.checks if not c.ok] == [("blym_violations", "1000/1")]


def test_reduction_spot_counts_every_bound_a_case_exceeds(monkeypatch):
    # A unit form always has a positive value, and every value has mass > 0 at
    # p = 1/3 and 1/2, so each case exceeds all eight zero bounds (m = 2..5 at both p).
    monkeypatch.setattr(verify, "reduction_bound", lambda m, p, ell_min: SimpleNamespace(bound=Fraction(0)))
    assert suite_reduction_spot(7, 25) == 25 * 8


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


def _canonical_text(x) -> str:
    """An argument or result as text that does not depend on ``repr``."""
    if isinstance(x, bool):
        return "T" if x else "F"
    if isinstance(x, (int, Fraction)):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, MultilinearPoly):
        lin = sorted(x.linear.items())
        quad = sorted((a, b, c) for (a, b), c in x.quadratic.items())
        return f"P({x.num_vars};{x.constant};{lin};{quad})"
    if isinstance(x, SliceSpec):
        return f"S({x.n},{x.k})"
    if isinstance(x, ValueDist):
        return "L(" + ",".join(f"{v}:{_canonical_text(x.prob(v))}" for v in x.support()) + ")"
    if isinstance(x, frozenset):
        return "{" + ",".join(map(str, sorted(x))) + "}"
    if isinstance(x, dict):
        return "{" + ",".join(f"{_canonical_text(k)}:{_canonical_text(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(map(_canonical_text, x)) + "]"
    raise TypeError(f"no canonical text for {type(x).__name__}")


def test_lemma_suite_case_streams_are_pinned(monkeypatch):
    # Each check the seeded suites call, with its arguments and result, over
    # the small runs above: a change to which cases a suite draws shows here.
    lines: list[str] = []
    calls: dict[str, int] = {}
    checks = ("blym_check", "antichain_expectation_check", "elo_max",
              "product_slice_tv", "large_linear_part_check", "bernoulli_value_dist")
    for name in checks:
        def recorded(*args, _name=name, _inner=getattr(verify, name)):
            result = _inner(*args)
            calls[_name] = calls.get(_name, 0) + 1
            lines.append(f"{_name}{_canonical_text(args)}->{_canonical_text(result)}")
            return result

        monkeypatch.setattr(verify, name, recorded)
    suite_blym(7, 50)
    suite_antichain_expectation(7, 50)
    suite_elo(7, 50)
    suite_product_slice(7, 25)
    suite_large_linear_part(7, 50)
    suite_reduction_spot(7, 25)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert calls == {
        "blym_check": 50,
        "antichain_expectation_check": 50,
        "elo_max": 50,
        "product_slice_tv": 25,
        "large_linear_part_check": 50,
        "bernoulli_value_dist": 50,
    }
    assert digest == "f768e1f47fecb2dbcde300c63e8e059704b743e2451a7de250925b77131ca7a1"
