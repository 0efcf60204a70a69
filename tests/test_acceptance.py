"""Acceptance gate: one test, and one printed verdict line, per criterion.

Each test prints ``[PASS] criterion N: ...`` (or ``[FAIL] ... — failing
sub-checks``) directly to the terminal so a full run ends with a nine-line
pass/fail matrix, then asserts.  All comparisons are exact rationals unless a
criterion states a decimal tolerance.
"""

import math
import time
from fractions import Fraction

from edgestat import gm
from edgestat.constructions import (
    build_host,
    clique_union_family,
    bipartite_family,
    edge_count_dist,
    limit_probability,
    poisson_reference,
    verify_goodman,
    verify_poisson_emergence,
)
from edgestat.dist import binmax
from edgestat.gm import enumerate_gm
from edgestat.poly import canonical_form
from edgestat.verify import (
    LEMMA_SUITES,
    check_better34_inequalities,
    reduction_bound,
    verify_lemmas,
    verify_prop_027,
    verify_star_search,
    verify_table,
)

from helpers import star_search_oracle, table_rows, unit_form

F = Fraction


def _conclude(capsys, num: int, title: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " — " + ", ".join(failures)
    with capsys.disabled():
        print(f"\n[{verdict}] criterion {num}: {title}{detail}", flush=True)
    assert not failures, f"criterion {num}: {failures}"


def _check(failures: list[str], name: str, ok: bool) -> None:
    if not ok:
        failures.append(name)


def test_criterion_01_family_counts_and_runtime(capsys, monkeypatch):
    failures: list[str] = []
    expected = {2: 4, 3: 16, 4: 99, 5: 1653}
    monkeypatch.setattr(gm, "_CACHE", {})  # time cold enumerations, not cache hits
    for m, count in expected.items():
        start = time.perf_counter()
        family = enumerate_gm(m, workers=1)
        elapsed = time.perf_counter() - start
        _check(failures, f"count_m{m}", family.count == count)
        budget = 1.0 if m <= 4 else 10.0
        _check(failures, f"runtime_m{m}", elapsed < budget)
    _conclude(capsys, 1, "permutation-class counts 4, 16, 99, 1653 for m = 2..5", failures)


def test_criterion_02_point_mass_bound_certificate(capsys):
    failures: list[str] = []
    rb = reduction_bound(enumerate_gm(5), F(1, 3), 2)
    _check(failures, "bound_exact", rb.bound == F(80, 243))
    _check(failures, "bound_below_threshold", rb.bound < F(3293, 10000))
    _check(failures, "witness_ell", rb.witness_ell == 2)
    # Expanded (1 + x1)(x2 + x3 + x4 + x5): four linear slots plus a star.
    key = canonical_form(unit_form(5, {1, 2, 3, 4}, {(0, 1), (0, 2), (0, 3), (0, 4)}))
    _check(failures, "witness_key", rb.witness_key == key)
    _check(failures, "binmax_equals_family_max", rb.binmax_part == rb.gm_part)
    _conclude(capsys, 2, "bound(5, 1/3, 2) = 80/243 < 0.3293 with star witness", failures)


def test_criterion_03_optimized_bound_table(capsys):
    failures: list[str] = []
    report = verify_table(workers=1)
    rows = table_rows(report)
    _check(failures, "report", report.passed)
    reference = [
        (2, "2/3", 0.4444),
        (3, "1/2", 0.375),
        (4, "2/5", 0.3456),
        (5, "1/3", 0.3292),
    ]
    _check(failures, "row_count", len(rows) == len(reference))
    for row, (m, p_star, decimal) in zip(rows, reference):
        _check(failures, f"m{m}_p_star", row["m"] == m and row["p_star"] == p_star)
        gap = abs(float(F(row["bound_exact"])) - decimal)
        _check(failures, f"m{m}_bound_4dp", gap < 5e-5)
    _conclude(capsys, 3, "optimized bounds 0.4444/0.375/0.3456/0.3292 at p* 2/3, 1/2, 2/5, 1/3", failures)


def test_criterion_04_eight_block_certificate(capsys):
    failures: list[str] = []
    p = F(213, 500)
    _check(failures, "binmax_below", binmax(8, p) < F(27, 100))
    expectation = p * p * 70 + 8 * p
    _check(failures, "expectation_exact", expectation == F(402783, 25000))
    _check(failures, "expectation_below", expectation < F(16112, 1000))
    _check(failures, "markov_below", expectation / 60 < F(27, 100))
    _check(failures, "report", verify_prop_027().passed)
    _conclude(capsys, 4, "exact checks binmax(8, 0.426) < 0.27 and 16.111... < 16.112", failures)


def test_criterion_05_inequality_battery_at_p_097_250(capsys):
    failures: list[str] = []
    p = F(97, 250)
    report = check_better34_inequalities(p)
    _check(failures, "report", report.passed)
    _check(failures, "two_pq_exact", 2 * p * (1 - p) == F(474912, 1000000))
    _check(failures, "two_pq_below", 2 * p * (1 - p) < F(475, 1000))
    _check(failures, "combined_below", report.exact_values["combined"] < F(725, 1000))
    _check(failures, "multipartite_exact", report.exact_values["multipartite"] == F(1159, 1600))
    _check(failures, "multipartite_identity", F(1159, 1600) == 1 - F(21, 40) ** 2)
    _check(failures, "multipartite_below", F(1159, 1600) < F(725, 1000))
    two_layer_cap = F(713, 1000)
    _check(failures, "two_layer_s3_below", report.exact_values["two_layer_s3"] < two_layer_cap)
    _check(failures, "two_layer_tail_exact", report.exact_values["two_layer_tail"] == 2 * binmax(4, p))
    _check(failures, "two_layer_tail_below", 2 * binmax(4, p) < two_layer_cap)
    _conclude(capsys, 5, "0.725 and 0.713 inequality battery at p = 97/250", failures)


def test_criterion_06_star_family_search(capsys):
    failures: list[str] = []
    p = F(97, 250)
    start = time.perf_counter()
    report = verify_star_search(p=p)
    elapsed = time.perf_counter() - start
    best = report.exact_values["max_zero_probability"]
    _check(failures, "report", report.passed)
    _check(failures, "below_threshold", best < F(29, 40))
    _check(failures, "exact_max_recorded", best == F(707307219, 976562500))
    _check(failures, "witness_attains_max", F(report.witness["prob"]) == best)
    oracle_best, (ell, s, edges) = star_search_oracle(5, (-2, -1, 1, 2), p)
    _check(failures, "oracle_agrees", oracle_best == best)
    witness = {"ell": ell, "num_vars": s, "edges": [[a + 1, b + 1] for a, b in edges]}
    _check(failures, "oracle_witness_agrees", witness == {k: report.witness[k] for k in witness})
    _check(failures, "runtime", elapsed < 60.0)
    _conclude(capsys, 6, "exhaustive star-family zero-probability max < 0.725", failures)


def test_criterion_07_two_clique_construction(capsys):
    failures: list[str] = []
    family = clique_union_family((3, 3), 6)
    host = build_host(family, 12)
    _check(failures, "n12_exact", edge_count_dist(host, 3).prob(1) == F(9, 11))
    values = [limit_probability(family, 3, 1, n) for n in (12, 24, 48)]
    _check(failures, "decreasing", values[0] > values[1] > values[2])
    _check(failures, "at_least_limit", all(v >= F(3, 4) for v in values))
    _check(failures, "limit_exact", limit_probability(family, 3, 1) == F(3, 4))
    _check(failures, "report", verify_goodman().passed)
    _conclude(capsys, 7, "two-clique host: 9/11 at n = 12, decreasing to the exact 3/4 limit", failures)


def test_criterion_08_poisson_limit_emergence(capsys):
    failures: list[str] = []
    k = 200
    for a, tolerance in ((1, 0.01), (2, 0.02)):
        value = limit_probability(bipartite_family(a, k), k, a * (k - a))
        _check(failures, f"a{a}_near_reference", abs(float(value) - poisson_reference(a)) < tolerance)
    _check(failures, "a1_reference_is_1_over_e", abs(poisson_reference(1) - 1 / math.e) < 1e-15)
    _check(failures, "report", verify_poisson_emergence().passed)
    _conclude(capsys, 8, "bipartite limits approach a^a/(e^a a!) at k = 200", failures)


def test_criterion_09_property_suites_at_scale(capsys):
    failures: list[str] = []
    start = time.perf_counter()
    report = verify_lemmas()
    runtime = time.perf_counter() - start
    _check(failures, "all_suites_present", len(report.checks) == len(LEMMA_SUITES) == 7)
    for record in report.checks:
        _check(failures, record.name, record.ok)
    _check(failures, "runtime", runtime < 300.0)
    _conclude(capsys, 9, "zero violations across all seven property suites at full scale", failures)
