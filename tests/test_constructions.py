"""Tests for host-graph families, exact edge-count laws, and their limits."""

import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from edgestat.constructions import (
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
from edgestat.errors import InputError, ResourceLimitError

from helpers import complement, limit_law_by_words, random_part_family


# ---------------------------------------------------------------------------
# Graphs and families
# ---------------------------------------------------------------------------


def test_host_graph_validation():
    host = HostGraph(3, frozenset({(2, 0), (0, 1)}))
    assert host.edges == frozenset({(0, 2), (0, 1)})
    assert len(host.edges) == 2
    with pytest.raises(InputError):
        HostGraph(0)
    with pytest.raises(InputError):
        HostGraph(3, frozenset({(1, 1)}))
    with pytest.raises(InputError):
        HostGraph(3, frozenset({(0, 3)}))
    with pytest.raises(InputError):
        HostGraph(4.5, frozenset({(0, 4)}))
    assert HostGraph("3", frozenset({(2, 0)})) == HostGraph(3, frozenset({(0, 2)}))


def test_part_family_validation():
    with pytest.raises(InputError):
        PartFamily((Fraction(0),), (False,))
    with pytest.raises(InputError):
        PartFamily((Fraction(2, 3), Fraction(1, 2)), (False, False))
    with pytest.raises(InputError):
        PartFamily((Fraction(1, 2),), ())
    with pytest.raises(InputError):
        PartFamily((Fraction(1, 2),), (False,), frozenset({(0, 2)}))
    family = PartFamily((Fraction(1, 3),), (True,), frozenset({(1, 0)}))
    assert family.cross == frozenset({(0, 1)})


def test_family_builders_validate():
    with pytest.raises(InputError):
        bipartite_family(0, 5)
    with pytest.raises(InputError):
        bipartite_family(5, 5)
    with pytest.raises(InputError):
        clique_union_family((1, 3), 6)
    with pytest.raises(InputError):
        clique_union_family((4, 3), 6)
    with pytest.raises(InputError):
        crossed_clique_family(1, 1, 6)
    with pytest.raises(InputError):
        blocker_with_buffer_family(-1, 1, 6)


def test_build_host_bipartite_is_complete_bipartite():
    host = build_host(bipartite_family(1, 5), 30)
    assert host.n == 30
    assert len(host.edges) == 6 * 24
    assert all((a < 6) != (b < 6) for a, b in host.edges)


def test_build_host_adds_clique_when_requested():
    host = build_host(bipartite_family(2, 5, with_clique=True), 10)
    assert len(host.edges) == math.comb(4, 2) + 4 * 6


def test_build_host_two_cliques():
    host = build_host(clique_union_family((3, 3), 6), 12)
    assert len(host.edges) == 2 * math.comb(6, 2)
    assert all((a < 6) == (b < 6) for a, b in host.edges)


def test_build_host_tightness_families():
    host = build_host(crossed_clique_family(1, 2, 5), 10)
    # parts of sizes 2 and 4 plus background 4; the first part sees everything
    assert len(host.edges) == math.comb(4, 2) + 2 * 4 + 2 * 4
    buffered = build_host(blocker_with_buffer_family(1, 2, 6), 12)
    # blocker {0..3} joins only the background {8..11}; the buffer is inert
    assert len(buffered.edges) == 4 * 4
    assert all(a < 4 and b >= 8 for a, b in buffered.edges)


def test_build_host_rejects_empty_part():
    with pytest.raises(InputError):
        build_host(bipartite_family(1, 5), 4)


def test_complement_duality():
    host = build_host(clique_union_family((3, 3), 6), 12)
    comp = complement(host)
    assert complement(comp).edges == host.edges
    k = 4
    dist = edge_count_dist(host, k)
    dual = edge_count_dist(comp, k)
    top = math.comb(k, 2)
    assert all(dist.prob(v) == dual.prob(top - v) for v in range(top + 1))


# ---------------------------------------------------------------------------
# Exact finite-n distributions
# ---------------------------------------------------------------------------


def test_edge_polynomial_matches_host():
    host = build_host(clique_union_family((2, 2), 4), 4)
    f = edge_polynomial(host)
    assert f.num_vars == 4
    assert set(f.quadratic) == set(host.edges)
    assert all(c == 1 for c in f.quadratic.values())


def test_two_clique_distribution_at_goodman_point():
    host = build_host(clique_union_family((3, 3), 6), 12)
    dist = edge_count_dist(host, 3)
    assert dist.probs == {1: Fraction(9, 11), 3: Fraction(2, 11)}


def test_bipartite_distribution_against_hypergeometric():
    # K_{6,24}: |X ∩ A| = j induces j(5-j) edges, so the law of the edge
    # count is a deterministic image of a hypergeometric draw.
    host = build_host(bipartite_family(1, 5), 30)
    dist = edge_count_dist(host, 5)
    total = math.comb(30, 5)
    by_value: dict[int, Fraction] = {}
    for j in range(6):
        weight = Fraction(math.comb(6, j) * math.comb(24, 5 - j), total)
        value = j * (5 - j)
        by_value[value] = by_value.get(value, Fraction(0)) + weight
    assert dist.probs == {v: pr for v, pr in sorted(by_value.items()) if pr}
    assert dist.prob(4) == Fraction(64116, 142506)


def test_edge_count_dist_whole_graph_is_deterministic():
    host = build_host(clique_union_family((2, 2), 4), 4)
    dist = edge_count_dist(host, 4)
    assert dist.probs == {2: Fraction(1)}


# ---------------------------------------------------------------------------
# Limits
# ---------------------------------------------------------------------------


def test_limit_probability_reference_points():
    assert limit_probability(clique_union_family((3, 3), 6), 3, 1) == Fraction(3, 4)
    assert limit_probability(bipartite_family(1, 5), 5, 4) == Fraction(52, 125)
    assert limit_probability(bipartite_family(1, 5), 5, -1) == 0


def test_limit_probability_background_only():
    empty = PartFamily((), ())
    assert limit_probability(empty, 4, 1) == 0
    assert limit_probability(empty, 4, 0) == 1


def test_limit_probability_matches_binomial_closed_form():
    # One part of fraction 1/50 crossed to everything: ell = 49 happens
    # exactly when the part receives 1 or 49 of the 50 slots.
    k = 50
    prob = limit_probability(bipartite_family(1, k), k, k - 1)
    p = Fraction(1, k)
    binom = math.comb(k, 1) * p * (1 - p) ** (k - 1) + math.comb(k, k - 1) * p ** (k - 1) * (
        1 - p
    )
    assert prob == binom
    assert abs(float(prob) - 1 / math.e) < 0.01


def test_limit_probability_validation_and_caps():
    seven = PartFamily((Fraction(1, 10),) * 7, (False,) * 7)
    with pytest.raises(InputError):
        limit_probability(seven, 3, 1)
    with pytest.raises(InputError):
        limit_probability(bipartite_family(1, 5), -1, 1)
    with pytest.raises(InputError):
        limit_probability(bipartite_family(1, 5), 10**4 + 1, 1)
    wide = PartFamily(
        (Fraction(1, 10),) * 3, (False,) * 3, frozenset({(0, 1), (1, 2), (0, 2)})
    )
    with pytest.raises(ResourceLimitError):
        limit_probability(wide, 300, 600)  # 301**3 count vectors


def test_construction_inputs_are_exact_integers():
    bipartite = bipartite_family(1, 5)
    assert limit_probability(bipartite, "5", "4") == Fraction(52, 125)
    assert limit_probability(bipartite, 5, 4, "30") == Fraction(274, 609)
    for k, ell, n in ((5, 4.0, None), (5.0, 4, None), (5, "9/2", None), (5, 4, 30.0)):
        with pytest.raises(InputError):
            limit_probability(bipartite, k, ell, n)
    for sizes, k in (((2.7, 3), 6), ((2, 3), 6.0)):
        with pytest.raises(InputError):
            clique_union_family(sizes, k)
    for build, args in ((bipartite_family, (1.5, 5)), (crossed_clique_family, (1, 2.5, 6)),
                        (blocker_with_buffer_family, (1, 2, 6.0)), (poisson_reference, (4.5,)),
                        (build_host, (bipartite, 12.0)), (edge_count_dist, (build_host(bipartite, 12), 4.0))):
        with pytest.raises(InputError):
            build(*args)
    assert build_host(bipartite, "12") == build_host(bipartite, 12)
    assert edge_count_dist(build_host(bipartite, 12), "4") == edge_count_dist(build_host(bipartite, 12), 4)


def test_clique_decomposition_rejects_fractional_ell_within_bounds():
    # A fractional ell that reached the greedy loop would never end (rem 4.5,
    # 1.5, 0.5, -0.5, ...), so a child with capped time and address space runs
    # it: a regression fails here instead of exhausting memory.
    code = (
        "from edgestat.constructions import clique_decomposition, clique_decomposition_bound\n"
        "from edgestat.errors import InputError\n"
        "for call in (lambda: clique_decomposition(4.5), lambda: clique_decomposition_bound(40, 6.5)):\n"
        "    try:\n"
        "        call()\n"
        "    except InputError:\n"
        "        print('InputError')\n"
    )
    cap = 1 << 28

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          preexec_fn=limit_memory, env=env)
    assert done.stdout.split() == ["InputError", "InputError"], done.stderr


#: The walk's oracle grid: every family shape the paper uses, plus seeded
#: random three-part families (cross pairs with the background, a clique part
#: after a joined one), at hosts small enough for ``edge_count_dist``.
ORACLE_FAMILIES = {
    "cliques": clique_union_family((3, 3), 6),
    "bipartite": bipartite_family(1, 5),
    "bipartite-plus-clique": bipartite_family(2, 7, with_clique=True),
    "crossed": crossed_clique_family(1, 3, 6),
    "blocker": blocker_with_buffer_family(1, 2, 6),
    **{f"random-{seed}": random_part_family(random.Random(seed)) for seed in (1, 2, 3)},
}


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("n", [12, 18, 24])
@pytest.mark.parametrize("name", list(ORACLE_FAMILIES))
def test_limit_probability_finite_n_matches_edge_count_dist(name, n, k):
    family = ORACLE_FAMILIES[name]
    law = edge_count_dist(build_host(family, n), k)
    assert [limit_probability(family, k, ell, n) for ell in range(12)] == [law.prob(ell) for ell in range(12)]


@pytest.mark.parametrize("name", list(ORACLE_FAMILIES))
def test_limit_probability_matches_word_sum_oracle(name):
    family = ORACLE_FAMILIES[name]
    for k in range(7):
        law = limit_law_by_words(family, k)
        ells = range(-1, math.comb(k, 2) + 2)
        assert [limit_probability(family, k, ell) for ell in ells] == [law.get(ell, 0) for ell in ells], k


def test_limit_probability_finite_n_reference_points():
    two_cliques = clique_union_family((3, 3), 6)
    assert [limit_probability(two_cliques, 3, 1, n) for n in (12, 24, 48)] == [
        Fraction(9, 11), Fraction(18, 23), Fraction(36, 47)
    ]
    assert limit_probability(bipartite_family(1, 5), 5, 4, 30) == Fraction(274, 609)
    # far beyond enumeration: C(10**12, 3) subsets
    assert limit_probability(two_cliques, 3, 1, 10**12) == Fraction(250000000000, 333333333333)
    assert limit_probability(PartFamily((), ()), 4, 0, 4) == 1


def test_limit_probability_finite_n_rejects_impossible_hosts():
    with pytest.raises(InputError, match="some part would be empty"):
        limit_probability(bipartite_family(1, 5), 5, 4, 4)
    with pytest.raises(InputError, match="k <= n"):
        limit_probability(bipartite_family(4, 5), 5, 4, 4)
    with pytest.raises(InputError, match="k <= n"):
        limit_probability(PartFamily((), ()), 1, 0, 0)


def test_poisson_emergence_third_point():
    # The two smaller cases are pinned by the certificate; the a = 3 family
    # stays within the same working tolerance at k = 200.
    k = 200
    prob = limit_probability(bipartite_family(3, k), k, 3 * (k - 3))
    assert abs(float(prob) - poisson_reference(3)) <= Fraction(1, 50)


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------


def test_clique_decomposition_greedy():
    assert clique_decomposition(1) == (2,)
    assert clique_decomposition(4) == (3, 2)
    assert clique_decomposition(6) == (4,)
    assert clique_decomposition(9) == (4, 3)
    assert clique_decomposition(10) == (5,)
    with pytest.raises(InputError):
        clique_decomposition(0)
    for ell in range(1, 201):
        pieces = clique_decomposition(ell)
        assert all(m >= 2 for m in pieces)
        assert sum(math.comb(m, 2) for m in pieces) == ell


def test_clique_decomposition_bound():
    pieces, prod, prob = clique_decomposition_bound(40, 6)
    assert pieces == (4,)
    assert prod == 4
    assert prob == limit_probability(clique_union_family((4,), 40), 40, 6)
    assert prob > 0
    with pytest.raises(InputError):
        clique_decomposition_bound(10, 6)
    with pytest.raises(InputError):
        clique_decomposition_bound(10, 0)


# ---------------------------------------------------------------------------
# Scans and certificates
# ---------------------------------------------------------------------------


def test_monotonicity_scan_two_cliques():
    family = clique_union_family((3, 3), 6)
    values = {n: limit_probability(family, 3, 1, n) for n in (12, 24, 48)}
    assert values[12] == Fraction(9, 11)
    assert values[12] > values[24] > values[48]
    assert all(v >= Fraction(3, 4) for v in values.values())
    assert limit_probability(family, 3, 1) == Fraction(3, 4)


def test_monotonicity_scan_bipartite_closes_on_limit():
    family = bipartite_family(1, 5)
    limit = limit_probability(family, 3, 2)
    assert limit == Fraction(12, 25)
    gaps = [abs(limit_probability(family, 3, 2, n) - limit) for n in (30, 60)]
    assert gaps[1] < gaps[0]


def test_poisson_reference_values():
    assert poisson_reference(0) == 1.0
    assert poisson_reference(1) == pytest.approx(1 / math.e, abs=1e-15)
    assert poisson_reference(2) == pytest.approx(2 / math.e**2, abs=1e-15)
    with mpmath.workdps(50):
        for a in range(201):
            assert poisson_reference(a) == float(mpmath.mpf(a) ** a / (mpmath.e**a * mpmath.factorial(a))), a
    for a in (-1, 10**4 + 1):
        with pytest.raises(InputError):
            poisson_reference(a)


def test_goodman_certificate():
    report = verify_goodman()
    assert report.passed
    assert report.exact_values["n12"] == Fraction(9, 11)
    assert report.exact_values["limit"] == Fraction(3, 4)


def test_poisson_emergence_certificate():
    report = verify_poisson_emergence()
    assert report.passed
    assert abs(float(report.exact_values["a1_limit"]) - 1 / math.e) <= 0.01
    assert abs(float(report.exact_values["a2_limit"]) - 2 / math.e**2) <= 0.02
