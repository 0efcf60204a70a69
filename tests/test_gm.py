"""Tests for the isomorph-free enumeration of the reduced families."""

import hashlib
import itertools
import math
import random

import pytest

from edgestat import gm
from edgestat.errors import InputError
from edgestat.gm import (
    MAX_SUPPORTED_M,
    _bounded_degree_graphs,
    _enumerate_branch,
    _signatures_ordered,
    _sorted_columns,
    enumerate_gm,
    var_bound,
)
from edgestat.poly import canonical_form, gm_membership

from helpers import (
    automorphism_count,
    bounded_degree_masks,
    canonical_form_unpruned,
    labelled_members,
    max_structure_stats,
    permute_variables,
    skeletons,
    sorted_columns_undo,
    uncut_codes,
    unit_form,
)

REFERENCE_COUNTS = {1: 1, 2: 4, 3: 16, 4: 99, 5: 1653}

REFERENCE_PER_S = {
    1: {1: 1},
    2: {1: 1, 2: 3},
    3: {1: 1, 2: 3, 3: 10, 4: 2},
    4: {1: 1, 2: 3, 3: 10, 4: 47, 5: 24, 6: 14},
    5: {1: 1, 2: 3, 3: 10, 4: 47, 5: 296, 6: 451, 7: 514, 8: 277, 9: 54},
}


#: Canonical searches the generator runs per m; completing every skeleton
#: with every LL set, without the order cuts, runs 15,594 at m = 5.
REFERENCE_SEARCHES = {1: 1, 2: 4, 3: 18, 4: 150, 5: 4026}

#: The m = 6 branches cheap enough to check against the uncut oracle, as
#: (|L|, #quadratic-only vertices), and the canonical searches they run.
CHEAP_M6_BRANCHES = [(1, q) for q in range(6)] + [(2, q) for q in range(5)] + [(3, q) for q in range(4)]
CHEAP_M6_SEARCHES = 3516

#: sha256 of the newline-joined key texts, pinned so that a change to the
#: canonical search cannot silently change the published keys.
KEY_DIGESTS = {
    4: "9c6f134e5671cfcf82336700399cc634db9587a89279da2e8296d8a1aedb9803",
    5: "919e8aa7013d906c3fc1beec0a5ce2a2c12f97e0b42100511bbaaa0bfd21b321",
}


def naive_per_s_counts(m: int, max_s: int) -> dict[int, int]:
    """Count classes by brute force: every (L, E) pair on s slots, literal
    membership filter, canonical-key dedup.  Completely independent of the
    branch-and-bound generator."""
    seen = set()
    per_s: dict[int, int] = {}
    for s in range(1, max_s + 1):
        pairs = list(itertools.combinations(range(s), 2))
        for lmask in range(1 << s):
            linear = {i for i in range(s) if lmask >> i & 1}
            for emask in range(1 << len(pairs)):
                edges = {pairs[i] for i in range(len(pairs)) if emask >> i & 1}
                used = set(linear) | {v for pair in edges for v in pair}
                if used != set(range(s)) or not used:
                    continue
                g = unit_form(s, linear, edges)
                if not gm_membership(g, m):
                    continue
                key = canonical_form(g)
                if key not in seen:
                    seen.add(key)
                    per_s[s] = per_s.get(s, 0) + 1
    return per_s


def test_var_bound_values():
    assert [var_bound(m) for m in range(1, 7)] == [1, 2, 4, 6, 9, 12]
    with pytest.raises(InputError):
        var_bound(0)
    assert var_bound("5") == 9
    with pytest.raises(InputError):
        var_bound(5.0)


def test_float_m_rejected_on_a_cold_and_a_warm_cache(monkeypatch):
    # enumerate_gm(3.0) used to raise TypeError on a cold cache and return
    # G(3) once enumerate_gm(3) had filled it, as 3.0 == 3.
    monkeypatch.setattr(gm, "_CACHE", {})
    with pytest.raises(InputError):
        enumerate_gm(3.0)
    family = enumerate_gm(3)
    with pytest.raises(InputError):
        enumerate_gm(3.0)
    assert enumerate_gm("3") is family
    with pytest.raises(InputError):
        enumerate_gm(2, workers=1.5)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_reference_counts(m):
    family = enumerate_gm(m)
    assert family.m == m
    assert family.count == REFERENCE_COUNTS[m]
    assert family.per_s_counts == REFERENCE_PER_S[m]
    assert sum(family.per_s_counts.values()) == family.count


@pytest.mark.parametrize("m", [2, 3, 4])
def test_naive_completeness_oracle(m):
    family = enumerate_gm(m)
    bound = min(4, var_bound(m))
    naive = naive_per_s_counts(m, bound)
    engine = {s: c for s, c in family.per_s_counts.items() if s <= bound}
    assert naive == engine


def test_members_are_canonical_and_sound():
    for m in (4, 5):
        family = enumerate_gm(m)
        assert family.keys == sorted(family.keys)
        assert len(set(family.keys)) == family.count
        for key in family.keys:
            g = key.member
            assert gm_membership(g, m)
            key_again = canonical_form(g)
            assert key_again == key


@pytest.mark.parametrize("m, digest", list(KEY_DIGESTS.items()))
def test_key_digests_are_pinned(m, digest):
    text = "\n".join(k.text for k in enumerate_gm(m).keys)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_canonical_form_matches_unpruned_oracle_on_relabelled_members():
    rng = random.Random(110)
    for g in (k.member for k in enumerate_gm(4).keys):
        for _ in range(3):
            perm = list(range(g.num_vars))
            rng.shuffle(perm)
            shuffled = permute_variables(g, perm)
            key = canonical_form(shuffled)
            want_key, want_rep = canonical_form_unpruned(shuffled)
            assert key == want_key
            assert key.member == want_rep


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_skeleton_membership_equals_literal_for_every_ll_mask(m):
    # Every skeleton the generator emits at m is a member at m, so lower
    # thresholds are checked too, where skeletons are also rejected.
    for t in range(1, m + 1):
        ll_pairs = list(itertools.combinations(range(t), 2))
        for q in range(t * (m - t) + 1):
            for skeleton in skeletons(m, t, q):
                for k in range(1, m + 1):
                    skeleton_ok = gm_membership(unit_form(t + q, range(t), skeleton), k)
                    for ll_mask in range(1 << len(ll_pairs)):
                        ll = [ll_pairs[i] for i in range(len(ll_pairs)) if ll_mask >> i & 1]
                        g = unit_form(t + q, range(t), skeleton + ll)
                        assert gm_membership(g, k) == skeleton_ok


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_skeleton_capacities_equal_literal_membership(m):
    # The generator runs no membership test: its capacities at m must accept
    # exactly the skeletons, generated under the looser capacities of m + 1,
    # that the literal test accepts at m.
    for t in range(1, m + 1):
        for q in range(t * (m + 1 - t) + 1):
            emitted = {tuple(sk) for sk in skeletons(m, t, q)}
            accepted = {
                tuple(sk)
                for sk in skeletons(m + 1, t, q)
                if gm_membership(unit_form(t + q, range(t), sk), m)
            }
            assert emitted == accepted, (m, t, q)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_order_cuts_keep_every_class_of_every_branch(m):
    if m == 6:
        branches, want_searches = CHEAP_M6_BRANCHES, CHEAP_M6_SEARCHES
    else:
        branches = [(t, q) for t in range(1, m + 1) for q in range(t * (m - t) + 1)]
        want_searches = REFERENCE_SEARCHES[m]
    searches = 0
    for t, q in branches:
        classes, n = _enumerate_branch((m, t, q))
        searches += n
        assert {key.code for key in classes} == uncut_codes(m, t, q), (m, t, q)
    assert searches == want_searches


def orbit_sum_mismatches(m, keys):
    """Branches (|L|, #quadratic-only vertices) of threshold ``m`` where the
    orbits s!/|Aut| of ``keys`` do not sum to the labelled member count.

    Distinct keys are distinct classes, so the keys cover every labelled
    member exactly when each branch's orbit sum equals its labelled count;
    neither side reads the canonical search or the order cuts."""
    sums = {}
    for key in keys:
        s, lin, _ = key.code
        orbit, rest = divmod(math.factorial(s), automorphism_count(key))
        assert rest == 0, key.text
        branch = (len(lin), s - len(lin))
        sums[branch] = sums.get(branch, 0) + orbit
    want = {(t, q): labelled_members(m, t, q) for t in range(1, m + 1) for q in range(t * (m - t) + 1)}
    return sorted(b for b in set(sums) | set(want) if sums.get(b, 0) != want.get(b, 0))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_orbit_sums_equal_labelled_member_counts_on_every_branch(m):
    assert orbit_sum_mismatches(m, enumerate_gm(m).keys) == []


def test_orbit_sum_misses_a_dropped_key():
    keys = enumerate_gm(4).keys
    for i in (0, len(keys) // 2, len(keys) - 1):
        s, lin, _ = keys[i].code
        assert orbit_sum_mismatches(4, keys[:i] + keys[i + 1:]) == [(len(lin), s - len(lin))], keys[i].text


def test_bounded_degree_graphs_equal_mask_oracle():
    for q in range(7):
        for d in range(q):
            got = list(_bounded_degree_graphs(q, d))
            assert len(got) == len(set(got)), (q, d)
            assert set(got) == set(bounded_degree_masks(q, d)), (q, d)


def test_sorted_columns_equal_undo_oracle_on_every_branch():
    for m in range(1, MAX_SUPPORTED_M + 1):
        for t in range(1, m + 1):
            for q in range(t * (m - t) + 1):
                assert list(_sorted_columns(t, q, m - t)) == sorted_columns_undo(t, q, m - t), (m, t, q)


def test_signature_cut_on_one_run_is_the_degree_cut():
    # With every vertex in one run a signature reduces to the degree, so the
    # predicate holds exactly for the edge sets whose degrees do not increase.
    for t in range(7):
        pairs = list(itertools.combinations(range(t), 2))
        graphs = [[pair for i, pair in enumerate(pairs) if mask >> i & 1] for mask in range(1 << len(pairs))]
        want = []
        for edges in graphs:
            deg = [sum(v in pair for pair in edges) for v in range(t)]
            if deg == sorted(deg, reverse=True):
                want.append(edges)
        assert [edges for edges in graphs if _signatures_ordered(edges, [0] * t)] == want, t


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_search_counts_are_pinned(m):
    assert enumerate_gm(m).searches == REFERENCE_SEARCHES[m]


def test_search_count_is_the_same_for_every_worker_count(monkeypatch):
    monkeypatch.setattr(gm, "_CACHE", {})
    solo = enumerate_gm(4)
    monkeypatch.setattr(gm, "_CACHE", {})
    assert enumerate_gm(4, workers=2).searches == solo.searches == REFERENCE_SEARCHES[4]


def test_every_m5_skeleton_is_a_member():
    for t in range(1, 6):
        for q in range(t * (5 - t) + 1):
            for sk in skeletons(5, t, q):
                assert gm_membership(unit_form(t + q, range(t), sk), 5), (t, q, sk)


def test_worker_merge_is_order_independent(monkeypatch):
    solo = enumerate_gm(3)
    monkeypatch.setattr(gm, "_CACHE", {})
    multi = enumerate_gm(3, workers=2)
    assert multi.keys == solo.keys
    assert [k.member for k in multi.keys] == [k.member for k in solo.keys]


def test_pool_has_at_most_one_worker_per_branch(monkeypatch):
    # A recording stand-in for the pool: no process starts.
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(gm, "_CACHE", {})
    assert enumerate_gm(3, workers=1000).count == REFERENCE_COUNTS[3]
    assert asked == [7]


def test_family_cache_serves_every_worker_count():
    assert enumerate_gm(3, workers=2) is enumerate_gm(3)


def test_structure_stats_hit_their_bounds():
    for m in (2, 3, 4):
        max_num_vars, max_linear_terms, max_quad_degree = max_structure_stats(enumerate_gm(m))
        assert max_num_vars == var_bound(m)
        assert max_linear_terms == m
        assert max_quad_degree == m - 1


def test_input_validation():
    with pytest.raises(InputError):
        enumerate_gm(0)
    with pytest.raises(InputError):
        enumerate_gm(MAX_SUPPORTED_M + 1)
    with pytest.raises(InputError):
        enumerate_gm(3, workers=0)
