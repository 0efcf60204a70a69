"""Polynomial core: normalization, evaluation, substitution, canonical forms."""

import random
from itertools import combinations, product

import pytest

from edgestat.errors import InputError, ResourceLimitError
from edgestat.poly import (
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

from helpers import canonical_form_unpruned, eval_direct, gm_membership_derived, random_poly

PRODUCT_TEXT = "x2+x3+x4+x5+x1*x2+x1*x3+x1*x4+x1*x5"


def test_normalization_drops_zeros_and_orders_pairs():
    f = MultilinearPoly(3, 0, {0: 0, 1: 2}, {(2, 0): 1, (1, 2): 0})
    assert f.linear == {1: 2}
    assert f.quadratic == {(0, 2): 1}


def test_invalid_polynomials_rejected():
    with pytest.raises(InputError):
        MultilinearPoly(-1, 0, {}, {})
    with pytest.raises(InputError):
        MultilinearPoly(2, 0, {2: 1}, {})
    with pytest.raises(InputError):
        MultilinearPoly(2, 0, {}, {(0, 0): 1})
    with pytest.raises(InputError):
        MultilinearPoly(3, 0, {}, {(0, 1): 1, (1, 0): 1})
    # substitution can leave a variable-free constant; that stays legal
    assert MultilinearPoly(0, 7, {}, {}).is_zero() is False


def test_evaluate_matches_direct_sum():
    rng = random.Random(101)
    for _ in range(200):
        f = random_poly(rng)
        assignment = tuple(rng.randint(0, 1) for _ in range(f.num_vars))
        assert evaluate(f, assignment) == eval_direct(f, assignment)


def test_evaluate_validates_assignment():
    f = parse_poly("x1+x2")
    with pytest.raises(InputError):
        evaluate(f, (1,))
    with pytest.raises(InputError):
        evaluate(f, (1, 2))


def test_substitute_agrees_with_evaluation():
    rng = random.Random(102)
    for _ in range(80):
        f = random_poly(rng, max_vars=6)
        n = f.num_vars
        for i in range(n):
            for bit in (0, 1):
                g = substitute(f, i, bit)
                assert g.num_vars == max(n - 1, 1) if n > 1 else True
                for rest in product((0, 1), repeat=n - 1):
                    full = rest[:i] + (bit,) + rest[i:]
                    assert evaluate(f, full) == evaluate(g, rest if n > 1 else (0,) * g.num_vars)


def test_substitute_zero_poly_stays_zero():
    z = zero_poly(3)
    assert substitute(z, 1, 1).is_zero()
    assert z.is_zero() and zero_poly(1).used_variables() == set()


def test_permute_variables_preserves_values():
    rng = random.Random(103)
    for _ in range(60):
        f = random_poly(rng, max_vars=6)
        n = f.num_vars
        perm = list(range(n))
        rng.shuffle(perm)
        g = permute_variables(f, perm)
        for assignment in product((0, 1), repeat=n):
            moved = [0] * n
            for i, bit in enumerate(assignment):
                moved[perm[i]] = bit
            assert evaluate(f, assignment) == evaluate(g, tuple(moved))


def test_value_weight_counts_matches_brute_force():
    rng = random.Random(104)
    for _ in range(40):
        f = random_poly(rng, max_vars=7)
        table = {}
        for assignment in product((0, 1), repeat=f.num_vars):
            v, w = eval_direct(f, assignment), sum(assignment)
            table.setdefault(v, {}).setdefault(w, 0)
            table[v][w] += 1
        assert value_weight_counts(f) == table


def test_value_weight_counts_respects_cap():
    f = zero_poly(30)
    with pytest.raises(ResourceLimitError):
        value_weight_counts(f, cap=2**20)


def test_achievable_values_of_expanded_product():
    f = parse_poly(PRODUCT_TEXT)
    # oracle: (1 + x1) * (x2 + x3 + x4 + x5) over all 32 assignments
    expected = sorted(
        {(1 + a[0]) * sum(a[1:]) for a in product((0, 1), repeat=5)}
    )
    assert expected == [0, 1, 2, 3, 4, 6, 8]
    assert achievable_values(f) == expected


def test_unit_form_gate():
    GPolynomial(parse_poly("x1+x2+x1*x2"))
    with pytest.raises(InputError):
        GPolynomial(parse_poly("1+x1"))  # constant term
    with pytest.raises(InputError):
        GPolynomial(parse_poly("2x1"))  # coefficient 2
    with pytest.raises(InputError):
        GPolynomial(parse_poly("-x1+x2"))  # negative coefficient


def test_unit_form_requires_every_slot_used():
    lonely = MultilinearPoly(3, 0, {0: 1}, {})  # x2, x3 unused
    with pytest.raises(InputError):
        GPolynomial(lonely)
    assert GPolynomial.from_sets(3, {0}, {(1, 2)}).num_vars == 3


def test_membership_uses_used_variables_convention():
    # substitution can orphan a slot; the raw polynomial must still be testable
    f = parse_poly("x1+x2+x1*x3")
    g = substitute(f, 2, 0)  # x1 + x2 on 2 slots
    assert gm_membership(g, 2) == gm_membership_derived(GPolynomial(g), 2)


def all_unit_forms(s):
    """Every 0/1 quadratic form on exactly s variables, each variable used."""
    pairs = list(combinations(range(s), 2))
    for mask in range(1 << len(pairs)):
        edges = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
        covered = {v for e in edges for v in e}
        free = sorted(covered)
        forced = set(range(s)) - covered
        for sub_mask in range(1 << len(free)):
            linear = forced | {free[i] for i in range(len(free)) if sub_mask >> i & 1}
            yield GPolynomial.from_sets(s, linear, edges)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_membership_literal_equals_derived_exhaustive(s):
    for g in all_unit_forms(s):
        for m in range(1, 9):
            assert gm_membership(g, m) == gm_membership_derived(g, m), (format_poly(g.poly), m)


def test_membership_literal_equals_derived_sampled_large():
    rng = random.Random(105)
    for _ in range(300):
        s = rng.randint(6, 7)
        edges = {e for e in combinations(range(s), 2) if rng.random() < 0.3}
        covered = {v for e in edges for v in e}
        linear = {i for i in range(s) if rng.random() < 0.5} | (set(range(s)) - covered)
        g = GPolynomial.from_sets(s, linear, edges)
        for m in (1, 3, 5, 8):
            assert gm_membership(g, m) == gm_membership_derived(g, m)


def test_canonical_form_is_permutation_invariant():
    rng = random.Random(106)
    forms = [g for g in all_unit_forms(4)]
    for g in rng.sample(forms, 40):
        key, rep = canonical_form(g)
        for _ in range(5):
            perm = list(range(g.num_vars))
            rng.shuffle(perm)
            shuffled = GPolynomial(permute_variables(g.poly, perm))
            assert canonical_key(shuffled) == key
        # the relabelled representative canonicalizes to itself
        assert canonical_key(rep) == key


def random_unit_form(rng, max_vars=8):
    """A random 0/1 quadratic form on 1..max_vars slots, every slot used."""
    s = rng.randint(1, max_vars)
    density = rng.random()
    edges = {e for e in combinations(range(s), 2) if rng.random() < density}
    covered = {v for e in edges for v in e}
    linear = {i for i in range(s) if rng.random() < 0.5} | (set(range(s)) - covered)
    return GPolynomial.from_sets(s, linear, edges)


def test_canonical_form_matches_unpruned_oracle_on_random_forms():
    rng = random.Random(109)
    for _ in range(500):
        g = random_unit_form(rng)
        key, rep = canonical_form(g)
        want_key, want_rep = canonical_form_unpruned(g)
        assert key == want_key, format_poly(g.poly)
        assert rep.poly == want_rep.poly


def test_canonical_key_text_format():
    key = canonical_key(GPolynomial(parse_poly(PRODUCT_TEXT)))
    assert key.text == "n5|L1,2,3,4|E1-5,2-5,3-5,4-5"
    assert canonical_key(GPolynomial(parse_poly("x1"))).text == "n1|L1|E"
    assert isinstance(key, CanonicalKey) and key == key


def test_canonical_form_var_cap():
    g = GPolynomial.from_sets(13, set(range(13)), set())
    with pytest.raises(ResourceLimitError):
        canonical_form(g)
    # All-linear forms have no edge structure to search, so lifting the cap
    # canonicalises them instantly at any size.
    key, _ = canonical_form(g, max_vars=13)
    assert key.text == "n13|L" + ",".join(str(i) for i in range(1, 14)) + "|E"


def test_canonical_form_placement_cap():
    # A 12-cycle is vertex-transitive: colour refinement leaves one class of
    # twelve edge-touching members, which would take 12! placements.
    cycle = {(i, i + 1) for i in range(11)} | {(0, 11)}
    g = GPolynomial.from_sets(12, set(), cycle)
    with pytest.raises(ResourceLimitError):
        canonical_form(g)


def test_parse_format_round_trip():
    rng = random.Random(107)
    for _ in range(100):
        f = random_poly(rng)
        assert parse_poly(format_poly(f), f.num_vars) == f


def test_parse_rejects_malformed_text():
    for text in ("", "x1+", "x1++x2", "x1*", "*x1", "x1x2", "x1*x1", "x1*x2*x3", "x0", "y1", "2*"):
        with pytest.raises(InputError):
            parse_poly(text)


def test_parse_merges_repeated_terms():
    assert parse_poly("x1+x1") == parse_poly("2x1")
    assert parse_poly("x1-x1").is_zero()
    assert parse_poly("x1*x2+x2*x1") == parse_poly("2*x1*x2")


def test_json_round_trip():
    rng = random.Random(108)
    for _ in range(50):
        f = random_poly(rng)
        assert poly_from_json(poly_to_json(f)) == f
    # omitted sections default to empty, but the shape must be right
    assert poly_from_json({"n": 1}).is_zero()
    with pytest.raises(InputError):
        poly_from_json({"n": "three"})
    with pytest.raises(InputError):
        poly_from_json({"lin": [[1, 1]]})
    with pytest.raises(InputError):
        poly_from_json({"n": 2, "quad": [[1, 1, 1]]})
