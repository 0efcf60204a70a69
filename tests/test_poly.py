"""Polynomial core: normalization, evaluation, substitution, canonical forms."""

import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest

from edgestat.errors import InputError, ResourceLimitError
from edgestat.poly import (
    CanonicalKey,
    MultilinearPoly,
    _slot_steps,
    canonical_form,
    format_poly,
    gm_membership,
    parse_poly,
    poly_to_json,
    substitute,
    value_weight_counts,
)

from helpers import (
    achievable_values,
    canonical_form_unpruned,
    eval_direct,
    evaluate,
    gm_membership_derived,
    is_zero,
    parse_poly_split,
    permute_variables,
    poly_from_json,
    random_poly,
    random_poly_text,
    unit_form,
    value_weight_counts_label_order,
    zero_poly,
)

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
    assert is_zero(MultilinearPoly(0, 7, {}, {})) is False


def test_non_integer_parts_rejected():
    # Each of these used to be truncated by int(): x1/2 became the zero form,
    # the 0.9 pair was dropped and 2.5 variables were read as 2.
    for args in (
        (1, 0, {0: Fraction(1, 2)}),
        (2, 0, {}, {(0, 1): 0.9}),
        (1, 0.5),
        (2.5,),
        (2, 0, {1.0: 1}),
        (2, 0, {}, {(0, 1.0): 1}),
    ):
        with pytest.raises(InputError):
            MultilinearPoly(*args)
    assert MultilinearPoly("3", Fraction(3), {Fraction(1): "2"}) == MultilinearPoly(3, 3, {1: 2})


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
    assert is_zero(substitute(z, 1, 1))
    assert is_zero(z) and zero_poly(1).used_variables() == set()


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


def _brute_force_table(f):
    table = {}
    for assignment in product((0, 1), repeat=f.num_vars):
        v, w = eval_direct(f, assignment), sum(assignment)
        table.setdefault(v, {}).setdefault(w, 0)
        table[v][w] += 1
    return table


def test_value_weight_counts_matches_brute_force():
    rng = random.Random(104)
    for _ in range(40):
        f = random_poly(rng, max_vars=7)
        assert value_weight_counts(f) == _brute_force_table(f)


def test_value_weight_counts_window_restricts_the_full_table():
    rng = random.Random(105)
    for _ in range(30):
        f = random_poly(rng, max_vars=10)
        full = value_weight_counts(f)
        for lo in range(f.num_vars + 1):
            for hi in range(lo, f.num_vars + 1):
                want = {}
                for value, per_weight in full.items():
                    kept = {w: c for w, c in per_weight.items() if lo <= w <= hi}
                    if kept:
                        want[value] = kept
                assert value_weight_counts(f, range(lo, hi + 1)) == want, (f, lo, hi)


#: Quadratic supports on n slots that move the frontier in different ways.
_FRONTIER_SHAPES = {
    "path": lambda n: [(i, i + 1) for i in range(n - 1)],
    "star_first": lambda n: [(0, j) for j in range(1, n)],
    "star_last": lambda n: [(i, n - 1) for i in range(n - 1)],
    "complete": lambda n: list(combinations(range(n), 2)),
    "isolated_middle": lambda n: [e for e in combinations(range(n), 2) if n // 2 not in e],
    "first_read_by_last": lambda n: ([(0, n - 1)] if n > 1 else []) + [(i, i + 1) for i in range(1, n - 2)],
}


@pytest.mark.parametrize("shape", sorted(_FRONTIER_SHAPES))
def test_value_weight_counts_frontier_shapes(shape):
    rng = random.Random(shape)
    for n in range(0, 11):
        for _ in range(2):
            linear = {i: rng.randint(-4, 4) for i in range(n)}
            quadratic = {e: rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for e in _FRONTIER_SHAPES[shape](n)}
            f = MultilinearPoly(n, rng.randint(-4, 4), linear, quadratic)
            assert value_weight_counts(f) == _brute_force_table(f), (shape, n)


def test_value_weight_counts_respects_cap():
    f = zero_poly(25)  # 2**25 assignments, over the fixed cap of 2**24
    with pytest.raises(ResourceLimitError):
        value_weight_counts(f)


def _mixed_sign_form(rng, n, density):
    linear = {i: rng.randint(-2, 2) for i in range(n)}
    quadratic = {e: rng.choice((-2, -1, 1, 2)) for e in combinations(range(n), 2) if rng.random() < density}
    return MultilinearPoly(n, rng.randint(-3, 3), linear, quadratic)


def _small_window(rng, n):
    """A random weight window, topped at weight 6 above 12 slots."""
    top = n if n <= 12 else 6
    lo = rng.randint(0, top)
    return range(lo, rng.randint(lo, top) + 1)


def test_value_weight_counts_equals_label_order_oracle():
    rng = random.Random(106)
    for _ in range(200):
        n = rng.randint(0, 22)
        f = _mixed_sign_form(rng, n, rng.choice((0.1, 0.2, 0.4)))
        window = _small_window(rng, n) if n > 12 or rng.random() < 0.7 else None
        assert value_weight_counts(f, window) == value_weight_counts_label_order(f, window), (f, window)


@pytest.mark.parametrize("shape", sorted(_FRONTIER_SHAPES))
def test_value_weight_counts_frontier_shapes_equal_label_order_oracle(shape):
    rng = random.Random(shape)
    for n in range(11, 23):
        linear = {i: rng.randint(-4, 4) for i in range(n)}
        quadratic = {e: rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for e in _FRONTIER_SHAPES[shape](n)}
        f = MultilinearPoly(n, rng.randint(-4, 4), linear, quadratic)
        window = _small_window(rng, n)
        assert value_weight_counts(f, window) == value_weight_counts_label_order(f, window), (shape, n, window)


def _steps_from_order(f, order):
    """``_slot_steps``' tuples recomputed from the order alone."""
    nbrs = {v: {} for v in order}  # slot -> {neighbour: coefficient}
    for (a, b), c in f.quadratic.items():
        nbrs[a][b] = nbrs[b][a] = c
    steps = []
    for i, v in enumerate(order):
        later = set(order[i + 1:])
        keep = sum(1 << u for u in order[:i + 1] if later & nbrs[u].keys())
        pairs = {}
        for u in order[:i]:
            if u in nbrs[v]:
                pairs[nbrs[v][u]] = pairs.get(nbrs[v][u], 0) | 1 << u
        steps.append((v, keep, keep & 1 << v, pairs))
    return steps


def test_slot_steps():
    # L = {x1, x2}, x1 read by x3 and x4, x2 by x5 and x6: the walk closes x1
    # before it opens x2, where label order holds both open.
    split = unit_form(6, [0, 1], [(0, 2), (0, 3), (1, 4), (1, 5)])
    # Eight hubs x1..x8, hub i read by x(9+2i) and x(10+2i): one hub open at a time.
    hubs = unit_form(24, [], [(i, 8 + 2 * i + t) for i in range(8) for t in (0, 1)])
    linear_last = unit_form(5, [0, 2, 4], [(1, 3)])
    path = unit_form(10, [], [(i, i + 1) for i in range(9)])  # label order already keeps one bit open
    signed = MultilinearPoly(5, 1, {0: 2, 4: -1}, {(0, 1): 3, (0, 2): -2, (1, 2): 3, (2, 3): 3})
    orders = {
        "split": (split, [0, 2, 3, 1, 4, 5]),
        "hubs": (hubs, [w for i in range(8) for w in (i, 8 + 2 * i, 9 + 2 * i)]),
        "linear_last": (linear_last, [1, 3, 0, 2, 4]),
        "path": (path, list(range(10))),
        "no_pairs": (unit_form(8, range(8), []), list(range(8))),
        "signed": (signed, None),
    }
    for name, (f, order) in orders.items():
        steps = _slot_steps(f)
        got = [v for v, *_ in steps]
        assert sorted(got) == sorted(f.used_variables()), name
        if order is not None:
            assert got == order, name
        assert steps == _steps_from_order(f, got), name
        assert value_weight_counts(f) == value_weight_counts_label_order(f), name
    # x3 reads x1 with coefficient -2 and x2 with 3; x1 and x2 leave the frontier, x3 joins it.
    assert _slot_steps(signed)[2] == (2, 1 << 2, 1 << 2, {-2: 1 << 0, 3: 1 << 1})


def test_value_weight_counts_guard_equals_label_order_oracle():
    rng = random.Random(107)
    signed = _mixed_sign_form(rng, 40, 0.1)
    assert value_weight_counts(zero_poly(24)) == value_weight_counts_label_order(zero_poly(24))  # 2**24, the cap
    for f, window in ((zero_poly(25), None), (signed, None), (signed, range(0, 8)), (signed, range(33, 41))):
        with pytest.raises(ResourceLimitError) as want:
            value_weight_counts_label_order(f, window)
        with pytest.raises(ResourceLimitError, match=re.escape(str(want.value))):
            value_weight_counts(f, window)


def test_achievable_values_of_expanded_product():
    f = parse_poly(PRODUCT_TEXT)
    # oracle: (1 + x1) * (x2 + x3 + x4 + x5) over all 32 assignments
    expected = sorted(
        {(1 + a[0]) * sum(a[1:]) for a in product((0, 1), repeat=5)}
    )
    assert expected == [0, 1, 2, 3, 4, 6, 8]
    assert achievable_values(f) == expected


def test_unit_form_gate():
    canonical_form(parse_poly("x1+x2+x1*x2"))
    # a constant term, a coefficient 2 and a negative coefficient
    for text in ("1+x1", "2x1", "-x1+x2"):
        with pytest.raises(InputError):
            canonical_form(parse_poly(text))
        with pytest.raises(InputError):
            gm_membership(parse_poly(text), 2)


def test_unit_form_requires_every_slot_used():
    lonely = MultilinearPoly(3, 0, {0: 1}, {})  # x2, x3 unused
    with pytest.raises(InputError):
        canonical_form(lonely)
    assert canonical_form(unit_form(3, {0}, {(1, 2)})).code[0] == 3


def test_membership_uses_used_variables_convention():
    # substitution can orphan a slot; the raw polynomial must still be testable
    f = parse_poly("x1+x2+x1*x3")
    g = substitute(f, 2, 0)  # x1 + x2 on 2 slots
    assert gm_membership(g, 2) == gm_membership_derived(g, 2)


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
            yield unit_form(s, linear, edges)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_membership_literal_equals_derived_exhaustive(s):
    for g in all_unit_forms(s):
        for m in range(1, 9):
            assert gm_membership(g, m) == gm_membership_derived(g, m), (format_poly(g), m)


def test_membership_literal_equals_derived_sampled_large():
    rng = random.Random(105)
    for _ in range(300):
        s = rng.randint(6, 7)
        edges = {e for e in combinations(range(s), 2) if rng.random() < 0.3}
        covered = {v for e in edges for v in e}
        linear = {i for i in range(s) if rng.random() < 0.5} | (set(range(s)) - covered)
        g = unit_form(s, linear, edges)
        for m in (1, 3, 5, 8):
            assert gm_membership(g, m) == gm_membership_derived(g, m)


def test_canonical_form_is_permutation_invariant():
    rng = random.Random(106)
    forms = [g for g in all_unit_forms(4)]
    for g in rng.sample(forms, 40):
        key = canonical_form(g)
        for _ in range(5):
            perm = list(range(g.num_vars))
            rng.shuffle(perm)
            shuffled = permute_variables(g, perm)
            assert canonical_form(shuffled) == key
        # the relabelled representative canonicalizes to itself
        assert canonical_form(key.member) == key


def random_unit_form(rng, max_vars=8):
    """A random 0/1 quadratic form on 1..max_vars slots, every slot used."""
    s = rng.randint(1, max_vars)
    density = rng.random()
    edges = {e for e in combinations(range(s), 2) if rng.random() < density}
    covered = {v for e in edges for v in e}
    linear = {i for i in range(s) if rng.random() < 0.5} | (set(range(s)) - covered)
    return unit_form(s, linear, edges)


def test_canonical_form_matches_unpruned_oracle_on_random_forms():
    rng = random.Random(109)
    for _ in range(500):
        g = random_unit_form(rng)
        key = canonical_form(g)
        want_key, want_rep = canonical_form_unpruned(g)
        assert key == want_key, format_poly(g)
        assert key.member == want_rep


def test_canonical_key_text_format():
    key = canonical_form(parse_poly(PRODUCT_TEXT))
    assert key.text == "n5|L1,2,3,4|E1-5,2-5,3-5,4-5"
    assert canonical_form(parse_poly("x1")).text == "n1|L1|E"
    assert isinstance(key, CanonicalKey) and key == key


def test_canonical_form_var_cap():
    g = unit_form(13, range(13), ())
    with pytest.raises(ResourceLimitError):
        canonical_form(g)


def test_canonical_form_placement_cap():
    # A 12-cycle is vertex-transitive: colour refinement leaves one class of
    # twelve edge-touching members, which would take 12! placements.
    cycle = {(i, i + 1) for i in range(11)} | {(0, 11)}
    g = unit_form(12, (), cycle)
    with pytest.raises(ResourceLimitError):
        canonical_form(g)


def test_parse_format_round_trip():
    rng = random.Random(107)
    for _ in range(100):
        f = random_poly(rng)
        g = parse_poly(format_poly(f))
        assert MultilinearPoly(f.num_vars, g.constant, g.linear, g.quadratic) == f


def test_parse_rejects_malformed_text():
    # The split parser ignored a newline after a term or factor ("x1\n+x2"),
    # as its patterns ended in ``$``.
    for text in ("", "x1+", "x1++x2", "x1*", "*x1", "x1x2", "x1*x1", "x1*x2*x3", "x0", "y1", "2*", "x1\n+x2", "2\n*x1"):
        with pytest.raises(InputError):
            parse_poly(text)


def test_parse_matches_split_parser():
    """Accepts and rejects what the split parser did, with the same result."""

    def outcome(parse, text):
        try:
            return parse(text)
        except InputError:
            return None

    rng = random.Random(109)
    accepted = 0
    for _ in range(20_000):
        text = random_poly_text(rng)
        expected = outcome(parse_poly_split, text)
        assert outcome(parse_poly, text) == expected, text
        accepted += expected is not None
    assert 1_000 < accepted < 19_000  # both outcomes are reached


def test_parse_merges_repeated_terms():
    assert parse_poly("x1+x1") == parse_poly("2x1")
    assert is_zero(parse_poly("x1-x1"))
    assert parse_poly("x1*x2+x2*x1") == parse_poly("2*x1*x2")


def test_json_round_trip():
    rng = random.Random(108)
    for _ in range(50):
        f = random_poly(rng)
        assert poly_from_json(poly_to_json(f)) == f
    assert poly_to_json(parse_poly("3+x1-2*x2*x3")) == {"n": 3, "c": 3, "lin": [[1, 1]], "quad": [[2, 3, -2]]}
