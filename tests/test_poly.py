"""Polynomial core: normalization, evaluation, substitution, canonical forms."""

import math
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest

from edgestat.errors import InputError, ResourceLimitError
from edgestat.poly import (
    CanonicalKey,
    MultilinearPoly,
    _extreme_sums,
    _slot_steps,
    canonical_form,
    format_poly,
    gm_membership,
    parse_poly,
    poly_to_json,
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
    substitute,
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


def test_quadratic_key_of_three_indices_rejected():
    # The third index used to be dropped, so this became x1*x2.
    with pytest.raises(InputError):
        MultilinearPoly(3, 0, {}, {(0, 1, 2): 1})


def test_quadratic_key_of_one_index_rejected():
    # This used to raise IndexError.
    with pytest.raises(InputError):
        MultilinearPoly(3, 0, {}, {(0,): 1})


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


def test_value_weight_counts_rejects_windows_outside_its_domain():
    f = parse_poly("x1+x2-2*x1*x2+x3")
    # A list, a tuple, an int or a str used to raise AttributeError on .step.
    for window in (range(0, 4, 2), range(5, 9), range(-1, 2), range(2, 2), range(0, 5), [0, 1], (0, 1), 1, "01"):
        with pytest.raises(InputError, match="step-1 range within 0..3"):
            value_weight_counts(f, window)
    assert value_weight_counts(f, range(3, 4)) == {1: {3: 1}}
    assert value_weight_counts(f, range(0, 4)) == _brute_force_table(f)


#: Coefficients whose value range is far wider than the values a form takes.
_WIDE_COEFFICIENTS = (1, -1, 97, -97, 10**9, -10**9)


def _wide_form(rng, n):
    linear = {i: rng.choice(_WIDE_COEFFICIENTS) for i in range(n) if rng.random() < 0.8}
    quadratic = {e: rng.choice(_WIDE_COEFFICIENTS) for e in combinations(range(n), 2) if rng.random() < 0.3}
    return MultilinearPoly(n, rng.choice((0, 5, -10**9)), linear, quadratic)


def test_value_weight_counts_large_coefficients_equal_brute_force_and_oracle():
    """Forms whose coefficients mix +-1 with +-97 and +-10**9 span many pages."""
    rng = random.Random(109)
    for _ in range(60):
        n = rng.randint(0, 9)
        f = _wide_form(rng, n)
        lo = rng.randint(0, n)
        window = range(lo, rng.randint(lo, n) + 1)
        full = _brute_force_table(f)
        assert value_weight_counts(f) == full, f
        want = {v: {w: c for w, c in per.items() if w in window} for v, per in full.items()}
        assert value_weight_counts(f, window) == {v: per for v, per in want.items() if per}, (f, window)
    for _ in range(30):
        n = rng.randint(10, 20)
        f = _wide_form(rng, n)
        window = _small_window(rng, n) if rng.random() < 0.7 else None
        assert value_weight_counts(f, window) == value_weight_counts_label_order(f, window), (f, window)


def test_value_weight_counts_memory_follows_the_values_not_the_coefficients():
    """One digit per value of 0..10**9 would take hundreds of megabytes; the
    pages keep the peak the same for a coefficient of 10**9 and of 10**18."""
    peaks = []
    for big in (10**9, 10**18):
        f = parse_poly(f"{big}*x1*x2+x3-7*x4")
        tracemalloc.start()
        try:
            table = value_weight_counts(f)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert table == _brute_force_table(f)
    assert max(peaks) < 100_000, peaks


def test_value_weight_counts_digit_holds_the_window_count():
    """All C(25, 12) assignments of the window {12} land on one digit, the
    window's whole assignment count: a digit one bit narrower overflows."""
    f = MultilinearPoly(25, 0, dict.fromkeys(range(25), 1))
    assert value_weight_counts(f, range(12, 13)) == {12: {12: math.comb(25, 12)}}


def test_extreme_sums_equal_brute_force():
    rng = random.Random(110)
    for _ in range(300):
        values = [rng.choice((-10**9, -97, -2, -1, 1, 2, 97, 10**9)) for _ in range(rng.randint(0, 7))]
        count = rng.randint(0, 8)
        sums = [sum(c) for k in range(min(count, len(values)) + 1) for c in combinations(values, k)]
        assert _extreme_sums(values, count) == (min(sums), max(sums)), (values, count)


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


def _twins(f, u, w):
    """Oracle for twin slots: each has one coefficient, and swapping them
    leaves ``f.quadratic`` unchanged."""
    for v in (u, w):
        if len({c for pair, c in f.quadratic.items() if v in pair}) != 1:
            return False
    swap = {u: w, w: u}
    swapped = {tuple(sorted(swap.get(a, a) for a in pair)): c for pair, c in f.quadratic.items()}
    return swapped == f.quadratic


def _steps_from_order(f, order):
    """``_slot_steps``' tuples recomputed from the order alone, the twin data
    from :func:`_twins`: the placed twins of the step's slot that a later slot
    reads, the slot included, when there are two or more."""
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
        held = [u for u in order[:i + 1] if keep >> u & 1 and keep >> v & 1 and (u == v or _twins(f, u, v))]
        twins = None
        if len(held) >= 2:
            held.sort()
            twins = (sum(1 << u for u in held), [sum(1 << u for u in held[:j]) for j in range(len(held) + 1)])
        steps.append((v, keep, keep & 1 << v, pairs, twins))
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
    # A triangle whose last slot reads the other two with different coefficients.
    triangle = MultilinearPoly(3, 0, {}, {(0, 1): 3, (0, 2): -2, (1, 2): 5})
    # x1, x2, x3 all read by x4 and x5 with coefficient -2: two groups of open twins.
    open_twins = MultilinearPoly(5, 0, {0: 1}, {(a, b): -2 for a in range(3) for b in (3, 4)})
    # x1, x2, x3 all read by x4, x5 and x6 with coefficient -2: after x1 and x4, x2 and x3 join x1 as held twins.
    open_triple = MultilinearPoly(6, 0, {0: 1}, {(a, b): -2 for a in range(3) for b in (3, 4, 5)})
    # x1..x4 a 4-clique with coefficient 3, every one read by x5 and x6: closed twins.
    closed_twins = MultilinearPoly(6, 0, {}, {**{pair: 3 for pair in combinations(range(4), 2)},
                                              **{(a, b): 3 for a in range(4) for b in (4, 5)}})
    # Same partners, different coefficients: x1 reads x3, x4 with 1, x2 with 2.
    unequal = MultilinearPoly(4, 0, {}, {(0, 2): 1, (0, 3): 1, (1, 2): 2, (1, 3): 2})
    # Two coefficients each: swapping x1 and x2 leaves the form unchanged, but neither is a twin.
    two_coefficients = MultilinearPoly(4, 0, {}, {(0, 2): 1, (0, 3): 2, (1, 2): 1, (1, 3): 2})
    orders = {  # name -> (form, order or None, peak frontier width)
        "split": (split, [2, 0, 3, 4, 1, 5], 1),
        "hubs": (hubs, [8, 0, 9] + [w for i in range(1, 8) for w in (8 + 2 * i, i, 9 + 2 * i)], 1),
        "linear_last": (linear_last, [1, 3, 0, 2, 4], 1),
        "path": (path, list(range(10)), 1),
        "no_pairs": (unit_form(8, range(8), []), list(range(8)), 0),
        "signed": (signed, None, 2),
        "triangle": (triangle, [0, 1, 2], 2),
        "open_twins": (open_twins, [0, 3, 4, 1, 2], 2),
        "open_triple": (open_triple, [0, 3, 1, 2, 4, 5], 3),
        "closed_twins": (closed_twins, [4, 0, 1, 2, 3, 5], 4),
        "unequal": (unequal, [0, 2, 1, 3], 2),
        "two_coefficients": (two_coefficients, [0, 2, 1, 3], 2),
    }
    for name, (f, order, peak) in orders.items():
        steps = _slot_steps(f)
        got = [v for v, *_ in steps]
        assert sorted(got) == sorted(f.used_variables()), name
        if order is not None:
            assert got == order, name
        assert max((keep.bit_count() for _, keep, *_ in steps), default=0) == peak, name
        assert steps == _steps_from_order(f, got), name
        assert value_weight_counts(f) == value_weight_counts_label_order(f), name
    # x3 reads x4 with coefficient 3: x4 leaves the frontier, x3 joins it.  x1
    # reads x3 with -2 and joins too; x2 reads both with 3, and both leave.
    assert _slot_steps(signed)[1:4] == [(2, 1 << 2, 1 << 2, {3: 1 << 3}, None),
                                        (0, 0b101, 1 << 0, {-2: 1 << 2}, None),
                                        (1, 0, 0, {3: 0b101}, None)]
    # x3 reads x1 with coefficient -2 and x2 with 5; x1 and x2 leave the frontier.
    assert _slot_steps(triangle)[2] == (2, 0, 0, {-2: 1 << 0, 5: 1 << 1}, None)
    # x5 joins x4: two held open twins, the lowest j of them standing for any j.
    assert _slot_steps(open_twins)[2][4] == (0b11000, [0, 0b01000, 0b11000])
    # The third open twin joins two held ones; the lowest j of the three stand for any j.
    assert _slot_steps(open_triple)[3][4] == (0b111, [0, 0b001, 0b011, 0b111])
    assert [step[4] is not None for step in _slot_steps(closed_twins)] == [False, False, True, True, True, False]
    # The fourth closed twin joins three held ones.
    assert _slot_steps(closed_twins)[4][4] == (0b1111, [0, 0b0001, 0b0011, 0b0111, 0b1111])
    for name in ("unequal", "two_coefficients"):
        f = orders[name][0]
        assert not _twins(f, 0, 1) and all(step[4] is None for step in _slot_steps(f)), name


def test_slot_steps_order_cost_on_seeded_signed_forms():
    """Signed forms on 44 slots with 88 pairs: the sum over the walk's steps
    of C(F, <= 3), F the frontier width after the step, stays at most what
    ties broken toward placed neighbours give.  Ties broken by label alone
    cost 15,066 / 10,812 / 10,210 / 7,335 / 10,871 on the same forms."""
    costs = []
    for seed in range(5):
        rng = random.Random(seed)
        n = 44
        pairs = rng.sample([(a, b) for a in range(n) for b in range(a + 1, n)], 2 * n)
        linear = {i: rng.randint(-2, 2) for i in range(n)}
        f = MultilinearPoly(n, 0, linear, {pair: rng.choice((-2, -1, 1, 2)) for pair in pairs})
        costs.append(sum(math.comb(keep.bit_count(), j) for _, keep, *_ in _slot_steps(f) for j in range(4)))
    assert all(cost <= bound for cost, bound in zip(costs, [3750, 4269, 5028, 4846, 3621])), costs


def test_slot_steps_twins_equal_oracle_on_random_twin_forms():
    """Forms built to have twins: every slot of a random block structure has
    one coefficient per block pair, so the blocks' members are twins unless
    a coefficient differs; the twin data must equal the swap oracle's."""
    rng = random.Random(108)
    for _ in range(150):
        blocks = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        starts = [sum(blocks[:i]) for i in range(len(blocks))]
        n = sum(blocks)
        quadratic = {}
        for i, j in combinations(range(len(blocks)), 2):
            if rng.random() < 0.6:
                c = rng.choice((-1, 1, 2))
                quadratic.update({(a, b): c for a in range(starts[i], starts[i] + blocks[i])
                                  for b in range(starts[j], starts[j] + blocks[j])})
        for i, size in enumerate(blocks):
            if rng.random() < 0.5:
                quadratic.update({pair: rng.choice((1, 2)) for pair in combinations(range(starts[i], starts[i] + size), 2)})
        f = MultilinearPoly(n, 0, {v: rng.randint(-1, 1) for v in range(n)}, quadratic)
        steps = _slot_steps(f)
        assert steps == _steps_from_order(f, [v for v, *_ in steps]), f
        assert value_weight_counts(f) == _brute_force_table(f), f


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


def test_membership_reads_m_exactly():
    # 2.5 used to get a verdict, and "3" raised TypeError.
    f = parse_poly("x1+x2+x1*x2")
    for m in (2.5, 2.0, Fraction(5, 2)):
        with pytest.raises(InputError):
            gm_membership(f, m)
    assert gm_membership(f, "3") == gm_membership(f, 3)


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
    # A squared variable used to fail in MultilinearPoly, naming no term.
    with pytest.raises(InputError, match=r"term 'x1\*x1' repeats x1"):
        parse_poly("x1*x1")
    with pytest.raises(InputError, match=r"term '-2\*x3\*x3' repeats x3"):
        parse_poly("x1+x2-2*x3*x3")


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
