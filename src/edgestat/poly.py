"""Multilinear integer polynomials of degree at most two.

A polynomial lives on variable slots ``0..num_vars-1`` (printed 1-based as
``x1, x2, ...``) and is stored sparsely: an integer constant, a map
``index -> coefficient`` for linear terms and a map ``(i, j) -> coefficient``
with ``i < j`` for quadratic terms.  All coefficients are integers and zero
coefficients are never stored, so structural equality of the dataclass is
semantic equality of polynomials.

Besides exact value/weight tables this module owns the two notions the
enumeration engine is built on:

* membership of a 0/1 quadratic form in the reduced family ``G(m)`` — the
  forms for which substituting 1 into any single variable both leaves the
  0/1-coefficient family and keeps fewer than ``m`` linear terms; and
* a permutation-canonical key, so that relabelled copies of the same form
  collapse to one representative.

A 0/1 form is a plain :class:`MultilinearPoly` with constant 0 and every
coefficient 1; :func:`canonical_form` also requires every variable slot to
appear in some term, and rejects any other input.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InputError, ResourceLimitError, as_integer, as_pair

#: Hard ceiling on the assignments one value/weight table enumerates.
ASSIGNMENT_CAP = 1 << 24

#: Bits one packed entry of a value/weight table holds at most (see
#: :func:`value_weight_counts`); a wider value range is split into pages.
PAGE_BITS = 1 << 12

#: Canonical keys are only defined for this many variables or fewer.
CANONICAL_VAR_CAP = 12

#: Ceiling on class-respecting placements searched for one canonical key.
#: Family members stay far below this; only degenerate highly symmetric
#: inputs (e.g. a long cycle, which refinement cannot split) can hit it.
CANONICAL_PLACEMENT_CAP = 4_000_000


@dataclass
class MultilinearPoly:
    """Sparse multilinear polynomial of degree <= 2 with integer coefficients.

    The variable count, indices, coefficients and constant are read by
    :func:`~edgestat.errors.as_integer`, so a float or a non-integral value is
    an :class:`InputError`, never truncated.
    """

    num_vars: int
    constant: int = 0
    linear: dict[int, int] = field(default_factory=dict)
    quadratic: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.num_vars = as_integer(self.num_vars)
        if n < 0:
            raise InputError("num_vars must be non-negative")
        lin: dict[int, int] = {}
        for i, c in self.linear.items():
            i, c = as_integer(i), as_integer(c)
            if not 0 <= i < n:
                raise InputError(f"linear index {i} out of range for {n} variables")
            if c:
                lin[i] = c
        quad: dict[tuple[int, int], int] = {}
        for pair, c in self.quadratic.items():
            (i, j), c = as_pair(pair, n), as_integer(c)
            if c == 0:
                continue
            if (i, j) in quad:
                raise InputError(f"duplicate quadratic pair ({i},{j})")
            quad[(i, j)] = c
        self.constant = as_integer(self.constant)
        self.linear = dict(sorted(lin.items()))
        self.quadratic = dict(sorted(quad.items()))

    def used_variables(self) -> set[int]:
        used = set(self.linear)
        for i, j in self.quadratic:
            used.add(i)
            used.add(j)
        return used


def _slot_steps(f: MultilinearPoly) -> list[tuple[int, int, int, dict[int, int], tuple | None]]:
    """The read slots of ``f`` in the order :func:`value_weight_counts` sets
    them, each as ``(slot, keep, bit, pairs, twins)``: ``keep`` is the
    frontier after the step, so masking with it clears the bits the step
    releases; ``bit`` is the slot's own frontier bit, or 0; ``pairs`` maps each
    coefficient to the mask of the slot's neighbours placed before it;
    ``twins`` is None or ``(held, fills)``, described below.

    The slots with a quadratic term come first, next always the one that
    leaves the fewest frontier bits, the lowest label on ties.  Placing v adds
    v to the frontier if it has an unplaced neighbour, and drops each frontier
    neighbour whose only unplaced neighbour is v (the ``single`` mask).  The
    slots read only linearly come last; they never touch the frontier.

    Two slots are twins when every quadratic term of each has the same
    coefficient c, for both the same c, and they have the same partners apart
    from each other: open twins share their partner mask, closed twins (joined
    to each other by c) their partner mask plus their own bit.  Twins that are
    both placed have the same unplaced partners, so they sit in the frontier
    together and leave it at the same step.  Twinship is an equivalence, and
    a slot is never both an open and a closed twin, so each slot lies in at
    most one group.  When a step places a member of a group and leaves two or
    more of its placed members in the frontier, ``held`` is the mask of those
    members and ``fills[j]`` the mask of the j lowest of them.
    """
    by_coef: dict[int, dict[int, int]] = {}  # slot -> {coefficient: mask of the neighbours with it}
    for (a, b), c in f.quadratic.items():
        masks = by_coef.setdefault(a, {})
        masks[c] = masks.get(c, 0) | 1 << b
        masks = by_coef.setdefault(b, {})
        masks[c] = masks.get(c, 0) | 1 << a
    nbr = {u: sum(masks.values()) for u, masks in by_coef.items()}  # disjoint masks: one coefficient a pair
    todo, steps = sorted(nbr.items()), []
    placed = frontier = single = 0
    unplaced = -1
    while todo:
        best = 2  # above any score; todo is in label order, so ties keep the lowest label
        for u, m in todo:
            score = (m & unplaced != 0) - (m & single).bit_count()
            if score < best:
                best, v, mv = score, u, m
        todo.remove((v, mv))
        coefs = by_coef[v]
        pairs = {c: m & placed for c, m in coefs.items() if m & placed} if mv & placed else {}
        placed |= 1 << v
        unplaced = ~placed
        touched = mv & frontier | 1 << v
        while touched:
            u = touched.bit_length() - 1
            touched ^= 1 << u
            left = (nbr[u] & unplaced).bit_count()
            frontier = frontier | 1 << u if left else frontier & ~(1 << u)
            single = single | 1 << u if left == 1 else single & ~(1 << u)
        twins = None
        rest = frontier & ~(1 << v)
        if rest and frontier >> v & 1 and len(coefs) == 1:  # v's placed twins are in the frontier with it
            held = 1 << v
            while rest:
                u = rest.bit_length() - 1
                rest ^= 1 << u
                if not (nbr[u] ^ mv) & ~(1 << u | 1 << v) and by_coef[u].keys() == coefs.keys():
                    held |= 1 << u
            if held & held - 1:
                fills, rest = [0], held
                while rest:
                    fills.append(fills[-1] | rest & -rest)
                    rest &= rest - 1
                twins = (held, fills)
        steps.append((v, frontier, frontier & 1 << v, pairs, twins))
    steps += [(v, 0, 0, {}, None) for v in f.linear if v not in nbr]
    return steps


def _extreme_sums(values, count: int) -> tuple[int, int]:
    """The least and the greatest sum of at most ``count`` of ``values``: the
    ``count`` most negative ones and the ``count`` most positive ones.  When
    ``count`` covers every value these are the sums of the negative and of
    the positive values, read off the total and the absolute total unsorted."""
    if count < len(values):
        values = sorted(values)
        return (sum(values[:min(count, bisect_left(values, 0))]),
                sum(values[max(len(values) - count, bisect_right(values, 0)):]))
    total, size = sum(values), sum(map(abs, values))
    return (total - size) // 2, (total + size) // 2


def value_weight_counts(f: MultilinearPoly, weights: range | None = None) -> dict[int, dict[int, int]]:
    """Exact table ``value -> {weight -> count}`` over the assignments with
    weight in ``weights``, a non-empty step-1 range within 0..num_vars
    (default: all); any other window is an :class:`InputError`.

    Weight is the number of ones.  The slots some term reads are set one at a
    time, in the order of :func:`_slot_steps`, which keeps the frontier narrow:
    the frontier holds the set bits a later slot still reads, and a bit leaves
    it once its last quadratic partner is placed.  A state leaves once it
    cannot end in the window, with the u unread slots still to come, and at its
    top weight the frontier empties.  The unread slots then come in one step:
    an entry at weight w adds C(u, j) times its packed int to its page's total
    at w + j.  The cap bounds the sum of C(n, w) over the window: 2**n for all
    weights, and at most C(N, k) for the weights a k-subset of N slots gives,
    ``range(max(0, k - (N - n)), min(k, n) + 1)``, as each assignment in that
    window extends to k-subsets no other assignment extends to; and C(u, j) <=
    C(n, w + j) by Vandermonde, so no binomial built exceeds the cap.  The cap
    counts assignments, so it holds whatever the order.

    The table is keyed by ``(weight, frontier, page)`` and each entry packs
    the counts of all its values into one int, ``width`` bits per value, so
    taking a slot moves every value of an entry with one shift.  Two bounds
    make the packing exact:

    * A state has at most ``hi`` ones, so its partial value lies between the
      constant plus the ``hi`` most negative linear and the C(hi, 2) most
      negative quadratic coefficients (``least``) and the matching sum of
      positive ones: value - ``least`` is a digit index in 0..``span`` - 1.
    * A digit counts partial assignments that each extend to a different
      assignment in the window, or, once the unread slots are added, distinct
      full assignments of one weight in it, so it never exceeds the window's
      assignment count: the guard's ``needed``, or 2**n below the guard's
      size.  ``width`` is that count's bit length, so no digit carries.

    Page p holds the digits of indices p*P .. p*P + P - 1, P = ``page`` =
    min(span, PAGE_BITS // width), so an entry is at most PAGE_BITS bits and
    a coefficient of 10**9 costs a few pages, not 10**9 digits.  Taking slot v
    adds the same d to every value of an entry, as d reads the entry's mask
    only; with d = q*P + r and 0 <= r < P, the left shift by r digits is
    exact, since no digit carries, and the digits land on pages p + q and
    p + q + 1: the low P digits are masked off and the right shift by P
    digits takes the rest, both exact.  By the first bound no digit falls
    outside 0..span - 1.  d depends only on the mask's bits among v's placed
    neighbours, so each step computes it once per such pattern.

    The table is updated in place, over a snapshot of its entries.  A state
    that skips the slot keeps its entry; only takes, the bits the step
    releases, twin merges and the floor rewrite entries.  Each take is taken
    from the snapshot's count, and it lands at a weight at or above the floor
    on a frontier already cleared and merged, never on an entry the step
    still moves or deletes.

    A frontier keeps only how many placed members of each twin group it
    holds, as the group's lowest labels (``fills``), so states that differ
    only inside a group merge.  This is exact: swapping the bits of two placed
    twins u and w changes no later step.  A later slot z other than u and w
    reads both with the same coefficient or neither, so its value term
    ``c * (nbrs & mask).bit_count()`` is unchanged; u and w leave the frontier
    at the same step, so ``keep`` clears both or neither; and a step's own
    ``bit`` is its unplaced slot's.  A slot with two coefficients is in no
    group, since a later slot may read it with a different one.
    """
    n = f.num_vars
    if weights is None:
        weights = range(n + 1)
    if (not isinstance(weights, range) or weights.step != 1 or not weights
            or weights.start < 0 or weights.stop > n + 1):
        raise InputError(f"weights must be a non-empty step-1 range within 0..{n}, got {weights}")
    lo, hi = weights.start, weights.stop - 1
    needed = 1 << n
    if n >= ASSIGNMENT_CAP.bit_length():  # else all 2**n assignments are within the cap
        needed, term = 0, 1  # C(n, j) for j up to min(lo, n - lo), so C(n, lo) if the cap holds
        for j in range(min(lo, n - lo)):
            term = term * (n - j) // (j + 1)
            if term > ASSIGNMENT_CAP:
                break
        for w in weights:  # term is C(n, w) while the sum stays within the cap
            needed += term
            if needed > ASSIGNMENT_CAP:
                raise ResourceLimitError(f"{n} variables at weight {lo}..{hi} have more assignments "
                                         f"than the cap of {ASSIGNMENT_CAP}")
            term = term * (n - w) // (w + 1)
    (lin_low, lin_high), (quad_low, quad_high) = (_extreme_sums(f.linear.values(), hi),
                                                  _extreme_sums(f.quadratic.values(), hi * (hi - 1) // 2))
    least = f.constant + lin_low + quad_low
    span = lin_high + quad_high - lin_low - quad_low + 1
    width = needed.bit_length()
    page = min(span, PAGE_BITS // width)
    page_bits = page * width
    page_mask = (1 << page_bits) - 1
    steps = _slot_steps(f)
    start, offset = divmod(f.constant - least, page)
    states: dict[tuple[int, int, int], int] = {(0, 0, start): 1 << offset * width}
    before = 0  # the frontier before the step
    for i, (v, keep, bit, below, twins) in enumerate(steps):
        lin = f.linear.get(v, 0)
        pairs = below.items()
        read = sum(below.values())  # the placed neighbours, the only mask bits the step reads
        shifts: dict[int, tuple[int, int]] = {}  # mask & read -> (page offset, bits to shift)
        floor = lo - (n - 1 - i)  # least weight that still reaches the window, unread slots included
        held, fills = twins or (0, None)
        moving = before & ~keep or held  # a released bit or a twin merge moves a skipping entry
        before = keep
        for (weight, mask, p), packed in list(states.items()):
            if weight < hi:
                pattern = mask & read
                shift = shifts.get(pattern)
                if shift is None:
                    d = lin
                    for c, nbrs in pairs:
                        d += c * (nbrs & mask).bit_count()
                    q, r = divmod(d, page)
                    shift = shifts[pattern] = (q, r * width)
                q, bits = shift
                to = (mask & keep) | bit if weight + 1 < hi else 0
                if held:
                    to = to & ~held | fills[(to & held).bit_count()]
                packed <<= bits
                high = packed >> page_bits
                if high:
                    key = (weight + 1, to, p + q + 1)
                    states[key] = states.get(key, 0) + high
                    packed &= page_mask
                if packed:
                    key = (weight + 1, to, p + q)
                    states[key] = states.get(key, 0) + packed
            if weight < floor:
                del states[weight, mask, p]
            elif moving:
                to = mask & keep
                if held:
                    to = to & ~held | fills[(to & held).bit_count()]
                if to != mask:
                    key = (weight, to, p)
                    states[key] = states.get(key, 0) + states.pop((weight, mask, p))
    unread = n - len(steps)
    totals: dict[tuple[int, int], int] = {}  # (full weight, page) -> packed counts
    for (weight, _, p), packed in states.items():
        for w in range(max(lo, weight), min(hi, weight + unread) + 1):
            totals[w, p] = totals.get((w, p), 0) + packed * math.comb(unread, w - weight)
    digit_mask = (1 << width) - 1
    counts: dict[int, dict[int, int]] = {}
    for (w, p), packed in totals.items():
        value = least + p * page
        while packed:
            count = packed & digit_mask
            if count:
                counts.setdefault(value, {})[w] = count
            packed >>= width
            value += 1
    return counts


# ---------------------------------------------------------------------------
# The reduced 0/1 family
# ---------------------------------------------------------------------------


def _require_unit_form(f: MultilinearPoly) -> None:
    """Constant 0 and every stored coefficient equal to 1; unused variables
    are allowed here, so the zero polynomial qualifies."""
    if f.constant or any(c != 1 for c in (*f.linear.values(), *f.quadratic.values())):
        raise InputError("polynomial must have zero constant and all coefficients equal to 1")


def gm_membership(f: MultilinearPoly, m: int) -> bool:
    """Literal membership test in the reduced family for threshold ``m``.

    For every variable slot ``i``, the polynomial obtained by pinning
    ``x_i = 1`` must (a) leave the 0/1 family — i.e. acquire a nonzero
    constant or some coefficient >= 2 — and (b) keep at most ``m - 1``
    nonzero linear terms.  The pinned form's coefficients are read off
    ``f``: its constant is f's coefficient of ``x_i``, each ``x_j`` keeps
    its own linear coefficient plus that of ``x_i x_j``, and the quadratic
    terms away from ``i`` keep their coefficient 1.
    """
    m = as_integer(m)
    if m < 1:
        raise InputError("m must be >= 1")
    _require_unit_form(f)
    pinned: list[dict[int, int]] = [dict(f.linear) for _ in range(f.num_vars)]  # slot i -> pinned linear part
    for (a, b), c in f.quadratic.items():
        pinned[a][b] = pinned[a].get(b, 0) + c
        pinned[b][a] = pinned[b].get(a, 0) + c
    for i, linear in enumerate(pinned):
        constant = linear.pop(i, 0)
        if not constant and all(c == 1 for c in linear.values()):
            return False
        if len(linear) > m - 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class CanonicalKey:
    """Total-order-comparable encoding of a form up to variable relabelling."""

    code: tuple

    @property
    def text(self) -> str:
        s, lin, edges = self.code
        lpart = ",".join(str(i + 1) for i in lin)
        epart = ",".join(f"{a + 1}-{b + 1}" for a, b in edges)
        return f"n{s}|L{lpart}|E{epart}"

    @property
    def member(self) -> MultilinearPoly:
        """The class representative: the form the key spells out."""
        return self.member_on(self.code[0])

    def member_on(self, num_vars: int) -> MultilinearPoly:
        """The class representative on ``num_vars`` slots, at least its own."""
        _, lin, edges = self.code
        return MultilinearPoly(num_vars, 0, dict.fromkeys(lin, 1), dict.fromkeys(edges, 1))


def _refined_classes(s: int, lmask: int, adj: list[list[int]]) -> list[list[int]]:
    """Partition vertices by iterated colour refinement.

    The initial colour orders linear-flagged vertices first, then by degree;
    each round appends the sorted multiset of neighbour colours.  Colours are
    re-ranked each round by sorting the raw tuples, which keeps the whole
    procedure label-invariant.  Classes come out in colour order, members in
    increasing label order.
    """
    color = [(0 if lmask >> v & 1 else s) + len(adj[v]) for v in range(s)]
    count = len(set(color))
    while True:
        raw = [(color[v], tuple(sorted([color[u] for u in adj[v]]))) for v in range(s)]
        rank = {t: r for r, t in enumerate(sorted(set(raw)))}
        if len(rank) == count:
            break
        count = len(rank)
        color = [rank[t] for t in raw]
    classes: dict[int, list[int]] = {}
    for v in range(s):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def canonical_code(num_vars: int, lmask: int, edges: Sequence[tuple[int, int]]) -> tuple:
    """Canonical encoding ``(num_vars, sorted L, sorted E)`` of a unit form.

    ``lmask`` has bit ``i`` set when ``x_i`` carries a linear term and
    ``edges`` lists the quadratic pairs.  The result is the minimum encoding
    over the relabellings that map each colour-refinement class onto its
    fixed block of target labels, with the edge-free members of a class
    parked at the back of its block (see :func:`canonical_form`).

    The search places edge-touching members one target label at a time, in
    increasing label order.  Edges are encoded as ``row * num_vars + col``
    integers, so an encoding is a sorted list of ints.  Once labels up to
    ``P`` are placed, every row whose vertex has no unplaced neighbour is
    final, and the first row that still has one is known up to its columns
    ``<= P``; its next entry is at least ``(row, P + 1)``.  A partial
    placement whose known prefix, followed by that lower bound, already
    exceeds the best encoding found is dropped with all its completions.
    """
    s = num_vars
    adj: list[list[int]] = [[] for _ in range(s)]
    nbr = [0] * s
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    classes = _refined_classes(s, lmask, adj)

    lin: list[int] = []
    groups: list[list[int]] = []  # edge-touching members of each class
    slot_label: list[int] = []  # target label of each placement step
    slot_group: list[int] = []  # class whose member takes that label
    placements = 1
    pos = 0
    for cls in classes:
        edged = [v for v in cls if adj[v]]
        if lmask >> cls[0] & 1:
            lin.extend(range(pos, pos + len(cls)))
        if edged:
            slot_label.extend(range(pos, pos + len(edged)))
            slot_group.extend([len(groups)] * len(edged))
            groups.append(edged)
            placements *= math.factorial(len(edged))
        pos += len(cls)
    if placements > CANONICAL_PLACEMENT_CAP:
        raise ResourceLimitError(f"canonical search needs {placements} class-respecting placements")

    # Swapping two twins (same neighbours apart from each other) is an
    # automorphism, so of the free twins only the first need be tried.
    twins = [0] * s
    for group in groups:
        for u in group:
            for v in group:
                if nbr[u] & ~(1 << v) == nbr[v] & ~(1 << u):
                    twins[u] |= 1 << v
    steps = len(slot_label)
    at = [0] * steps  # vertex placed at each step
    best: list[int] | None = None

    def place(i: int, prefix: list[int], head: int, free: int) -> None:
        """Place step ``i``; ``prefix`` is the determined encoding, ``head``
        the first step whose row is still open and ``free`` the unplaced
        edge-touching vertices."""
        nonlocal best
        if i == steps:
            if best is None or prefix < best:
                best = prefix
            return
        label = slot_label[i]
        tried = 0
        for v in groups[slot_group[i]]:
            if not free >> v & 1 or twins[v] & tried:
                continue
            tried |= 1 << v
            at[i] = v
            rest = free & ~(1 << v)
            enc = prefix.copy()
            h = head
            if h < i and nbr[at[h]] >> v & 1:
                enc.append(slot_label[h] * s + label)
            while h <= i and not nbr[at[h]] & rest:
                h += 1
                if h < i:
                    row, mask = slot_label[h] * s, nbr[at[h]]
                    enc += [row + slot_label[j] for j in range(h + 1, i + 1) if mask >> at[j] & 1]
            if best is not None:
                bound = enc + [slot_label[h] * s + label + 1] if h <= i else enc
                if bound > best[: len(bound)]:
                    continue
            place(i + 1, enc, h, rest)

    place(0, [], 0, sum(1 << v for group in groups for v in group))
    edge_code = tuple(divmod(e, s) for e in best) if best else ()
    return (s, tuple(lin), edge_code)


def canonical_form(f: MultilinearPoly) -> CanonicalKey:
    """Canonical key of a 0/1 quadratic form with no unused variable slot.

    The key is the minimum encoding ``(num_vars, sorted L, sorted E)`` over
    the relabellings that map each colour-refinement class onto its fixed
    block of target labels.  Any relabelling between two forms must preserve
    the (label-invariant) refined colours, so two forms get equal keys
    exactly when one is a relabelling of the other.  The representative,
    the form the key spells out, is ``key.member``.  The key reads only which
    terms are present, so a constant, a coefficient other than 1 or an
    unused slot is an :class:`InputError`.

    Two reductions keep the search small.  Classes are wholly linear or
    wholly quadratic, and each occupies a fixed block of target labels, so
    the L part of the encoding is the same for every placement.  Within a
    class, members without quadratic neighbours never appear in the E part,
    and moving edge-touching members to the front of their block only lowers
    edge labels, so the minimum is attained with untouched members parked at
    the back — only edge-touching members are permuted.  The search itself
    runs on integers in :func:`canonical_code`, which drops a partial
    placement as soon as its encoding prefix exceeds the best one found.
    The cap still counts the placements an unpruned search would visit, so
    highly symmetric inputs that refinement cannot split (far outside the
    enumerated families) are rejected whatever pruning would have saved.
    """
    s = f.num_vars
    if s > CANONICAL_VAR_CAP:
        raise ResourceLimitError(f"canonical keys support at most {CANONICAL_VAR_CAP} variables")
    _require_unit_form(f)
    if f.used_variables() != set(range(s)):
        raise InputError("every variable slot must appear in some term")
    return CanonicalKey(canonical_code(s, sum(1 << i for i in f.linear), list(f.quadratic)))


# ---------------------------------------------------------------------------
# Text and JSON forms
# ---------------------------------------------------------------------------

#: One term of :func:`parse_poly`: an optional sign, then a coefficient, its
#: ``x<i>`` factors joined by ``*``, or both, the coefficient joined to the
#: first factor directly or by ``*``.  The lookahead rejects a bare sign.
_TERM_RE = re.compile(r"(-?)(?=[\dx])(\d*)(?:\*?(x\d+(?:\*x\d+)*))?")


def parse_poly(text: str) -> MultilinearPoly:
    """Parse ``"x2+x3+x1*x2"``-style text (also signs, integer coefficients).

    The variable count is the largest index mentioned.  Repeated terms add
    up, a pair in either order being one term.
    """
    compact = text.replace(" ", "")
    if not compact:
        raise InputError("empty polynomial text")
    terms: dict[tuple[int, ...], int] = {}  # sorted 0-based indices -> coefficient
    for chunk in compact.replace("+-", "-").replace("-", "+-").removeprefix("+").split("+"):
        m = _TERM_RE.fullmatch(chunk)
        if not m:
            raise InputError(f"cannot parse term {chunk!r} in {text!r}")
        sign, coeff, factors = m.groups()
        key = tuple(sorted(int(v) - 1 for v in factors[1:].split("*x"))) if factors else ()
        if len(key) > 2:
            raise InputError(f"term {chunk!r} has degree > 2")
        if key and key[0] < 0:
            raise InputError("variable indices are 1-based")
        terms[key] = terms.get(key, 0) + int(sign + (coeff or "1"))
    constant = terms.pop((), 0)
    linear = {key[0]: c for key, c in terms.items() if len(key) == 1}
    quadratic = {key: c for key, c in terms.items() if len(key) == 2}
    return MultilinearPoly(max((key[-1] + 1 for key in terms), default=0), constant, linear, quadratic)


def _format_term(coeff: int, vars_text: str) -> str:
    if not vars_text:
        return str(coeff)
    if coeff == 1:
        return vars_text
    if coeff == -1:
        return "-" + vars_text
    return f"{coeff}*{vars_text}"


def format_poly(f: MultilinearPoly) -> str:
    """Inverse of :func:`parse_poly` (exact round-trip when every slot is used)."""
    terms: list[str] = []
    if f.constant:
        terms.append(str(f.constant))
    for i, c in f.linear.items():
        terms.append(_format_term(c, f"x{i + 1}"))
    for (a, b), c in f.quadratic.items():
        terms.append(_format_term(c, f"x{a + 1}*x{b + 1}"))
    if not terms:
        return "0"
    return "+".join(terms).replace("+-", "-")


def poly_to_json(f: MultilinearPoly) -> dict:
    """JSON-ready dict with 1-based indices; exact round-trip."""
    return {
        "n": f.num_vars,
        "c": f.constant,
        "lin": [[i + 1, c] for i, c in f.linear.items()],
        "quad": [[a + 1, b + 1, c] for (a, b), c in f.quadratic.items()],
    }

