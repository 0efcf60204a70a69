"""Multilinear integer polynomials of degree at most two.

A polynomial lives on variable slots ``0..num_vars-1`` (printed 1-based as
``x1, x2, ...``) and is stored sparsely: an integer constant, a map
``index -> coefficient`` for linear terms and a map ``(i, j) -> coefficient``
with ``i < j`` for quadratic terms.  All coefficients are integers and zero
coefficients are never stored, so structural equality of the dataclass is
semantic equality of polynomials.

Besides 0/1-substitution and exact value/weight tables this module owns the
two notions the enumeration engine is built on:

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
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InputError, ResourceLimitError, as_integer

#: Hard ceiling on the assignments one value/weight table enumerates.
ASSIGNMENT_CAP = 1 << 24

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
            i, j, c = as_integer(pair[0]), as_integer(pair[1]), as_integer(c)
            if i == j:
                raise InputError("quadratic terms must pair two distinct variables")
            if i > j:
                i, j = j, i
            if not 0 <= i < j < n:
                raise InputError(f"quadratic pair ({i},{j}) out of range for {n} variables")
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


def substitute(f: MultilinearPoly, i: int, bit: int) -> MultilinearPoly:
    """Pin ``x_i = bit`` and drop slot ``i``; higher slots shift down by one."""
    if not 0 <= i < f.num_vars:
        raise InputError(f"variable index {i} out of range")
    if bit not in (0, 1):
        raise InputError("substituted value must be 0 or 1")

    def shift(v: int) -> int:
        return v - 1 if v > i else v

    constant = f.constant
    linear: dict[int, int] = {}
    quadratic: dict[tuple[int, int], int] = {}
    for v, c in f.linear.items():
        if v == i:
            if bit:
                constant += c
        else:
            linear[shift(v)] = linear.get(shift(v), 0) + c
    for (a, b), c in f.quadratic.items():
        if i in (a, b):
            if bit:
                other = shift(b if a == i else a)
                linear[other] = linear.get(other, 0) + c
        else:
            quadratic[(shift(a), shift(b))] = c
    return MultilinearPoly(f.num_vars - 1, constant, linear, quadratic)


def _slot_steps(f: MultilinearPoly) -> list[tuple[int, int, int, dict[int, int]]]:
    """The read slots of ``f`` in the order :func:`value_weight_counts` sets
    them, each as ``(slot, keep, bit, pairs)``: ``keep`` is the frontier after
    the step, so masking with it clears the bits the step releases; ``bit`` is
    the slot's own frontier bit, or 0; ``pairs`` maps each coefficient to the
    mask of the slot's neighbours placed before it.

    The slots with a quadratic term come first, next always the one that
    leaves the fewest frontier bits, the lowest label on ties.  Placing v adds
    v to the frontier if it has an unplaced neighbour, and drops each frontier
    neighbour whose only unplaced neighbour is v (the ``single`` mask).  The
    slots read only linearly come last; they never touch the frontier.
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
        pairs = {c: m & placed for c, m in by_coef[v].items() if m & placed}
        placed |= 1 << v
        unplaced = ~placed
        touched = mv & frontier | 1 << v
        while touched:
            u = touched.bit_length() - 1
            touched ^= 1 << u
            left = (nbr[u] & unplaced).bit_count()
            frontier = frontier | 1 << u if left else frontier & ~(1 << u)
            single = single | 1 << u if left == 1 else single & ~(1 << u)
        steps.append((v, frontier, frontier & 1 << v, pairs))
    steps += [(v, 0, 0, {}) for v in f.linear if v not in nbr]
    return steps


def value_weight_counts(f: MultilinearPoly, weights: range | None = None) -> dict[int, dict[int, int]]:
    """Exact table ``value -> {weight -> count}`` over the assignments with
    weight in ``weights``, a step-1 range within 0..num_vars (default: all).

    Weight is the number of ones.  The slots some term reads are set one at a
    time; the state is ``(value, weight, frontier) -> count``, where the
    frontier holds the set bits a later slot still reads, and a bit leaves it
    once its last quadratic partner is placed, so assignments that agree on
    all three merge.  The table does not depend on the order the slots are
    set in, but the number of states does, so :func:`_slot_steps` sets it by a
    greedy walk that keeps the frontier narrow.  A state leaves once it cannot
    end in the window, with the u unread slots still to come, and at its top
    weight the frontier empties.  The unread slots then come in one step:
    weight w goes to w + j in C(u, j) ways.  The cap bounds the sum of C(n, w)
    over the window: 2**n for all weights, and at most C(N, k) for the weights
    a k-subset of N slots gives, ``range(max(0, k - (N - n)), min(k, n) + 1)``,
    as each assignment in that window extends to k-subsets no other
    assignment extends to; and C(u, j) <= C(n, w + j) by Vandermonde, so no
    binomial built exceeds the cap.  The cap counts assignments, so it holds
    whatever the order.
    """
    n = f.num_vars
    if weights is None:
        weights = range(n + 1)
    lo, hi = weights.start, weights.stop - 1
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
    steps = _slot_steps(f)
    states: dict[tuple[int, int, int], int] = {(f.constant, 0, 0): 1}
    for i, (v, keep, bit, below) in enumerate(steps):
        lin = f.linear.get(v, 0)
        pairs = below.items()
        floor = lo - (n - 1 - i)  # least weight that still reaches the window, unread slots included
        nxt: dict[tuple[int, int, int], int] = {}
        while states:  # popping frees each entry for nxt to reuse
            (value, weight, mask), count = states.popitem()
            if weight >= floor:
                key = (value, weight, mask & keep)
                nxt[key] = nxt.get(key, 0) + count
            if weight < hi:
                for c, nbrs in pairs:
                    value += c * (nbrs & mask).bit_count()
                weight += 1
                key = (value + lin, weight, (mask & keep) | bit if weight < hi else 0)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    unread = n - len(steps)
    counts: dict[int, dict[int, int]] = {}
    for (value, weight, _), count in states.items():
        per = counts.setdefault(value, {})
        for w in range(max(lo, weight), min(hi, weight + unread) + 1):
            per[w] = per.get(w, 0) + count * math.comb(unread, w - weight)
    return counts


# ---------------------------------------------------------------------------
# The reduced 0/1 family
# ---------------------------------------------------------------------------


def _is_unit_form(f: MultilinearPoly) -> bool:
    """Constant 0 and every stored coefficient equal to 1.

    Unused variables are allowed here; the zero polynomial qualifies.
    """
    if f.constant != 0:
        return False
    if any(c != 1 for c in f.linear.values()):
        return False
    return all(c == 1 for c in f.quadratic.values())


def _require_unit_form(f: MultilinearPoly) -> None:
    if not _is_unit_form(f):
        raise InputError("polynomial must have zero constant and all coefficients equal to 1")


def gm_membership(f: MultilinearPoly, m: int) -> bool:
    """Literal membership test in the reduced family for threshold ``m``.

    For every variable slot ``i``, the polynomial obtained by pinning
    ``x_i = 1`` must (a) leave the 0/1 family — i.e. acquire a nonzero
    constant or some coefficient >= 2 — and (b) keep at most ``m - 1``
    nonzero linear terms.
    """
    if m < 1:
        raise InputError("m must be >= 1")
    _require_unit_form(f)
    for i in range(f.num_vars):
        h = substitute(f, i, 1)
        if _is_unit_form(h):
            return False
        if len(h.linear) > m - 1:
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

