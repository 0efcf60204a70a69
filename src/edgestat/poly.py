"""Multilinear integer polynomials of degree at most two.

A polynomial lives on variable slots ``0..num_vars-1`` (printed 1-based as
``x1, x2, ...``) and is stored sparsely: an integer constant, a map
``index -> coefficient`` for linear terms and a map ``(i, j) -> coefficient``
with ``i < j`` for quadratic terms.  All coefficients are integers and zero
coefficients are never stored, so structural equality of the dataclass is
semantic equality of polynomials.

Besides evaluation and 0/1-substitution this module owns the two notions the
enumeration engine is built on:

* membership of a 0/1 quadratic form in the reduced family ``G(m)`` — the
  forms for which substituting 1 into any single variable both leaves the
  0/1-coefficient family and keeps fewer than ``m`` linear terms; and
* a permutation-canonical key, so that relabelled copies of the same form
  collapse to one representative.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import InputError, ResourceLimitError

#: Hard ceiling on 2**num_vars for full assignment enumeration.
DEFAULT_ASSIGNMENT_CAP = 1 << 24

#: Canonical keys are only defined for this many variables or fewer.
CANONICAL_VAR_CAP = 12

#: Ceiling on class-respecting placements searched for one canonical key.
#: Family members stay far below this; only degenerate highly symmetric
#: inputs (e.g. a long cycle, which refinement cannot split) can hit it.
CANONICAL_PLACEMENT_CAP = 4_000_000


@dataclass
class MultilinearPoly:
    """Sparse multilinear polynomial of degree <= 2 with integer coefficients."""

    num_vars: int
    constant: int = 0
    linear: dict[int, int] = field(default_factory=dict)
    quadratic: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise InputError("num_vars must be non-negative")
        lin: dict[int, int] = {}
        for i, c in self.linear.items():
            i, c = int(i), int(c)
            if not 0 <= i < self.num_vars:
                raise InputError(f"linear index {i} out of range for {self.num_vars} variables")
            if c:
                lin[i] = c
        quad: dict[tuple[int, int], int] = {}
        for pair, c in self.quadratic.items():
            i, j = int(pair[0]), int(pair[1])
            c = int(c)
            if i == j:
                raise InputError("quadratic terms must pair two distinct variables")
            if i > j:
                i, j = j, i
            if not 0 <= i < j < self.num_vars:
                raise InputError(f"quadratic pair ({i},{j}) out of range for {self.num_vars} variables")
            if c == 0:
                continue
            if (i, j) in quad:
                raise InputError(f"duplicate quadratic pair ({i},{j})")
            quad[(i, j)] = c
        self.constant = int(self.constant)
        self.linear = dict(sorted(lin.items()))
        self.quadratic = dict(sorted(quad.items()))

    def used_variables(self) -> set[int]:
        used = set(self.linear)
        for i, j in self.quadratic:
            used.add(i)
            used.add(j)
        return used

    def is_zero(self) -> bool:
        return not self.constant and not self.linear and not self.quadratic


def zero_poly(num_vars: int = 0) -> MultilinearPoly:
    return MultilinearPoly(num_vars)


def evaluate(f: MultilinearPoly, assignment: Sequence[int]) -> int:
    """Value of ``f`` at a 0/1 assignment (one bit per variable slot)."""
    if len(assignment) != f.num_vars:
        raise InputError(f"assignment length {len(assignment)} != num_vars {f.num_vars}")
    for b in assignment:
        if b not in (0, 1):
            raise InputError("assignment entries must be 0 or 1")
    value = f.constant
    for i, c in f.linear.items():
        if assignment[i]:
            value += c
    for (i, j), c in f.quadratic.items():
        if assignment[i] and assignment[j]:
            value += c
    return value


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


def permute_variables(f: MultilinearPoly, perm: Sequence[int]) -> MultilinearPoly:
    """Relabel variables: old slot ``v`` becomes ``perm[v]``."""
    if sorted(perm) != list(range(f.num_vars)):
        raise InputError("perm must be a permutation of range(num_vars)")
    linear = {perm[v]: c for v, c in f.linear.items()}
    quadratic = {(perm[a], perm[b]): c for (a, b), c in f.quadratic.items()}
    return MultilinearPoly(f.num_vars, f.constant, linear, quadratic)


def iter_assignment_values(f: MultilinearPoly) -> Iterator[tuple[int, int]]:
    """Yield ``(value, weight)`` over all 2**num_vars assignments.

    Weight is the number of ones.  Order is the DFS order of setting each
    variable to 0 before 1; callers that aggregate into counts are order
    independent.
    """
    n = f.num_vars
    lin = [f.linear.get(v, 0) for v in range(n)]
    below: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (a, b), c in f.quadratic.items():
        below[b].append((a, c))

    def rec(v: int, value: int, weight: int, mask: int) -> Iterator[tuple[int, int]]:
        if v == n:
            yield value, weight
            return
        yield from rec(v + 1, value, weight, mask)
        gain = lin[v]
        for j, c in below[v]:
            if mask >> j & 1:
                gain += c
        yield from rec(v + 1, value + gain, weight + 1, mask | (1 << v))

    return rec(0, f.constant, 0, 0)


def value_weight_counts(
    f: MultilinearPoly, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> dict[int, dict[int, int]]:
    """Exact table ``value -> {weight -> count}`` over all assignments."""
    total = 1 << f.num_vars
    if total > cap:
        raise ResourceLimitError(
            f"assignment enumeration needs {total} assignments, cap is {cap}",
            needed=total,
            cap=cap,
        )
    counts: dict[int, dict[int, int]] = {}
    for value, weight in iter_assignment_values(f):
        per = counts.setdefault(value, {})
        per[weight] = per.get(weight, 0) + 1
    return counts


def achievable_values(f: MultilinearPoly, cap: int = DEFAULT_ASSIGNMENT_CAP) -> list[int]:
    """Sorted list of values ``f`` attains on {0,1}^num_vars."""
    return sorted(value_weight_counts(f, cap))


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


@dataclass
class GPolynomial:
    """A 0/1 quadratic form with no constant term and no unused variable.

    ``L`` is the set of indices carrying a linear term, ``E`` the set of pairs
    carrying a quadratic term; together they must cover every variable slot.
    """

    poly: MultilinearPoly

    def __post_init__(self) -> None:
        _require_unit_form(self.poly)
        if self.poly.used_variables() != set(range(self.poly.num_vars)):
            raise InputError("every variable slot must appear in some term")

    @classmethod
    def from_sets(cls, num_vars: int, linear: Iterable[int], edges: Iterable[tuple[int, int]]) -> "GPolynomial":
        lin = {int(i): 1 for i in linear}
        quad = {(int(a), int(b)): 1 for a, b in edges}
        return cls(MultilinearPoly(num_vars, 0, lin, quad))

    @property
    def num_vars(self) -> int:
        return self.poly.num_vars

    @property
    def linear_indices(self) -> frozenset[int]:
        return frozenset(self.poly.linear)

    @property
    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.poly.quadratic)


def _as_unit_poly(g: GPolynomial | MultilinearPoly) -> MultilinearPoly:
    f = g.poly if isinstance(g, GPolynomial) else g
    _require_unit_form(f)
    return f


def gm_membership(g: GPolynomial | MultilinearPoly, m: int) -> bool:
    """Literal membership test in the reduced family for threshold ``m``.

    For every variable slot ``i``, the polynomial obtained by pinning
    ``x_i = 1`` must (a) leave the 0/1 family — i.e. acquire a nonzero
    constant or some coefficient >= 2 — and (b) keep at most ``m - 1``
    nonzero linear terms.
    """
    if m < 1:
        raise InputError("m must be >= 1")
    f = _as_unit_poly(g)
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

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


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
        raise ResourceLimitError(
            f"canonical search needs {placements} class-respecting placements",
            needed=placements,
            cap=CANONICAL_PLACEMENT_CAP,
        )

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


def canonical_form(g: GPolynomial, max_vars: int = CANONICAL_VAR_CAP) -> tuple[CanonicalKey, GPolynomial]:
    """Canonical key plus the relabelled representative that attains it.

    The key is the minimum encoding ``(num_vars, sorted L, sorted E)`` over
    the relabellings that map each colour-refinement class onto its fixed
    block of target labels.  Any relabelling between two forms must preserve
    the (label-invariant) refined colours, so two forms get equal keys
    exactly when one is a relabelling of the other.  The representative is
    the form the key spells out.

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
    s = g.num_vars
    if s > max_vars:
        raise ResourceLimitError(
            f"canonical keys support at most {max_vars} variables", needed=s, cap=max_vars
        )
    lmask = sum(1 << i for i in g.poly.linear)
    code = canonical_code(s, lmask, list(g.poly.quadratic))
    return CanonicalKey(code), GPolynomial.from_sets(s, code[1], code[2])


def canonical_key(g: GPolynomial, max_vars: int = CANONICAL_VAR_CAP) -> CanonicalKey:
    return canonical_form(g, max_vars)[0]


# ---------------------------------------------------------------------------
# Text and JSON forms
# ---------------------------------------------------------------------------

_TERM_HEAD_RE = re.compile(r"^(?P<sign>[+-])?(?P<coeff>\d+)?(?P<var>x\d+)?$")
_TERM_VAR_RE = re.compile(r"^x(\d+)$")


def _parse_term(chunk: str) -> tuple[int, list[int]]:
    """Split one ``-2*x1*x3``-style product into (coefficient, 1-based indices)."""
    parts = chunk.split("*")
    head = _TERM_HEAD_RE.match(parts[0])
    if not head or (head.group("coeff") is None and head.group("var") is None):
        raise InputError(f"cannot parse term {chunk!r}")
    coeff = int(head.group("coeff") or 1)
    if head.group("sign") == "-":
        coeff = -coeff
    var_texts = ([head.group("var")] if head.group("var") else []) + parts[1:]
    indices = []
    for text in var_texts:
        m = _TERM_VAR_RE.match(text or "")
        if not m:
            raise InputError(f"cannot parse term {chunk!r}")
        indices.append(int(m.group(1)))
    return coeff, indices


def parse_poly(text: str, num_vars: int | None = None) -> MultilinearPoly:
    """Parse ``"x2+x3+x1*x2"``-style text (also signs, integer coefficients).

    The variable count defaults to the largest index mentioned; pass
    ``num_vars`` to embed into a wider slot range.
    """
    compact = text.replace(" ", "")
    if not compact:
        raise InputError("empty polynomial text")
    chunks = compact.replace("+-", "-").replace("-", "+-").split("+")
    constant = 0
    linear: dict[int, int] = {}
    quadratic: dict[tuple[int, int], int] = {}
    max_index = 0
    seen_term = False
    for pos, chunk in enumerate(chunks):
        if not chunk:
            if pos == 0:
                continue  # leading sign produced an empty head
            raise InputError(f"dangling operator in {text!r}")
        seen_term = True
        coeff, indices = _parse_term(chunk)
        if any(v < 1 for v in indices):
            raise InputError("variable indices are 1-based")
        if indices:
            max_index = max(max_index, *indices)
        if len(indices) == 0:
            constant += coeff
        elif len(indices) == 1:
            i = indices[0] - 1
            linear[i] = linear.get(i, 0) + coeff
        elif len(indices) == 2:
            a, b = indices[0] - 1, indices[1] - 1
            if a == b:
                raise InputError("quadratic terms must pair two distinct variables")
            if a > b:
                a, b = b, a
            quadratic[(a, b)] = quadratic.get((a, b), 0) + coeff
        else:
            raise InputError(f"term {chunk!r} has degree > 2")
    if not seen_term:
        raise InputError("empty polynomial text")
    n = max_index if num_vars is None else num_vars
    if n < max_index:
        raise InputError(f"num_vars={n} smaller than largest index {max_index}")
    return MultilinearPoly(n, constant, linear, quadratic)


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


def poly_from_json(data: dict) -> MultilinearPoly:
    try:
        n = int(data["n"])
        constant = int(data.get("c", 0))
        linear = {int(i) - 1: int(c) for i, c in data.get("lin", [])}
        quadratic = {(int(a) - 1, int(b) - 1): int(c) for a, b, c in data.get("quad", [])}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed polynomial JSON: {exc}") from exc
    return MultilinearPoly(n, constant, linear, quadratic)
