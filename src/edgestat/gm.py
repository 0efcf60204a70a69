"""Isomorph-free enumeration of the reduced 0/1 quadratic families.

A member at threshold ``m`` is determined by its linear support ``L`` and its
quadratic pair set ``E``.  The unit-substitution constraints translate into
per-vertex capacities:

* every purely-quadratic vertex needs at least one neighbour in ``L`` and at
  most ``m - 1 - |L|`` neighbours outside it;
* every ``L`` vertex tolerates at most ``m - |L|`` neighbours outside ``L``;
* edges inside ``L`` are unconstrained, and ``|L| <= m``.

The generator walks branches ``(t, q) = (|L|, #quadratic-only vertices)``
with ``L`` pinned to the first ``t`` slots.  A completion is a sequence
``cols`` of attachment columns (the mask of each quadratic-only vertex's
``L`` neighbours), a graph QQ on the quadratic-only vertices and an edge set
LL inside ``L``; a skeleton is a completion without LL.  The generator emits
only completions that pass three order cuts, and every class keeps one:

* Label ``L`` so that LL degrees do not increase.  Any labelling of ``L``
  works at this point, because nothing else has been fixed yet; this is the
  signature cut below with ``L`` as one run.
* Label the quadratic-only vertices in order of their columns, so ``cols``
  does not decrease; only such sequences are generated.
* With ``cols`` now fixed, quadratic-only vertices inside one run of equal
  columns are still interchangeable: permuting them keeps every column,
  every ``L`` edge and LL.  Give each vertex the signature (QQ degree,
  sorted run indices of its QQ neighbours).  Such a permutation carries
  each signature to the vertex's image, so sorting every run by
  non-increasing signature gives a copy whose signatures do not increase
  along each run.

Relabelling never changes the capacities below, so that copy is one of the
generated completions.  Two completions that pass the cuts can still be
relabellings of each other, so the canonical search still decides the
classes.

:func:`_bounded_degree_graphs` yields the LL sets and the QQ graphs.  A branch
lists its few column sequences with their runs, then streams its QQ graphs
once, each checked against every sequence's runs by one predicate,
:func:`_signatures_ordered`, which cuts the LL sets too; no QQ list is kept.

The capacities are the membership test, so the generator emits members only.
With ``t = |L|``, pinning a quadratic-only vertex ``x_i = 1`` leaves
``t + |N(i) - L|`` linear terms, and the pinned form leaves the unit family
exactly when ``i`` has a neighbour in ``L`` (that neighbour's coefficient
becomes 2).  Pinning an ``L`` vertex leaves ``t - 1 + |N(i) - L|`` linear
terms and a constant 1, so that form always leaves the unit family.  Edges
inside ``L`` change neither count.  Keeping at most ``m - 1`` linear terms
is therefore exactly: nonempty attachment columns, at most ``m - t``
quadratic-only neighbours per ``L`` vertex (the row cap) and at most
``m - 1 - t`` per quadratic-only vertex.  The literal test
:func:`~edgestat.poly.gm_membership`, which computes each pinned form's
coefficients from the form's own and checks the two conditions on them, is
kept as a test oracle for this.

Every completion that passes the cuts gets one integer canonical search,
:func:`~edgestat.poly.canonical_code`; the distinct codes are the classes.
Branches return only their keys, and the family is their sorted union and
nothing more: each class's representative is its key's ``member``, a
:class:`~edgestat.poly.MultilinearPoly` read off the code when a caller
needs it.  The emitted family is therefore sound and isomorph-free by
construction.

Families are cached by ``m`` alone, each with the one row table the reduction
bound scans, :attr:`GmFamily.value_rows`; both are the same for every worker count.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import le

from .errors import InputError, as_integer
from .poly import CanonicalKey, canonical_code, value_weight_counts
# perfbench/child.py wraps these two names on this module when it traces a run.
from .poly import canonical_form, gm_membership  # noqa: F401

MAX_SUPPORTED_M = 6

_CACHE: dict[int, "GmFamily"] = {}


def var_bound(m: int) -> int:
    """Largest variable count any member at threshold ``m`` can have."""
    m = as_integer(m)
    if m < 1:
        raise InputError("m must be >= 1")
    return (m + 1) ** 2 // 4


@dataclass
class GmFamily:
    """Complete family at threshold ``m``: the sorted canonical keys, one per class.

    A class's representative is its key's ``member``, the form the key spells
    out, and its variable count is ``key.code[0]``.  ``value_rows`` is computed
    on first use and lives as long as the cached family.  ``searches`` is the
    number of canonical searches the generator ran, the same for every worker
    count.
    """

    m: int
    keys: list[CanonicalKey]
    searches: int = 0

    @property
    def count(self) -> int:
        return len(self.keys)

    @property
    def per_s_counts(self) -> dict[int, int]:
        """Class count by variable count, in increasing order."""
        return dict(sorted(Counter(k.code[0] for k in self.keys).items()))

    @cached_property
    def value_rows(self) -> dict[int, list[tuple[tuple[int, ...], CanonicalKey]]]:
        """``value -> [(counts, key), ...]`` in increasing value order: the rows
        that can be the family's largest point mass at that value.

        Each member is read on N = ``var_bound(m)`` slots (a free slot changes
        no mass), so ``counts[w]`` counts the weight-w assignments that give the
        value, and at p = a/b the mass times b^N is sum_w counts[w] a^w (b-a)^(N-w).
        Of equal counts at one value only the first key seen is kept, the
        smallest, as ``keys`` is sorted.  A row that another of its value
        dominates componentwise is strictly lighter on (0, 1).  Rows are visited
        by descending total count and domination is transitive, so every
        dropped row is dominated by a row already kept.
        """
        width = var_bound(self.m)
        first: dict[int, dict[tuple[int, ...], CanonicalKey]] = {}
        for key in self.keys:
            for value, per_w in value_weight_counts(key.member_on(width)).items():
                counts = tuple(per_w.get(w, 0) for w in range(width + 1))
                first.setdefault(value, {}).setdefault(counts, key)
        rows = {value: [] for value in sorted(first)}
        for value, kept in rows.items():
            for counts, key in sorted(first[value].items(), key=lambda row: -sum(row[0])):
                if not any(all(map(le, counts, other)) for other, _ in kept):
                    kept.append((counts, key))
        return rows


def _sorted_columns(t: int, q: int, cap_row: int) -> Iterator[tuple[int, ...]]:
    """Non-decreasing sequences of q nonempty L-attachment masks, row-capped,
    in lexicographic order; ``counts[r]`` is how many columns row r is in."""

    def grow(cols: tuple[int, ...], counts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(cols) == q:
            yield cols
            return
        for mask in range(cols[-1] if cols else 1, 1 << t):
            # from a list: a tuple built from a generator is over-allocated, then shrunk
            grown = tuple([c + (mask >> r & 1) for r, c in enumerate(counts)])
            if max(grown) <= cap_row:
                yield from grow(cols + (mask,), grown)

    return grow((), (0,) * t)


def _bounded_degree_graphs(q: int, max_degree: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Edge sets on q labelled vertices with maximum degree <= max_degree, in the
    order of a depth-first walk that decides each pair in turn, leaving it out
    first; a stack entry is a set still open to the pairs from ``start`` on."""
    pairs = [(a, b) for a in range(q) for b in range(a + 1, q)]
    stack = [(0, (), (0,) * q)]
    while stack:
        start, edges, deg = stack.pop()
        yield edges
        for i in range(start, len(pairs)):
            a, b = pairs[i]
            if deg[a] < max_degree and deg[b] < max_degree:
                grown = list(deg)
                grown[a] += 1
                grown[b] += 1
                stack.append((i + 1, edges + (pairs[i],), tuple(grown)))


def _signatures_ordered(edges: Sequence[tuple[int, int]], run: list[int]) -> bool:
    """Whether the vertex signatures of ``edges`` do not increase inside any run.

    ``run[v]`` numbers the run of interchangeable vertices that v is in, runs
    being contiguous; v's signature is its degree and the sorted runs of its
    neighbours, so with one run it is the degree.
    """
    nbr_runs: list[list[int]] = [[] for _ in run]
    for a, b in edges:
        nbr_runs[a].append(run[b])
        nbr_runs[b].append(run[a])
    sig = [(len(r), sorted(r)) for r in nbr_runs]
    return all(run[v] != run[v + 1] or sig[v] >= sig[v + 1] for v in range(len(run) - 1))


def _enumerate_branch(args: tuple[int, int, int]) -> tuple[set[CanonicalKey], int]:
    """Class keys of one ``(t, q)`` branch and the number of canonical searches run.

    Each (QQ graph, column sequence) pair that passes the order cuts of the
    module docstring is completed by every LL set that passes them."""
    m, t, q = args
    s = t + q
    lmask = (1 << t) - 1
    ll_sets = [list(ll) for ll in _bounded_degree_graphs(t, t - 1) if _signatures_ordered(ll, [0] * t)]
    sequences = []
    for cols in _sorted_columns(t, q, m - t):
        run = [0] * q  # run of equal columns that each quadratic-only vertex is in
        for ci in range(1, q):
            run[ci] = run[ci - 1] + (cols[ci] != cols[ci - 1])
        base = [(r, t + ci) for ci, mask in enumerate(cols) for r in range(t) if mask >> r & 1]
        sequences.append((base, run))
    codes = set()
    searches = 0
    for qq in _bounded_degree_graphs(q, m - 1 - t):
        for base, run in sequences:
            if _signatures_ordered(qq, run):
                searches += len(ll_sets)
                skeleton = base + [(t + a, t + b) for a, b in qq]
                codes.update(canonical_code(s, lmask, skeleton + ll) for ll in ll_sets)
    return {CanonicalKey(code) for code in codes}, searches


def enumerate_gm(m: int, workers: int = 1) -> GmFamily:
    """Enumerate the complete family at threshold ``m`` (supported up to 6)."""
    m, workers = as_integer(m), as_integer(workers)
    if not 1 <= m <= MAX_SUPPORTED_M:
        raise InputError(f"m must be in 1..{MAX_SUPPORTED_M}")
    if workers < 1:
        raise InputError("workers must be >= 1")
    if m in _CACHE:
        return _CACHE[m]
    branches = [(m, t, q) for t in range(1, m + 1) for q in range(t * (m - t) + 1)]
    if workers == 1:
        parts = [_enumerate_branch(branch) for branch in branches]
    else:  # only a pool run imports multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(branches))) as pool:
            parts = list(pool.map(_enumerate_branch, branches))
    keys = sorted(set().union(*(classes for classes, _ in parts)))
    family = GmFamily(m, keys, sum(n for _, n in parts))
    _CACHE[m] = family
    return family
