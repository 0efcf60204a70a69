"""Isomorph-free enumeration of the reduced 0/1 quadratic families.

A member at threshold ``m`` is determined by its linear support ``L`` and its
quadratic pair set ``E``.  The unit-substitution constraints translate into
per-vertex capacities:

* every purely-quadratic vertex needs at least one neighbour in ``L`` and at
  most ``m - 1 - |L|`` neighbours outside it;
* every ``L`` vertex tolerates at most ``m - |L|`` neighbours outside ``L``;
* edges inside ``L`` are unconstrained, and ``|L| <= m``.

The generator walks branches ``(t, q) = (|L|, #quadratic-only vertices)``
with ``L`` pinned to the first ``t`` slots and the quadratic-only attachment
columns emitted in non-decreasing mask order (every relabelling class
contains such a representative, so nothing is missed).  A skeleton is one
choice of attachment columns plus a graph on the quadratic-only vertices;
each skeleton is completed by every edge set inside ``L``.

Membership does not depend on the edges inside ``L``: pinning ``x_i = 1``
leaves ``|(L - {i}) | N(i)|`` linear terms whatever they are, and the pinned
form leaves the unit family exactly when ``i`` is in ``L`` or has a neighbour
there.  So the literal substitution test runs once per skeleton, on its form
without ``L``-``L`` edges, and decides for all its completions.  Completions
are deduplicated by the integer canonical code of
:func:`~edgestat.poly.canonical_code`, computed on plain ints, and
:func:`~edgestat.poly.canonical_form` runs once per distinct class to build
its key and representative.  The emitted family is therefore sound and
isomorph-free by construction.

Families are cached by ``m`` alone: a family is identical for every worker
count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import InputError
from .poly import (
    CanonicalKey,
    GPolynomial,
    canonical_code,
    canonical_form,
    gm_membership,
    value_weight_counts,
)

MAX_SUPPORTED_M = 6

_CACHE: dict[int, "GmFamily"] = {}


def var_bound(m: int) -> int:
    """Largest variable count any member at threshold ``m`` can have."""
    if m < 1:
        raise InputError("m must be >= 1")
    return (m + 1) ** 2 // 4


@dataclass
class GmFamily:
    """Complete family at threshold ``m``, one canonical representative per class.

    ``keys`` are sorted and ``members[i]`` represents ``keys[i]``; ``profiles``
    are computed on first use and live as long as the cached family.
    """

    m: int
    members: list[GPolynomial]
    keys: list[CanonicalKey]
    per_s_counts: dict[int, int]
    wall_time: float = 0.0

    @property
    def count(self) -> int:
        return len(self.members)

    @cached_property
    def profiles(self) -> list[dict[int, dict[int, int]]]:
        """``value_weight_counts`` of every member, in member order."""
        return [value_weight_counts(g.poly) for g in self.members]


@dataclass
class StructureStats:
    max_num_vars: int
    max_linear_terms: int
    max_quad_degree: int


def _sorted_columns(t: int, q: int, cap_row: int) -> list[tuple[int, ...]]:
    """Non-decreasing sequences of q nonempty L-attachment masks, row-capped."""
    out: list[tuple[int, ...]] = []
    counts = [0] * t
    cols: list[int] = []

    def rec(idx: int, start: int) -> None:
        if idx == q:
            out.append(tuple(cols))
            return
        for mask in range(start, 1 << t):
            rows = [r for r in range(t) if mask >> r & 1]
            if any(counts[r] >= cap_row for r in rows):
                continue
            for r in rows:
                counts[r] += 1
            cols.append(mask)
            rec(idx + 1, mask)
            cols.pop()
            for r in rows:
                counts[r] -= 1

    rec(0, 1)
    return out


def _bounded_degree_graphs(q: int, cap: int) -> list[tuple[tuple[int, int], ...]]:
    """All edge sets on q labelled vertices with maximum degree <= cap."""
    pairs = [(a, b) for a in range(q) for b in range(a + 1, q)]
    out: list[tuple[tuple[int, int], ...]] = []
    deg = [0] * q
    chosen: list[tuple[int, int]] = []

    def rec(i: int) -> None:
        if i == len(pairs):
            out.append(tuple(chosen))
            return
        rec(i + 1)
        a, b = pairs[i]
        if deg[a] < cap and deg[b] < cap:
            deg[a] += 1
            deg[b] += 1
            chosen.append(pairs[i])
            rec(i + 1)
            chosen.pop()
            deg[a] -= 1
            deg[b] -= 1

    rec(0)
    return out


def _skeletons(m: int, t: int, q: int) -> Iterator[list[tuple[int, int]]]:
    """Edge lists of the branch's skeletons: attachment columns plus a
    bounded-degree graph on the quadratic-only vertices, no edge inside L."""
    cap_row = m - t
    cap_q = m - 1 - t
    qq_graphs = _bounded_degree_graphs(q, cap_q) if q else [()]
    for cols in _sorted_columns(t, q, cap_row) if q else [()]:
        base = [(r, t + ci) for ci, mask in enumerate(cols) for r in range(t) if mask >> r & 1]
        for qq in qq_graphs:
            yield base + [(t + a, t + b) for a, b in qq]


def _enumerate_branch(args: tuple[int, int, int]) -> dict[CanonicalKey, GPolynomial]:
    m, t, q = args
    s = t + q
    lmask = (1 << t) - 1
    ll_pairs = [(a, b) for a in range(t) for b in range(a + 1, t)]
    ll_sets = [
        [ll_pairs[i] for i in range(len(ll_pairs)) if ll_mask >> i & 1]
        for ll_mask in range(1 << len(ll_pairs))
    ]
    members: dict[CanonicalKey, GPolynomial] = {}
    for skeleton in _skeletons(m, t, q):
        if not gm_membership(GPolynomial.from_sets(s, range(t), skeleton), m):
            continue
        for ll in ll_sets:
            edges = skeleton + ll
            if CanonicalKey(canonical_code(s, lmask, edges)) not in members:
                key, rep = canonical_form(GPolynomial.from_sets(s, range(t), edges))
                members[key] = rep
    return members


def enumerate_gm(m: int, workers: int = 1) -> GmFamily:
    """Enumerate the complete family at threshold ``m`` (supported up to 6)."""
    if not 1 <= m <= MAX_SUPPORTED_M:
        raise InputError(f"m must be in 1..{MAX_SUPPORTED_M}")
    if workers < 1:
        raise InputError("workers must be >= 1")
    if m in _CACHE:
        return _CACHE[m]
    start = time.perf_counter()
    branches = [(m, t, q) for t in range(1, m + 1) for q in range(t * (m - t) + 1)]
    merged: dict[CanonicalKey, GPolynomial] = {}
    if workers == 1:
        for branch in branches:
            merged.update(_enumerate_branch(branch))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_enumerate_branch, branches):
                merged.update(part)
    keys = sorted(merged)
    members = [merged[k] for k in keys]
    per_s: dict[int, int] = {}
    for g in members:
        per_s[g.num_vars] = per_s.get(g.num_vars, 0) + 1
    family = GmFamily(m, members, keys, dict(sorted(per_s.items())), time.perf_counter() - start)
    _CACHE[m] = family
    return family


def max_structure_stats(family: GmFamily) -> StructureStats:
    """Extremes over the family: variable count, |L|, and quadratic degree."""
    max_vars = 0
    max_lin = 0
    max_deg = 0
    for g in family.members:
        max_vars = max(max_vars, g.num_vars)
        max_lin = max(max_lin, len(g.linear_indices))
        deg: dict[int, int] = {}
        for a, b in g.edge_pairs:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        if deg:
            max_deg = max(max_deg, max(deg.values()))
    return StructureStats(max_vars, max_lin, max_deg)
