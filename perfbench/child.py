"""One cold-process benchmark run: set up, run one workload, check it, report.

Usage: python3 perfbench/child.py WORKLOAD SEED MODE T0_NS WORKDIR

MODE is ``setup`` (stop once set-up is done), ``run`` or ``trace`` (run with
every layer wrapped by :mod:`tracer`).  T0_NS is the parent's
``perf_counter_ns()`` taken just before it started this process; that clock is
system-wide on Linux, so ``setup_s`` includes interpreter start-up.  The result
is one JSON object on standard output.

Every run is a fresh interpreter because ``edgestat.gm._CACHE`` and
``edgestat.verify._PROFILE_CACHE`` live at module level: a repeat inside one
process would time a warm cache that no user of ``edgestat reproduce`` gets.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from tracer import ATTRS, END, NAME, START, Tracer  # noqa: E402

REPRODUCE_WORKERS = {"reproduce": 1, "reproduce-w2": 2}
WORKLOADS = tuple(REPRODUCE_WORKERS) + ("slice",)

#: Report fields compared with the golden copy; ``wall_time`` is left out
#: because it is a measurement, and fields added later are not compared.
GOLDEN_FIELDS = ("name", "inputs", "exact_values", "threshold", "witness", "checks", "passed")
GOLDEN_PATH = os.path.join(HERE, "golden", "reproduce.json")
CERTIFICATES = ("counts", "prop033", "table", "prop027", "better34", "star_search",
                "goodman", "poisson_emergence", "lemmas")

# Slice batch.  Sizes are fixed so that every seed does the same amount of
# work; the seed picks family parameters and coefficients only.
SLICE_K = 4
SLICE_NS = (40, 44)  # C(40,4) + C(44,4) = 227,141 subsets per family and branch
SIGNED_PAIRS_PER_VAR = 2  # quadratic terms of a signed statistic, per variable
LIMIT_K = {"bipartite": 400, "cliques": 45, "crossed": 150, "blocker": 240}
LIMIT_ELLS = 3  # edge counts per family, around the typical one
DECOMPOSITION_K = 120
DECOMPOSITIONS = 2


# ---------------------------------------------------------------------------
# Slice inputs
# ---------------------------------------------------------------------------


def make_family(C, kind: str, rng: random.Random):
    if kind == "bipartite":
        a = rng.randint(1, 3)
        return C.bipartite_family(a, rng.randint(a + 2, 8), rng.random() < 0.5)
    if kind == "cliques":
        sizes = [rng.randint(2, 4) for _ in range(3)]
        return C.clique_union_family(sizes, sum(sizes) + rng.randint(1, 4))
    if kind == "crossed":
        a, m = rng.randint(1, 2), rng.randint(2, 4)
        return C.crossed_clique_family(a, m, a + m + rng.randint(1, 4))
    a, m = rng.randint(0, 2), rng.randint(1, 3)
    return C.blocker_with_buffer_family(a, m, a + 1 + m + rng.randint(1, 4))


def typical_edge_count(family, k: int) -> int:
    """Edges induced by the part counts closest to k times the part fractions."""
    counts = [round(c * k) for c in family.fractions]
    counts.append(k - sum(counts))
    edges = sum(math.comb(c, 2) for c, q in zip(counts, family.clique) if q)
    return edges + sum(counts[i] * counts[j] for i, j in family.cross)


def signed_statistic(P, n: int, rng: random.Random):
    """A statistic with mixed-sign coefficients on n slots."""
    pairs = rng.sample([(a, b) for a in range(n) for b in range(a + 1, n)], SIGNED_PAIRS_PER_VAR * n)
    quad = {pair: rng.choice((-2, -1, 1, 2)) for pair in pairs}
    quad[pairs[0]], quad[pairs[1]] = 1, -1  # at least two distinct coefficients
    return P.MultilinearPoly(n, rng.randint(-3, 3), {i: rng.randint(-2, 2) for i in range(n)}, quad)


def make_slice_inputs(C, P, seed: int) -> dict:
    rng = random.Random(seed)
    laws, limits = [], []
    for kind in LIMIT_K:
        family = make_family(C, kind, rng)
        for n in SLICE_NS:
            laws.append((family, n, signed_statistic(P, n, rng)))
        k = LIMIT_K[kind]
        typical = typical_edge_count(family, k)
        limits += [(family, k, max(typical + rng.randint(-k, k), 1)) for _ in range(LIMIT_ELLS)]
    k = DECOMPOSITION_K
    decompositions = [(k, rng.randint(k // 10, k // 5)) for _ in range(DECOMPOSITIONS)]
    return {"laws": laws, "limits": limits, "decompositions": decompositions}


def run_slice(C, D, inputs: dict) -> list:
    out = []
    for family, n, signed in inputs["laws"]:
        host = C.build_host(family, n)
        out.append(("edges", f"{family.tag}@n={n}", host, C.edge_count_dist(host, SLICE_K)))
        out.append(("signed", f"signed@n={n}", signed, D.slice_value_dist(signed, D.SliceSpec(n, SLICE_K))))
    for family, k, ell in inputs["limits"]:
        out.append(("limit", f"{family.tag}@k={k},ell={ell}", None, C.limit_probability(family, k, ell)))
    for k, ell in inputs["decompositions"]:
        pieces, _, prob = C.clique_decomposition_bound(k, ell)
        out.append(("limit", f"cliques{pieces}@k={k},ell={ell}", None, prob))
    return out


def expected_mean(f, n: int, k: int) -> Fraction:
    """E[f] on a uniform k-subset of n slots, in closed form."""
    return (
        f.constant
        + Fraction(k, n) * sum(f.linear.values())
        + Fraction(k * (k - 1), n * (n - 1)) * sum(f.quadratic.values())
    )


def check_slice(C, results: list) -> tuple[int, list[str], str]:
    problems = []
    digest = hashlib.sha256()
    for kind, label, subject, value in results:
        if kind == "limit":
            if not 0 <= value <= 1:
                problems.append(f"{label}: limit {value} outside [0, 1]")
            digest.update(f"{label}={value}\n".encode())
            continue
        f = C.edge_polynomial(subject) if kind == "edges" else subject
        mean = sum((v * p for v, p in value.probs.items()), Fraction(0))
        want = expected_mean(f, f.num_vars, SLICE_K)
        if mean != want:
            problems.append(f"{label}: mean {mean} != closed form {want}")
        digest.update(f"{label}:{sorted(value.probs.items())}\n".encode())
    return len(results), problems, digest.hexdigest()


# ---------------------------------------------------------------------------
# Reproduce
# ---------------------------------------------------------------------------


def run_reproduce(cli, workers: int, workdir: str) -> str:
    path = os.path.join(workdir, f"reports-{os.getpid()}.json")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["reproduce", "--workers", str(workers), "--json", path])
    return path


def check_reproduce(path: str) -> tuple[int, list[str], list[dict]]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    try:
        with open(path, encoding="utf-8") as fh:
            reports = json.load(fh)["reports"]
        os.remove(path)
    except FileNotFoundError:
        return len(golden), ["reproduce wrote no reports"], []
    by_name = {r["name"]: r for r in reports}
    problems = []
    for want in golden:
        got = by_name.get(want["name"])
        if got is None:
            problems.append(f"{want['name']}: missing")
        elif not got["passed"]:
            problems.append(f"{want['name']}: certificate failed")
        elif {f: got.get(f) for f in GOLDEN_FIELDS} != want:
            problems.append(f"{want['name']}: differs from the golden report")
    if [r["name"] for r in reports] != [g["name"] for g in golden]:
        problems.append("report names or order differ from the golden copy")
    return len(golden), problems, reports


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def install_tracer(tracer: Tracer, gm, verify, dist, constructions) -> None:
    """Wrap each layer's functions where the calling module bound them."""
    seen: dict[int, object] = {}

    def enumerate_attrs(args, kwargs, family):
        cold = id(family) not in seen  # a cache hit hands back an earlier object
        seen[id(family)] = family
        m = args[0] if args else kwargs["m"]
        return {"m": m, "cold": cold, "members": family.count if cold else 0}

    def slice_attrs(args, kwargs, law):
        f, spec = args[0], args[1]
        branch = "uniform" if len(set(f.quadratic.values())) <= 1 else "mixed"
        return {"branch": branch, "subsets": math.comb(spec.n, spec.k)}

    wrap = tracer.wrap
    wrap(verify, "enumerate_gm", "gm.enumerate_gm", enumerate_attrs)
    wrap(gm, "gm_membership", "poly.gm_membership", lambda a, k, r: {"accepted": bool(r)})
    wrap(gm, "canonical_form", "poly.canonical_form")
    for owner in (verify, dist):
        wrap(owner, "value_weight_counts", "poly.value_weight_counts",
             lambda a, k, r: {"assignments": 1 << a[0].num_vars})
    for attr in ("point_probability", "poisson_tv_check", "binmax", "product_slice_tv"):
        wrap(verify, attr, f"dist.{attr}")
    for owner in (dist, constructions):
        wrap(owner, "slice_value_dist", "dist.slice_value_dist", slice_attrs)
    for attr in ("optimize_p", "reduction_bound", "elo_max"):
        wrap(verify, attr, f"verify.{attr}")
    for name in list(verify.LEMMA_SUITES):
        wrap(verify.LEMMA_SUITES, name, f"verify.suite.{name}")
    for attr in ("build_host", "edge_count_dist", "limit_probability"):
        wrap(constructions, attr, f"constructions.{attr}")


TRACED_FUNCTIONS = (
    "poly.gm_membership", "poly.canonical_form", "poly.value_weight_counts",
    "dist.point_probability", "dist.poisson_tv_check", "dist.binmax", "dist.product_slice_tv",
    "dist.slice_value_dist.uniform", "dist.slice_value_dist.mixed",
    "verify.optimize_p", "verify.reduction_bound", "verify.elo_max",
    "constructions.build_host", "constructions.edge_count_dist", "constructions.limit_probability",
)


def layer_metrics(tracer: Tracer, suites, reports: list[dict]) -> dict:
    own = tracer.self_times_ns()
    calls, busy, self_ns, extra = Counter(), Counter(), Counter(), Counter()
    for span, s_ns in zip(tracer.spans, own):
        name, attrs, dur = span[NAME], span[ATTRS] or {}, span[END] - span[START]
        if name == "dist.slice_value_dist":
            name = f"{name}.{attrs.get('branch', 'failed')}"
        calls[name] += 1
        busy[name] += dur
        self_ns[name] += s_ns
        if name == "gm.enumerate_gm" and attrs.get("cold"):
            extra["gm.enumerate_gm.cold_calls"] += 1
            extra["gm.members"] += attrs["members"]
            if attrs["m"] == 5:
                extra["gm.enumerate_gm.m5_cold_ns"] += dur
        extra[f"{name}.accepted"] += attrs.get("accepted", 0)
        extra[f"{name}.assignments"] += attrs.get("assignments", 0)
        extra[f"{name}.subsets"] += attrs.get("subsets", 0)

    out = {}
    for name in TRACED_FUNCTIONS + ("gm.enumerate_gm",):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name] / 1e9
    out["gm.enumerate_gm.cold_calls"] = extra["gm.enumerate_gm.cold_calls"]
    out["gm.enumerate_gm.self_s"] = self_ns["gm.enumerate_gm"] / 1e9
    out["gm.enumerate_gm.m5_cold_s"] = extra["gm.enumerate_gm.m5_cold_ns"] / 1e9
    out["gm.candidates"] = calls["poly.gm_membership"]
    out["gm.members"] = extra["gm.members"]
    out["gm.dedup_ratio"] = _ratio(extra["gm.members"], calls["poly.canonical_form"])
    out["poly.gm_membership.accept_ratio"] = _ratio(extra["poly.gm_membership.accepted"], calls["poly.gm_membership"])
    out["poly.value_weight_counts.assignments"] = extra["poly.value_weight_counts.assignments"]
    for branch in ("uniform", "mixed"):
        out[f"dist.slice_value_dist.{branch}.subsets"] = extra[f"dist.slice_value_dist.{branch}.subsets"]
    for name in suites:
        out[f"verify.suite.{name}.busy_s"] = busy[f"verify.suite.{name}"] / 1e9
    wall_times = {r["name"]: r["wall_time"] for r in reports}
    for name in CERTIFICATES:
        out[f"verify.cert.{name}_s"] = wall_times.get(name, 0.0)
    return out



def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list[str]) -> int:
    workload, seed, mode, t0_ns, workdir = argv[0], int(argv[1]), argv[2], int(argv[3]), argv[4]
    if workload not in WORKLOADS or mode not in ("setup", "run", "trace"):
        print(f"child: bad arguments {argv}", file=sys.stderr)
        return 2

    import edgestat
    from edgestat import cli, constructions, dist, gm, poly, verify

    if not os.path.abspath(edgestat.__file__).startswith(SRC + os.sep):
        print(f"child: imported edgestat from {edgestat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    inputs = make_slice_inputs(constructions, poly, seed) if workload == "slice" else None
    result = {"setup_s": (perf_counter_ns() - t0_ns) / 1e9}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "trace":
        tracer = Tracer(workdir)
        install_tracer(tracer, gm, verify, dist, constructions)
    cpu0 = _cpu_s()
    start = perf_counter_ns()
    if workload == "slice":
        outcome = run_slice(constructions, dist, inputs)
    else:
        outcome = run_reproduce(cli, REPRODUCE_WORKERS[workload], workdir)
    result["wall_s"] = (perf_counter_ns() - start) / 1e9
    result["cpu_s"] = _cpu_s() - cpu0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(own, kids) / 1024  # ru_maxrss is in KiB on Linux

    problems: list[str] = []
    reports: list[dict] = []
    if tracer is not None:
        not_restored = tracer.unwrap()
        tracer.collect_workers()
        if not_restored:
            problems.append(f"tracer self-test: names not restored: {not_restored}")
        if any(ns < 0 for ns in tracer.self_times_ns()):
            problems.append("tracer self-test: negative self time")
    if workload == "slice":
        attempted, found, result["digest"] = check_slice(constructions, outcome)
    else:
        attempted, found, reports = check_reproduce(outcome)
    problems += found
    if tracer is not None:
        attempted += 1  # the tracer self-test
        enum_spans = [s for s in tracer.spans if s[NAME] == "gm.enumerate_gm"]
        if workload != "slice" and not (enum_spans and (enum_spans[0][ATTRS] or {}).get("cold")):
            problems.append("first enumerate_gm call was served warm: the interpreter was not fresh")
        result["layers"] = layer_metrics(tracer, verify.LEMMA_SUITES, reports)
    result["attempted"] = attempted
    result["failed"] = min(len(problems), attempted)
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
