"""Command-line interface: enumeration, certificates, distributions,
constructions, and the one-shot reproduction run.

Exit codes: 0 all requested certificates pass, 1 a certificate failed,
2 usage or resource error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Iterable

from .constructions import (
    bipartite_family,
    clique_decomposition_bound,
    clique_union_family,
    limit_probability,
    poisson_reference,
    verify_goodman,
    verify_poisson_emergence,
)
from .dist import SliceSpec, bernoulli_value_dist, format_rational, slice_value_dist
from .errors import InputError, ResourceLimitError, as_rational
from .gm import enumerate_gm
from .poly import format_poly, parse_poly
from .report import VerificationReport
from .verify import (
    check_better34_inequalities,
    verify_counts,
    verify_lemmas,
    verify_prop_027,
    verify_prop_033,
    verify_star_search,
    verify_table,
)


def _positive(text: str) -> int:
    """The type of ``--workers``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _check_output_paths(args: argparse.Namespace) -> None:
    """Reject a ``--json``/``--csv`` path that is empty, is a directory or lies
    in a missing one, and two paths that name the same file, before any work;
    no file is opened."""
    paths = [path for path in (getattr(args, "json_path", None), getattr(args, "csv_path", None))
             if path is not None]
    for path in paths:
        if not path:
            raise InputError("cannot write an empty path")
        if os.path.isdir(path):
            raise InputError(f"cannot write {path}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise InputError(f"cannot write {path}: no such directory")
    if len(paths) == 2 and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise InputError(f"cannot write {paths[0]} and {paths[1]}: they name the same file")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _print_report(report: VerificationReport) -> None:
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] {report.name} ({report.wall_time:.2f}s)")
    for c in report.checks:
        mark = "ok" if c.ok else "VIOLATED"
        print(f"  {c.name}: {c.lhs} {c.op} {c.rhs} -> {mark}")


def _print_status(report: VerificationReport) -> None:
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] {report.name:<18} ({report.wall_time:.2f}s)")


def _cmd_enumerate(args) -> int:
    start = time.perf_counter()
    family = enumerate_gm(args.m, args.workers)
    per_s = family.per_s_counts
    summary = (
        "m,count,max_vars,wall_time\n"
        f"{family.m},{family.count},{max(per_s)},{time.perf_counter() - start:.2f}\n"
    )
    print(summary, end="")
    if args.per_s:
        print("s,count")
        for s, count in per_s.items():
            print(f"{s},{count}")
    if args.csv_path:
        _write_text(args.csv_path, summary)
    if args.json_path:
        lines = []
        for key in family.keys:
            s, lin, _ = key.code
            lines.append(
                json.dumps(
                    {
                        "key": key.text,
                        "poly": format_poly(key.member),
                        "s": s,
                        "linear_terms": len(lin),
                    },
                    sort_keys=True,
                )
            )
        _write_text(args.json_path, "\n".join(lines) + "\n")
    return 0


def _run_table(args) -> VerificationReport:
    """The table certificate; with ``--csv`` it also writes the table rows."""
    report, rows = verify_table(args.workers)
    if args.csv_path:
        lines = ["m,count,p_star,bound_exact,bound_decimal"]
        lines += [
            f"{r['m']},{r['count']},{r['p_star']},{r['bound_exact']},{r['bound_decimal']}"
            for r in rows
        ]
        _write_text(args.csv_path, "\n".join(lines) + "\n")
    return report


#: Every certificate, in the order ``reproduce`` runs them, with the flags its
#: runner reads; ``verify NAME`` takes those flags and ``--json``.
CERTIFICATES: dict[str, tuple[Callable[[argparse.Namespace], VerificationReport], tuple[str, ...]]] = {
    "counts": (lambda args: verify_counts(args.workers), ("--workers",)),
    "prop033": (lambda args: verify_prop_033(args.workers), ("--workers",)),
    "table": (_run_table, ("--workers", "--csv")),
    "prop027": (lambda args: verify_prop_027(), ()),
    "better34": (lambda args: check_better34_inequalities(), ()),
    "star_search": (lambda args: verify_star_search(), ()),
    "goodman": (lambda args: verify_goodman(), ()),
    "poisson_emergence": (lambda args: verify_poisson_emergence(), ()),
    "lemmas": (lambda args: verify_lemmas(), ()),
}


def _run_certificates(
    names: Iterable[str], args: argparse.Namespace, show: Callable[[VerificationReport], None]
) -> list[VerificationReport]:
    """Run the named certificates in order, timing each and showing its report as it lands."""
    reports = []
    for name in names:
        start = time.perf_counter()
        report = CERTIFICATES[name][0](args)
        report.wall_time = time.perf_counter() - start
        show(report)
        reports.append(report)
    return reports


def _cmd_verify(args) -> int:
    (report,) = _run_certificates((args.target,), args, _print_report)
    if args.json_path:
        _write_text(args.json_path, report.to_json_str() + "\n")
    return 0 if report.passed else 1


def _cmd_dist(args) -> int:
    f = parse_poly(args.poly)
    if args.p is not None:
        dist = bernoulli_value_dist(f, as_rational(args.p))
    else:
        try:
            n, k = (int(text) for text in args.slice.split(","))
        except ValueError as exc:
            raise InputError(f"--slice expects N,K with integers, got {args.slice!r}") from exc
        dist = slice_value_dist(f, SliceSpec(n, k))
    if args.ell is not None:
        print(format_rational(dist.prob(args.ell)))
    else:
        print("value,probability")
        for v in dist.support():
            print(f"{v},{format_rational(dist.prob(v))}")
    if args.json_path:
        _write_text(args.json_path, json.dumps(dist.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_construct(args) -> int:
    """Print the family, the finite-n value if asked, the limit and the
    reference; every value is computed before the first line is printed."""
    k, ell = args.k, args.ell
    if args.family == "cliques":
        if args.a is not None:
            args.error("--a does not apply to the cliques family")
        pieces, product, prob = clique_decomposition_bound(k, ell)
        family = clique_union_family(pieces, k)
        reference = product**-0.5
        lines = [
            f"family: {','.join(map(str, pieces))}-clique union at k={k}",
            f"decomposition: ell={ell} = " + " + ".join(f"C({m},2)" for m in pieces),
        ]
        reference_line = f"reference: (prod m_i)^(-1/2) = {reference:.10f}"
        payload = {"family": "cliques", "decomposition": list(pieces), "product": product}
    else:
        if args.a is None:
            args.error(f"--a is required for the {args.family} family")
        family = bipartite_family(args.a, k, args.family == "bipartite-plus-clique")
        reference = poisson_reference(args.a)
        prob = limit_probability(family, k, ell)
        lines = [f"family: {family.tag}"]
        reference_line = f"reference: {args.a}^{args.a}/(e^{args.a} {args.a}!) = {reference:.10f}"
        payload = {"family": family.tag}
    payload.update(k=k, ell=ell, limit=format_rational(prob), reference=reference)
    if args.n is not None:
        finite = limit_probability(family, k, ell, args.n)
        lines.append(f"finite n={args.n}: {format_rational(finite)} = {float(finite):.10f}")
        payload.update(finite_n=args.n, finite=format_rational(finite))
    print("\n".join(lines + [f"limit: {format_rational(prob)} = {float(prob):.10f}", reference_line]))
    if args.json_path:
        _write_text(args.json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_reproduce(args) -> int:
    reports = _run_certificates(CERTIFICATES, args, _print_status)
    passed = all(r.passed for r in reports)
    print(f"{'all certificates pass' if passed else 'CERTIFICATE FAILURE'}")
    if args.json_path:
        payload = {"passed": passed, "reports": [r.to_json() for r in reports]}
        _write_text(args.json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgestat",
        description="Exact certificates for edge-count statistics of random vertex subsets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--json": {"dest": "json_path", "metavar": "PATH", "help": "write JSON output here"},
        "--csv": {"dest": "csv_path", "metavar": "PATH", "help": "write CSV output here"},
        "--workers": {"type": _positive, "default": 1, "help": "worker process count (default: 1)"},
    }

    def finish(p: argparse.ArgumentParser, handler: Callable[[argparse.Namespace], int], *names: str) -> None:
        """Give the leaf parser ``p`` the shared flags it reads, its handler and its usage errors."""
        for name in names:
            p.add_argument(name, **flags[name])
        p.set_defaults(handler=handler, error=p.error)

    p_enum = sub.add_parser("enumerate", help="enumerate a reduced polynomial family")
    p_enum.add_argument("--m", type=int, required=True, help="family threshold")
    p_enum.add_argument("--per-s", action="store_true", help="also print counts by variable count")
    finish(p_enum, _cmd_enumerate, "--json", "--csv", "--workers")

    p_verify = sub.add_parser("verify", help="run a named certificate")
    targets = p_verify.add_subparsers(dest="target", required=True)
    for name, (_, reads) in CERTIFICATES.items():
        finish(targets.add_parser(name), _cmd_verify, "--json", *reads)

    p_dist = sub.add_parser("dist", help="exact value distribution of a polynomial")
    p_dist.add_argument("--poly", required=True, help='expression such as "x1+x2+x1*x2"')
    measure = p_dist.add_mutually_exclusive_group(required=True)
    measure.add_argument("--p", help="Bernoulli parameter (rational or decimal string)")
    measure.add_argument("--slice", help="uniform k-subset model as N,K")
    p_dist.add_argument("--ell", type=int, default=None, help="print only the mass at this value")
    finish(p_dist, _cmd_dist, "--json")

    p_con = sub.add_parser("construct", help="host-graph family probabilities")
    p_con.add_argument("--family", required=True, choices=("bipartite", "cliques", "bipartite-plus-clique"))
    p_con.add_argument("--a", type=int, default=None, help="small-part numerator")
    p_con.add_argument("--k", type=int, required=True, help="subset size")
    p_con.add_argument("--ell", type=int, required=True, help="induced edge count")
    p_con.add_argument("--n", type=int, default=None, help="also evaluate a concrete n-vertex host")
    finish(p_con, _cmd_construct, "--json")

    p_rep = sub.add_parser("reproduce", help="run every certificate in order")
    read = {name for _, reads in CERTIFICATES.values() for name in reads}
    finish(p_rep, _cmd_reproduce, *(name for name in flags if name == "--json" or name in read))

    return parser


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            args.error(f"unrecognized arguments: {' '.join(extra)}")
        _check_output_paths(args)
        # Exact results may exceed the int-to-text digit limit of Python >= 3.10.7;
        # argv was parsed under it, and it is lifted (0) while the command runs.
        digits = getattr(sys, "get_int_max_str_digits", int)()
        if digits:
            sys.set_int_max_str_digits(0)
        try:
            return args.handler(args)
        finally:
            if digits:
                sys.set_int_max_str_digits(digits)
    except SystemExit as exc:  # argparse's usage errors and --help
        return int(exc.code or 0)
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
