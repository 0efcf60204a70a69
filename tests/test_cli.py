"""End-to-end tests for the command-line interface.

Everything runs in-process through ``edgestat.cli.main`` so exit codes,
stdout/stderr, and written artifacts are all asserted against real behaviour.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import edgestat
from edgestat.cli import CERTIFICATES, build_parser, main
from edgestat.constructions import (
    bipartite_family,
    build_host,
    clique_union_family,
    edge_count_dist,
    limit_probability,
)
from edgestat.errors import ResourceLimitError
from edgestat.report import report_from_json, reverify

#: The reports ``reproduce --json`` must give, apart from ``wall_time``; read only.
GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden", "reproduce.json")


def _subcommands(parser=None) -> dict[str, argparse.ArgumentParser]:
    parser = parser or build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_time(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_wall_time(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------


def test_dist_point_mass_single_variable(capsys):
    assert main(["dist", "--poly", "x1", "--p", "1/2", "--ell", "1"]) == 0
    assert capsys.readouterr().out == "1/2\n"


def test_dist_decimal_p_parsed_exactly(capsys):
    assert main(["dist", "--poly", "x1*x2", "--p", "0.34", "--ell", "1"]) == 0
    assert capsys.readouterr().out.strip() == str(Fraction(17, 50) ** 2)


def test_dist_full_table(capsys):
    assert main(["dist", "--poly", "x1+x2", "--p", "1/2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["value,probability", "0,1/4", "1,1/2", "2,1/4"]


def test_dist_large_coefficient_table(capsys):
    """A coefficient of 10**9 widens the value range, not the table."""
    assert main(["dist", "--poly", "1000000000*x1*x2+x3-7*x4", "--p", "1/2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "value,probability", "-7,3/16", "-6,3/16", "0,3/16", "1,3/16",
        "999999993,1/16", "999999994,1/16", "1000000000,1/16", "1000000001,1/16",
    ]


def test_dist_slice_table(capsys):
    # Two marked slots among n=4, k=2: both marked with prob 1/C(4,2) * C(2,2).
    assert main(["dist", "--poly", "x1*x2", "--slice", "4,2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["value,probability", "0,5/6", "1,1/6"]


def test_dist_requires_exactly_one_measure(capsys):
    for measure in ([], ["--p", "1/2", "--slice", "4,2"]):
        assert main(["dist", "--poly", "x1", *measure]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err and "--slice" in err
        assert "usage: edgestat dist" in err


def test_dist_malformed_slice(capsys):
    assert main(["dist", "--poly", "x1", "--slice", "4;2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_dist_slice_subset_cap(capsys):
    # x30 reads 30 of 40 slots, so 10 to 20 of them are ones: the sum of
    # C(30, w) over w = 10..20, about 1.0 * 10**9 assignments, exceeds the
    # fixed cap of 2**24.
    assert main(["dist", "--poly", "x30", "--slice", "40,20"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err and "cap" in err


@pytest.mark.parametrize(
    "measure",
    [
        ["x25", "--p", "1/2"],
        ["x30", "--slice", "40,20"],
        ["x20000", "--p", "1/2"],
        ["x100000000", "--p", "1/2"],
        ["x40000", "--slice", "40000,20000"],
        ["x2000000", "--slice", "2000000,1000000"],
    ],
)
def test_dist_oversized_input_fails_before_any_output(measure, capsys):
    # One guard bounds the assignments of the read slots, 2**24 of them:
    # x25 has 2**25 under --p, and a slice counts only the weights some
    # k-subset gives, here C(40000, 20000) or C(2000000, 1000000) for the
    # wide ones.  The guard trips before any enumeration and without
    # building the oversized count: 2**20000 and C(40000, 20000) have more
    # digits than Python prints by default, and weighing 2**100000000 or
    # C(2000000, 1000000) in full would take minutes.
    start = time.perf_counter()
    assert main(["dist", "--poly", *measure]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "poly, slice_, law",
    [
        ("x1", "10000000,1", ["0,9999999/10000000", "1,1/10000000"]),
        ("x1", "2000000,1000000", ["0,1/2", "1,1/2"]),
        ("x1000000", "1000000,1", ["0,999999/1000000", "1,1/1000000"]),
    ],
    ids=["10000000,1-law0", "2000000,1000000-law1", "1000000,1-law2"],
)
def test_dist_narrow_statistic_on_a_wide_slice(poly, slice_, law, capsys):
    # Slots the statistic does not read cost nothing: x1 on millions of
    # slots is as quick as on two, and so is x1000000, whose 999,999 unread
    # slots enter the table in one binomial step.
    start = time.perf_counter()
    assert main(["dist", "--poly", poly, "--slice", slice_]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.splitlines() == ["value,probability", *law]


def test_dist_slice_out_of_range_names_the_range(capsys):
    # A well-formed N,K outside 0 <= k <= n is reported as such, not as a
    # malformed --slice.
    assert main(["dist", "--poly", "x1", "--slice", "3,5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "need 0 <= k <= n" in err


def test_dist_poly_wider_than_slice(capsys):
    assert main(["dist", "--poly", "x1*x5", "--slice", "3,2"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_summary_row(capsys):
    assert main(["enumerate", "--m", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "m,count,max_vars,wall_time"
    assert out[1].startswith("2,4,2,")


def test_enumerate_per_s(capsys):
    assert main(["enumerate", "--m", "3", "--per-s"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("3,16,4,")
    assert out[2] == "s,count"
    assert out[3:] == ["1,1", "2,3", "3,10", "4,2"]


def test_enumerate_json_members(tmp_path, capsys):
    path = tmp_path / "g2.jsonl"
    assert main(["enumerate", "--m", "2", "--json", str(path)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 4
    assert records[0]["key"] == "n1|L1|E"
    assert {r["key"] for r in records} == {
        "n1|L1|E",
        "n2|L1|E1-2",
        "n2|L1,2|E",
        "n2|L1,2|E1-2",
    }
    for r in records:
        assert set(r) == {"key", "poly", "s", "linear_terms"}
        assert r["linear_terms"] >= 1


def test_enumerate_csv_file(tmp_path, capsys):
    path = tmp_path / "g3.csv"
    assert main(["enumerate", "--m", "3", "--csv", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines[0] == "m,count,max_vars,wall_time"
    assert lines[1].startswith("3,16,4,")


def test_enumerate_worker_count_independence(tmp_path, capsys):
    solo = tmp_path / "solo.jsonl"
    duo = tmp_path / "duo.jsonl"
    assert main(["enumerate", "--m", "3", "--workers", "1", "--json", str(solo)]) == 0
    assert main(["enumerate", "--m", "3", "--workers", "2", "--json", str(duo)]) == 0
    capsys.readouterr()
    assert solo.read_bytes() == duo.read_bytes()


def test_enumerate_requires_m(capsys):
    assert main(["enumerate"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_prop033_passes(capsys):
    assert main(["verify", "prop033"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] prop033" in out
    assert "-> ok" in out
    assert "VIOLATED" not in out


def test_verify_better34_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "b34.json"
    assert main(["verify", "better34", "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["passed"] is True
    assert report_from_json(payload).name == "better34"
    assert reverify(payload)


def test_verify_json_deterministic_modulo_wall_time(tmp_path, capsys):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert main(["verify", "better34", "--json", str(first)]) == 0
    assert main(["verify", "better34", "--json", str(second)]) == 0
    capsys.readouterr()
    a = _strip_wall_time(json.loads(first.read_text()))
    b = _strip_wall_time(json.loads(second.read_text()))
    assert a == b


def test_verify_table_csv(tmp_path, capsys):
    path = tmp_path / "table.csv"
    assert main(["verify", "table", "--csv", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] table" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "m,count,p_star,bound_exact,bound_decimal"
    assert len(lines) == 5
    assert lines[1].startswith("2,4,2/3,4/9,")
    assert lines[4] == "5,1653,1/3,80/243,0.3292181070"


def test_verify_choices_are_the_registry(capsys):
    target = next(a for a in _subcommands()["verify"]._actions if a.dest == "target")
    assert tuple(target.choices) == tuple(CERTIFICATES)
    assert main(["verify", "all"]) == 2  # reproduce runs them all
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("target", [name for name in CERTIFICATES if name != "table"])
def test_verify_csv_needs_the_table(target, tmp_path, capsys):
    path = tmp_path / "rows.csv"
    assert main(["verify", target, "--csv", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before any certificate ran
    assert "error:" in err and "--csv" in err
    assert not path.exists()


def test_registry_order_is_the_golden_report_order():
    with open(GOLDEN, encoding="utf-8") as fh:
        assert list(CERTIFICATES) == [r["name"] for r in json.load(fh)]


@pytest.mark.parametrize("target", ["goodman", "poisson_emergence", "star_search"])
def test_verify_runs_reproduce_only_certificates(target, tmp_path, capsys):
    path = tmp_path / f"{target}.json"
    assert main(["verify", target, "--json", str(path)]) == 0
    assert f"[PASS] {target}" in capsys.readouterr().out
    payload = json.loads(path.read_text())
    assert payload["name"] == target
    assert reverify(payload)


#: Certificates cheap enough to rerun in fresh interpreters (all nine today).
_QUICK_CERTIFICATES = (
    "counts", "prop033", "table", "prop027", "better34", "star_search", "goodman", "poisson_emergence", "lemmas",
)


def test_verify_json_survives_optimize_flag_and_hash_seed(tmp_path, capsys):
    # Two fresh interpreters under -O, one per hash seed, run while the
    # in-process reference runs.
    src = os.path.dirname(os.path.dirname(edgestat.__file__))
    code = (
        "import sys\n"
        "from edgestat.cli import main\n"
        "codes = [main(['verify', name, '--json', f'{sys.argv[1]}/{name}.json']) for name in sys.argv[2:]]\n"
        "sys.exit(max(codes))\n"
    )
    runs = {}
    for seed in ("0", "1"):
        out_dir = tmp_path / f"seed{seed}"
        out_dir.mkdir()
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        runs[out_dir] = subprocess.Popen(
            [sys.executable, "-O", "-c", code, str(out_dir), *_QUICK_CERTIFICATES],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
    want = {}
    for name in _QUICK_CERTIFICATES:
        path = tmp_path / f"{name}.json"
        assert main(["verify", name, "--json", str(path)]) == 0
        want[name] = _strip_wall_time(json.loads(path.read_text()))
    capsys.readouterr()
    for out_dir, proc in runs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        for name in _QUICK_CERTIFICATES:
            got = json.loads((out_dir / f"{name}.json").read_text())
            assert _strip_wall_time(got) == want[name], (out_dir.name, name)


def test_verify_rejects_unknown_target(capsys):
    assert main(["verify", "prop999"]) == 2
    assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_bipartite_limit_and_reference(capsys):
    code = main(
        ["construct", "--family", "bipartite", "--a", "1", "--k", "5", "--ell", "4", "--n", "30"]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("family:")
    assert out[1].startswith("finite n=30:")
    assert out[2] == "limit: 52/125 = 0.4160000000"
    assert out[3] == "reference: 1^1/(e^1 1!) = 0.3678794412"


def test_construct_cliques_decomposition(capsys):
    assert main(["construct", "--family", "cliques", "--k", "40", "--ell", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "family: 4-clique union at k=40"
    assert out[1] == "decomposition: ell=6 = C(4,2)"
    assert out[2].startswith("limit:")
    assert out[3] == "reference: (prod m_i)^(-1/2) = 0.5000000000"


def test_construct_cliques_finite_n(tmp_path, capsys):
    path = tmp_path / "cliques.json"
    argv = ["construct", "--family", "cliques", "--k", "8", "--ell", "3", "--n", "16", "--json", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    finite = edge_count_dist(build_host(clique_union_family((3,), 8), 16), 8).prob(3)
    assert out[0] == "family: 3-clique union at k=8"
    assert out[2] == f"finite n=16: {finite.numerator}/{finite.denominator} = {float(finite):.10f}"
    assert out[3].startswith("limit:")
    payload = json.loads(path.read_text())
    assert payload["finite_n"] == 16 and payload["finite"] == f"{finite.numerator}/{finite.denominator}"
    # Every value is computed before the first line is printed.
    assert main(["construct", "--family", "cliques", "--k", "40", "--ell", "6", "--n", "30"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: need k <= n, got n=30 k=40" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "cliques", "--k", "40", "--ell", "6", "--json"],
        ["verify", "prop027", "--json"],
        ["reproduce", "--json"],
        ["verify", "table", "--csv"],
    ],
)
def test_unwritable_output_path_is_an_input_error(argv, tmp_path, capsys):
    # An empty path, a path in a missing directory, or a directory is
    # rejected before any work, and no other output file is opened.
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    extra = ["--json", str(kept)] if argv[-1] == "--csv" else []
    for path in ("", tmp_path / "missing" / "x.json", tmp_path):
        start = time.perf_counter()
        assert main([*argv, str(path), *extra]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and f"error: cannot write {path}" in err and "Traceback" not in err
    assert kept.read_text() == "old\n"


@pytest.mark.parametrize("argv", [["enumerate", "--m", "3"], ["verify", "table"], ["reproduce"]])
def test_json_and_csv_naming_one_file_is_an_input_error(argv, tmp_path, monkeypatch, capsys):
    # The CSV used to be written first and then overwritten by the JSON.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link").symlink_to(tmp_path)
    for json_path, csv_path in (
        ("out.txt", "out.txt"),
        ("out.txt", "./out.txt"),
        (str(tmp_path / "out.txt"), "sub/../out.txt"),
        ("link/out.txt", "out.txt"),
    ):
        start = time.perf_counter()
        assert main([*argv, "--json", json_path, "--csv", csv_path]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot write {json_path} and {csv_path}: they name the same file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "sub"]


def test_output_failure_at_write_time_is_an_input_error(tmp_path, capsys):
    path = tmp_path / ("x" * 300)  # passes the early check; the name is too long to create
    assert main(["verify", "prop027", "--json", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("[PASS] prop027")
    assert f"error: cannot write {path}" in err and "Traceback" not in err


def test_construct_bipartite_requires_a(capsys):
    assert main(["construct", "--family", "bipartite", "--k", "5", "--ell", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: --a is required" in err
    assert "usage: edgestat construct" in err


def test_construct_cliques_rejects_a(capsys):
    assert main(["construct", "--family", "cliques", "--a", "3", "--k", "40", "--ell", "6"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: --a does not apply to the cliques family" in err
    assert "usage: edgestat construct" in err


@pytest.mark.parametrize(
    "a, message",
    [("1", "n=4 too small: some part would be empty"), ("4", "need k <= n, got n=4 k=5")],
)
def test_construct_prints_nothing_before_it_fails(a, message, capsys):
    assert main(["construct", "--family", "bipartite", "--a", a, "--k", "5", "--ell", "4", "--n", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {message}" in err


def test_construct_finite_n_far_beyond_enumeration(capsys):
    # C(10**6, 5) subsets: the part-count walk needs a handful of count vectors.
    start = time.perf_counter()
    argv = ["construct", "--family", "bipartite", "--a", "1", "--k", "5", "--ell", "4", "--n", "1000000"]
    assert main(argv) == 0
    assert time.perf_counter() - start < 5.0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "finite n=1000000: 207999200001200000/499997000005499997 = 0.4160008960"


def test_construct_prints_exact_results_past_the_default_digit_limit(capsys):
    # The limit's numerator and denominator have more than 4,300 digits,
    # Python's default ceiling on int-to-text conversion; main lifts that
    # ceiling only while the command runs.
    digits = sys.get_int_max_str_digits()
    assert main(["construct", "--family", "bipartite", "--a", "1", "--k", "1500", "--ell", "1499"]) == 0
    assert sys.get_int_max_str_digits() == digits
    line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("limit: "))
    sys.set_int_max_str_digits(0)
    try:
        printed = Fraction(line.split()[1])
    finally:
        sys.set_int_max_str_digits(digits)
    assert printed == limit_probability(bipartite_family(1, 1500), 1500, 1499)
    assert printed.denominator > 10**4300


def test_construct_rejects_an_integer_past_the_digit_limit(capsys):
    # argv is parsed under Python's default digit limit: a 5,000-digit --n
    # stays a usage error.
    argv = ["construct", "--family", "bipartite", "--a", "1", "--k", "5", "--ell", "4", "--n", "9" * 5000]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid int value" in err


def test_construct_bipartite_rejects_oversized_a(capsys):
    code = main(["construct", "--family", "bipartite", "--a", "20000", "--k", "30000", "--ell", "1"])
    assert code == 2
    assert "a <= 10**4" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# flags / workers / env
# ---------------------------------------------------------------------------

#: The option strings of each leaf command: every flag is one its handler reads.
SUBCOMMAND_OPTIONS = {
    "enumerate": {"--m", "--per-s", "--json", "--csv", "--workers"},
    "verify counts": {"--json", "--workers"},
    "verify prop033": {"--json", "--workers"},
    "verify table": {"--json", "--workers", "--csv"},
    "verify prop027": {"--json"},
    "verify better34": {"--json"},
    "verify star_search": {"--json"},
    "verify goodman": {"--json"},
    "verify poisson_emergence": {"--json"},
    "verify lemmas": {"--json"},
    "dist": {"--poly", "--p", "--slice", "--ell", "--json"},
    "construct": {"--family", "--a", "--k", "--ell", "--n", "--json"},
    "reproduce": {"--json", "--csv", "--workers"},
}


def test_each_subcommand_declares_only_the_flags_it_reads():
    leaves = {}
    for name, p in _subcommands().items():
        if name == "verify":
            leaves.update({f"verify {target}": leaf for target, leaf in _subcommands(p).items()})
        else:
            leaves[name] = p
    got = {
        name: {s for action in p._actions for s in action.option_strings} - {"-h", "--help"}
        for name, p in leaves.items()
    }
    assert got == SUBCOMMAND_OPTIONS


_BASE_ARGV = {
    "enumerate": ["enumerate", "--m", "2"],
    "dist": ["dist", "--poly", "x1", "--p", "1/2"],
    "construct": ["construct", "--family", "cliques", "--k", "40", "--ell", "6"],
    "verify better34": ["verify", "better34"],
    "verify prop027": ["verify", "prop027"],
    "verify counts": ["verify", "counts"],
    "verify lemmas": ["verify", "lemmas"],
    "verify goodman": ["verify", "goodman"],
    "verify star_search": ["verify", "star_search"],
    "reproduce": ["reproduce"],
}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("enumerate", "--assignment-cap"),
        ("enumerate", "--subset-cap"),
        ("dist", "--csv"),
        ("dist", "--workers"),
        ("dist", "--assignment-cap"),
        ("dist", "--subset-cap"),
        ("construct", "--csv"),
        ("construct", "--workers"),
        ("construct", "--assignment-cap"),
        ("construct", "--subset-cap"),
        ("verify better34", "--workers"),
        ("verify prop027", "--subset-cap"),
        ("verify counts", "--assignment-cap"),
        ("verify lemmas", "--csv"),
        ("verify goodman", "--subset-cap"),
        ("verify star_search", "--assignment-cap"),
        ("reproduce", "--subset-cap"),
        ("reproduce", "--assignment-cap"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(command, flag, tmp_path, capsys):
    value = str(tmp_path / "out.csv") if flag == "--csv" else "7"
    assert main(_BASE_ARGV[command] + [flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err
    assert f"usage: edgestat {command}" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("flag", ["--workers"])
def test_non_positive_counts_rejected_before_any_output(flag, capsys):
    assert main(["reproduce", flag, "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err and flag in err


def test_zero_workers_rejected(capsys):
    assert main(["enumerate", "--m", "2", "--workers", "0"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_all_certificates(tmp_path, capsys):
    path = tmp_path / "table.csv"
    reports = tmp_path / "reports.json"
    assert main(["reproduce", "--csv", str(path), "--json", str(reports)]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 9
    assert "CERTIFICATE FAILURE" not in out
    assert "all certificates pass" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "m,count,p_star,bound_exact,bound_decimal"
    assert lines[4] == "5,1653,1/3,80/243,0.3292181070"
    # The runner times every certificate, cheap ones included.
    payload = json.loads(reports.read_text())
    assert [r["name"] for r in payload["reports"]] == list(CERTIFICATES)
    assert all(r["wall_time"] > 0 for r in payload["reports"])
    # Every report equals the golden copy apart from its timing.
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert _strip_wall_time(payload["reports"]) == golden


def test_reproduce_writes_nothing_when_a_later_certificate_raises(tmp_path, monkeypatch, capsys):
    # The table CSV used to be written as soon as ``table`` returned.
    def blown(args):
        raise ResourceLimitError("cap exceeded")

    monkeypatch.setitem(CERTIFICATES, "lemmas", (blown, ()))
    table, reports = tmp_path / "table.csv", tmp_path / "reports.json"
    assert main(["reproduce", "--csv", str(table), "--json", str(reports)]) == 2
    out, err = capsys.readouterr()
    assert "[PASS] table" in out and "error: cap exceeded" in err
    assert not table.exists() and not reports.exists()


def test_cli_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(edgestat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, edgestat.cli\nprint('numpy' in sys.modules, 'mpmath' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"
