"""End-to-end tests for the command-line interface.

Everything runs in-process through ``edgestat.cli.main`` so exit codes,
stdout/stderr, and written artifacts are all asserted against real behaviour.
"""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import edgestat
from edgestat.cli import CERTIFICATES, build_parser, main
from edgestat.report import report_from_json, reverify


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("EDGESTAT_WORKERS", raising=False)


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


def test_dist_slice_table(capsys):
    # Two marked slots among n=4, k=2: both marked with prob 1/C(4,2) * C(2,2).
    assert main(["dist", "--poly", "x1*x2", "--slice", "4,2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["value,probability", "0,5/6", "1,1/6"]


def test_dist_requires_exactly_one_measure(capsys):
    assert main(["dist", "--poly", "x1"]) == 2
    assert main(["dist", "--poly", "x1", "--p", "1/2", "--slice", "4,2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_dist_malformed_slice(capsys):
    assert main(["dist", "--poly", "x1", "--slice", "4;2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_dist_slice_subset_cap(capsys):
    assert main(["dist", "--poly", "x1", "--slice", "12,3", "--subset-cap", "100"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "cap" in err


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


def test_verify_choices_are_the_registry():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    target = next(a for a in sub.choices["verify"]._actions if a.dest == "target")
    assert tuple(target.choices) == tuple(CERTIFICATES) + ("all",)


def test_registry_order_is_the_golden_report_order():
    golden = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden", "reproduce.json")
    with open(golden, encoding="utf-8") as fh:
        assert list(CERTIFICATES) == [r["name"] for r in json.load(fh)]


@pytest.mark.parametrize("target", ["goodman", "poisson_emergence", "star_search"])
def test_verify_runs_reproduce_only_certificates(target, tmp_path, capsys):
    path = tmp_path / f"{target}.json"
    assert main(["verify", target, "--json", str(path)]) == 0
    assert f"[PASS] {target}" in capsys.readouterr().out
    payload = json.loads(path.read_text())
    assert payload["name"] == target
    assert reverify(payload)


#: Certificates cheap enough to rerun in fresh interpreters.
_QUICK_CERTIFICATES = ("prop027", "better34", "star_search", "goodman", "poisson_emergence", "lemmas")


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


def test_construct_bipartite_requires_a(capsys):
    assert main(["construct", "--family", "bipartite", "--k", "5", "--ell", "4"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# workers / env / caps
# ---------------------------------------------------------------------------


def test_env_worker_default_rejected_when_malformed(monkeypatch, capsys):
    monkeypatch.setenv("EDGESTAT_WORKERS", "two")
    assert main(["enumerate", "--m", "2"]) == 2
    assert "EDGESTAT_WORKERS" in capsys.readouterr().err


def test_env_worker_default_used(monkeypatch, capsys):
    monkeypatch.setenv("EDGESTAT_WORKERS", "2")
    assert main(["enumerate", "--m", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("2,4,2,")


def test_zero_workers_rejected(capsys):
    assert main(["enumerate", "--m", "2", "--workers", "0"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_all_certificates(tmp_path, capsys):
    path = tmp_path / "table.csv"
    assert main(["reproduce", "--csv", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 9
    assert "CERTIFICATE FAILURE" not in out
    assert "all certificates pass" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "m,count,p_star,bound_exact,bound_decimal"
    assert lines[4] == "5,1653,1/3,80/243,0.3292181070"


def test_reproduce_respects_subset_cap(capsys):
    assert main(["reproduce", "--subset-cap", "100"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "cap" in err


def test_cli_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(edgestat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, edgestat.cli\nprint('numpy' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
