import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from k3hilb.cli import run
from k3hilb.hilb_basis import canonical_class, parse_class


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_basis_text():
    code, text = invoke("basis", "--n", "2", "--deg", "2")
    assert code == 0
    assert "count: 23" in text
    assert "([2],[0])" in text


def test_basis_json_round_trips():
    code, text = invoke("--json", "basis", "--n", "2", "--deg", "4")
    assert code == 0
    data = json.loads(text)
    assert data["count"] == 276
    for entry in data["classes"]:
        sym = canonical_class(entry["part"], entry["labels"])
        assert sym in set(
            canonical_class(e["part"], e["labels"]) for e in data["classes"]
        )


def test_cup_golden_transcript_text():
    code, text = invoke(
        "cup", "--n", "6", "([2-2-1-1],[0,0,0,0])", "([2-1-1-1-1],[1,0,0,0,0])"
    )
    assert code == 0
    assert text.strip() == (
        "[(([2-1-1-1-1],[0,23,1,0,0]),-2),(([2-2-2],[1,0,0]),1),"
        "(([3-2-1],[1,0,0]),2),(([4-1-1],[1,0,0]),1)]"
    )


def test_cup_json_round_trips():
    code, text = invoke(
        "--json", "cup", "--n", "4", "([2-1-1],[1,0,0])", "([1-1-1-1],[1,0,0,0])"
    )
    assert code == 0
    data = json.loads(text)
    got = {
        canonical_class(t["part"], t["labels"]): int(t["coeff"]) for t in data["terms"]
    }
    assert got == {
        canonical_class((2, 1, 1), (1, 1, 0)): 1,
        canonical_class((3, 1), (1, 0)): 1,
    }


def test_cup_universal_text():
    code, text = invoke("cup-universal", "([2],[0])", "([2],[0])")
    assert code == 0
    assert "([1],[23]) : c(n) = 1 + -1*n" in text


def test_cokernel_text():
    code, text = invoke("cokernel", "--n", "3", "--map", "sym2", "--check-generators")
    assert code == 0
    assert text == (
        "map sym2 at n=3: 276 -> 299\n"
        "torsion: [3], free rank: 23\n"
        "generator 1^(3): order 3 (expected 3) ok\n"
    )


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (
            ("--json", "cokernel", "--n", "3", "--map", "sym2", "--check-generators"),
            '{"n": 3, "map": "sym2", "domain_dim": 276, "codomain_dim": 299, '
            '"torsion": ["3"], "free_rank": 23, "generators": [{"name": "1^(3)", '
            '"expected_order": 3, "order": 3, "ok": true}]}\n',
        ),
        (
            ("cokernel", "--n", "2", "--map", "sym3", "--check-generators"),
            "map sym3 at n=2: 2300 -> 23\n"
            "torsion: [2], free rank: 0\n"
            "generator x^(2): order 2 (expected 2) ok\n",
        ),
        (
            ("--json", "cokernel", "--n", "2", "--map", "sym3", "--check-generators"),
            '{"n": 2, "map": "sym3", "domain_dim": 2300, "codomain_dim": 23, '
            '"torsion": ["2"], "free_rank": 0, "generators": [{"name": "x^(2)", '
            '"expected_order": 2, "order": 2, "ok": true}]}\n',
        ),
    ],
)
def test_cokernel_generator_checks_stdout_pinned(argv, stdout):
    assert invoke(*argv) == (0, stdout)


def test_cokernel_json():
    code, text = invoke("--json", "cokernel", "--n", "2", "--map", "sym2")
    assert code == 0
    data = json.loads(text)
    assert data["torsion"] == ["2"] * 22 + ["10"]
    assert data["free_rank"] == 0
    assert data["domain_dim"] == 276 and data["codomain_dim"] == 276


def test_lattice_text():
    code, text = invoke("lattice", "--n", "2", "--unimodular")
    assert code == 0
    assert "rank 276, odd, signature 156, unimodular" in text


def test_bns():
    code, text = invoke("bns")
    assert code == 0
    assert "signature 17" in text


def test_selftest_passes():
    code, text = invoke("selftest")
    assert code == 0
    assert "FAIL" not in text
    code, text = invoke("--json", "selftest")
    assert code == 0
    assert json.loads(text)["ok"] is True


def test_usage_error_bad_class():
    code, _ = invoke("cup", "--n", "2", "([2],[0])", "oops")
    assert code == 2


def test_usage_error_size_limit():
    code, _ = invoke("cup", "--n", "9", "([2],[0])", "([2],[0])")
    assert code == 2
    code, _ = invoke("lattice", "--n", "4")
    assert code == 2


@pytest.mark.parametrize(
    "jobs", [0, -1, (os.cpu_count() or 1) + 1], ids=["zero", "negative", "above_cpu_count"]
)
def test_usage_error_jobs_out_of_range(jobs, monkeypatch):
    from k3hilb import cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started despite an invalid --jobs")

    monkeypatch.setattr(cli, "cup_int", refuse)
    code, text = invoke("--jobs", str(jobs), "cup", "--n", "2", "([2],[0])", "([2],[0])")
    assert (code, text) == (2, "")


def test_module_entry_point_runs_selftest():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "k3hilb.cli", "selftest"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 7 and all(line.startswith("PASS  ") for line in lines)


def test_usage_error_unknown_flag():
    code, _ = invoke("cup", "--nonsense")
    assert code == 2


def test_output_deterministic():
    args = ("cup", "--n", "4", "([2-1-1],[0,0,0])", "([2-1-1],[0,0,0])")
    assert invoke(*args) == invoke(*args)


def test_parse_class_cli_format_agree():
    # the CLI wire format is exactly the library text format
    sym = parse_class("([2-1],[0,5])")
    assert sym == canonical_class((2, 1), (0, 5))
