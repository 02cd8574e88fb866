import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from k3hilb import analysis
from k3hilb.cli import run
from k3hilb.hilb_basis import betti, canonical_class, parse_class
import oracles


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


@pytest.mark.parametrize(
    "n,a,b,stdout",
    [
        (12, "([1],[1])", "([12],[2])", "[(([12],[23]),12)]"),
        (
            10,
            "([1],[7])",
            "([6-4],[8,8])",
            "[(([6-4],[8,23]),4),(([6-4],[23,8]),6),(([10],[23]),-10)]",
        ),
    ],
    ids=["n12-weight12", "n10-weight10"],
)
def test_cup_forced_large_weight_blocks(n, a, b, stdout):
    # the base change of these classes goes through the psi blocks of
    # weight 10 to 12
    code, text = invoke("--force", "cup", "--n", str(n), a, b)
    assert code == 0
    assert text.strip() == stdout


def test_cup_point_classes_text():
    # integral classes of 1-cycles with repeated H^2 labels: their creation
    # expansions (through psi) mix 1-cycle symbols, which take the closed
    # form, with 2-cycles, which take the S_n kernel
    code, text = invoke("cup", "--n", "8", "([1-1],[1,1])", "([1-1],[2,2])")
    assert code == 0
    assert text.strip() == (
        "[(([1-1-1-1-1-1-1-1],[2,2,1,1,0,0,0,0]),1),"
        "(([1-1-1-1-1-1-1-1],[23,2,1,0,0,0,0,0]),1),"
        "(([2-1-1-1-1-1-1],[23,1,0,0,0,0,0]),-1),"
        "(([2-1-1-1-1-1-1],[23,2,0,0,0,0,0]),-1),"
        "(([3-1-1-1-1-1],[23,0,0,0,0,0]),1)]"
    )


def test_cup_point_classes_json():
    code, text = invoke("--json", "cup", "--n", "8", "([1-1],[1,2])", "([1-1],[2,1])")
    assert code == 0
    assert json.loads(text) == {
        "n": 8,
        "factors": [{"part": [1, 1], "labels": [2, 1]}] * 2,
        "terms": [
            {"part": [1] * 8, "labels": [2, 2, 1, 1, 0, 0, 0, 0], "coeff": "4"},
            {"part": [1] * 8, "labels": [23, 2, 1, 0, 0, 0, 0, 0], "coeff": "2"},
            {"part": [1] * 8, "labels": [23, 23, 0, 0, 0, 0, 0, 0], "coeff": "1"},
            {"part": [2] + [1] * 6, "labels": [1, 2, 2, 0, 0, 0, 0], "coeff": "2"},
            {"part": [2] + [1] * 6, "labels": [2, 1, 1, 0, 0, 0, 0], "coeff": "2"},
            {"part": [2, 2] + [1] * 4, "labels": [2, 1, 0, 0, 0, 0], "coeff": "1"},
        ],
    }


def test_cup_universal_text():
    code, text = invoke("cup-universal", "([2],[0])", "([2],[0])")
    assert code == 0
    assert "([1],[23]) : c(n) = 1 + -1*n" in text


def test_cup_universal_through_s_n_kernel_pinned():
    # neither factor is a 1-cycle or the boundary class, so each sample runs
    # the S_n kernel, and the samples at several n reuse the conjugates of a
    code, text = invoke("cup-universal", "([3],[0])", "([2-1],[0,3])")
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 159
    assert lines[:3] == [
        "([2-1],[3,23]) : c(n) = -1",
        "([2-1],[23,3]) : c(n) = 2 + -1*n",
        "([2-1-1],[0,23,3]) : c(n) = -2",
    ]
    assert lines[-2:] == ["([4-1],[0,3]) : c(n) = 4", "([3-2-1],[0,0,3]) : c(n) = 1"]
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "dfe34fc7496e698f3d6a7ef28387afe224e98d4338897b0935ed2cce04d7ed35"
    )


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
        (
            # the zero map: its domain size comes from the domain, not the matrix
            ("cokernel", "--n", "1", "--map", "sym3"),
            "map sym3 at n=1: 2024 -> 0\ntorsion: [], free rank: 0\n",
        ),
        (
            ("--json", "cokernel", "--n", "1", "--map", "h2xh4"),
            '{"n": 1, "map": "h2xh4", "domain_dim": 22, "codomain_dim": 0, '
            '"torsion": [], "free_rank": 0, "generators": []}\n',
        ),
    ],
    ids=["json-sym2-n3-gens", "sym3-n2-gens", "json-sym3-n2-gens", "sym3-n1", "json-h2xh4-n1"],
)
def test_cokernel_generator_checks_stdout_pinned(argv, stdout):
    assert invoke(*argv) == (0, stdout)


@pytest.mark.parametrize("kind", ["sym2", "sym3", "h2xh4"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cokernel_output_matches_dense_path(n, kind, monkeypatch):
    # distinct sparse columns into the Smith form and U as sparse rows print
    # exactly what the dense matrix, dedup_columns and a dense U print
    for flags in ((), ("--check-generators",)):
        argv = ("cokernel", "--n", str(n), "--map", kind) + flags
        sparse = analysis.cokernel_report(n, kind, check_generators=bool(flags))
        dense = oracles.dense_cokernel_report(n, kind, check_generators=bool(flags))
        assert sparse == dense
        printed = []
        for report in (sparse, dense):
            monkeypatch.setattr(analysis, "cokernel_report", lambda *a, r=report, **k: r)
            printed.append((invoke(*argv), invoke("--json", *argv)))
        monkeypatch.undo()
        assert printed[0] == printed[1]
        assert printed[0][0][0] == printed[0][1][0] == 0


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


def test_lattice_hilb3_unimodular():
    assert invoke("lattice", "--n", "3", "--unimodular") == (
        0,
        "rank 2554, even, signature -1152, unimodular\n",
    )
    code, text = invoke("--json", "lattice", "--n", "3", "--unimodular")
    assert code == 0
    assert json.loads(text) == {
        "n": 3,
        "rank": 2554,
        "parity": "even",
        "signature": -1152,
        "unimodular": True,
    }


def test_lattice_hilb4_unimodular_stretch():
    # in the default tier since the lattice is read off its orthogonal
    # summands: ~1 s cold (~25 s on the whole Gram matrix)
    assert invoke("lattice", "--n", "4", "--unimodular") == (
        0,
        "rank 19298, odd, signature 7082, unimodular\n",
    )


def test_lattice_hilb5_unimodular():
    # in the default tier since the summands' invariants come in closed form:
    # ~0.3 s cold (75 s with one elimination per summand)
    assert invoke("lattice", "--n", "5", "--unimodular") == (
        0,
        "rank 125604, even, signature -38016, unimodular\n",
    )
    code, text = invoke("--json", "lattice", "--n", "5", "--unimodular")
    assert code == 0
    assert json.loads(text) == {
        "n": 5,
        "rank": 125604,
        "parity": "even",
        "signature": -38016,
        "unimodular": True,
    }


@pytest.mark.parametrize(
    "n, rank, parity, signature",
    [
        (6, 727606, "odd", 183592),
        (7, 3834308, "even", -813568),
        (8, 18669447, "odd", 3355287),
    ],
)
def test_lattice_forced_unimodular_stretch(n, rank, parity, signature):
    # the signatures are the Goettsche-Soergel values; n = 8 takes ~6 s
    assert betti(n, 2 * n) == rank
    assert invoke("--force", "lattice", "--n", str(n), "--unimodular") == (
        0,
        f"rank {rank}, {parity}, signature {signature}, unimodular\n",
    )


def test_lattice_jobs_output_matches_serial():
    # every command accepts --jobs in 1..CPU count and ignores it
    commands = (
        ("lattice", "--n", "2", "--unimodular"),
        ("cokernel", "--n", "2", "--map", "sym2"),
        ("cokernel", "--n", "2", "--map", "h2xh4"),
    )
    for command in commands:
        for json_flag in ((), ("--json",)):
            argv = (*json_flag, *command)
            assert invoke("--jobs", "2", *argv) == invoke("--jobs", "1", *argv)


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


@pytest.mark.parametrize(
    "text",
    ["([1_0],[0])", "([\uff11],[3])", "([+1],[3])", "([1],[+3])", "([1],[3_])", "([1],[\u0663])"],
)
def test_usage_error_class_digits_not_ascii(text, capsys):
    # int() would read "1_0" as 10, "+1" as 1 and a full-width or Arabic-Indic digit
    code, out = invoke("cup", "--n", "2", text, "([1],[3])")
    assert (code, out) == (2, "")
    assert "bad class" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["([1],[24])", "([2-1],[0])"])
def test_usage_error_class_out_of_range_or_mismatched(text, capsys):
    # a label beyond the 24 K3 classes, and two parts with one label
    code, out = invoke("cup", "--n", "2", text, "([1],[3])")
    assert (code, out) == (2, "")
    assert "bad class" in capsys.readouterr().err


def test_cup_class_spaces_allowed():
    code, out = invoke("cup", "--n", "2", " ( [ 1 ] , [ 3 ] ) ", "([ 1 ],[ 3 ])")
    assert (code, out) == (0, "[(([1-1],[3,3]),2),(([2],[3]),1)]\n")


def test_sym2_generators_take_no_creation_product(monkeypatch):
    # every column is a divisor derivation or the boundary rule on the
    # integral symbols: no creation product and no base change either way
    from k3hilb import qin_wang

    calls = []

    def counted(name):
        real = getattr(qin_wang, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    for name in ("mult_an", "_int_to_crea_items", "_crea_to_int_items"):
        monkeypatch.setattr(qin_wang, name, counted(name))
    code, _ = invoke("cokernel", "--n", "3", "--map", "sym2", "--check-generators")
    assert code == 0
    assert calls == []


def test_usage_error_size_limit():
    code, _ = invoke("cup", "--n", "9", "([2],[0])", "([2],[0])")
    assert code == 2
    code, _ = invoke("lattice", "--n", "6")
    assert code == 2


@pytest.mark.parametrize("n,deg,count", [(7, 14, 3834308), (8, 16, 18669447)])
def test_usage_error_basis_too_large(n, deg, count, monkeypatch, capsys):
    # the count comes from the Betti series; the basis is never built
    from k3hilb import cli

    def refuse(*args, **kwargs):
        raise AssertionError("basis built despite its size")

    monkeypatch.setattr(cli, "hilb_base", refuse)
    code, text = invoke("basis", "--n", str(n), "--deg", str(deg))
    assert (code, text) == (2, "")
    assert str(count) in capsys.readouterr().err
    code, text = invoke("--json", "basis", "--n", str(n), "--deg", str(deg))
    assert (code, text) == (2, "")


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


def test_usage_error_cup_universal_weight_limit(monkeypatch, capsys):
    # checked on the reduced weights before any product is taken
    from k3hilb import cli

    def refuse(*args, **kwargs):
        raise AssertionError("products taken despite the weight limit")

    monkeypatch.setattr(cli, "cup_universal", refuse)
    for a, b in [("([5],[0])", "([5],[0])"), ("([5],[0])", "([4-1-1],[0,0,0])")]:
        code, text = invoke("cup-universal", a, b)
        assert (code, text) == (2, "")
        assert "--force" in capsys.readouterr().err
        code, text = invoke("--json", "cup-universal", a, b)
        assert (code, text) == (2, "")
    # unit points do not count: 4 + 4 is at the limit
    with pytest.raises(AssertionError, match="despite the weight limit"):
        invoke("cup-universal", "([4],[0])", "([4-1-1],[0,0,0])")
    with pytest.raises(AssertionError, match="despite the weight limit"):
        invoke("--force", "cup-universal", "([5],[0])", "([5],[0])")


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


def test_cold_commands_import_neither_numpy_nor_multiprocessing():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    script = (
        "import io, sys\n"
        "from k3hilb.cli import run\n"
        "for argv in (['cokernel', '--n', '3', '--map', 'sym2', '--check-generators'],\n"
        "             ['lattice', '--n', '2', '--unimodular'],\n"
        "             ['--jobs', '2', 'cokernel', '--n', '2', '--map', 'sym2']):\n"
        "    assert run(argv, out=io.StringIO()) == 0, argv\n"
        "print(sorted(m for m in ('numpy', 'multiprocessing', 'dataclasses') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_usage_error_unknown_flag(tmp_path, monkeypatch):
    from k3hilb import cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started despite an unknown flag")

    monkeypatch.setattr(cli, "cup_int", refuse)
    monkeypatch.chdir(tmp_path)
    cup = ("cup", "--n", "2", "([2],[0])", "([2],[0])")
    for argv in (("cup", "--nonsense"), ("--cache-dir", "cache", *cup)):
        assert invoke(*argv) == (2, "")
    assert list(tmp_path.iterdir()) == []


def test_cache_dir_environment_variable_ignored(tmp_path, monkeypatch, capsys):
    argv = ("lattice", "--n", "2", "--unimodular")
    monkeypatch.delenv("K3HILB_CACHE_DIR", raising=False)
    plain = invoke(*argv), capsys.readouterr().err
    monkeypatch.setenv("K3HILB_CACHE_DIR", str(tmp_path))
    assert (invoke(*argv), capsys.readouterr().err) == plain
    assert list(tmp_path.iterdir()) == []


def test_output_deterministic():
    args = ("cup", "--n", "4", "([2-1-1],[0,0,0])", "([2-1-1],[0,0,0])")
    assert invoke(*args) == invoke(*args)


def test_parse_class_cli_format_agree():
    # the CLI wire format is exactly the library text format
    sym = parse_class("([2-1],[0,5])")
    assert sym == canonical_class((2, 1), (0, 5))
