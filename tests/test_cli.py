from __future__ import annotations

import json
import subprocess
import sys

import pytest

from coordarr import cells, koszul
from coordarr.cli import run
from coordarr.linalg import ExactMatrix


@pytest.fixture()
def edge_file(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"n": 2, "facets": [[1], [2]]}))
    return str(path)


@pytest.fixture()
def full_file(tmp_path):
    path = tmp_path / "full.json"
    path.write_text(json.dumps({"n": 2, "facets": [[1, 2]]}))
    return str(path)


def test_cohomology_models(edge_file, capsys):
    assert run(["cohomology", edge_file, "--model", "rk"]) == 0
    assert "H^{2,1} = Z" in capsys.readouterr().out
    assert run(["cohomology", edge_file, "--model", "cech", "--coeff", "q"]) == 0
    assert run(["cohomology", edge_file, "--model", "cech", "--coeff", "z"]) == 2


def test_cohomology_full_simplex(full_file, capsys):
    assert run(["cohomology", full_file]) == 0
    out = capsys.readouterr().out
    assert "H^{0,0} = Z" in out and "2,1" not in out


def test_compare_pass(edge_file):
    assert run(["compare", edge_file]) == 0


def test_compare_detects_injected_sign_fault(edge_file, monkeypatch):
    # flip one entry of one cellular boundary block: the model stops being a
    # complex and the comparison must fail, not crash
    original = cells.boundary_matrix

    def broken(K, p, q):
        m = original(K, p, q)
        if (p, q) == (2, 1) and m.entries:
            key = min(m.entries)
            flipped = dict(m.entries)
            flipped[key] = -flipped[key]
            return ExactMatrix(m.rows, m.cols, flipped)
        return m

    monkeypatch.setattr(cells, "boundary_matrix", broken)
    assert run(["compare", edge_file]) == 1


def test_compare_exit_codes_for_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["compare", str(bad)]) == 2
    assert run(["compare", str(tmp_path / "missing.json")]) == 2


def test_failed_self_check_exits_1(full_file, monkeypatch, capsys):
    # one flipped Koszul sign: d o d != 0 is a failed check, not bad input
    original = koszul.differential_matrix

    def broken(K, p, q):
        m = original(K, p, q)
        if (p, q) == (2, 0) and m.entries:
            key = min(m.entries)
            return ExactMatrix(m.rows, m.cols, {**m.entries, key: -m.entries[key]})
        return m

    monkeypatch.setattr(koszul, "differential_matrix", broken)
    assert run(["cohomology", full_file]) == 1
    assert "d_out o d_in != 0" in capsys.readouterr().err


def test_bad_node_count_exits_2(edge_file, capsys):
    argv = ["verify-kernel", edge_file, "--s", "3", "--f", "1", "--zeta", "0.1,0.2"]
    assert run(argv + ["--nodes", "5"]) == 2
    assert "input error" in capsys.readouterr().err


def test_hodge(edge_file, capsys):
    assert run(["hodge", edge_file]) == 0
    out = capsys.readouterr().out
    assert "F(2,3) = 1" in out


def test_resolvent(edge_file, capsys):
    assert run(["resolvent", edge_file, "--p", "2", "--q", "1", "--index", "0"]) == 0
    out = capsys.readouterr().out
    assert "identities hold" in out
    assert run(["resolvent", edge_file, "--p", "2", "--q", "1", "--index", "5"]) == 2


def test_kernel(edge_file, capsys):
    assert run(["kernel", edge_file, "--s", "3"]) == 0
    assert "normalization exact" in capsys.readouterr().out


def test_kernel_unavailable(full_file):
    assert run(["kernel", full_file, "--s", "1"]) == 1


def test_verify_kernel_pass_and_tolerance(edge_file, capsys):
    rc = run([
        "verify-kernel", edge_file, "--s", "3",
        "--f", "1+z1^2*z2^3", "--zeta", "0.3,-0.4",
    ])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    rc = run([
        "verify-kernel", edge_file, "--s", "3",
        "--f", "1+z1^2*z2^3", "--zeta", "0.3,-0.4", "--tolerance", "0",
    ])
    assert rc == 1  # nothing beats an exactly-zero tolerance


def test_verify_kernel_input_errors(edge_file):
    assert run(["verify-kernel", edge_file, "--s", "3", "--f", "qq", "--zeta", "0,0"]) == 2
    assert run(["verify-kernel", edge_file, "--s", "3", "--f", "1", "--zeta", "0.1"]) == 2
    assert run(["verify-kernel", edge_file, "--s", "3", "--f", "1", "--zeta", "1.0,0"]) == 2


def test_json_artifact_deterministic(edge_file, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["compare", edge_file, "--json", str(out1)]) == 0
    assert run(["compare", edge_file, "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["checks"] == {
        "rk model consistent": "pass",
        "differentials rk=cell": "pass",
        "cech model consistent": "pass",
        "ranks rk=cech": "pass",
    }
    assert doc["artifacts"]["cell"] == doc["artifacts"]["rk"]
    assert "input_sha256" in doc


def test_console_entry_point(edge_file):
    proc = subprocess.run(
        [sys.executable, "-m", "coordarr.cli", "cohomology", edge_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "H^{2,1} = Z" in proc.stdout
