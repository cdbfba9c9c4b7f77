from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import coordarr
from coordarr import cech, cells, cli, complexes, kernels, koszul, linalg, resolvents
from coordarr.cli import run
from coordarr.complexes import SimplicialComplex, card, parse_complex
from coordarr.corpus import PROJECTIVE_PLANE_FACETS, standard_corpus
from coordarr.linalg import CheckFailed, ExactMatrix
from reference import all_cells, full_kernel, phi_mismatches_by_matrices
from test_cells import _at_one, _flip_first
from test_koszul import _one_set_per_shape
from test_resolvents import _delta_prime_flipped_at_odd_positions, _inject_into_piece


ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def _env() -> dict[str, str]:
    """The environment of a fresh interpreter that finds this checkout's
    ``coordarr``."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def _python(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds this checkout's ``coordarr``,
    killed after ``timeout`` seconds if one is given."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_env(), timeout=timeout)


@pytest.fixture()
def edge_file(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"n": 2, "facets": [[1], [2]]}))
    return str(path)


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]}))
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


def test_cohomology_cech_defaults_to_rationals(edge_file, capsys):
    assert run(["cohomology", edge_file, "--model", "cech"]) == 0
    out = capsys.readouterr().out
    assert "coefficients Q" in out and "H^{2,1} = Z" in out
    assert run(["cohomology", edge_file]) == 0
    assert "coefficients Z" in capsys.readouterr().out


def test_cohomology_full_simplex(full_file, capsys):
    assert run(["cohomology", full_file]) == 0
    out = capsys.readouterr().out
    assert "H^{0,0} = Z" in out and "2,1" not in out


def test_compare_pass(edge_file):
    assert run(["compare", edge_file]) == 0


def test_negative_cech_dimension_fails_the_check(edge_file, tmp_path, monkeypatch, capsys):
    # a wrong rank shows up as a negative component dimension: it must fail
    # the Čech model, not be printed as a zero group.  Both sides of the
    # pair feed the table through ``_component``; the empty family is that
    # of I = {} alone on the edge's boundary
    component = cech._component

    def one_negative(m, family, families):
        dims = component(m, family, families)
        return [dims[0] - 24] + dims[1:] if family == () else dims

    monkeypatch.setattr(cech, "_component", one_negative)
    with pytest.raises(CheckFailed, match="negative"):
        cech.cohomology(SimplicialComplex.from_vertex_lists(2, [[1], [2]]))
    assert run(["cohomology", edge_file, "--model", "cech"]) == 1
    assert "negative" in capsys.readouterr().err
    out = tmp_path / "compare.json"
    assert run(["compare", edge_file, "--json", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert checks["cech model consistent"] == "fail"
    assert checks["rk model consistent"] == "pass"


def test_compare_detects_injected_sign_fault(edge_file, monkeypatch):
    # flip one boundary term of one (2, 1) cell: the model stops being a
    # complex and the comparison must fail, not crash
    monkeypatch.setattr(cells, "_boundary_terms", _at_one(cells._boundary_terms, (0b01, 0b10), _flip_first))
    assert run(["compare", edge_file]) == 1


def test_a_boundary_term_outside_the_block_fails_the_check(edge_file, monkeypatch, tmp_path, capsys):
    # a boundary term that drops the moved vertex instead of putting it on
    # the circles lands outside the cells of its block; compare must name
    # the blocks, write its artifact and exit 1, not crash
    boundary_terms = cells._boundary_terms

    def dropping(sigma, gamma):
        return [(sign, (face, gamma)) for sign, (face, _) in boundary_terms(sigma, gamma)]

    monkeypatch.setattr(cells, "_boundary_terms", dropping)
    out = tmp_path / "compare.json"
    assert run(["compare", edge_file, "--json", str(out)]) == 1
    assert json.loads(out.read_text())["checks"]["differentials rk=cell"] == "fail"
    assert "at (p, q) = [(1, 0), (2, 0)]" in capsys.readouterr().out
    # the matrix form names the same blocks
    K = parse_complex(Path(edge_file).read_text())
    assert cells.phi_mismatches(K) == phi_mismatches_by_matrices(K) == [(1, 0), (2, 0)]


def _read_terms_of_identity_check(path, monkeypatch, builders):
    # runs compare on path with every builder in builders made to fail, and
    # returns the complex and the (sigma, gamma) pairs whose differential
    # terms and boundary terms the identity check read, in order.  The
    # engine's summands read differential terms of their own, so only the
    # calls made inside the check count
    read = {"rk": [], "cell": []}
    checks = []
    phi_mismatches, diff_terms, boundary_terms = cells.phi_mismatches, koszul._diff_terms, cells._boundary_terms

    def check(K, checked=None):
        start = len(read["rk"])
        mismatches = phi_mismatches(K, checked)
        checks.append((K, read["rk"][start:]))
        return mismatches

    def rk_terms(K, gamma, sigma):
        read["rk"].append((sigma, gamma))
        return diff_terms(K, gamma, sigma)

    def cell_terms(sigma, gamma):
        read["cell"].append((sigma, gamma))
        return boundary_terms(sigma, gamma)

    def builder(*args):
        raise AssertionError("the identity check builds no basis and no matrix")

    monkeypatch.setattr(cells, "phi_mismatches", check)
    monkeypatch.setattr(koszul, "_diff_terms", rk_terms)
    monkeypatch.setattr(cells, "_boundary_terms", cell_terms)
    for module, name in builders:
        monkeypatch.setattr(module, name, builder)
    assert run(["compare", str(path)]) == 0
    [(K, rk_read)] = checks
    return K, rk_read, read["cell"]


def test_compare_builds_each_differential_once(edge_file, monkeypatch):
    # the identity check assembles the differentials of both models term by
    # term: it reads the differential terms of each monomial and the
    # boundary terms of each cell exactly once, on every pair (sigma,
    # gamma), and builds no differential matrix of either model
    K, rk_read, cell_read = _read_terms_of_identity_check(edge_file, monkeypatch, (
        (koszul, "differential_matrix"), (cells, "boundary_matrix"), (cells, "coboundary_matrix"),
    ))
    every_pair = set(all_cells(K))
    assert len(every_pair) == 3 ** 2 - 1
    for key, seen in (("rk", rk_read), ("cell", cell_read)):
        assert len(seen) == len(set(seen)), key
        assert set(seen) == every_pair, key


def test_compare_builds_each_basis_once(tmp_path, monkeypatch):
    # the identity check draws the monomials and the cells of every (p, q)
    # from the faces, so it builds no basis of either model, and still
    # reaches each pair (sigma, gamma) exactly once in both models
    path = tmp_path / "sphere6.json"
    path.write_text(json.dumps({"n": 6, "missing_faces": [[1, 2, 3, 4, 5, 6]]}))
    K, rk_read, cell_read = _read_terms_of_identity_check(path, monkeypatch, (
        (koszul, "basis"), (cells, "cells_of_bidegree"),
    ))
    every_pair = set(all_cells(K))
    assert len(every_pair) == 3 ** 6 - 1
    for key, seen in (("rk", rk_read), ("cell", cell_read)):
        assert len(seen) == len(set(seen)), key
        assert set(seen) == every_pair, key


@pytest.mark.parametrize("doc", [
    {"n": 6, "facets": PROJECTIVE_PLANE_FACETS},
    {"n": 5, "missing_faces": [[1, 2, 3, 4, 5]]},
], ids=["rp2", "sphere5"])
def test_identity_check_leaves_nothing_on_the_complex(doc):
    # the corpus keeps every complex alive, so the bases and blocks of the
    # check must not outlive the call as attributes of K
    K = parse_complex(doc)
    for name, attr in vars(SimplicialComplex).items():
        if isinstance(attr, functools.cached_property):
            getattr(K, name)
    warmed = set(vars(K))
    assert cells.phi_mismatches(K) == []
    assert set(vars(K)) == warmed
    cli._compare_models(K)
    assert set(vars(K)) == warmed


def _flip_first_entry(m: ExactMatrix) -> ExactMatrix:
    key = min(m.entries)
    return ExactMatrix(m.rows, m.cols, {**m.entries, key: -m.entries[key]})


def test_identity_check_covers_all_blocks_after_rk_failure(triangle_file, monkeypatch, tmp_path, capsys):
    # a flipped sign in the summand of J = {1, 2, 3} stops the rk model at
    # its d o d check; a flipped differential term of the (2, 0) monomial
    # u1 u2, which no summand reads, must still be named by the identity
    # check, which reads the terms of every block of both models
    summand = koszul.summand

    def broken_summand(K, J):
        for q, m in enumerate(summand(K, J), -1):
            yield _flip_first_entry(m) if (card(J), q) == (3, 0) and m.entries else m

    read = {"rk": set(), "cell": set()}
    diff_terms = _at_one(koszul._diff_terms, (0b011, 0), _flip_first)
    boundary_terms = cells._boundary_terms

    def rk_terms(K, gamma, sigma):
        read["rk"].add((card(gamma) + card(sigma), card(sigma)))
        return diff_terms(K, gamma, sigma)

    def cell_terms(sigma, gamma):
        read["cell"].add((card(gamma) + card(sigma), card(sigma)))
        return boundary_terms(sigma, gamma)

    monkeypatch.setattr(koszul, "summand", broken_summand)
    monkeypatch.setattr(koszul, "_diff_terms", rk_terms)
    monkeypatch.setattr(cells, "_boundary_terms", cell_terms)
    out = tmp_path / "compare.json"
    assert run(["compare", triangle_file, "--json", str(out)]) == 1
    # every bidegree that holds a monomial, faces up to the edges
    every_bidegree = {(p, q) for p in range(4) for q in range(min(p, 2) + 1)}
    assert read == {"rk": every_bidegree, "cell": every_bidegree}
    checks = json.loads(out.read_text())["checks"]
    assert checks["rk model consistent"] == "fail"
    assert checks["differentials rk=cell"] == "fail"
    assert "at (p, q) = [(2, 0)]" in capsys.readouterr().out


def _is_last_non_face(K: SimplicialComplex, J: int) -> bool:
    """Whether J is the last non-face of its size, in ``k_subsets`` order."""
    non_faces = [S for S in K.k_subsets(card(J)) if not K.is_face(S)]
    return bool(non_faces) and J == non_faces[-1]


def _rp2_and_c8_files(tmp_path) -> list[tuple[str, Path]]:
    cycle = [[i, i % 8 + 1] for i in range(1, 9)]
    files = []
    for name, doc in (("rp2", {"n": 6, "facets": PROJECTIVE_PLANE_FACETS}), ("c8", {"n": 8, "facets": cycle})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        files.append((name, path))
    return files


def _fault_last_non_face_summands(monkeypatch, fault) -> list[int]:
    """Pass the maps of the component that is the last non-face of its size
    through ``fault``.  Returns the list of the J the fault reached: a J
    whose shape the engine has already eliminated never reaches
    ``summand``."""
    summand = koszul.summand
    hits: list[int] = []

    def faulty(K, J):
        if not _is_last_non_face(K, J):
            return summand(K, J)
        hits.append(J)
        return fault(summand(K, J))

    monkeypatch.setattr(koszul, "summand", faulty)
    return hits


def _shift_last_non_face_summands(monkeypatch) -> list[int]:
    """Move every group of the component that is the last non-face of its
    size from q to q + 2: two empty maps in front of its summand.  The
    alternating sums of the free ranks stay, so the Euler check passes."""
    return _fault_last_non_face_summands(monkeypatch, lambda maps: iter([ExactMatrix(0, 0), ExactMatrix(0, 0), *maps]))


def test_compare_and_corpus_check_the_reported_table(tmp_path, monkeypatch):
    # compare and corpus read the table hodge reports from, so a summand
    # the engine misplaces (here: the component that is the last non-face
    # of its size) shows up as a rank the Čech oracle does not have
    hits = _shift_last_non_face_summands(monkeypatch)
    for name, path in _rp2_and_c8_files(tmp_path):
        hits.clear()
        out = tmp_path / f"{name}-compare.json"
        assert run(["compare", str(path), "--json", str(out)]) == 1, name
        assert hits, name
        checks = json.loads(out.read_text())["checks"]
        assert checks["rk model consistent"] == "pass", name
        assert checks["ranks rk=cech"] == "fail", name
    hits.clear()
    assert run(["corpus", "--random", "0"]) == 1
    assert hits


def _drop_last_non_face_summands(monkeypatch) -> list[int]:
    """Lose the summand of the component that is the last non-face of its
    size."""
    return _fault_last_non_face_summands(monkeypatch, lambda maps: iter(()))


def test_a_dropped_summand_fails_the_euler_check(tmp_path, monkeypatch, capsys):
    # a lost summand breaks the alternating sum of its stripe, so hodge
    # exits 1 with no oracle, and compare fails the rk model itself
    hits = _drop_last_non_face_summands(monkeypatch)
    for name, path in _rp2_and_c8_files(tmp_path):
        hits.clear()
        assert run(["hodge", str(path)]) == 1, name
        assert hits, name
        assert "Euler characteristic" in capsys.readouterr().err, name
        hits.clear()
        out = tmp_path / f"{name}-compare.json"
        assert run(["compare", str(path), "--json", str(out)]) == 1, name
        assert hits, name
        assert json.loads(out.read_text())["checks"]["rk model consistent"] == "fail", name


def test_corpus_fail_line_names_the_failed_checks(monkeypatch, capsys):
    # the caches of a corpus run carry one faulty shape into many complexes,
    # so each FAIL line names the check that points at the faulty model
    hits = _shift_last_non_face_summands(monkeypatch)
    assert run(["corpus", "--random", "0"]) == 1
    assert hits
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL  #")]
    assert fails
    assert all(line.endswith("[ranks rk=cech]") for line in fails), fails


def test_corpus_caches_live_for_one_run(monkeypatch):
    # a fault in the summands or in one term formula fails this run only:
    # the next run eliminates and checks afresh, and a fault injected after
    # a clean run is not hidden by it
    original = koszul.summand
    for faulty, code in ((True, 1), (False, 0), (True, 1)):
        if faulty:
            hits = _drop_last_non_face_summands(monkeypatch)
        else:
            monkeypatch.setattr(koszul, "summand", original)
        assert run(["corpus", "--random", "0"]) == code, faulty
        assert not faulty or hits
    monkeypatch.setattr(koszul, "summand", original)
    boundary_terms = cells._boundary_terms
    for faulty, code in ((False, 0), (True, 1), (False, 0)):
        faulty_terms = _at_one(boundary_terms, (0b01, 0b10), _flip_first)
        monkeypatch.setattr(cells, "_boundary_terms", faulty_terms if faulty else boundary_terms)
        assert run(["corpus", "--random", "0"]) == code, faulty


@pytest.mark.parametrize("seed", [20260810, 1305])
def test_corpus_caches_give_the_per_call_tables(seed, monkeypatch):
    # in either order of the corpus, a table built on the caches of a run
    # equals the one built with no shared cache, byte for byte; so do the
    # blocks the identity check names, on clean code and under a flipped
    # first term of u1 u2 (none where vertices 1 and 2 are ghosts), which
    # fails the same complexes at the same blocks
    items = standard_corpus(200, seed)
    diff_terms = koszul._diff_terms
    faulty_terms = _at_one(diff_terms, (0b011, 0), _flip_first)

    def identity_checks(order, checked_of):
        out = {}
        for name, terms in (("phi", diff_terms), ("phi fault", faulty_terms)):
            monkeypatch.setattr(koszul, "_diff_terms", terms)
            checked = checked_of()
            out[name] = [cells.phi_mismatches(K, checked) for K in order]
        monkeypatch.setattr(koszul, "_diff_terms", diff_terms)
        return out

    per_call = {
        coeff: [koszul.cohomology(K, coeff).to_json() for K in items] for coeff in ("Z", "Q")
    }
    per_call["cech"] = [cech.cohomology(K).to_json() for K in items]
    per_call.update(identity_checks(items, lambda: None))
    assert not any(per_call["phi"])
    assert 0 < sum(map(bool, per_call["phi fault"])) < len(items)
    monkeypatch.setattr(koszul, "_diff_terms", faulty_terms)
    assert per_call["phi fault"] == [phi_mismatches_by_matrices(K) for K in items]
    monkeypatch.setattr(koszul, "_diff_terms", diff_terms)
    for order in (items, items[::-1]):
        shapes: koszul.Shapes = {}
        families: cech.Families = {}
        shared = {coeff: [koszul.cohomology(K, coeff, shapes).to_json() for K in order] for coeff in ("Z", "Q")}
        shared["cech"] = [cech.cohomology(K, families).to_json() for K in order]
        shared.update(identity_checks(order, dict))
        if order is not items:
            shared = {name: tables[::-1] for name, tables in shared.items()}
        assert shared == per_call


@pytest.mark.parametrize(("seed", "shared", "per_call"), [(20260810, 17_637, 70_984), (1305, 19_054, 75_222)])
def test_corpus_checks_each_summand_once_per_run(seed, shared, per_call, monkeypatch):
    # with one cache over the corpus, the identity check reads the terms of
    # each pair once per distinct (J, faces of K inside J), about a quarter
    # as many times as with none
    items = standard_corpus(200, seed)
    calls = {"rk": 0, "cell": 0}
    diff_terms, boundary_terms = koszul._diff_terms, cells._boundary_terms

    def rk_terms(K, gamma, sigma):
        calls["rk"] += 1
        return diff_terms(K, gamma, sigma)

    def cell_terms(sigma, gamma):
        calls["cell"] += 1
        return boundary_terms(sigma, gamma)

    monkeypatch.setattr(koszul, "_diff_terms", rk_terms)
    monkeypatch.setattr(cells, "_boundary_terms", cell_terms)
    for K in items:
        assert cells.phi_mismatches(K) == []
    assert calls == {"rk": per_call, "cell": per_call}
    calls.update(rk=0, cell=0)
    checked: cells.Checked = {}
    for K in items:
        assert cells.phi_mismatches(K, checked) == []
    assert calls == {"rk": shared, "cell": shared}
    assert sum(len(inside) for _, inside in checked) == shared


@pytest.mark.parametrize(("name", "commands", "calls"), [
    ("rp2", ["compare", "hodge", "cohomology"], 15),
    ("c8", ["compare"], 27),
])
def test_single_complex_commands_eliminate_each_component_shape_once(name, commands, calls, tmp_path, monkeypatch):
    # outside corpus the engine keeps one dict of shapes per call: one
    # summand per distinct shape of the non-face components, the unit J = {}
    # included, where components of one shape recur (32 non-face components
    # of RP^2, 41 of C_8), and the next command eliminates them afresh
    cycle = [[i, i % 8 + 1] for i in range(1, 9)]
    doc = {"rp2": {"n": 6, "facets": PROJECTIVE_PLANE_FACETS}, "c8": {"n": 8, "facets": cycle}}[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    K = parse_complex(doc)
    original = koszul.summand
    for command in commands:
        seen: list[int] = []
        monkeypatch.setattr(koszul, "summand", lambda K, J: seen.append(J) or original(K, J))
        assert run([command, str(path)]) == 0
        assert len(seen) == calls, command
        _one_set_per_shape(K, seen)


def test_hodge_and_kernel_do_not_run_the_cech_table(edge_file, monkeypatch, capsys):
    def oracle_only(*args, **kwargs):
        raise RuntimeError("the Čech table is the oracle of compare only")

    monkeypatch.setattr(cech, "cohomology", oracle_only)
    assert run(["hodge", edge_file]) == 0
    assert "F(2,3) = 1" in capsys.readouterr().out
    assert run(["kernel", edge_file, "--s", "3"]) == 0
    assert "normalization exact" in capsys.readouterr().out


def test_compare_exit_codes_for_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["compare", str(bad)]) == 2
    assert run(["compare", str(tmp_path / "missing.json")]) == 2
    # JSON booleans are not vertex data
    bad.write_text('{"n": true, "facets": [[true]]}')
    assert run(["compare", str(bad)]) == 2


def test_failed_self_check_exits_1(triangle_file, monkeypatch, capsys):
    # one flipped Koszul sign in the summand of J = {1, 2, 3}, which is not a
    # face: d o d != 0 is a failed check, not bad input.  (On the edge
    # boundary the map out of (2, 1) is zero, so no flip at (2, 0) can
    # break d o d there.)
    original = koszul.summand
    flipped = []

    def broken(K, J):
        for q, m in enumerate(original(K, J), -1):
            if (card(J), q) == (3, 0) and m.entries:
                key = min(m.entries)
                m = ExactMatrix(m.rows, m.cols, {**m.entries, key: -m.entries[key]})
                flipped.append(q)
            yield m

    monkeypatch.setattr(koszul, "summand", broken)
    for argv in (["cohomology", triangle_file], ["hodge", triangle_file]):
        assert run(argv) == 1
        assert "d_out o d_in != 0" in capsys.readouterr().err
    assert flipped == [0, 0]


def _sphere_file(tmp_path, n: int) -> str:
    path = tmp_path / f"sphere{n}.json"
    facets = [[v for v in range(1, n + 1) if v != missing] for missing in range(1, n + 1)]
    path.write_text(json.dumps({"n": n, "facets": facets}))
    return str(path)


def _recording_stripes(monkeypatch) -> list[list[ExactMatrix]]:
    """Record the maps of every summand the table engine hands to
    elimination, one list per summand."""
    stripes: list[list[ExactMatrix]] = []
    original = koszul.stripe_cohomology

    def recording(maps, coeff="Z"):
        stripes.append(list(maps))
        return original(stripes[-1], coeff)

    monkeypatch.setattr(koszul, "stripe_cohomology", recording)
    return stripes


def test_hodge_eliminates_only_the_non_face_summands(tmp_path, monkeypatch, capsys):
    # every J of size < 12 is a face of the boundary of the 12-simplex, so
    # only J = {} (1 monomial) and J = [12] (its 4,095 faces) are assembled,
    # one summand each
    stripes = _recording_stripes(monkeypatch)
    assert run(["hodge", _sphere_file(tmp_path, 12)]) == 0
    sizes = [sum(m.cols for m in maps) for maps in stripes]
    assert sizes == [1, 4095]
    h_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("h(")]
    assert h_lines == ["h(0,0) = 1", "h(12,11) = 1"]


def test_tables_never_build_the_full_stripes(edge_file, monkeypatch, capsys):
    def full_stripe(*args):
        raise AssertionError("the full stripes belong to compare and corpus")

    monkeypatch.setattr(koszul, "differential_matrix", full_stripe)
    monkeypatch.setattr(koszul, "basis", full_stripe)
    assert run(["hodge", edge_file]) == 0
    assert run(["cohomology", edge_file, "--coeff", "z"]) == 0
    assert run(["cohomology", edge_file, "--coeff", "q"]) == 0
    # the unavailable-kernel message reads the table too
    assert run(["kernel", edge_file, "--s", "1"]) == 1
    assert "nonzero ranks in degree 1: none" in capsys.readouterr().out


def test_full_simplex_tables_eliminate_no_entry(tmp_path, monkeypatch):
    # every nonempty J is a face, so the tables reach elimination with empty
    # maps only, compare's included; its identity check still reads the
    # terms of every monomial and every cell of both models, face J included
    path = tmp_path / "full4.json"
    path.write_text(json.dumps({"n": 4, "facets": [[1, 2, 3, 4]]}))
    stripes = _recording_stripes(monkeypatch)
    eliminated = []
    for name in ("smith_normal_form", "rank_rational"):
        original = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda m, original=original: eliminated.append(m) or original(m))
    for argv in (["hodge"], ["cohomology", "--coeff", "z"], ["cohomology", "--coeff", "q"]):
        assert run([argv[0], str(path), *argv[1:]]) == 0
    assert stripes and not any(m.entries for maps in stripes for m in maps)
    assert eliminated == []
    compared = {"rk": set(), "cell": set()}
    diff_terms, boundary_terms = koszul._diff_terms, cells._boundary_terms
    monkeypatch.setattr(
        koszul, "_diff_terms",
        lambda K, gamma, sigma: compared["rk"].add((sigma, gamma)) or diff_terms(K, gamma, sigma),
    )
    monkeypatch.setattr(
        cells, "_boundary_terms",
        lambda sigma, gamma: compared["cell"].add((sigma, gamma)) or boundary_terms(sigma, gamma),
    )
    assert run(["compare", str(path)]) == 0
    assert eliminated == []
    every_pair = {(sigma, gamma) for sigma in range(16) for gamma in range(16) if not sigma & gamma}
    assert compared == {"rk": every_pair, "cell": every_pair}


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


def test_resolvent_validates_once(edge_file, tmp_path, monkeypatch):
    # build_resolvent checks each piece once, as it builds it; the command
    # reports that verdict and checks nothing again
    calls = []
    original = resolvents._check_at_prefixes

    def counting(piece, children, k):
        calls.append(k)
        return original(piece, children, k)

    monkeypatch.setattr(resolvents, "_check_at_prefixes", counting)
    out = tmp_path / "resolvent.json"
    assert run(["resolvent", edge_file, "--p", "2", "--q", "1", "--json", str(out)]) == 0
    assert calls == [0, 1]
    assert json.loads(out.read_text())["checks"] == {"identities": "pass"}


def _failing_check(piece, children, k):
    raise CheckFailed("resolvent identity fails between pieces 0 and 1")


def test_resolvent_failed_validation_exits_1(edge_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(resolvents, "_check_at_prefixes", _failing_check)
    out = tmp_path / "resolvent.json"
    assert run(["resolvent", edge_file, "--p", "2", "--q", "1", "--json", str(out)]) == 1
    assert "resolvent identity fails" in capsys.readouterr().err
    assert not out.exists()


#: sha256 of the ``resolvent --json`` artifact, recorded before cycles and
#: resolvent pieces were computed one bidegree at a time and in place
RESOLVENT_ARTIFACTS = {
    "sphere4": (
        {"n": 4, "facets": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]},
        ["--p", "4", "--q", "3"],
        "41839326ad46a63db4493179d5e7b94d592e00eacc83206a7d71188deb92ecc1",
    ),
    "path": (
        {"n": 3, "facets": [[1, 2], [2, 3]]},
        ["--p", "2", "--q", "1"],
        "1686ff3105230e9116c23e5e1c4b22e032329eca4f2de068ddc892edbe44e3a1",
    ),
}


@pytest.mark.parametrize("name", sorted(RESOLVENT_ARTIFACTS))
def test_resolvent_artifact_digest(name, tmp_path):
    doc, bidegree, digest = RESOLVENT_ARTIFACTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "resolvent.json"
    assert run(["resolvent", str(path), *bidegree, "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


#: sha256 of the ``kernel --json`` artifact, whose ``top_piece`` holds the
#: read tuples only
KERNEL_ARTIFACTS = {
    "sphere4": (
        {"n": 4, "facets": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]},
        7,
        "ae407bb1810a6456b2a80fa855fcba4d4b64a191c0980f84df2bf0d8cfe46a56",
    ),
    "sphere5": (
        {"n": 5, "facets": [[2, 3, 4, 5], [1, 3, 4, 5], [1, 2, 4, 5], [1, 2, 3, 5], [1, 2, 3, 4]]},
        9,
        "7accd6cbc3bc86dead028c145630b2a366bc884a7c2b6d98daf449a50c0714a2",
    ),
    "cycle4": (
        {"n": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]},
        6,
        "1a994ed1b6f22552e4a6da04e948d55109305373e106e68134d836028d2a5463",
    ),
}

#: sha256 of the same artifacts with the whole top piece, recorded while
#: cochain values were still form objects and the scale a pairing-scalar type
FULL_TOP_PIECE_DIGESTS = {
    "sphere4": "6ee5d22c8eae86d0c4ca3d58c5090a13175925a982fcdb4cd22eeeedcc4851c6",
    "sphere5": "ed83bd465496b9ab820b2c54726631e21d36038dfbc4367e698f3e9468954779",
    "cycle4": "abdd607ea6a73cc1200dc6f389b4f92f0cf33c2def9f9a5069e2f852229874c4",
}


@pytest.mark.parametrize("name", sorted(KERNEL_ARTIFACTS))
def test_kernel_artifact_digest(name, tmp_path):
    doc, s, digest = KERNEL_ARTIFACTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "kernel.json"
    assert run(["kernel", str(path), "--s", str(s), "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(KERNEL_ARTIFACTS))
def test_kernel_artifact_is_the_full_one_on_the_read_tuples(name, tmp_path):
    # the full build reproduces the recorded whole-top-piece artifact byte
    # for byte, and filtering its top piece to the cocycle's tuples gives
    # the artifact the command writes now
    doc, s, _ = KERNEL_ARTIFACTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "kernel.json"
    assert run(["kernel", str(path), "--s", str(s), "--json", str(out)]) == 0
    written = json.loads(out.read_text())
    full = full_kernel(parse_complex(doc), s).to_json()
    full_text = json.dumps({**written, "artifacts": full}, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(full_text.encode()).hexdigest() == FULL_TOP_PIECE_DIGESTS[name]
    read = [entry["tuple"] for entry in full["cocycle"]]
    top = [entry for entry in full["top_piece"] if entry["tuple"] in read]
    assert written["artifacts"] == {**full, "top_piece": top}


def test_kernel(edge_file, capsys):
    assert run(["kernel", edge_file, "--s", "3"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "kernel for total degree 3: scale (-1)*(2pii)^-2, 1 top tuples; normalization exact"


def test_kernel_recursion_sign_fault_exits_1(tmp_path, monkeypatch, capsys):
    # one vertex's sign flipped in the flag recursion: the identity check at
    # the kept prefixes fails, so the command exits 1 and writes nothing
    original = resolvents.pos_in
    monkeypatch.setattr(resolvents, "pos_in", lambda mask, v: original(mask, v) + (v == 2))
    out = tmp_path / "kernel.json"
    assert run(["kernel", _sphere_file(tmp_path, 4), "--s", "7", "--json", str(out)]) == 1
    assert "resolvent identity fails" in capsys.readouterr().err
    assert not out.exists()


def _cycle_file(tmp_path, n: int) -> str:
    path = tmp_path / f"cycle{n}.json"
    path.write_text(json.dumps({"n": n, "facets": [[i, i % n + 1] for i in range(1, n + 1)]}))
    return str(path)


@pytest.mark.parametrize(("fault", "message"), [
    ("flip", "is not closed"),  # one stored value negated
    ("clear", "not independent modulo coboundaries"),  # the zero cochain, closed and exact
])
def test_a_corrupted_kernel_cocycle_exits_1(fault, message, tmp_path, monkeypatch, capsys):
    # the facet cocycle of C6 at (6, 2) has 4 values and the kept top tuple
    # reads 1 of them: a fault in another is seen only when the stored
    # values are read back and checked
    class Corrupted(cech.LogCochain):
        def __init__(self, p, t, values=None):
            super().__init__(p, t, values)
            if fault == "clear":
                self.values.clear()
            elif self.values:
                tup = min(self.values)
                self.values[tup] = {iset: -c for iset, c in self.values[tup].items()}

    cycle = _cycle_file(tmp_path, 6)
    assert run(["kernel", cycle, "--s", "8"]) == 0
    monkeypatch.setattr(cech, "LogCochain", Corrupted)
    out = tmp_path / "kernel.json"
    assert run(["kernel", cycle, "--s", "8", "--json", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(("argv", "owner"), [
    (["kernel", "--s", "3"], kernels.KernelData),
    (["resolvent", "--p", "2", "--q", "1"], resolvents.Resolvent),
], ids=["kernel", "resolvent"])
def test_payload_serialized_once_for_stdout_or_artifact(argv, owner, edge_file, tmp_path, monkeypatch, capsys):
    # with --json the file takes the payload and stdout holds the summary
    # line alone; without it the payload is echoed after that line, encoded
    # as in the report.  Either way the payload is built once
    calls = []
    original = owner.to_json

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(owner, "to_json", counting)
    command = [argv[0], edge_file, *argv[1:]]
    out = tmp_path / "out.json"
    assert run([*command, "--json", str(out)]) == 0
    assert len(calls) == 1
    printed = capsys.readouterr().out
    summary = printed.splitlines()[0]
    assert printed == summary + "\n"
    artifacts = json.loads(out.read_text())["artifacts"]
    assert run(command) == 0
    assert len(calls) == 2
    assert capsys.readouterr().out == f"{summary}\n{json.dumps(artifacts, sort_keys=True, indent=2)}\n"


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_kernel_normalization_from_json_alone(n, tmp_path, monkeypatch):
    # the artifact alone pins the normalization, by the benchmark's own
    # checker: exact pairing of the stored cocycle against the top piece,
    # times the scale, is 1
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    checks = importlib.import_module("checks")
    facets = [[v for v in range(1, n + 1) if v != missing] for missing in range(1, n + 1)]
    src = tmp_path / "sphere.json"
    src.write_text(json.dumps({"n": n, "facets": facets}))
    out = tmp_path / "kernel.json"
    assert run(["kernel", str(src), "--s", str(2 * n - 1), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())["artifacts"]
    assert checks.kernel_normalized(doc)
    assert 0 < len(doc["cocycle"]) == len(doc["top_piece"])


def test_kernel_unavailable(full_file):
    assert run(["kernel", full_file, "--s", "1"]) == 1


def test_kernel_degree_outside_0_to_2n_exits_2(edge_file, capsys):
    verify = ["--f", "1", "--zeta", "0.1,0.2"]
    for s in ("-3", "99"):
        assert run(["kernel", edge_file, "--s", s]) == 2
        assert run(["verify-kernel", edge_file, "--s", s, *verify]) == 2
        assert capsys.readouterr().err.count(f"total degree s = {s} out of range 0..4") == 2
    # inside the range, a degree without a kernel is a failed check
    assert run(["kernel", edge_file, "--s", "0"]) == 1
    assert run(["verify-kernel", edge_file, "--s", "4", *verify]) == 1


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


def test_verify_kernel_evaluates_once(edge_file, tmp_path, monkeypatch):
    calls = []
    original = kernels.evaluate_representation

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "evaluate_representation", counting)
    base = ["verify-kernel", edge_file, "--s", "3", "--f", "1+z1^2*z2^3", "--zeta", "0.3,-0.4"]
    out = tmp_path / "verify.json"
    assert run(base + ["--json", str(out)]) == 0
    assert len(calls) == 1
    report = json.loads(out.read_text())["artifacts"]["report"]
    assert len(report) == 1 and report[0]["abs_error"] < 1e-9
    assert run(base + ["--tolerance", "0"]) == 1
    assert len(calls) == 2
    assert run(["verify-kernel", edge_file, "--s", "3", "--f", "1", "--zeta", "1.0,0"]) == 2


def test_verify_kernel_exits_1_on_a_failed_check_in_the_reproduction(edge_file, monkeypatch, capsys):
    def failing(*args):
        raise CheckFailed("broken reproduction")

    monkeypatch.setattr(kernels, "verify_reproduction", failing)
    assert run(["verify-kernel", edge_file, "--s", "3", "--f", "1", "--zeta", "0.1,0.2"]) == 1
    assert "check failed: broken reproduction" in capsys.readouterr().err


def test_verify_kernel_input_errors(edge_file):
    assert run(["verify-kernel", edge_file, "--s", "3", "--f", "qq", "--zeta", "0,0"]) == 2
    assert run(["verify-kernel", edge_file, "--s", "3", "--f", "1", "--zeta", "0.1"]) == 2
    assert run(["verify-kernel", edge_file, "--s", "3", "--f", "1", "--zeta", "1.0,0"]) == 2


def test_verify_kernel_rejects_non_finite_numbers(edge_file, capsys):
    base = ["verify-kernel", edge_file, "--s", "3", "--nodes", "4"]
    for extra in (
        ["--f", "1", "--zeta", "nan,0.1"],
        ["--f", "1", "--zeta", "0.1,inf"],
        ["--f", "nan*z1", "--zeta", "0.1,0.2"],
        ["--f", "1", "--zeta", "0.1,0.2", "--tolerance", "nan"],
        ["--f", "1", "--zeta", "0.1,0.2", "--tolerance", "-1"],
        ["--f", "1", "--zeta", "0.1,0.2", "--tolerance", "inf"],
    ):
        assert run(base + extra) == 2, extra
        assert "input error" in capsys.readouterr().err


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
    proc = _python("-m", "coordarr.cli", "cohomology", edge_file)
    assert proc.returncode == 0
    assert "H^{2,1} = Z" in proc.stdout


def test_package_entry_point_is_the_cli(edge_file):
    proc = _python("-m", "coordarr", "hodge", edge_file)
    reference = _python("-m", "coordarr.cli", "hodge", edge_file)
    assert (proc.returncode, proc.stdout) == (reference.returncode, reference.stdout)
    assert proc.returncode == 0 and proc.stdout.startswith("# Hodge numbers")


def test_one_parser_per_process(edge_file, monkeypatch, capsys):
    # a batch of commands in one process builds the parser once, on the
    # first call, and importing the CLI builds none
    cli._parser.cache_clear()
    builds = []
    original = cli.build_parser

    def spy():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", spy)
    assert [run(argv) for argv in (
        ["hodge", edge_file], ["kernel", edge_file, "--s", "3"], ["compare", edge_file],
    )] == [0, 0, 0]
    assert len(builds) == 1
    script = """
import argparse
made = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    made.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from coordarr import cli
print(len(made), cli._parser.cache_info().currsize)
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def _fresh_artifact(tmp_path, name: str, *argv: str) -> bytes:
    """The --json artifact of one command run by a fresh ``python -m
    coordarr`` process."""
    out = tmp_path / name
    proc = _python("-m", "coordarr", *argv, "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


def test_no_option_crosses_calls(edge_file, tmp_path, capsys):
    # the reused parser hands each call fresh arguments: options given to
    # one call are not the defaults of the next
    base = ["verify-kernel", edge_file, "--s", "3", "--f", "1+z1^2*z2^3", "--zeta", "0.3,-0.4"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(base + ["--nodes", "64", "--tolerance", "1e-6", "--json", str(first)]) == 0
    assert run(base + ["--json", str(second)]) == 0
    given = json.loads(first.read_text())["artifacts"]
    assert (given["report"][0]["N"], given["tolerance"]) == (64, 1e-6)
    defaults = json.loads(second.read_text())["artifacts"]
    assert (defaults["report"][0]["N"], defaults["tolerance"]) == (128, 1e-9)
    assert second.read_bytes() == _fresh_artifact(tmp_path, "fresh.json", *base)


def test_a_usage_error_leaves_the_next_call_intact(edge_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["kernel", edge_file])  # --s is required
    assert exc.value.code == 2
    assert "the following arguments are required: --s" in capsys.readouterr().err
    out = tmp_path / "hodge.json"
    assert run(["hodge", edge_file, "--json", str(out)]) == 0
    assert out.read_bytes() == _fresh_artifact(tmp_path, "fresh.json", "hodge", edge_file)


def test_bindings_patched_after_the_first_call_take_effect(edge_file, monkeypatch, capsys):
    # the process parser holds the commands and nothing they load, so a
    # binding patched later (as the benchmark's tracer patches them) is the
    # one the next command reaches
    assert run(["hodge", edge_file]) == 0
    parsed, built = [], []

    def parse_spy(text):
        parsed.append(1)
        return parse_complex(text)

    def build_spy(*args, **kwargs):
        built.append(1)
        return resolvents.build_resolvent(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_complex", parse_spy)
    monkeypatch.setattr(cli, "build_resolvent", build_spy)
    assert run(["compare", edge_file]) == 0
    assert (len(parsed), len(built)) == (1, 0)
    assert run(["resolvent", edge_file, "--p", "2", "--q", "1"]) == 0
    assert (len(parsed), len(built)) == (2, 1)


def _closing_stdout_after(lines: int, *args: str) -> tuple[int, str]:
    """Run a command in a fresh interpreter whose reader takes the given
    number of stdout lines and then closes the pipe; returns the exit code
    and stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "coordarr", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env()
    )
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(), err


@pytest.mark.parametrize(("command", "lines"), [
    (["resolvent", "--p", "6", "--q", "5"], 1),  # a payload far larger than the pipe
    (["kernel", "--s", "11"], 0),  # closed before the first line is written
    (["hodge"], 0),
    (["cohomology", "--model", "cech"], 0),
    (["compare"], 0),
    (["verify-kernel", "--s", "11", "--f", "1+z1*z2", "--zeta", "0.1,0.2,0.3,0.1,0.2,0.3"], 0),
    (["corpus", "--random", "0"], 0),  # no input file and no artifact
], ids=["resolvent", "kernel", "hodge", "cohomology", "compare", "verify-kernel", "corpus"])
def test_a_closed_stdout_keeps_the_artifact_and_the_exit_code(command, lines, tmp_path):
    # `coordarr resolvent ... --json r.json | head -1`: the artifact is
    # written before the payload is printed, and the exit code is the one
    # the checks give, with no traceback
    name, *options = command
    argv = command if name == "corpus" else [name, _sphere_file(tmp_path, 6), *options]
    closed, normal = tmp_path / "closed.json", tmp_path / "normal.json"
    json_to = (lambda path: []) if name == "corpus" else (lambda path: ["--json", str(path)])
    code, err = _closing_stdout_after(lines, *argv, *json_to(closed))
    assert (code, err) == (0, "")
    assert run(argv + json_to(normal)) == 0
    assert name == "corpus" or closed.read_bytes() == normal.read_bytes()


def test_an_unbuffered_closed_stdout_keeps_the_hodge_artifact(tmp_path, monkeypatch):
    # `PYTHONUNBUFFERED=1 coordarr hodge ... --json o.json | head -1`: each
    # line reaches the pipe as it is printed, so the reader closes it
    # before the rest is written
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    sphere = _sphere_file(tmp_path, 6)
    code, err = _closing_stdout_after(1, "hodge", sphere, "--json", str(tmp_path / "closed.json"))
    assert (code, err) == (0, "")
    assert run(["hodge", sphere, "--json", str(tmp_path / "normal.json")]) == 0
    assert (tmp_path / "closed.json").read_bytes() == (tmp_path / "normal.json").read_bytes()


def test_cli_import_does_not_load_scipy():
    # the exact core needs no scipy; importing it cost most of the start-up
    proc = _python("-c", "import sys, coordarr.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_does_not_load_numpy():
    # the quadrature runs on plain complex floats; numpy cost most of the
    # start-up and resident memory of every command
    proc = _python("-c", "import sys, coordarr.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


#: functions and methods of ``src`` that no command of the coverage run
#: enters, each with the reason it stays
NOT_ENTERED_BY_A_COMMAND = {
    "coordarr.cli.main": "the console-script entry point; test_console_entry_point "
                         "runs it in a subprocess, which the profiler does not see",
    "coordarr.linalg.BigradedTable.torsions": "prints the torsion of a failed compare, "
                                              "so no passing command enters it",
    "coordarr.koszul.basis": "bound by the benchmark's tracer (perfbench/tracing.py); "
                             "the identity check reads the terms of each monomial instead",
    "coordarr.koszul.differential_matrix": "bound by the benchmark's tracer (perfbench/tracing.py); "
                                           "the identity check builds no matrix",
    "coordarr.cells.coboundary_matrix": "bound by the benchmark's tracer (perfbench/tracing.py); "
                                        "the identity check builds no matrix",
    "coordarr.linalg.ExactMatrix.__eq__": "compares the blocks of the identity check's matrix form "
                                          "(reference.phi_mismatches_by_matrices)",
}


def _modules() -> list:
    """The ``coordarr`` package and every module in it."""
    return [coordarr] + [
        importlib.import_module(f"coordarr.{info.name}")
        for info in pkgutil.iter_modules(coordarr.__path__)
    ]


def _defined_functions() -> dict[str, object]:
    """Every function and method written in a ``coordarr`` module, keyed by
    qualified name, with the code object whose frame counts as entering it.
    A module-level function under ``functools.cache`` or ``lru_cache``
    counts through the function it wraps.  Methods a dataclass generates
    are not written in the module's file and drop out; ``__repr__`` serves
    debugging only and is left out."""
    out: dict[str, object] = {}
    for module in _modules():
        candidates = []
        for name, obj in vars(module).items():
            if inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    if attr_name == "__repr__":
                        continue
                    for fn in (attr, getattr(attr, "fget", None), getattr(attr, "func", None),
                               getattr(attr, "__func__", None)):
                        candidates.append((f"{name}.{attr_name}", fn))
            else:
                candidates.append((name, getattr(obj, "__wrapped__", obj)))
        for name, fn in candidates:
            if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                out[f"{module.__name__}.{name}"] = fn.__code__
    return out


def test_every_public_name_is_reached_by_a_command(tmp_path):
    # one fixed run of all seven subcommands; a function or method no
    # command enters belongs with the test references, not in the package
    paths = {}
    for name, doc in (
        ("edge", {"n": 2, "facets": [[1], [2]]}),
        ("sphere3", {"n": 3, "missing_faces": [[1, 2, 3]]}),
        ("rp2", {"n": 6, "facets": PROJECTIVE_PLANE_FACETS}),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    commands = [
        (["corpus", "--random", "1"], 0),
        (["kernel", str(paths["rp2"]), "--s", "9"], 1),  # RP² has no kernel
    ]
    for name, n, p, q, s in (("edge", 2, 2, 1, 3), ("sphere3", 3, 3, 2, 5), ("rp2", 6, 3, 2, None)):
        path = str(paths[name])
        commands += [
            (["cohomology", path], 0),
            (["cohomology", path, "--model", "cech"], 0),
            (["compare", path], 0),
            (["hodge", path], 0),
            (["resolvent", path, "--p", str(p), "--q", str(q)], 0),
        ]
        if s is not None:
            commands += [
                (["kernel", path, "--s", str(s)], 0),
                (["verify-kernel", path, "--s", str(s), "--f", "1+z1^2*z2", "--zeta",
                  ",".join(["0.3"] * n)], 0),
            ]
    defined = _defined_functions()
    entered: set = set()
    # an earlier test may have filled a module-level cache (the process
    # parser, the k-subsets); empty every one, so that the first command
    # enters each cached function as in a fresh process
    for module in _modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = [(argv, run(argv), expected) for argv, expected in commands]
    finally:
        sys.setprofile(None)
    assert [(argv, code) for argv, code, expected in codes if code != expected] == []
    assert set(NOT_ENTERED_BY_A_COMMAND) <= set(defined)
    missed = {name for name, code in defined.items() if code not in entered}
    assert sorted(missed - set(NOT_ENTERED_BY_A_COMMAND)) == []


def test_benchmark_trace_bindings_still_exist(edge_file, triangle_file, tmp_path):
    # the benchmark's tracer patches coordarr functions by module attribute;
    # a renamed binding must fail here, not silently break a traced run.  The
    # edge's tables eliminate no entry (its one non-face J splits into two
    # points), so the triangle brings the Smith form and the rational rank.
    # The tracer stands in for cli's json module, so the --json runs check
    # that a traced run still writes the artifacts an untraced one writes
    traced = {name: str(tmp_path / f"traced-{name}.json") for name in ("kernel", "resolvent")}
    script = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import tracing
from coordarr import cli
recorder = tracing.Recorder()
tracing.install(recorder)
codes = [cli.run(argv) for argv in (
    ["compare", {edge_file!r}], ["hodge", {edge_file!r}], ["kernel", {edge_file!r}, "--s", "3"],
    ["compare", {triangle_file!r}], ["hodge", {triangle_file!r}],
    ["verify-kernel", {edge_file!r}, "--s", "3", "--f", "1+z1*z2", "--zeta", "0.3,-0.4"],
    ["kernel", {edge_file!r}, "--s", "3", "--json", {traced["kernel"]!r}])]
start = len(recorder.spans)
codes.append(cli.run(["resolvent", {edge_file!r}, "--p", "2", "--q", "1"]))
codes.append(cli.run(["resolvent", {edge_file!r}, "--p", "2", "--q", "1", "--json", {traced["resolvent"]!r}]))
print(json.dumps({{"codes": codes, "spans": sorted({{s[0] for s in recorder.spans}}),
                  "resolvent": sorted({{s[0] for s in recorder.spans[start:]}})}}))
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 9
    untraced = tmp_path / "untraced.json"
    for argv in (["kernel", edge_file, "--s", "3"], ["resolvent", edge_file, "--p", "2", "--q", "1"]):
        assert run([*argv, "--json", str(untraced)]) == 0
        assert Path(traced[argv[0]]).read_bytes() == untraced.read_bytes(), argv
    # the resolvent command reaches build_resolvent through cli's own binding
    assert {"cells.homology", "resolvents.build"} <= set(result["resolvent"])
    assert {
        "complexes.parse", "cells.assembly", "linalg.snf",
        "linalg.rank_q", "linalg.compose_check", "cech.cohomology", "cech.rank",
        "kernels.build", "cells.homology", "cech.representatives", "cech.pullback",
        "resolvents.build", "resolvents.pair", "cli.to_json", "kernels.quadrature",
    } <= set(result["spans"])


@pytest.mark.parametrize("command", ["hodge", "compare"])
@pytest.mark.parametrize("target", ["missing parent", "directory"])
def test_unwritable_json_path_is_an_input_error(command, target, edge_file, tmp_path, capsys):
    path = tmp_path / "missing" / "out.json" if target == "missing parent" else tmp_path
    assert run([command, edge_file, "--json", str(path)]) == 2
    assert f"input error: cannot write {path}" in capsys.readouterr().err


def test_corpus_refuses_a_negative_random_count(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_compare_models", lambda K: pytest.fail("compared a complex"))
    assert run(["corpus", "--random", "-3"]) == 2
    assert "input error: --random must be >= 0, got -3" in capsys.readouterr().err


def test_traced_benchmark_plans_pass_their_checks(tmp_path):
    # every step of every workload, run under the benchmark's tracer with
    # the benchmark's own plans and checks: a traced run whose artifacts
    # the benchmark rejects must fail here, not only after a full run
    script = f"""
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import checks, tracing, workloads
from coordarr import cli
tracing.install(tracing.Recorder())
reference = json.loads(Path({str(ROOT / "perfbench" / "reference.json")!r}).read_text())
labels = []
for name in workloads.WORKLOADS:
    plan = workloads.plan(name, workloads.DEFAULT_SEED, Path({str(tmp_path)!r}) / name)
    workloads.write_inputs(plan)
    for step in plan.steps:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(list(step.argv))
        labels += checks.step_checks(step, code, reference)
print(json.dumps(labels))
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    labels = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(labels) > 20
    assert [label for label, ok in labels if not ok] == []


@pytest.mark.parametrize("key", ["facets", "missing_faces"])
def test_vertex_labels_above_n_are_refused_before_any_mask(key, tmp_path, monkeypatch, capsys):
    # a label of 10^9 would otherwise build a 10^9-bit mask and hang
    widths = []
    mask_of = complexes.mask_of

    def recording(vertices):
        mask = mask_of(vertices)
        widths.append(mask.bit_length())
        return mask

    monkeypatch.setattr(complexes, "mask_of", recording)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 3, key: [[1, 2**16]]}))
    assert run(["hodge", str(path)]) == 2
    assert "has vertices outside 1..3" in capsys.readouterr().err
    assert max(widths, default=0) <= 3


@pytest.mark.parametrize(("key", "n"), [("facets", -2), ("missing_faces", 0)])
def test_vertex_count_below_one_is_refused_before_the_vertex_lists(key, n, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": n, key: [[1]]}))
    assert run(["hodge", str(path)]) == 2
    assert f"input error: vertex count must be a positive integer, got {n}" in capsys.readouterr().err


def test_verify_kernel_refuses_zeta_outside_the_polydisc_before_any_kernel(edge_file, tmp_path, monkeypatch, capsys):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n": 3, "facets": [[1, 2], [2, 3]]}))
    # the path has no kernel at s = 4: the bad point must be named first
    assert run(["verify-kernel", str(path), "--s", "4", "--f", "1", "--zeta", "1,0.2,0.3"]) == 2
    monkeypatch.setattr(kernels, "build_kernel", lambda *args: pytest.fail("built a kernel"))
    assert run(["verify-kernel", edge_file, "--s", "3", "--f", "1", "--zeta", "1.0,0"]) == 2
    assert capsys.readouterr().err.count("strictly inside the unit polydisc") == 2


def test_a_failed_run_leaves_no_old_artifact(edge_file, full_file, tmp_path, monkeypatch, capsys):
    # the --json file holds this run's artifact or nothing: an artifact an
    # earlier run left there must not pass for the verdict of a failed one
    out = tmp_path / "k.json"
    assert run(["kernel", edge_file, "--s", "3", "--json", str(out)]) == 0
    assert run(["kernel", edge_file, "--s", "2", "--json", str(out)]) == 1  # no kernel at s = 2
    assert not out.exists()

    for argv, code in (
        (["kernel", full_file, "--s", "1"], 1),  # no kernel
        (["kernel", edge_file, "--s", "99"], 2),  # bad input
        (["hodge", str(tmp_path / "missing.json")], 2),  # unreadable input
        (["resolvent", edge_file, "--p", "2", "--q", "1"], 1),  # a failed check, patched in last
    ):
        if argv[0] == "resolvent":
            monkeypatch.setattr(resolvents, "_check_at_prefixes", _failing_check)
        out.write_text("old artifact")
        assert run([*argv, "--json", str(out)]) == code, argv
        assert not out.exists(), argv
    # the input itself is never removed, even when the run fails on it
    bad = tmp_path / "bad.json"
    bad.write_text("not a complex")
    assert run(["hodge", str(bad), "--json", str(bad)]) == 2
    assert bad.read_text() == "not a complex"
    capsys.readouterr()


@pytest.mark.parametrize("fault", ["delta_prime", "nonchild"])
@pytest.mark.parametrize("argv", [["resolvent", "--p", "4", "--q", "3"], ["kernel", "--s", "7"]],
                         ids=["resolvent", "kernel"])
def test_a_fault_in_the_resolvent_build_exits_1_with_no_artifact(argv, fault, tmp_path, monkeypatch, capsys):
    # the pruned build of the kernel is checked as the whole one is: delta'
    # with its odd positions flipped, and a copy of a top chain stored under
    # a tuple that is no child, both on the sphere's (4, 3) resolvent
    path = tmp_path / "sphere4.json"
    path.write_text(json.dumps({"n": 4, "missing_faces": [[1, 2, 3, 4]]}))
    if fault == "delta_prime":
        monkeypatch.setattr(resolvents, "delta_prime", _delta_prime_flipped_at_odd_positions)
    else:
        _inject_into_piece(monkeypatch, 4, 3, 3, fault)
    out = tmp_path / "out.json"
    assert run([argv[0], str(path), *argv[1:], "--json", str(out)]) == 1
    assert "check failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spelling", [["--json", "{}"], ["--js", "{}"], ["--json={}"]],
                         ids=["json", "abbreviated", "equals"])
def test_a_usage_error_leaves_no_old_artifact(spelling, edge_file, tmp_path, capsys):
    # argparse exits before the command runs, and still the --json file must
    # not keep an earlier run's artifact
    out = tmp_path / "k.json"

    def to(path):
        return [part.format(path) for part in spelling]

    for usage in ([], ["--s", "3", "--bogus"]):  # --s missing; an unknown option
        assert run(["kernel", edge_file, "--s", "3", *to(out)]) == 0
        assert _exit_code(["kernel", edge_file, *usage, *to(out)]) == 2
        assert not out.exists(), usage
    # neither the input named as the --json path nor a directory is removed
    assert _exit_code(["hodge", edge_file, "--bogus", *to(edge_file)]) == 2
    assert Path(edge_file).is_file()
    assert _exit_code(["hodge", edge_file, "--bogus", *to(tmp_path)]) == 2
    assert tmp_path.is_dir()
    capsys.readouterr()


@pytest.mark.parametrize("spelling", ["dot", "symlink"])
def test_the_input_named_as_the_json_path_in_another_spelling_stays(spelling, edge_file, tmp_path, monkeypatch):
    # the --json path and the input are compared as resolved paths, so the
    # input stays when one of them is spelled with a './' prefix or is a
    # symlink to the other
    monkeypatch.chdir(tmp_path)
    input_path, json_path = "edge.json", "./edge.json"
    if spelling == "symlink":
        input_path, json_path = "link.json", "edge.json"
        os.symlink("edge.json", input_path)
    text = Path(edge_file).read_text()
    assert _exit_code(["hodge", input_path, "--bogus", "--json", json_path]) == 2
    assert Path(edge_file).read_text() == text


def test_a_symlink_at_the_json_path_stays_and_takes_the_artifact(edge_file, tmp_path, monkeypatch, capsys):
    # the old-artifact guard removes a regular file only: a symlink at the
    # --json path (/dev/stdout is one) stays, its target untouched by a
    # usage error, and a run writes its artifact through it
    monkeypatch.chdir(tmp_path)
    Path("old.json").write_text("old artifact")
    os.symlink("old.json", "link.json")
    assert _exit_code(["kernel", edge_file, "--json", "link.json"]) == 2  # --s missing
    assert os.path.islink("link.json")
    assert Path("old.json").read_text() == "old artifact"
    assert run(["kernel", edge_file, "--s", "3", "--json", "link.json"]) == 0
    assert os.path.islink("link.json")
    assert run(["kernel", edge_file, "--s", "3", "--json", "plain.json"]) == 0
    assert Path("old.json").read_bytes() == Path("plain.json").read_bytes()
    capsys.readouterr()


def test_a_document_nested_too_deep_is_an_input_error(tmp_path, capsys):
    # the decoder runs out of recursion on it: bad input (exit 2), not a
    # failed check, and an old artifact still goes
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out.json"
    out.write_text("old artifact")
    assert run(["hodge", str(deep), "--json", str(out)]) == 2
    assert "input error: invalid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_a_symlink_loop_named_next_to_an_old_artifact_is_an_input_error(edge_file, tmp_path, monkeypatch, capsys):
    # a word that names no file is not resolved, so a symlink loop is the
    # unreadable input it is, with the old artifact gone
    monkeypatch.chdir(tmp_path)
    os.symlink("loop", "loop")
    assert run(["kernel", edge_file, "--s", "3", "--json", "k.json"]) == 0
    assert run(["hodge", "loop", "--json", "k.json"]) == 2
    assert "cannot read loop" in capsys.readouterr().err
    assert not Path("k.json").exists()


def _exit_code(argv: list[str]) -> int:
    """The exit code of one command, a usage error's included."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["kernel", "{edge}", "--s=--"],
    ["resolvent", "{edge}", "--p=--", "--q", "1"],
    ["corpus", "--random=--"],
    ["verify-kernel", "{edge}", "--s", "3", "--f=--", "--zeta", "0.1,0.2"],
    ["verify-kernel", "{edge}", "--s", "3", "--f", "1", "--zeta", "0.1,0.2", "--nodes=--"],
    ["verify-kernel", "{edge}", "--s", "3", "--f", "1", "--zeta=--"],
], ids=["s", "p", "random", "f", "nodes", "zeta"])
def test_an_option_value_of_two_dashes_is_a_usage_error(argv, edge_file, capsys):
    # argparse parses `--opt=--` as an empty list on some interpreters; the
    # command must refuse it as a usage error, not crash on the list.  Where
    # '--' is passed through, the command refuses the value itself
    assert _exit_code([part.format(edge=edge_file) for part in argv]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_a_json_path_of_two_dashes_is_refused_where_it_parses_as_a_list(edge_file, tmp_path, monkeypatch, capsys):
    # where '--' is passed through, it names a file like any other path
    monkeypatch.chdir(tmp_path)
    argv = ["hodge", edge_file, "--json=--"]
    as_list = isinstance(cli._parser().parse_args(argv).json, list)
    assert _exit_code(argv) == (2 if as_list else 0)
    assert (tmp_path / "--").exists() != as_list


def test_a_zero_pairing_matrix_is_a_failed_check(edge_file, monkeypatch, capsys):
    # every pairing zero contradicts nondegeneracy: a fault of the program,
    # not a degree without a kernel
    monkeypatch.setattr(kernels, "resolvent_pairing", lambda *args: 0)
    message = "check failed: pairing matrix between cycle and cocycle bases is zero"
    assert run(["kernel", edge_file, "--s", "3"]) == 1
    assert message in capsys.readouterr().err
    assert run(["verify-kernel", edge_file, "--s", "3", "--f", "1", "--zeta", "0.1,0.2"]) == 1
    out, err = capsys.readouterr()
    assert message in err and out == ""
