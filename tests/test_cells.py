from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordarr import cells, koszul
from coordarr.cli import run
from coordarr.complexes import SimplicialComplex, card, mask_of, subsets_of
from coordarr.corpus import projective_plane, standard_corpus
from coordarr.linalg import (
    CheckFailed,
    ExactMatrix,
    compose_is_zero,
    rank_rational,
)
from reference import (
    CellCochain,
    all_cells,
    boundary_terms_by_position,
    cell_dimension,
    coboundary_cochain,
    complex_to_json,
    diff_terms_by_position,
    differential,
    disjoint_points,
    full_simplex,
    homology_table,
    monomial,
    phi,
    phi_mismatches_by_matrices,
    simplex_boundary,
    stripe_table,
    torus_complex,
)
from test_koszul import disjoint_unions_with_ghosts
from test_metamorphic import complexes


def edge_boundary():
    return SimplicialComplex.from_vertex_lists(2, [[1], [2]])


def test_cells_count_edge_boundary():
    K = edge_boundary()
    got = all_cells(K)
    assert len(got) == 8  # 4 with empty disk part, 2 + 2 over the vertices


def test_cells_count_point():
    assert len(all_cells(full_simplex(1))) == 3


@pytest.mark.parametrize("K", [
    simplex_boundary(5),
    projective_plane(),
    SimplicialComplex.from_vertex_lists(6, [[i, i % 6 + 1] for i in range(1, 7)]),
    disjoint_points(3),
], ids=["sphere5", "rp2", "c6", "points3"])
def test_both_builders_list_each_bidegree_sorted(K):
    # the cells and the monomials of each bidegree, gammas drawn from the
    # bits outside sigma, come out sorted by (sigma, gamma) as they are
    # built: the order in which relabeling between the models is the
    # identity on every block
    for p in range(K.n + 1):
        for q in range(-1, p + 2):
            expected = [(s, g) for s, g in all_cells(K) if (card(s) + card(g), card(s)) == (p, q)]
            assert cells.cells_of_bidegree(K, p, q) == expected, (p, q)
            assert koszul.basis(K, p, q) == [(g, s) for s, g in expected], (p, q)


def test_cell_dimension():
    assert cell_dimension((mask_of([1]), mask_of([2]))) == 3


def test_boundary_example_positions():
    d1s2 = cells.CellChain({(mask_of([1]), mask_of([2])): 1})
    assert cells.boundary_chain(d1s2).terms == {(0, mask_of([1, 2])): -1}
    d2s1 = cells.CellChain({(mask_of([2]), mask_of([1])): 1})
    assert cells.boundary_chain(d2s1).terms == {(0, mask_of([1, 2])): 1}


def test_boundary_of_pure_torus_vanishes():
    torus = cells.CellChain({(0, mask_of([1, 2, 3])): 5})
    assert cells.boundary_chain(torus).is_zero()


def test_boundary_squares_to_zero():
    K = SimplicialComplex.from_vertex_lists(4, [[1, 2, 3], [2, 3, 4]])
    for p in range(K.n + 1):
        for q in range(p + 1):
            outer = cells.boundary_matrix(K, p, q - 1) if q >= 1 else None
            inner = cells.boundary_matrix(K, p, q)
            if outer is not None:
                assert compose_is_zero(outer, inner), (p, q)


def test_no_gamma_dropping_terms():
    # the closure of a circle cell contributes its endpoint twice with
    # opposite signs, so no boundary term ever removes a circle direction
    K = full_simplex(3)
    for (sigma, gamma), coeff in cells.boundary_chain(
        cells.CellChain({(mask_of([1, 2]), mask_of([3])): 1})
    ).terms.items():
        assert gamma & mask_of([3]) == mask_of([3])


def test_homology_edge_boundary_generator():
    K = edge_boundary()
    assert homology_table(K).ranks() == {(0, 0): 1, (2, 1): 1}
    gens = cells.homology(K, 2, 1)
    assert len(gens) == 1
    assert gens[0].terms == {
        (mask_of([1]), mask_of([2])): 1,
        (mask_of([2]), mask_of([1])): 1,
    }


def test_homology_boundary_simplex_sphere():
    K = simplex_boundary(3)
    assert homology_table(K).ranks() == {(0, 0): 1, (3, 2): 1}
    for gen in cells.homology(K, 3, 2):
        assert cells.boundary_chain(gen).is_zero()


def test_homology_full_simplex_trivial():
    assert homology_table(full_simplex(3)).ranks() == {(0, 0): 1}


def test_generators_are_cycles_reduced_and_integral():
    K = disjoint_points(3)
    table = homology_table(K)
    for (p, q) in table.ranks():
        gens = cells.homology(K, p, q)
        assert len(gens) == table.free(p, q)
        for g in gens:
            assert cells.boundary_chain(g).is_zero()
            assert g.bidegree() == (p, q)
            assert all(isinstance(c, int) for c in g.terms.values())


@pytest.mark.parametrize(
    "K",
    [edge_boundary(), simplex_boundary(3), projective_plane()],
    ids=["edge", "sphere3", "rp2"],
)
def test_one_bidegree_generator_count_is_the_free_rank(K):
    # every bidegree, empty and out-of-range ones included; RP² has a
    # torsion-only block at (6, 2), which has no free generator
    table = homology_table(K)
    for p in range(-1, K.n + 2):
        for q in range(-1, p + 2):
            assert len(cells.homology(K, p, q)) == table.free(p, q), (p, q)


@pytest.mark.parametrize("broken_at", [(2, 1), (2, 2)], ids=["d_here", "d_above"])
def test_homology_rejects_boundary_not_squaring_to_zero(broken_at, monkeypatch):
    # flipping one sign in either map at the bidegree read breaks d∘d there
    original = cells.boundary_matrix

    def broken(K, p, q):
        m = original(K, p, q)
        if (p, q) == broken_at:
            key = min(m.entries)
            return ExactMatrix(m.rows, m.cols, {**m.entries, key: -m.entries[key]})
        return m

    monkeypatch.setattr(cells, "boundary_matrix", broken)
    with pytest.raises(CheckFailed, match=r"square to zero at \(2, 1\)"):
        cells.homology(full_simplex(2), 2, 1)


def test_cohomology_equals_rk_everywhere_small():
    # the cochain complex assembled from the cell coboundaries alone has the
    # rk model's cohomology, torsion included
    for K in (edge_boundary(), disjoint_points(3), simplex_boundary(3), torus_complex(2)):
        stripes = (
            (cells.coboundary_matrix(K, p, q) for q in range(-1, p + 1)) for p in range(K.n + 1)
        )
        assert stripe_table(stripes, "Z").to_json() == koszul.cohomology(K, "Z").to_json()


def test_phi_examples():
    w = phi(monomial([2], [1]))
    assert w.terms == {(mask_of([1]), mask_of([2])): 1}
    assert phi(monomial([], [])).terms == {(0, 0): 1}


def test_phi_intertwines_differentials_elementwise():
    K = edge_boundary()
    x = monomial([1, 2], [])
    lhs = phi(differential(K, x))
    rhs = coboundary_cochain(K, phi(x))
    assert lhs == rhs


def test_phi_matrix_identity_all_blocks():
    for K in (
        SimplicialComplex.from_vertex_lists(4, [[1, 2, 3], [3, 4]]),
        edge_boundary(),
        disjoint_points(3),
        simplex_boundary(3),
        torus_complex(2),
    ):
        assert cells.phi_mismatches(K) == [], K


def test_phi_mismatches_sees_sign_fault(monkeypatch):
    # one flipped boundary sign leaves every rank of the edge complex
    # unchanged; the identity check must still name the broken block: the
    # boundary of a (2, 1) cell, read as the coboundary out of (2, 0)
    monkeypatch.setattr(
        cells, "_boundary_terms", _at_one(cells._boundary_terms, (mask_of([1]), mask_of([2])), _flip_first)
    )
    assert cells.phi_mismatches(edge_boundary()) == [(2, 0)]


def _at_one(term_function, at: tuple[int, int], change):
    """Fault: ``term_function`` with the terms of the one basis element
    ``at`` (its last two arguments) passed through ``change``."""

    def faulty(*args):
        terms = term_function(*args)
        return change(terms) if args[-2:] == at else terms

    return faulty


def _flip_first(terms: list) -> list:
    """The terms with the first sign flipped; no terms stay no terms."""
    if not terms:
        return terms
    (sign, target), *rest = terms
    return [(-sign, target), *rest]


def _drop_first(terms: list) -> list:
    return terms[1:]


def _single_term_faults(K: SimplicialComplex, p: int, q: int):
    """The faults of block (p, q) that touch one entry, as (module, name,
    faulty term function): through each model's term function, the first
    term of the first source with terms flipped, dropped, or joined by an
    extra term to a target of the block that source does not reach (when
    there is one).  The algebra model's sources are the (p, q) monomials;
    the cell model's are the (p, q+1) cells, whose boundary terms are
    coboundary entries out of (p, q)."""
    models = (
        (koszul, "_diff_terms", koszul.basis(K, p, q), koszul.basis(K, p, q + 1),
         lambda gamma, sigma: koszul._diff_terms(K, gamma, sigma)),
        (cells, "_boundary_terms", cells.cells_of_bidegree(K, p, q + 1), cells.cells_of_bidegree(K, p, q),
         cells._boundary_terms),
    )
    for module, name, sources, targets, terms_of in models:
        at = next(source for source in sources if terms_of(*source))
        reached = {target for _, target in terms_of(*at)}
        changes = [_flip_first, _drop_first]
        extra = next((target for target in targets if target not in reached), None)
        if extra is not None:
            changes.append(lambda terms, extra=extra: [*terms, (1, extra)])
        for change in changes:
            yield module, name, _at_one(getattr(module, name), at, change)


@pytest.mark.parametrize("K", [projective_plane(), full_simplex(3)], ids=["rp2", "simplex2"])
def test_a_single_term_fault_names_its_block(K):
    # on every block with entries, face J included (every block of the full
    # simplex), one changed entry from either model names that block alone,
    # as the matrix form does
    blocks = [(p, q) for p in range(K.n + 1) for q in range(p + 1) if koszul.differential_matrix(K, p, q).entries]
    faults = 0
    for p, q in blocks:
        for module, name, faulty in _single_term_faults(K, p, q):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(module, name, faulty)
                assert cells.phi_mismatches(K) == phi_mismatches_by_matrices(K) == [(p, q)], (p, q, name)
            faults += 1
    assert faults > 4 * len(blocks)  # some blocks take an extra term too


def _disjoint_pairs(n: int) -> list[tuple[int, int]]:
    """Every pair (gamma, sigma) of disjoint subsets of [n]: 3^n of them."""
    full = (1 << n) - 1
    return [(gamma, sigma) for sigma in range(full + 1) for gamma in subsets_of(full & ~sigma)]


@pytest.mark.parametrize("K", [full_simplex(7), projective_plane()], ids=["simplex7", "rp2"])
def test_term_functions_equal_the_position_forms(K):
    # the bit-walking term functions against their elements/pos_in forms,
    # on every pair, so sigma need not be a face; on RP² the face filter
    # of the differential drops terms
    pairs = _disjoint_pairs(K.n)
    assert len(pairs) == 3 ** K.n
    filtered = 0
    for gamma, sigma in pairs:
        terms = koszul._diff_terms(K, gamma, sigma)
        assert terms == diff_terms_by_position(K, gamma, sigma), (gamma, sigma)
        assert cells._boundary_terms(sigma, gamma) == boundary_terms_by_position(sigma, gamma), (gamma, sigma)
        filtered += len(terms) < card(gamma)
    assert (filtered > 0) == (K.n == 6)


def _flip_top_gamma_removal(diff_terms):
    """Fault: on a monomial with |sigma| = 1, the term that removes the top
    vertex of gamma changes sign."""

    def faulty(K, gamma, sigma):
        terms = diff_terms(K, gamma, sigma)
        if card(sigma) != 1 or not gamma:
            return terms
        top = 1 << (gamma.bit_length() - 1)
        return [(-sign if target[0] == gamma ^ top else sign, target) for sign, target in terms]

    return faulty


def _flip_vertex_n_move(boundary_terms, n: int):
    """Fault: the boundary term that moves vertex n onto the circles
    changes sign."""

    def faulty(sigma, gamma):
        return [
            (-sign if sigma & ~target[0] == 1 << (n - 1) else sign, target)
            for sign, target in boundary_terms(sigma, gamma)
        ]

    return faulty


FAULTS = [None, "top_gamma", "vertex_n"]


def _inject(mp: pytest.MonkeyPatch, fault: str | None, K: SimplicialComplex) -> None:
    if fault == "top_gamma":
        mp.setattr(koszul, "_diff_terms", _flip_top_gamma_removal(koszul._diff_terms))
    elif fault == "vertex_n":
        mp.setattr(cells, "_boundary_terms", _flip_vertex_n_move(cells._boundary_terms, K.n))


@pytest.mark.parametrize("fault", FAULTS)
def test_stripe_walk_names_the_blocks_of_the_matrix_form_on_the_corpus(fault):
    # the entry-by-entry identity check and its matrix form name the same
    # blocks, on correct code (none) and under each fault (some)
    named = 0
    for K in standard_corpus(200, 20260810):
        with pytest.MonkeyPatch.context() as mp:
            _inject(mp, fault, K)
            mismatches = cells.phi_mismatches(K)
            assert mismatches == phi_mismatches_by_matrices(K), K
        named += bool(mismatches)
    assert (named > 0) == (fault is not None)


@settings(max_examples=120, deadline=None)
@given(st.one_of(complexes(6), disjoint_unions_with_ghosts()), st.sampled_from(FAULTS))
def test_stripe_walk_names_the_blocks_of_the_matrix_form_on_random_complexes(K, fault):
    # random complexes, and disjoint unions with ghosts, whose J of several
    # components and of ghosts only have blocks of their own
    with pytest.MonkeyPatch.context() as mp:
        _inject(mp, fault, K)
        assert cells.phi_mismatches(K) == phi_mismatches_by_matrices(K)


@pytest.mark.parametrize("fault", FAULTS[1:])
def test_compare_exits_1_under_a_term_sign_fault(fault, monkeypatch, tmp_path):
    K = projective_plane()
    path, out = tmp_path / "rp2.json", tmp_path / "compare.json"
    path.write_text(json.dumps(complex_to_json(K)))
    _inject(monkeypatch, fault, K)
    assert cells.phi_mismatches(K)
    assert run(["compare", str(path), "--json", str(out)]) == 1
    assert json.loads(out.read_text())["checks"]["differentials rk=cell"] == "fail"


def test_projective_plane_torsion_and_uct():
    K = projective_plane()
    coh = koszul.cohomology(K, "Z")
    hom = homology_table(K, "Z")
    assert coh.torsions() == {(6, 3): (2,)}
    assert hom.torsions() == {(6, 2): (2,)}  # degree shift of the universal coefficients
    assert coh.ranks() == hom.ranks()


def test_pairing_duality_cellular():
    # the evaluation matrix between homology cycle bases and cohomology
    # cocycle bases is square and invertible in each bidegree
    from coordarr.linalg import kernel_basis, quotient_basis

    K = disjoint_points(3)
    cycles = {pq: cells.homology(K, *pq) for pq in homology_table(K).ranks()}
    for (p, q), gens in cycles.items():
        basis_cells = cells.cells_of_bidegree(K, p, q)
        d_out = cells.coboundary_matrix(K, p, q)
        d_in = cells.coboundary_matrix(K, p, q - 1)
        covectors = quotient_basis(kernel_basis(d_out), d_in)
        cocycles = [
            CellCochain({basis_cells[i]: v for i, v in vec.items()}) for vec in covectors
        ]
        assert len(cocycles) == len(gens)
        gram = ExactMatrix(
            len(gens),
            len(cocycles),
            {
                (i, j): w.pair(g)
                for i, g in enumerate(gens)
                for j, w in enumerate(cocycles)
                if w.pair(g)
            },
        )
        assert rank_rational(gram) == len(gens)
        # mixed bidegrees pair to zero: supports are disjoint by construction
        for (p2, q2), other in cycles.items():
            if (p2, q2) == (p, q):
                continue
            for w in cocycles:
                assert all(w.pair(g2) == 0 for g2 in other)


def test_chain_json():
    chain = cells.CellChain({(mask_of([1]), mask_of([2])): -2})
    assert chain.to_json() == [{"sigma": [1], "gamma": [2], "coeff": -2}]
