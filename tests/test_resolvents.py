from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from coordarr import cech, cells
from coordarr import resolvents as rv
from coordarr.complexes import SimplicialComplex, card, mask_of, pos_in
from coordarr.corpus import PROJECTIVE_PLANE_FACETS
from coordarr.linalg import CheckFailed, ExactMatrix, rank_rational
from reference import (
    cochain_coboundary,
    disjoint_points,
    full_pullback,
    homology_table,
    representative_cocycle,
    simplex_boundary,
    torus_complex,
    uchain_boundary,
    uchain_equal,
    uchain_scale,
    whole_identities_hold,
)


def edge_boundary():
    return SimplicialComplex.from_vertex_lists(2, [[1], [2]])


def s3_cycle():
    return cells.CellChain({
        (mask_of([1]), mask_of([2])): 1,
        (mask_of([2]), mask_of([1])): 1,
    })


# -- the three operators -----------------------------------------------------


def test_delta_prime_degree_zero_undefined():
    g = rv.UChain(0, 2, {(0,): cells.CellChain({(0, mask_of([1, 2])): 1})})
    with pytest.raises(ValueError):
        rv.delta_prime(g)


def test_delta_prime_squares_to_zero():
    rng = random.Random(3)
    K = simplex_boundary(3)
    for _ in range(20):
        g = _random_uchain(K, rng, degree=2)
        if g.is_zero():
            continue
        assert rv.delta_prime(rv.delta_prime(g)).is_zero()


def test_epsilon_prime():
    chain = cells.CellChain({(0, mask_of([1])): 2})
    g = rv.UChain(0, 1, {(0,): chain, (mask_of([1]),): chain})
    assert rv.epsilon_prime(g).terms == {(0, mask_of([1])): 4}
    assert rv.epsilon_prime(rv.UChain(0, 1, {})).is_zero()
    with pytest.raises(ValueError):
        rv.epsilon_prime(rv.UChain(1, 1, {}))


def test_boundary_delegates_componentwise():
    g = rv.UChain(0, 3, {(mask_of([1]),): cells.CellChain({(mask_of([1]), mask_of([2])): 1})})
    out = uchain_boundary(g)
    assert out.values[(mask_of([1]),)].terms == {(0, mask_of([1, 2])): -1}


# -- resolvent construction ---------------------------------------------------


def test_resolvent_edge_boundary_explicit():
    K = edge_boundary()
    res = rv.build_resolvent(K, s3_cycle())
    assert res.q == 1 and len(res.pieces) == 2
    one = mask_of([1])
    two = mask_of([2])
    t12 = mask_of([1, 2])
    assert res.pieces[0].values == {
        (one,): cells.CellChain({(one, two): 1}),
        (two,): cells.CellChain({(two, one): 1}),
    }
    assert res.pieces[1].values == {
        (0, one): cells.CellChain({(0, t12): 1}),
        (0, two): cells.CellChain({(0, t12): -1}),
    }
    # identities, explicitly
    assert rv.epsilon_prime(res.pieces[0]) == res.source
    assert uchain_equal(uchain_boundary(res.pieces[0]), uchain_scale(rv.delta_prime(res.pieces[1]), -1))


def test_resolvent_of_boundary_cycle():
    K = edge_boundary()
    b = cells.boundary_chain(cells.CellChain({(mask_of([1]), mask_of([2])): 2}))
    assert whole_identities_hold(rv.build_resolvent(K, b))


def _delta_prime_flipped_at_odd_positions(g, at=None):
    """``delta_prime`` with the sign of every odd removal position flipped."""
    sign_s = -1 if g.dimension % 2 else 1
    out = {}
    for tup, chain in g.values.items():
        for j in range(len(tup)):
            rest = tup[:j] + tup[j + 1 :]
            if at is None or rest in at:
                rv._add_into(out.setdefault(rest, {}), chain, sign_s)
    return rv._wrap(g.degree - 1, g.dimension, out)


def _one_atom(values, factor):
    """``values`` with the first atom at the first tuple times ``factor``."""
    tup = min(values)
    terms = values[tup].terms
    cell = min(terms)
    return {**values, tup: cells.CellChain({**terms, cell: factor * terms[cell]})}


#: faults written into one piece as the build wraps it
PIECE_FAULTS = {
    "flip": lambda values: _one_atom(values, -1),
    "drop": lambda values: _one_atom(values, 0),
    "double": lambda values: _one_atom(values, 2),
    "negate": lambda values: {tup: chain.scale(-1) for tup, chain in values.items()},
    # a copy of the first chain under its tuple reversed, which is no child
    "nonchild": lambda values: {**values, tuple(reversed(min(values))): values[min(values)]},
}


def _inject_into_piece(monkeypatch, p, q, level, fault):
    """Rewrite piece ``level`` of a (p, q) resolvent where the build wraps
    it, before any check or pruning reads it.  ``_wrap`` also returns the
    values of delta', but only a piece has degree + dimension = p + q."""
    wrap = rv._wrap

    def faulty(degree, dimension, values):
        g = wrap(degree, dimension, values)
        if (degree, dimension) == (level, p + q - level):
            return rv.UChain(degree, dimension, PIECE_FAULTS[fault](g.values))
        return g

    monkeypatch.setattr(rv, "_wrap", faulty)


#: the complexes the faults are injected on, with the bidegree resolved
FAULTED = {
    "sphere4": (simplex_boundary(4), 4, 3),
    "cycle6": (SimplicialComplex.from_vertex_lists(6, [[i, i % 6 + 1] for i in range(1, 7)]), 6, 2),
    "rp2": (SimplicialComplex.from_vertex_lists(6, PROJECTIVE_PLANE_FACETS), 5, 2),
}


@functools.cache
def _faulted_cycle(name):
    K, p, q = FAULTED[name]
    return cells.homology(K, p, q)[0]


def _faults():
    for name, (K, p, q) in FAULTED.items():
        for v in range(1, K.n + 1):
            yield pytest.param(name, "pos_in", v, id=f"{name}-pos_in+1-at-{v}")
        for fault in PIECE_FAULTS:
            # piece 0 has no parents, so no tuple of it is a non-child
            for level in range(fault == "nonchild", q + 1):
                yield pytest.param(name, fault, level, id=f"{name}-{fault}-{level}")
        yield pytest.param(name, "delta_prime", None, id=f"{name}-delta_prime-flipped-at-odd-positions")


@pytest.mark.parametrize(("name", "fault", "at"), list(_faults()))
def test_a_fault_in_the_build_raises_check_failed(name, fault, at, monkeypatch):
    # each fault changes the resolvent, or (delta') the operator the checks
    # read; the checks made while building must raise on every one
    K, p, q = FAULTED[name]
    cycle = _faulted_cycle(name)
    if fault == "pos_in":
        if not any(sigma >> (at - 1) & 1 for sigma, _gamma in cycle.terms):
            pytest.skip(f"no disk support holds vertex {at}: the build never moves it")
        monkeypatch.setattr(rv, "pos_in", lambda mask, i: pos_in(mask, i) + (i == at))
    elif fault == "delta_prime":
        monkeypatch.setattr(rv, "delta_prime", _delta_prime_flipped_at_odd_positions)
    else:
        _inject_into_piece(monkeypatch, p, q, at, fault)
    with pytest.raises(CheckFailed):
        rv.build_resolvent(K, cycle)


def test_delta_prime_flipped_at_odd_positions_keeps_the_whole_identities():
    # why the build probes delta' o delta' on one tuple: on the flag-shaped
    # pieces the flipped terms cancel in pairs, so every resolvent identity,
    # and delta' o delta' on each whole piece, hold all the same
    for name in ("sphere4", "cycle6"):
        K, p, q = FAULTED[name]
        res = rv.build_resolvent(K, _faulted_cycle(name))
        flipped = _delta_prime_flipped_at_odd_positions
        for k in range(q):
            assert uchain_equal(uchain_boundary(res.pieces[k]), uchain_scale(flipped(res.pieces[k + 1]), -1))
        assert all(flipped(flipped(piece)).is_zero() for piece in res.pieces[2:])


def test_resolvent_of_torus_cycle_has_length_zero():
    K = torus_complex(2)
    cycle = cells.CellChain({(0, mask_of([1, 2])): 1})
    res = rv.build_resolvent(K, cycle)
    assert res.q == 0
    assert list(res.pieces[0].values) == [(0,)]
    assert rv.epsilon_prime(res.pieces[0]) == cycle


def test_resolvent_rejects_bad_input():
    K = edge_boundary()
    with pytest.raises(ValueError):
        rv.build_resolvent(K, cells.CellChain())  # zero
    with pytest.raises(ValueError):
        rv.build_resolvent(K, cells.CellChain({(mask_of([1]), 0): 1, (0, 0): 1}))  # mixed
    with pytest.raises(ValueError):
        rv.build_resolvent(K, cells.CellChain({(mask_of([1]), mask_of([2])): 1}))  # not closed
    with pytest.raises(ValueError):
        # disk support outside the complex
        rv.build_resolvent(
            disjoint_points(2),
            cells.CellChain({(mask_of([1, 2]), 0): 1}),
        )


def test_resolvent_identities_across_sample_generators():
    for K in (edge_boundary(), simplex_boundary(3), disjoint_points(3)):
        for (p, q) in homology_table(K).ranks():
            for g in cells.homology(K, p, q):
                res = rv.build_resolvent(K, g)
                assert whole_identities_hold(res)
                assert res.q == q
                for k, piece in enumerate(res.pieces):
                    assert piece.degree == k
                    assert piece.dimension == p + q - k
                # top piece: pure tori with p circle directions
                for chain in res.top.values.values():
                    for sigma, gamma in chain.terms:
                        assert sigma == 0 and card(gamma) == p


# -- pairing -------------------------------------------------------------------


def test_pairing_atom_examples():
    t12 = mask_of([1, 2])
    w = cech.LogCochain(2, 0, {(0,): {t12: 1}})
    torus = rv.UChain(0, 2, {(0,): cells.CellChain({(0, t12): 1})})
    assert rv.pair(w, torus) == 1  # times (2 pi i)^w.p
    # a disk-bearing atom pairs to zero against any log form
    disk = rv.UChain(0, 3, {(0,): cells.CellChain({(mask_of([1]), mask_of([2])): 5})})
    assert rv.pair(w, disk) == 0


def test_pairing_degree_mismatch():
    w = cech.LogCochain(2, 0, {})
    g = rv.UChain(1, 2, {})
    with pytest.raises(ValueError):
        rv.pair(w, g)


def test_pairing_with_representative_is_unit_period():
    K = edge_boundary()
    res = rv.build_resolvent(K, s3_cycle())
    w = representative_cocycle(K, 2, 1, 0)
    # the value is resolvent_pairing(res, w) * (2 pi i)^w.p
    assert w.p == 2
    assert abs(rv.resolvent_pairing(res, w)) == 1


# -- pairing relations on random data ------------------------------------------


def _random_uchain(K, rng, degree, dimension=None):
    """Random cover chain honoring the support condition."""
    faces = K.faces_sorted
    values = {}
    for _ in range(rng.randint(1, 3)):
        tup = tuple(sorted(rng.sample(faces, degree + 1), key=lambda f: (card(f), f)))
        if len(set(tup)) < degree + 1:
            continue
        inter = -1
        for f in tup:
            inter &= f
        atoms = {}
        for _ in range(rng.randint(1, 3)):
            sigma = inter
            # random subface of the intersection
            for v in range(1, K.n + 1):
                if sigma >> (v - 1) & 1 and rng.random() < 0.5:
                    sigma &= ~(1 << (v - 1))
            rest = [v for v in range(1, K.n + 1) if not sigma >> (v - 1) & 1]
            gamma = mask_of([v for v in rest if rng.random() < 0.5])
            if dimension is not None and 2 * card(sigma) + card(gamma) != dimension:
                continue
            atoms[(sigma, gamma)] = rng.randint(-3, 3)
        chain = cells.CellChain(atoms)
        if not chain.is_zero():
            values[tup] = chain
    dims = {2 * card(s) + card(g) for ch in values.values() for (s, g) in ch.terms}
    dim = dims.pop() if len(dims) == 1 else (dimension if dimension is not None else 0)
    filtered = {
        tup: cells.CellChain(
            {a: c for a, c in ch.terms.items() if 2 * card(a[0]) + card(a[1]) == dim}
        )
        for tup, ch in values.items()
    }
    filtered = {tup: ch for tup, ch in filtered.items() if not ch.is_zero()}
    return rv.UChain(degree, dim, filtered)


def _random_log_cochain(K, rng, p, t):
    faces = K.faces_sorted
    values = {}
    isets = K.k_subsets(p)
    for _ in range(rng.randint(1, 3)):
        tup = tuple(sorted(rng.sample(faces, t + 1), key=lambda f: (card(f), f)))
        if len(set(tup)) < t + 1:
            continue
        inter = -1
        for f in tup:
            inter &= f
        admissible = [iset for iset in isets if iset & inter == 0]
        if not admissible:
            continue
        values[tup] = {
            iset: Fraction(rng.randint(-3, 3)) for iset in rng.sample(admissible, min(2, len(admissible)))
        }
    return cech.LogCochain(p, t, values)


def test_pairing_relation_cech_side_explicit():
    # <delta w, G> = <w, delta' G>, nonzero on both sides by construction
    K = edge_boundary()
    t12 = mask_of([1, 2])
    w = cech.LogCochain(2, 0, {(0,): {t12: 1}})
    g = rv.UChain(1, 2, {(0, mask_of([1])): cells.CellChain({(0, t12): 1})})
    lhs = rv.pair(cochain_coboundary(K, w), g)
    rhs = rv.pair(w, rv.delta_prime(g))
    assert lhs == rhs == -1


def test_pairing_relation_cech_side_random():
    # <delta w, G> = <w, delta' G> for admissible cochains and supported chains
    rng = random.Random(17)
    K = simplex_boundary(3)
    for _ in range(80):
        p = rng.randint(0, K.n)
        t = rng.randint(0, 2)
        w = _random_log_cochain(K, rng, p, t)
        g = _random_uchain(K, rng, degree=t + 1)
        if not w.values or g.is_zero():
            continue
        lhs = rv.pair(cochain_coboundary(K, w), g)
        rhs = rv.pair(w, rv.delta_prime(g))
        assert lhs == rhs


def test_pairing_relation_boundary_side():
    # closed log forms against boundaries: <w, dG> = 0 for admissible w and
    # supported G (the disk poles are excluded by admissibility)
    rng = random.Random(19)
    K = simplex_boundary(3)
    for _ in range(60):
        p = rng.randint(0, K.n)
        t = rng.randint(0, 2)
        w = _random_log_cochain(K, rng, p, t)
        g = _random_uchain(K, rng, degree=t)
        if not w.values or g.is_zero():
            continue
        assert rv.pair(w, uchain_boundary(g)) == 0


def test_pairing_invariance_under_boundary_shift():
    # shifting the cycle by a boundary of the bidegree above leaves the
    # resolvent pairing unchanged; the path complex has such boundaries
    K = SimplicialComplex.from_vertex_lists(3, [[1, 2], [2, 3]])
    (p, q) = (2, 1)
    cycle = cells.homology(K, p, q)[0]
    w = representative_cocycle(K, p, q, 0)
    base = rv.resolvent_pairing(rv.build_resolvent(K, cycle), w)
    assert base
    shift = cells.boundary_chain(cells.CellChain({(mask_of([1, 2]), 0): 3}))
    assert shift.bidegree() == (p, q) and not shift.is_zero()
    moved_cycle = cells.CellChain(
        {cell: cycle.terms.get(cell, 0) + shift.terms.get(cell, 0) for cell in cycle.terms | shift.terms}
    )
    moved = rv.resolvent_pairing(rv.build_resolvent(K, moved_cycle), w)
    assert moved == base


def test_pairing_invariance_under_coboundary_shift():
    K = edge_boundary()
    res = rv.build_resolvent(K, s3_cycle())
    w = representative_cocycle(K, 2, 1, 0)
    eta = cech.LogCochain(2, 0, {(0,): {mask_of([1, 2]): Fraction(5, 3)}})
    summed: dict = {}
    for cochain in (w, cochain_coboundary(K, eta)):
        for tup, form in cochain.values.items():
            acc = summed.setdefault(tup, {})
            for iset, c in form.items():
                acc[iset] = acc.get(iset, 0) + c
    w_shifted = cech.LogCochain(w.p, w.t, summed)
    assert rv.resolvent_pairing(res, w_shifted) == rv.resolvent_pairing(res, w)


def test_orthogonality_and_gram_invertibility():
    K = disjoint_points(3)
    cycles = {pq: cells.homology(K, *pq) for pq in homology_table(K).ranks()}
    reps = {
        key: [full_pullback(K, w) for w in cech.representative_cocycles(K, *key)]
        for key in cycles
    }
    for (p, q), gens in cycles.items():
        resolvents = [rv.build_resolvent(K, g) for g in gens]
        cocycles = reps[(p, q)]
        gram = ExactMatrix(
            len(gens),
            len(cocycles),
            {
                (i, j): value
                for i, res in enumerate(resolvents)
                for j, w in enumerate(cocycles)
                if (value := rv.resolvent_pairing(res, w))
            },
        )
        assert rank_rational(gram) == len(gens)
        for other_key, other_reps in reps.items():
            if other_key == (p, q):
                continue
            for res in resolvents:
                for w in other_reps:
                    assert rv.resolvent_pairing(res, w) == 0


def test_resolvent_json_shape():
    K = edge_boundary()
    doc = rv.build_resolvent(K, s3_cycle()).to_json()
    assert doc["q"] == 1 and len(doc["pieces"]) == 2
    for piece in doc["pieces"]:
        for entry in piece:
            assert set(entry) == {"tuple", "atoms"}
