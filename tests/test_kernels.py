from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from coordarr import cech, cells, linalg
from coordarr import kernels as kn
from coordarr.complexes import SimplicialComplex, mask_of
from coordarr.corpus import PROJECTIVE_PLANE_FACETS
from reference import full_kernel, full_simplex, simplex_boundary, torus_quadrature
from test_metamorphic import complexes


def edge_boundary():
    return SimplicialComplex.from_vertex_lists(2, [[1], [2]])


def cycle_graph(n):
    return SimplicialComplex.from_vertex_lists(n, [[i, i % n + 1] for i in range(1, n + 1)])


# -- polynomials ----------------------------------------------------------------


def test_parse_polynomial_basic():
    f = kn.parse_polynomial("1+z1^2*z2^3", 2)
    assert f.terms == {(0, 0): 1 + 0j, (2, 3): 1 + 0j}


def test_parse_polynomial_complex_coefficients():
    f = kn.parse_polynomial("(0.5-2i)*z1*z2 - 3i", 2)
    assert f.terms == {(1, 1): 0.5 - 2j, (0, 0): -3j}


def test_parse_polynomial_merges_and_signs():
    f = kn.parse_polynomial("z1 - z1 + 2*z2", 2)
    assert f.terms == {(0, 1): 2 + 0j}


def test_parse_polynomial_exponent_via_repeat():
    assert kn.parse_polynomial("z1*z1", 1).terms == {(2,): 1 + 0j}


def test_parse_polynomial_errors():
    with pytest.raises(ValueError):
        kn.parse_polynomial("z3", 2)
    with pytest.raises(ValueError):
        kn.parse_polynomial("", 2)
    with pytest.raises(ValueError):
        kn.parse_polynomial("q1+1", 2)


def test_poly_evaluation_shapes():
    f = kn.parse_polynomial("1+z1^2*z2^3", 2)
    vals = [f(z) for z in ([0.3, -0.4], [0.0, 0.0])]
    assert abs(vals[0] - 0.99424) < 1e-15
    assert vals[1] == 1


# -- quadrature -------------------------------------------------------------------


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        kn.QuadratureSpec(3)
    with pytest.raises(ValueError):
        kn.QuadratureSpec(48)


def test_quadrature_unit_form_exact_at_minimal_grid():
    val = torus_quadrature(lambda z: np.ones(len(z), dtype=complex), 1, 1, kn.QuadratureSpec(4))
    assert val == 1


def test_quadrature_kills_small_nonzero_powers():
    spec = kn.QuadratureSpec(16)
    for m in (1, 5, -3, 15):
        val = torus_quadrature(lambda z, m=m: z[:, 0] ** m, 1, 1, spec)
        assert abs(val) < 1e-13, m


def test_quadrature_geometric_pole():
    spec = kn.QuadratureSpec(64)
    val = torus_quadrature(lambda z: z[:, 0] / (z[:, 0] - 0.5), 1, 1, spec)
    assert abs(val - 1) < 1e-12  # tail is 0.5^64


def test_quadrature_multi_axis():
    spec = kn.QuadratureSpec(8)
    val = torus_quadrature(
        lambda z: z[:, 0] * np.conj(z[:, 0]), 0b11, 2, spec
    )  # |z1|^2 = 1 on the torus
    assert abs(val - 1) < 1e-14


# -- kernel construction -----------------------------------------------------------


def test_build_kernel_edge_boundary():
    data = kn.build_kernel(edge_boundary(), 3)
    assert (data.n, data.s) == (2, 3)
    assert data.check_normalized()
    assert data.to_json()["scale"]["tau_power"] == -2
    # top piece: all atoms are the full torus
    full = 0b11
    for chain in data.top_piece.values.values():
        assert all(sigma == 0 and gamma == full for (sigma, gamma) in chain.terms)
    # cocycle support tuples have empty intersection
    for tup in data.cocycle.values:
        inter = -1
        for f in tup:
            inter &= f
        assert inter == 0


def test_build_kernel_full_simplex_has_none():
    with pytest.raises(kn.KernelUnavailableError):
        kn.build_kernel(full_simplex(2), 1)
    with pytest.raises(kn.KernelUnavailableError):
        kn.build_kernel(edge_boundary(), 2)  # H^2 lives at (2,0)? no: empty


def test_build_kernel_boundary_simplex_length_two():
    data = kn.build_kernel(simplex_boundary(3), 5)
    assert data.top_piece.degree == 2
    assert data.check_normalized()


def test_build_kernel_runs_no_rank_or_smith_elimination(monkeypatch):
    # the cycle list of the one bidegree is the existence test: no rank and
    # no Smith form is computed on the way to a kernel
    def forbidden(m):
        raise AssertionError("build_kernel ran an elimination")

    monkeypatch.setattr(linalg, "rank_rational", forbidden)
    monkeypatch.setattr(linalg, "smith_normal_form", forbidden)
    monkeypatch.setattr(cech, "rank_rational", forbidden)
    assert kn.build_kernel(simplex_boundary(5), 9).check_normalized()


def test_unavailable_message_reports_the_degree_row():
    path = SimplicialComplex.from_vertex_lists(3, [[1, 2], [2, 3]])
    with pytest.raises(kn.KernelUnavailableError) as info:
        kn.build_kernel(path, 3)
    assert str(info.value) == (
        "no class of full holomorphic degree in H^3: "
        "h(n=3, q=0) = 0; nonzero ranks in degree 3: {2: 1}"
    )


@pytest.mark.parametrize(
    ("s", "message"),
    [
        (0, "no class of full holomorphic degree in H^0: "
            "h(n=3, q=-3) = 0; nonzero ranks in degree 0: {0: 1}"),
        (2, "no class of full holomorphic degree in H^2: "
            "h(n=3, q=-1) = 0; nonzero ranks in degree 2: none"),
    ],
    ids=["s0", "s2"],
)
def test_unavailable_message_outside_the_kernel_degrees(s, message):
    # s < n has no bidegree (n, s - n) at all
    with pytest.raises(kn.KernelUnavailableError) as info:
        kn.build_kernel(simplex_boundary(3), s)
    assert str(info.value) == message


@pytest.mark.parametrize("s", [-3, 7, 99], ids=["s-3", "s7", "s99"])
def test_total_degree_outside_0_to_2n_is_bad_input(s, monkeypatch):
    # no cohomology lives there: a plain ValueError (exit 2), not an
    # unavailable kernel (exit 1), raised before any cycle is computed
    def forbidden(*args):
        raise AssertionError("build_kernel did work on a bad degree")

    monkeypatch.setattr(kn.cells, "homology", forbidden)
    with pytest.raises(ValueError) as info:
        kn.build_kernel(simplex_boundary(3), s)
    assert not isinstance(info.value, kn.KernelUnavailableError)
    assert str(info.value) == f"total degree s = {s} out of range 0..6"


def test_boundary_simplex_7_kernel_on_top_piece_support():
    # the sphere S^13 case, whose full pullback has 2,097,152 tuples and
    # whose full top piece has 5,040
    data = kn.build_kernel(simplex_boundary(7), 13)
    assert data.check_normalized()
    assert set(data.cocycle.values) == set(data.top_piece.values)
    assert len(data.top_piece.values) == 1


# -- the top piece on demand -----------------------------------------------------


def _assert_on_demand_equals_full(K, s):
    """Same scale and cocycle as the full build; the kept top tuples hold
    every tuple the pairing reads, with the full build's coefficients."""
    data = kn.build_kernel(K, s)
    full = full_kernel(K, s)
    assert data.scale == full.scale
    assert data.cocycle.values == full.cocycle.values
    # the read tuples: where the cocycle pulled back to the full top is nonzero
    read = set(full.cocycle.values)
    assert read <= set(data.top_piece.values)
    for tup, chain in data.top_piece.values.items():
        assert chain == full.top_piece.values[tup]
    return data, full


@pytest.mark.parametrize(
    ("K", "s"),
    [(simplex_boundary(n), 2 * n - 1) for n in range(3, 8)]
    + [(cycle_graph(6), 8), (cycle_graph(8), 10), (edge_boundary(), 3)],
    ids=["sphere3", "sphere4", "sphere5", "sphere6", "sphere7", "cycle6", "cycle8", "edge"],
)
def test_on_demand_kernel_equals_the_full_build(K, s):
    data, full = _assert_on_demand_equals_full(K, s)
    # on these complexes the pruning keeps exactly the read tuples
    assert set(data.top_piece.values) == set(full.cocycle.values)
    assert len(data.top_piece.values) == 1 < len(full.top_piece.values)


@settings(max_examples=40, deadline=None)
@given(complexes(5))
def test_on_demand_kernel_equals_the_full_build_on_random_complexes(K):
    for s in range(K.n, 2 * K.n + 1):
        if cells.homology(K, K.n, s - K.n):
            _assert_on_demand_equals_full(K, s)


@pytest.mark.parametrize(
    ("name", "s", "message"),
    [
        ("path", 5, "no class of full holomorphic degree in H^5: "
                    "h(n=3, q=2) = 0; nonzero ranks in degree 5: none"),
        ("rp2", 7, "no class of full holomorphic degree in H^7: "
                   "h(n=6, q=1) = 0; nonzero ranks in degree 7: {5: 6}"),
        ("rp2", 9, "no class of full holomorphic degree in H^9: "
                   "h(n=6, q=3) = 0; nonzero ranks in degree 9: none"),
    ],
    ids=["path-s5", "rp2-s7", "rp2-s9"],
)
def test_unavailable_message_unchanged_by_the_pruning(name, s, message):
    K = {
        "path": SimplicialComplex.from_vertex_lists(3, [[1, 2], [2, 3]]),
        "rp2": SimplicialComplex.from_vertex_lists(6, PROJECTIVE_PLANE_FACETS),
    }[name]
    with pytest.raises(kn.KernelUnavailableError) as info:
        kn.build_kernel(K, s)
    assert str(info.value) == message


def test_boundary_simplex_9_kernel_keeps_one_flag(monkeypatch):
    # the full top piece would hold 9! = 362,880 tuples
    kept = []
    original = kn.build_resolvent

    def recording(K, cycle, keep):
        def counted(prefix):
            ok = keep(prefix)
            if ok:
                kept.append(prefix)
            return ok

        return original(K, cycle, counted)

    monkeypatch.setattr(kn, "build_resolvent", recording)
    data = kn.build_kernel(simplex_boundary(9), 17)
    assert data.check_normalized()
    assert len(data.top_piece.values) == len(data.cocycle.values) == 1
    assert len(kept) <= 2**9 - 1

# -- reproduction --------------------------------------------------------------------


def test_constant_reproduction():
    data = kn.build_kernel(edge_boundary(), 3)
    spec = kn.QuadratureSpec(64)
    for zeta in ([0.0, 0.0], [0.3, -0.4], [0.5j, -0.2 - 0.5j]):
        val = kn.evaluate_representation(data, kn.PolyFunction(2, {(0, 0): 1}), zeta, spec)
        assert abs(val - 1) < 1e-12


def test_monomial_reproduction_matches_direct_evaluation():
    data = kn.build_kernel(edge_boundary(), 3)
    spec = kn.QuadratureSpec(128)
    f = kn.parse_polynomial("1+z1^2*z2^3", 2)
    zeta = [0.3, -0.4]
    val = kn.evaluate_representation(data, f, zeta, spec)
    assert abs(val - 0.99424) < 1e-10


def test_exponents_beyond_the_grid_wrap_around():
    # every node has w^N = 1, so z^(e + kN) integrates like z^e and the
    # axis sums are taken at the residues mod N only, whatever the exponent
    data = kn.build_kernel(edge_boundary(), 3)
    spec = kn.QuadratureSpec(8)
    zeta = [0.3 - 0.1j, -0.2 + 0.25j]
    high = kn.PolyFunction(2, {(8 * 12500 + 3, 10): 1})
    low = kn.PolyFunction(2, {(3, 2): 1})
    assert kn.evaluate_representation(data, high, zeta, spec) == kn.evaluate_representation(
        data, low, zeta, spec
    )
    circle = spec.circle()
    exponents = (3, 8, 8 * 1000 + 3)
    sums = kn._axis_sums(zeta[0], {e % 8 for e in exponents}, circle)
    assert sorted(sums) == [0, 3]
    for e in exponents:
        direct = sum(w ** (e + 1) / (w - zeta[0]) for w in circle) / 8
        assert abs(sums[e % 8] - direct) < 1e-9


def test_high_degree_on_a_fine_grid_costs_one_pass_per_residue():
    # f = z1^(N-1) + 1 uses two residues per axis, so N = 2^14 nodes is two
    # passes over the grid per axis, not N - 1 of them
    nodes = 2**14
    data = kn.build_kernel(edge_boundary(), 3)
    spec = kn.QuadratureSpec(nodes)
    f = kn.PolyFunction(2, {(nodes - 1, 0): 1, (0, 0): 1})
    (row,) = kn.verify_reproduction(data, f, [[0.3, 0.1]], spec)
    assert row["N"] == nodes
    assert row["abs_error"] < 1e-14


def test_reproduction_linear_in_f():
    data = kn.build_kernel(edge_boundary(), 3)
    spec = kn.QuadratureSpec(64)
    zeta = [0.25 + 0.1j, -0.5]
    f = kn.parse_polynomial("z1^2+z2", 2)
    g = kn.parse_polynomial("1-z1*z2", 2)
    fg_sum = kn.PolyFunction(2, {**f.terms, **{k: f.terms.get(k, 0) + v for k, v in g.terms.items()}})
    lhs = kn.evaluate_representation(data, fg_sum, zeta, spec)
    rhs = kn.evaluate_representation(data, f, zeta, spec) + kn.evaluate_representation(
        data, g, zeta, spec
    )
    assert abs(lhs - rhs) < 1e-13


def test_grid_and_separable_paths_agree():
    # the full-grid trapezoid rule on the same integrand is the reference
    # for the separable evaluation; the kernel is normalized, so the exact
    # prefactor is 1
    data = kn.build_kernel(edge_boundary(), 3)
    assert data.check_normalized()
    spec = kn.QuadratureSpec(32)
    f = kn.parse_polynomial("1+z1^2*z2^3+(0.5i)*z2", 2)
    zeta = [0.2 + 0.1j, -0.3]

    def integrand(z):
        vals = np.array([f(point) for point in z], dtype=complex)
        for j in range(2):
            vals = vals * z[:, j] / (z[:, j] - zeta[j])
        return vals

    a = kn.evaluate_representation(data, f, zeta, spec)
    b = torus_quadrature(integrand, mask_of([1, 2]), 2, spec)
    assert abs(a - b) < 1e-13


def test_pole_on_torus_rejected():
    data = kn.build_kernel(edge_boundary(), 3)
    spec = kn.QuadratureSpec(64)
    with pytest.raises(ValueError):
        kn.evaluate_representation(data, kn.PolyFunction(2, {(0, 0): 1}), [1.0, 0.0], spec)
    with pytest.raises(ValueError):
        kn.evaluate_representation(data, kn.PolyFunction(2, {(0, 0): 1}), [0.2, 1.5], spec)


def test_input_validation():
    data = kn.build_kernel(edge_boundary(), 3)
    spec = kn.QuadratureSpec(64)
    with pytest.raises(ValueError):
        kn.evaluate_representation(data, kn.PolyFunction(3, {(0, 0, 0): 1}), [0.1, 0.1], spec)
    with pytest.raises(ValueError):
        kn.evaluate_representation(data, kn.PolyFunction(2, {(0, 0): 1}), [0.1], spec)


def test_node_count_capped_before_allocation():
    # construction alone is checked; no grid of this size is ever built
    assert kn.QuadratureSpec(kn.MAX_NODES).nodes == kn.MAX_NODES
    for nodes in (2 * kn.MAX_NODES, 2**40):
        with pytest.raises(ValueError, match="exceeds the limit"):
            kn.QuadratureSpec(nodes)


def test_non_finite_numbers_rejected():
    data = kn.build_kernel(edge_boundary(), 3)
    spec = kn.QuadratureSpec(64)
    for zeta in ([float("nan"), 0.1], [complex(0.1, float("nan")), 0.1], [float("inf"), 0.1]):
        with pytest.raises(ValueError):
            kn.evaluate_representation(data, kn.PolyFunction(2, {(0, 0): 1}), zeta, spec)
    for text in ("nan*z1", "1e999", "(1+nani)*z2", "1e309*z1"):
        with pytest.raises(ValueError, match="not finite"):
            kn.parse_polynomial(text, 2)
    with pytest.raises(ValueError, match="not finite"):
        kn.PolyFunction(2, {(1, 0): complex("nan")})


def test_verify_reproduction_report():
    data = kn.build_kernel(edge_boundary(), 3)
    report = kn.verify_reproduction(
        data, kn.parse_polynomial("z1*z2", 2), [[0.3, -0.4]], kn.QuadratureSpec(64)
    )
    assert len(report) == 1
    entry = report[0]
    assert set(entry) == {"zeta", "expected", "computed", "abs_error", "N"}
    assert entry["abs_error"] < 1e-12
    assert entry["N"] == 64


def test_kernel_json_shape():
    doc = kn.build_kernel(edge_boundary(), 3).to_json()
    assert set(doc) == {"n", "s", "cocycle", "top_piece", "scale"}
    assert set(doc["scale"]) == {"num", "den", "tau_power"}
