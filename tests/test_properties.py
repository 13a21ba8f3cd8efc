"""Property-based tests over randomized energy forms."""

import json
import math

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import loopsoup as ls
from loopsoup.graph import GraphError
from loopsoup.samplers import _cdf, _draw, _sparse_cdfs
from loopsoup.verify import _soup_occupations

from conftest import random_energy_form
from test_loops import based_walk_loops


def _energy_forms():
    return st.integers(min_value=0, max_value=10**6).map(
        lambda s: random_energy_form(np.random.default_rng(s), n=4)
    )


COMMON = dict(
    deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow]
)


@given(_energy_forms())
@settings(**COMMON)
def test_lambda_symmetry(e):
    lhs = e.lam[:, None] * e.P
    assert np.allclose(lhs, lhs.T, atol=1e-12)


@given(_energy_forms())
@settings(**COMMON)
def test_green_inverse_and_kappa_mass(e):
    G = ls.green(e).G
    assert np.allclose(G @ e.laplacian(), np.eye(e.n), atol=1e-9)
    assert np.allclose(G @ e.kappa, 1.0, atol=1e-9)


@given(_energy_forms(), st.integers(min_value=1, max_value=3))
@settings(**COMMON)
def test_jacobi_and_z_factorization(e, k):
    idx = list(range(e.n))
    keep = idx[:k]
    drop_names = [e.vertices[i] for i in idx[k:]]
    G = ls.green(e).G
    try:
        eD = ls.restrict(e, drop_names)
    except GraphError:
        return  # dropped set disconnected; the identity needs a valid subchain
    GD = ls.green(eD).G
    # Jacobi: det G^D = det G / det G|_{F x F}
    assert np.linalg.det(GD) * np.linalg.det(G[np.ix_(keep, keep)]) == (
        np.linalg.det(G) * (1 + 0)
    ) or abs(
        np.linalg.det(GD) - np.linalg.det(G) / np.linalg.det(G[np.ix_(keep, keep)])
    ) < 1e-9 * abs(np.linalg.det(GD))
    # Z factorization through the trace
    eF = ls.trace_on(e, [e.vertices[i] for i in keep])
    lz = ls.green(e).logdet_G
    assert abs(lz - (ls.green(eD).logdet_G + ls.green(eF).logdet_G)) < 1e-9


@given(_energy_forms())
@settings(**COMMON)
def test_trace_green_is_submatrix(e):
    F = list(e.vertices[:2])
    eF = ls.trace_on(e, F)
    assert np.allclose(ls.green(eF).G, ls.green(e).G[:2, :2], atol=1e-9)


@given(_energy_forms())
@settings(**COMMON)
def test_resolvent_identity(e):
    rng = np.random.default_rng(e.n)
    chi = rng.uniform(0.1, 1.0, size=e.n)
    G = ls.green(e).G
    Gchi = ls.green_chi(e, chi)
    assert np.allclose(G - Gchi, G @ np.diag(chi) @ Gchi, atol=1e-9)


@given(_energy_forms(), st.lists(st.floats(-math.pi, math.pi), min_size=6, max_size=6))
@settings(**COMMON)
def test_twisted_partition_function_is_real(e, upper):
    # A = M_lambda - C e^{i omega} is Hermitian positive definite, so log Z
    # is real, and |Z_omega| <= Z because Re(e^{i theta} - 1) <= 0
    W = np.zeros((e.n, e.n))
    W[np.triu_indices(e.n, 1)] = upper
    W = (W - W.T) * (e.C > 0)
    G_omega, log_Z = ls.twisted_green(e, W)
    assert log_Z.imag == 0
    assert log_Z.real <= ls.green(e).logdet_G + 1e-12
    A = np.diag(e.lam) - e.C * np.exp(1j * W)
    assert np.allclose(A @ G_omega, np.eye(e.n), atol=1e-9)
    ratio = ls.partition_ratio(e, e, W)
    assert ratio.imag == 0 and 0 < ratio.real <= 1 + 1e-12


@given(_energy_forms())
@settings(**COMMON)
def test_hitting_kernel_reproduces_green(e):
    # G^{x,y} = sum_b H^{x,b} G^{b,y} for y in F
    F = list(e.vertices[:2])
    from loopsoup.exact import hitting_kernel

    H = hitting_kernel(e, F)
    G = ls.green(e).G
    idx = e.indices(F)
    assert np.allclose(H @ G[np.ix_(idx, idx)], G[:, idx], atol=1e-9)


@given(_energy_forms())
@settings(**COMMON)
def test_enumeration_within_tail(e):
    loops, tail = ls.enumerate_loops(e, 10)
    total = sum(m for _, m in loops)
    assert abs(total - ls.mu_nontrivial_total(e)) <= tail + 1e-12
    assert ls.enumerate_loops(e, 8)[0] == based_walk_loops(e, 8)


@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.25, max_value=3.0),
)
@settings(**COMMON)
def test_permanent_of_ones_is_rising_factorial(k, alpha):
    val = ls.alpha_permanent(np.ones((k, k)), alpha)
    assert val == math.prod(alpha + i for i in range(k)) or abs(
        val - math.prod(alpha + i for i in range(k))
    ) < 1e-9 * val


@given(_energy_forms())
@settings(**COMMON)
def test_hit_avoid_partition(e):
    v = e.vertices[0]
    hit, _ = ls.mu_hit_avoid(e, [v], [])
    try:
        rest = ls.mu_nontrivial_total(ls.restrict(e, list(e.vertices[1:])))
    except GraphError:
        return
    assert abs(hit + rest - ls.mu_nontrivial_total(e)) < 1e-9


@given(_energy_forms(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(**COMMON)
def test_sampler_determinism(e, seed):
    l1 = ls.sample_pointed_loop(e, ls.RngStream(seed))
    l2 = ls.sample_pointed_loop(e, ls.RngStream(seed))
    assert l1 == l2


@given(_energy_forms())
@settings(**COMMON)
def test_transfer_current_symmetry(e):
    edges = [
        (e.vertices[i], e.vertices[j])
        for i in range(e.n)
        for j in range(i + 1, e.n)
        if e.C[i, j] > 0
    ][:3]
    if not edges:
        return
    K = ls.transfer_matrix(e, edges).K
    assert np.allclose(K, K.T, atol=1e-9)


def _state(gen):
    return json.dumps(gen.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@st.composite
def _probability_rows(draw):
    """1-4 probability vectors of one length n >= 1, with zeros that may
    lead, sit inside or trail."""
    n = draw(st.integers(min_value=1, max_value=10))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        w = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e3)), min_size=n, max_size=n))
        lead = draw(st.integers(min_value=0, max_value=n - 1))
        w = [0.0] * lead + w[lead:]
        if not any(w):
            w[-1] = 1.0
        rows.append(np.array(w) / sum(w))
    return np.array(rows)


@given(_probability_rows(), st.integers(min_value=0, max_value=2**32))
@settings(deadline=None, max_examples=200)
def test_table_draws_match_generator_choice(M, seed):
    ref, dense, sparse = (ls.RngStream(seed).generator for _ in range(3))
    cdf, column = _sparse_cdfs(M)
    for _ in range(10):
        for u, p in enumerate(M):
            expected = ref.choice(len(p), p=p)
            assert _draw(dense, _cdf(p)) == expected
            assert column[u][_draw(sparse, cdf[u])] == expected
    assert _state(dense) == _state(ref)
    assert _state(sparse) == _state(ref)


def _reference_stats(ens):
    """Occupation, traversal and visit counts summed position by position."""
    n = len(ens.vertices)
    occ = ens.trivial.astype(float).copy()
    trav = np.zeros((n, n), dtype=int)
    visits = np.zeros(n, dtype=int)
    for loop in ens.loops:
        for i in range(loop.p):
            u = loop.vertices[i]
            occ[u] += loop.taus[i]
            visits[u] += 1
            trav[u, loop.vertices[(i + 1) % loop.p]] += 1
    return occ, trav, visits


_TAUS = st.floats(min_value=1e-6, max_value=1e3)


@st.composite
def _ensembles(draw):
    """Loop ensembles on 1-4 vertices: 0-6 loops of length 2-6."""
    vertices = tuple(f"v{i}" for i in range(draw(st.integers(min_value=1, max_value=4))))
    loops = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        p = draw(st.integers(min_value=2, max_value=6))
        loops.append(ls.PointedLoop(
            tuple(draw(st.lists(st.sampled_from(range(len(vertices))), min_size=p, max_size=p))),
            tuple(draw(st.lists(_TAUS, min_size=p, max_size=p))),
        ))
    trivial = np.array(draw(st.lists(_TAUS, min_size=len(vertices), max_size=len(vertices))))
    return ls.LoopEnsemble(vertices, 1.0, loops, trivial)


@given(_ensembles())
@example(ls.LoopEnsemble(("a", "b"), 1.0, [], np.array([0.5, 1.5])))
@example(ls.LoopEnsemble(("a", "b"), 1.0, [ls.PointedLoop((1, 0), (0.25, 0.75))], np.array([0.5, 1.5])))
@settings(deadline=None, max_examples=100)
def test_ensemble_statistics_match_per_position_sums(ens):
    occ, trav, visits = _reference_stats(ens)
    assert np.array_equal(ens.occupation(), occ)
    assert np.array_equal(ens.traversals(), trav)
    assert np.array_equal(ens.visit_counts(), visits)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=20))
@settings(**COMMON)
def test_soup_occupations_without_loops_are_the_gamma_draws(seed, n_samples):
    e = ls.load_energy_form(ls.fixture("k4c1"))
    alpha = 1e-9
    twin = ls.RngStream(seed).generator
    counts = twin.poisson(alpha * ls.mu_nontrivial_total(e), n_samples)
    assume(not counts.any())
    gamma = twin.gamma(alpha, 1.0 / e.lam, size=(n_samples, e.n))
    occ, visits, positions = _soup_occupations(e, alpha, ls.RngStream(seed).generator, n_samples)
    assert np.array_equal(occ, gamma)
    assert not visits.any() and visits.shape == (n_samples, e.n)
    assert all(len(index) == 0 for index in positions)
