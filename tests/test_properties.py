"""Property-based tests over randomized energy forms."""

import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loopsoup as ls
from loopsoup.graph import GraphError
from loopsoup.samplers import _cdf, _draw, _sparse_cdfs

from conftest import random_energy_form


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
