import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotri

import loopsoup as ls
from loopsoup import exact
from loopsoup.exact import _band_block, _bandwidth, _block_rows, _factor, _logdet_posdef, _omega_matrix, hitting_kernel
from loopsoup.graph import GraphError
from loopsoup.verify import enumerate_spanning_trees

from conftest import edge_one_form, killed_box, random_energy_form, shuffled_box


def test_green_p2(p2):
    b = ls.green(p2)
    assert np.allclose(b.G, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3, atol=1e-12)
    assert b.logdet_IminusP == pytest.approx(-np.log(4 / 3), abs=1e-12)


def test_green_k4c1(k4c1):
    G = ls.green(k4c1).G
    assert np.allclose(G, (np.eye(4) + 1.0) / 5, atol=1e-12)


def test_green_v1(v1):
    assert ls.green(v1).G[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_green_satisfies_g_kappa_equals_one(p2, k4c1):
    # kappa is the exit measure: G kappa = 1 on a transient chain
    for e in (p2, k4c1):
        assert np.allclose(ls.green(e).G @ e.kappa, 1.0, atol=1e-12)


def _dense_factor(e):
    """The factor R as a dense n x n array, from its band."""
    return _band_block(_factor(e), 0, e.n, e.n)


def test_factor_is_memoised_and_read_only(k4c1):
    ab = _factor(k4c1)
    assert _factor(k4c1) is ab
    assert not ab.flags.writeable
    assert ab.shape == (_bandwidth(k4c1) + 1, k4c1.n)
    R = _dense_factor(k4c1)
    assert np.array_equal(R, np.tril(R)) and np.array_equal(np.diagonal(R), ab[0])
    assert np.allclose(R @ R.T, k4c1.laplacian(), atol=1e-12)
    with pytest.raises(ValueError):
        ab[0, 0] = 1.0


@pytest.mark.parametrize("L", [1, 6, 12])
def test_banded_factor_matches_dense_cholesky(L):
    e = killed_box(L, L)
    R = np.linalg.cholesky(e.laplacian())
    assert np.abs(_dense_factor(e) - R).max() <= 1e-14 * np.abs(R).max()


_TRANSIENT_FIXTURES = sorted(
    name for name in ls.FIXTURES if ls.load_energy_form(ls.fixture(name)).transient
)


def _potri_green(e):
    """G as LAPACK potri of the whole factor, lower triangle mirrored."""
    G = dpotri(_dense_factor(e).T)[0].T
    for j in range(e.n - 1):
        G[j, j + 1 :] = G[j + 1 :, j]
    return G


def test_bandwidth_is_the_widest_edge():
    assert _bandwidth(killed_box(1, 0)) == 0  # no edges
    for L in (2, 5, 7, 12, 33):
        for e, b in ((killed_box(L, L), L), (shuffled_box(L, L), L * L - 1)):
            i, j = np.nonzero(e.C)
            assert _bandwidth(e) == np.abs(i - j).max() == b


@pytest.mark.parametrize(
    "e",
    [ls.load_energy_form(ls.fixture(name)) for name in _TRANSIENT_FIXTURES]
    + [killed_box(5, 3), shuffled_box(7, 3)],
    ids=repr,
)
def test_one_block_green_is_potri_bit_for_bit(e):
    # n <= 32, or a band that fills the matrix: G is potri of the factor
    assert e.n <= 32 or _bandwidth(e) == e.n - 1
    assert ls.green(e).G.tobytes() == _potri_green(e).tobytes()


@given(
    st.sampled_from(_TRANSIENT_FIXTURES).map(lambda name: ls.load_energy_form(ls.fixture(name)))
    | st.builds(killed_box, st.integers(1, 12), st.integers(0, 10**6))
    | st.builds(shuffled_box, st.integers(6, 8), st.integers(0, 10**6))
)
# b = 33 > 32: blocks of b + 1 = 34 rows, the last one a single row
@example(killed_box(33, 5))
@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_green_matches_inv_and_slogdet(e):
    b = ls.green(e)
    L = e.laplacian()
    G = np.linalg.inv(L)
    sign, logdet = np.linalg.slogdet(L)
    assert sign == 1.0
    assert np.abs(b.G - G).max() <= 1e-12 * np.abs(G).max()
    assert np.array_equal(b.G, b.G.T)
    assert abs(b.logdet_G + logdet) <= 1e-12 * abs(logdet)


def test_green_chi_p2(p2):
    gchi = ls.green_chi(p2, np.array([1.0, 0.0]))
    assert np.allclose(gchi, np.array([[2.0, 1.0], [1.0, 3.0]]) / 5, atol=1e-12)


def test_resolvent_identity(p2, k4c1):
    # G - G_chi = G M_chi G_chi
    rng = np.random.default_rng(1)
    for e in (p2, k4c1):
        G = ls.green(e).G
        for _ in range(5):
            chi = rng.uniform(0, 2, size=e.n)
            gchi = ls.green_chi(e, chi)
            assert np.allclose(G - gchi, G @ np.diag(chi) @ gchi, atol=1e-9)


def test_recurrent_green_k4(k4_rooted):
    # on K_n, G nu = nu_x / n for the normalized recurrent Green operator
    nu = np.array([1.0, -1.0, 0.0, 0.0])
    f = ls.recurrent_green(k4_rooted, nu)
    assert np.allclose(f, nu / 4, atol=1e-9)
    assert f @ k4_rooted.lam == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(k4_rooted.laplacian() @ f, nu, atol=1e-9)


def test_jacobi_determinant_random_splits():
    rng = np.random.default_rng(2)
    done = 0
    while done < 20:
        e = random_energy_form(rng, n=5)
        G = ls.green(e).G
        k = int(rng.integers(1, 4))
        keep = sorted(rng.choice(5, size=k, replace=False))
        drop = [v for i, v in enumerate(e.vertices) if i not in keep]
        try:
            GD = ls.green(ls.restrict(e, drop)).G
        except GraphError:
            # the dropped set may induce a disconnected subgraph
            continue
        det_ratio = np.linalg.det(G) / np.linalg.det(G[np.ix_(keep, keep)])
        assert np.linalg.det(GD) == pytest.approx(det_ratio, rel=1e-9)
        done += 1


def test_hitting_kernel_p2(p2):
    H = hitting_kernel(p2, ["x"])
    # from x: already there; from y: hits x before the cemetery w.p. C/lambda... via G^D
    assert H[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert H[1, 0] == pytest.approx(0.5, abs=1e-12)


def test_hitting_kernel_balayage_identity(k4c1):
    # G^{x,y} = (H^F G)^{x,y} for y in F
    G = ls.green(k4c1).G
    F = ["a", "b"]
    H = hitting_kernel(k4c1, F)
    idx = k4c1.indices(F)
    assert np.allclose(H @ G[idx, :][:, idx], G[:, idx][:, :], atol=1e-9) or np.allclose(
        (H @ G[np.ix_(idx, idx)]), G[:, idx], atol=1e-9
    )


def test_capacity_p2(p2):
    assert ls.capacity(p2, ["x"]) == pytest.approx(1.5, abs=1e-12)


def test_capacity_monotone(k4c1):
    assert ls.capacity(k4c1, ["a"]) < ls.capacity(k4c1, ["a", "b"])


def test_transfer_matrix_p2(p2):
    tm = ls.transfer_matrix(p2, [("x", "y")])
    # K = G^xx + G^yy - 2 G^xy = 2/3 + 2/3 - 2/3 = 2/3
    assert tm.K[0, 0] == pytest.approx(2 / 3, abs=1e-12)


def test_transfer_matrix_root_independent(k4_rooted):
    edges = [("a", "b"), ("c", "d")]
    mats = [ls.transfer_matrix(k4_rooted, edges, root=r).K for r in k4_rooted.vertices]
    for K in mats[1:]:
        assert np.allclose(K, mats[0], atol=1e-9)


def test_twisted_green_zero_form_matches(p2):
    G = ls.green(p2).G
    Gw, logz = ls.twisted_green(p2, {})
    assert np.allclose(Gw, G, atol=1e-12)
    assert logz == pytest.approx(ls.green(p2).logdet_G, abs=1e-12)


def test_twisted_green_phase(k4c1):
    omega = {("a", "b"): 0.7, ("c", "d"): -0.4}
    Gw, logz = ls.twisted_green(k4c1, omega)
    # hermitian by construction and |Z_omega| <= Z
    assert np.allclose(Gw, Gw.conj().T, atol=1e-9)
    assert logz.real <= ls.green(k4c1).logdet_G + 1e-12


def test_partition_ratio_killing_increase(p2):
    kap = p2.kappa.copy()
    kap[0] += 1.0
    e2 = ls.EnergyForm(p2.vertices, p2.C, kap)
    ratio = ls.partition_ratio(p2, e2, np.zeros((2, 2)), 1.0)
    assert ratio.real == pytest.approx(ls.occupation_laplace(p2, 1.0, np.array([1.0, 0.0])), abs=1e-12)
    assert ratio.imag == pytest.approx(0.0, abs=1e-12)


def test_unknown_root_is_named(k4_rooted):
    # without the root check, the chain "killed at zz" keeps every vertex and
    # is recurrent, so the error would blame the chain, not the root
    with pytest.raises(GraphError, match="unknown root 'zz'"):
        enumerate_spanning_trees(k4_rooted, root="zz")
    with pytest.raises(GraphError, match="unknown root 'zz'"):
        ls.transfer_matrix(k4_rooted, [("a", "b")], root="zz")


def test_green_requires_transient(k4_rooted):
    with pytest.raises(GraphError):
        ls.green(k4_rooted)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_logdet_rejects_nan():
    with pytest.raises(GraphError):
        _logdet_posdef(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kappa", [[float("nan"), 1.0], [float("inf"), 1.0]])
def test_factor_rejects_non_finite_form(kappa):
    e = ls.EnergyForm(["x", "y"], [[0, 1], [1, 0]], kappa, validate=False)
    with pytest.raises(GraphError):
        _factor(e)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_green_of_unvalidated_nan_form_raises():
    e = ls.EnergyForm(["x", "y"], [[0, 1], [1, 0]], [float("nan"), 1.0], validate=False)
    with pytest.raises(GraphError):
        ls.green(e)


def _singular_form():
    # transient, but the a-b component is never killed: M_lambda - C is singular
    C = np.zeros((3, 3))
    C[0, 1] = C[1, 0] = 1.0
    return ls.EnergyForm(["a", "b", "c"], C, [0.0, 0.0, 1.0], require_connected=False)


@pytest.mark.parametrize(
    "call",
    [
        ls.green,
        ls.mu_nontrivial_total,
        ls.PointedLoopSampler,
        lambda e: ls.sample_gff(e, ls.RngStream(0)),
        lambda e: ls.sample_bridge(e, "a", "b", ls.RngStream(0)),
        lambda e: ls.twisted_green(e, {("a", "b"): 0.5}),
        lambda e: ls.wilson_sample(e, ls.RngStream(0)),
        lambda e: ls.green_chi(e, np.zeros(3)),
        lambda e: ls.hitting_kernel(e, ["c"]),
        lambda e: ls.capacity(e, ["c"]),
        lambda e: ls.cross_hitting_series(e, ["c"], ["a"]),
    ],
    ids=[
        "green", "mu_nontrivial_total", "PointedLoopSampler", "sample_gff", "sample_bridge", "twisted_green",
        "wilson_sample", "green_chi", "hitting_kernel", "capacity", "cross_hitting_series",
    ],
)
def test_singular_form_raises_graph_error(call):
    e = _singular_form()
    assert e.transient
    with pytest.raises(GraphError):
        call(e)


def _two_edges(kappa):
    # edges a-b and c-d only, so killing at d alone leaves a-b unkilled
    C = np.zeros((4, 4))
    C[0, 1] = C[1, 0] = C[2, 3] = C[3, 2] = 1.0
    return ls.EnergyForm(["a", "b", "c", "d"], C, kappa, require_connected=False)


def test_trace_on_singular_complement_raises_graph_error():
    # the complement {a, b, c} is transient (c is killed through d), but
    # the a-b component is not
    with pytest.raises(GraphError, match="never killed"):
        ls.trace_on(_two_edges([0.0, 0.0, 0.0, 1.0]), ["d"])


def test_disconnected_recurrent_form_raises_graph_error():
    e = _two_edges(np.zeros(4))
    with pytest.raises(GraphError, match="root"):
        ls.transfer_matrix(e, [("a", "b")], root="a")
    with pytest.raises(GraphError, match="root"):
        ls.wilson_sample(e, ls.RngStream(0), root="a")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_green_chi_rejects_non_finite(p2, bad):
    # occupation_laplace checks chi with the same helper
    for call in (ls.green_chi, lambda e, chi: ls.occupation_laplace(e, 1.0, chi)):
        with pytest.raises(GraphError, match="finite"):
            call(p2, np.array([bad, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_twisted_green_rejects_non_finite_one_form(k4c1, bad):
    with pytest.raises(GraphError, match="finite"):
        ls.twisted_green(k4c1, {("a", "b"): bad})
    W = np.zeros((4, 4))
    W[0, 1], W[1, 0] = bad, -bad
    with pytest.raises(GraphError, match="finite"):
        ls.twisted_green(k4c1, W)


def test_partition_ratio_rejects_non_finite_one_form(p2):
    with pytest.raises(GraphError):
        ls.partition_ratio(p2, p2, {("x", "y"): np.nan})


def test_partition_ratio_rejects_non_finite_alpha(p2):
    with pytest.raises(GraphError):
        ls.partition_ratio(p2, p2, None, np.nan)


def test_one_form_unknown_vertex_rejected(k4c1):
    with pytest.raises(GraphError, match="unknown vertex 'q'"):
        ls.twisted_green(k4c1, {("a", "q"): 0.3})


def test_twisted_log_z_matches_loop_enumeration(k4c1):
    # log(Z_omega / Z) = mu(e^{i omega(l)} - 1); |e^{i theta} - 1| <= 2, so the
    # loops longer than 10 move the sum by at most twice the tail bound.
    # The triangle a -> b -> c -> a has holonomy 3.1, close to pi.
    omega = {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "a"): 1.1, ("a", "d"): 0.5, ("d", "b"): 1.3}
    W = _omega_matrix(k4c1, omega)
    loops, tail = ls.enumerate_loops(k4c1, 10)
    total = 0j
    for loop, mass in loops:
        idx = np.array(loop.vertices)
        total += mass * (np.exp(1j * W[idx, np.roll(idx, -1)].sum()) - 1)
    _, log_Z = ls.twisted_green(k4c1, omega)
    assert log_Z.imag == 0
    assert abs(total - (log_Z - ls.green(k4c1).logdet_G)) <= 2 * tail


# killed boxes of 2, 5 and 13 blocks of rows, and 33 blocks, the last one a
# single row
_MULTI_BLOCK_BOXES = [(8, 8), (12, 12), (20, 1), (33, 5)]


def _twisted_matrix(e, W):
    return np.diag(e.lam) - e.C * np.exp(1j * W)


@pytest.mark.parametrize("L, seed", _MULTI_BLOCK_BOXES)
def test_multi_block_twisted_green(L, seed):
    e = killed_box(L, seed)
    assert e.n > _block_rows(e)
    W = edge_one_form(e, seed)
    G, log_Z = ls.twisted_green(e, W)
    assert np.array_equal(G, G.conj().T) and not G.diagonal().imag.any()
    A = _twisted_matrix(e, W)
    sign, logdet = np.linalg.slogdet(A)
    assert abs(sign - 1) < 1e-12 and log_Z.imag == 0
    assert abs(log_Z.real + logdet) <= 1e-12 * abs(logdet)
    if e.n <= 400:  # a dense product at n = 1089 takes seconds
        assert np.abs(A @ G - np.eye(e.n)).max() <= 1e-13
    # with omega = 0 the twisted recurrence is green's, on a complex band
    G0, log_Z0 = ls.twisted_green(e, np.zeros((e.n, e.n)))
    b = ls.green(e)
    assert np.abs(G0 - b.G).max() <= 1e-13 * np.abs(b.G).max()
    assert abs(log_Z0.real - b.logdet_G) <= 1e-12 * abs(b.logdet_G)


@pytest.mark.parametrize("L, seed", _MULTI_BLOCK_BOXES[:3])
def test_multi_block_partition_ratio_matches_dense_lu(L, seed):
    e = killed_box(L, seed)
    e2 = ls.EnergyForm(e.vertices, 0.7 * e.C, e.kappa + 0.1)
    W, alpha = edge_one_form(e, seed + 1), 1.3
    ratio = ls.partition_ratio(e, e2, W, alpha)
    logdet2 = np.linalg.slogdet(_twisted_matrix(e2, W))[1]
    logdet1 = np.linalg.slogdet(e.laplacian())[1]
    assert ratio.imag == 0
    assert abs(np.log(ratio.real) - alpha * (logdet1 - logdet2)) <= 1e-12 * alpha * (abs(logdet1) + abs(logdet2))


def test_twisted_values_take_band_factors_only(monkeypatch):
    # twisted_green takes one complex band factor; partition_ratio one
    # complex factor of e2 and e's memoised real factor; neither forms a
    # dense energy matrix or calls a dense LU or inverse
    calls = []
    for name in ("dpbtrf", "zpbtrf"):
        def counted(ab, _name=name, _pbtrf=getattr(exact, name), **kw):
            calls.append((_name, ab.shape))
            return _pbtrf(ab, **kw)

        monkeypatch.setattr(exact, name, counted)

    def dense(*args, **kw):
        raise AssertionError("dense call")

    monkeypatch.setattr(np.linalg, "inv", dense)
    monkeypatch.setattr(np.linalg, "slogdet", dense)
    monkeypatch.setattr(ls.EnergyForm, "laplacian", dense)
    e = killed_box(8, 8)
    e2 = ls.EnergyForm(e.vertices, 0.7 * e.C, e.kappa + 0.1)
    W = edge_one_form(e, 8)
    ls.twisted_green(e, W)
    assert calls == [("zpbtrf", (9, 64))]
    ls.partition_ratio(e, e2, W)
    ls.partition_ratio(e, e2, W)
    assert calls == [("zpbtrf", (9, 64))] + [("zpbtrf", (9, 64)), ("dpbtrf", (9, 64)), ("zpbtrf", (9, 64))]


# Reference implementations: each Green function of a derived chain as a
# direct inverse of its energy matrix (pinv for a recurrent chain), and the
# rooted spanning trees by a chooser over the recurrent form itself.


def _close(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max() <= 1e-10 * np.abs(b).max()


def _derived_chain_forms():
    rng = np.random.default_rng(10)
    return [random_energy_form(rng, n=n, transient=t) for t in (True, False) for n in (4, 5, 6)]


# a killed 7x7 box: n = 49, two blocks in green, and so are most of its
# restrictions
_BOX = killed_box(7, 7)


def _proper_subsets(e):
    """The first 1, n/2 and n - 1 vertices; on _BOX also its middle row and
    its middle column, whose complements are disconnected."""
    subsets = [list(e.vertices[:k]) for k in (1, e.n // 2, e.n - 1)]
    if e is _BOX:
        subsets += [list(e.vertices[21:28]), list(e.vertices[3::7])]
    return subsets


def _ref_rooted_green(e, root):
    keep = [v for v in e.vertices if v != root]
    idx = e.indices(keep)
    G = np.zeros((e.n, e.n))
    G[np.ix_(idx, idx)] = np.linalg.inv(ls.restrict(e, keep).laplacian())
    return G


def _ref_spanning_trees(e, root):
    """Rooted spanning trees of a recurrent form: each vertex but the root
    chooses a neighbour, and choosing the root stands for parent None."""
    keep = [v for v in e.vertices if v != root]
    Z = float(np.exp(-_logdet_posdef(ls.restrict(e, keep).laplacian())))
    choosers = [
        [(int(j) if e.vertices[j] != root else None, e.C[e.index[v], j]) for j in np.nonzero(e.C[e.index[v]])[0]]
        for v in keep
    ]
    index_of = {v: i for i, v in enumerate(keep)}
    trees = []
    for combo in itertools.product(*choosers):
        parent_idx = [None if c[0] is None else index_of[e.vertices[c[0]]] for c in combo]
        reach = list(range(len(keep)))
        for _ in keep:
            reach = [None if j is None else parent_idx[j] for j in reach]
        if any(j is not None for j in reach):
            continue
        weight = float(np.prod([c[1] for c in combo]))
        trees.append(({keep[i]: root if j is None else keep[j] for i, j in enumerate(parent_idx)}, Z * weight))
    return trees


@pytest.mark.parametrize("e", _derived_chain_forms() + [_BOX], ids=repr)
def test_green_chi_matches_inverse(e):
    rng = np.random.default_rng(e.n)
    for chi in (rng.uniform(0, 2, size=e.n), np.eye(e.n)[e.n - 1]):
        assert _close(ls.green_chi(e, chi), np.linalg.inv(e.laplacian() + np.diag(chi)))


@pytest.mark.parametrize("e", _derived_chain_forms() + [_BOX], ids=repr)
def test_hitting_kernel_matches_inverse(e):
    for F in _proper_subsets(e):
        idxF = e.indices(F)
        comp = np.setdiff1d(np.arange(e.n), idxF)
        GD = np.linalg.inv(ls.restrict(e, [e.vertices[i] for i in comp]).laplacian())
        H = hitting_kernel(e, F)
        assert _close(H[comp], GD @ e.C[np.ix_(comp, idxF)])
        assert np.array_equal(H[idxF], np.eye(len(F)))


@pytest.mark.parametrize("e", _derived_chain_forms() + [_BOX], ids=repr)
def test_trace_on_matches_inverse(e):
    # a recurrent chain traced on one vertex has lambda = 0 there: no form
    for F in [F for F in _proper_subsets(e) if e.transient or len(F) > 1]:
        idx = e.indices(F)
        comp = np.setdiff1d(np.arange(e.n), idx)
        GD = np.linalg.inv(ls.restrict(e, [e.vertices[i] for i in comp]).laplacian())
        B = e.C[np.ix_(idx, comp)]
        excursions = B @ GD @ B.T
        C = e.C[np.ix_(idx, idx)] + excursions
        np.fill_diagonal(C, 0.0)
        kappa = e.lam[idx] - np.diag(excursions) - C.sum(axis=1)
        tr = ls.trace_on(e, F)
        assert _close(tr.C, C)
        assert np.abs(tr.kappa - kappa).max() <= 1e-10 * e.lam.max()


@pytest.mark.parametrize("e", [e for e in _derived_chain_forms() if not e.transient], ids=repr)
def test_rooted_transfer_matrix_matches_inverse(e):
    edges = [(x, y) for i, x in enumerate(e.vertices) for j, y in enumerate(e.vertices) if i < j and e.C[i, j] > 0]
    ix = e.indices([x for x, _ in edges])
    iy = e.indices([y for _, y in edges])
    for root in e.vertices:
        G = _ref_rooted_green(e, root)
        K = G[np.ix_(ix, ix)] + G[np.ix_(iy, iy)] - G[np.ix_(ix, iy)] - G[np.ix_(iy, ix)]
        assert _close(ls.transfer_matrix(e, edges, root=root).K, K)


@pytest.mark.parametrize(
    "e", [e for e in _derived_chain_forms() if not e.transient] + [ls.load_energy_form(ls.fixture("cube"))], ids=repr
)
def test_recurrent_green_matches_pinv(e):
    rng = np.random.default_rng(e.n)
    for _ in range(3):
        nu = rng.normal(size=e.n)
        nu -= nu.mean()
        f_ref = np.linalg.pinv(e.laplacian()) @ nu
        f_ref -= (f_ref @ e.lam) / e.lam.sum()
        assert _close(ls.recurrent_green(e, nu), f_ref)


@pytest.mark.parametrize("e", [e for e in _derived_chain_forms() if not e.transient], ids=repr)
def test_rooted_spanning_trees_match_recurrent_chooser(e):
    def law(trees):
        return {frozenset(parent.items()): p for parent, p in trees}

    for root in (e.vertices[0], e.vertices[-1]):
        # oracle rows through the name view of a tree
        parents, probs = enumerate_spanning_trees(e, root=root)
        got = law((ls.SpanningTree(e.vertices, row, root).parent, p) for row, p in zip(parents, probs))
        ref = law(_ref_spanning_trees(e, root))
        assert got.keys() == ref.keys()
        assert all(abs(got[k] - ref[k]) <= 1e-10 * ref[k] for k in ref)
