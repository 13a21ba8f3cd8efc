import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loopsoup as ls
from loopsoup.exact import _factor, _logdet_posdef, _omega_matrix, hitting_kernel
from loopsoup.graph import GraphError

from conftest import killed_box, random_energy_form


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


def test_factor_is_memoised_and_read_only(k4c1):
    R = _factor(k4c1)
    assert _factor(k4c1) is R
    assert not R.flags.writeable
    assert np.allclose(R @ R.T, k4c1.laplacian(), atol=1e-12)
    with pytest.raises(ValueError):
        R[0, 0] = 1.0


_TRANSIENT_FIXTURES = sorted(
    name for name in ls.FIXTURES if ls.load_energy_form(ls.fixture(name)).transient
)


@given(
    st.sampled_from(_TRANSIENT_FIXTURES).map(lambda name: ls.load_energy_form(ls.fixture(name)))
    | st.builds(killed_box, st.integers(1, 9), st.integers(0, 10**6))
)
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
    with pytest.raises(GraphError, match="finite"):
        ls.green_chi(p2, np.array([bad, 0.0]))


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
