import numpy as np
import pytest

import loopsoup as ls
from loopsoup.exact import _logdet_posdef, hitting_kernel
from loopsoup.graph import GraphError

from conftest import random_energy_form


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
def test_green_of_unvalidated_nan_form_raises():
    e = ls.EnergyForm(["x", "y"], [[0, 1], [1, 0]], [float("nan"), 1.0], validate=False)
    with pytest.raises(GraphError):
        ls.green(e)
