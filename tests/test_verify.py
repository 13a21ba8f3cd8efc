import json

import numpy as np
import pytest

import loopsoup as ls
from loopsoup.exact import _omega_matrix
from loopsoup.graph import EnergyForm, GraphError
from loopsoup.samplers import _soup_occupations
from loopsoup.verify import enumerate_spanning_trees


def _assert_all_pass(report):
    bad = [c.name for c in report.checks if not c.passed]
    assert report.passed, f"failing checks: {bad}"


def test_dynkin_exact_mode(p2):
    r = ls.verify_dynkin(p2, k=1, n_samples=0, rng=ls.RngStream(0))
    _assert_all_pass(r)
    assert all(c.kind == "exact" for c in r.checks)


def test_dynkin_sampled(p2, k4c1):
    for e in (p2, k4c1):
        _assert_all_pass(ls.verify_dynkin(e, k=1, n_samples=5000, rng=ls.RngStream(10)))


def test_dynkin_two_fields(k4c1):
    _assert_all_pass(ls.verify_dynkin(k4c1, k=2, n_samples=5000, rng=ls.RngStream(11)))


def test_transfer_current_exact(p2):
    _assert_all_pass(ls.verify_transfer_current(p2, n_samples=0, rng=ls.RngStream(0)))


def test_transfer_current_sampled(k4c1):
    _assert_all_pass(ls.verify_transfer_current(k4c1, n_samples=5000, rng=ls.RngStream(12)))


def test_transfer_current_rooted(k4_rooted):
    r = ls.verify_transfer_current(k4_rooted, n_samples=5000, rng=ls.RngStream(13), root="a")
    _assert_all_pass(r)


def test_tree_law_where_det_g_and_prod_c_leave_the_floats():
    # det G = 1e-600 and prod C = 1e600 underflow and overflow; their product is 1
    e = ls.load_energy_form({"vertices": ["v0", "v1"], "edges": [["v0", "v1", 1e300]], "killing": {"v0": 1e300}})
    parents, probs = enumerate_spanning_trees(e)
    assert parents.tolist() == [[2, 0]] and probs == pytest.approx([1.0], rel=1e-12)
    report = ls.verify_transfer_current(e, n_samples=20, rng=ls.RngStream(0))
    assert report.checks[0].name == "tree law total mass" and report.checks[0].passed


def test_edge_laplace_se_is_exact_when_every_tree_is_the_same():
    # the tree v1 -> v0 -> cemetery has probability 0.98: at n = 30 every
    # sampled tree has the same edge set, so a sample se would be 0
    e = ls.load_energy_form({"vertices": ["v0", "v1", "v2", "v3"],
                             "edges": [["v0", "v1", 1.0], ["v0", "v2", 1.0], ["v2", "v3", 1.0]],
                             "killing": {"v0": 6.0, "v1": 1 / 64}})
    report = ls.verify_transfer_current(e, n_samples=30, rng=ls.RngStream(0))
    check = next(c for c in report.checks if c.name == "edge Laplace functional")
    assert check.se > 0 and check.z is not None and check.passed


def test_loop_erasure(p2, k4c1):
    _assert_all_pass(ls.verify_loop_erasure(p2, "x", "y", n_samples=5000, rng=ls.RngStream(14)))
    _assert_all_pass(ls.verify_loop_erasure(k4c1, "a", "b", n_samples=5000, rng=ls.RngStream(15)))


def test_reflection_positive_fixture():
    e = ls.load_energy_form(ls.fixture("mirror_p2"))
    _assert_all_pass(ls.verify_reflection_positivity(e, ls.default_involution(e)))


def test_reflection_counterexample():
    e = ls.load_energy_form(ls.fixture("counterexample"))
    r = ls.verify_reflection_positivity(
        e, ls.default_involution(e), counterexample_sets=(("al", "be"), ("ga", "de"))
    )
    _assert_all_pass(r)
    neg = [c for c in r.checks if "strictly negative" in c.name]
    assert neg and neg[0].residual < 0


def test_reflection_rejects_bad_involution(p2):
    with pytest.raises(GraphError):
        ls.verify_reflection_positivity(p2, {"x": "x", "y": "y"}, partition=(["x"], ["y"], []))


def test_energy_variation(p2):
    kap = p2.kappa.copy()
    kap[0] += 1.0
    e2 = EnergyForm(p2.vertices, p2.C, kap)
    _assert_all_pass(ls.verify_energy_variation(p2, e2, alpha=1.0, n_samples=5000, rng=ls.RngStream(16)))


def test_energy_variation_one_form(k4c1):
    omega = {("a", "b"): 0.4, ("c", "d"): -0.3}
    r = ls.verify_energy_variation(
        k4c1, k4c1, omega=omega, alpha=1.0, n_samples=5000, rng=ls.RngStream(17)
    )
    _assert_all_pass(r)


def test_energy_variation_exponent_matches_traversal_tensor(k4c1):
    # the suite sums log(C'/C) and omega over loop positions; the same
    # exponent through an (n_samples, n, n) traversal-count tensor
    omega = {("a", "b"): 0.4, ("c", "d"): -0.3}
    C2 = 0.6 * k4c1.C
    C2[0, 1] = C2[1, 0] = 0.3 * k4c1.C[0, 1]
    e2 = EnergyForm(k4c1.vertices, C2, k4c1.lam - C2.sum(axis=1) + 0.05)
    n_samples, seed = 2000, 23
    batch = _soup_occupations(k4c1, 1.0, ls.RngStream(seed).generator, n_samples)
    occ, (sample, vertex, successor) = batch.occupation, batch.positions
    trav = np.zeros((n_samples, k4c1.n, k4c1.n), dtype=np.int64)
    np.add.at(trav, (sample, vertex, successor), 1)
    mask = k4c1.C > 0
    logR = np.zeros_like(C2)
    logR[mask] = np.log(C2[mask] / k4c1.C[mask])
    W = _omega_matrix(k4c1, omega)
    dlam = e2.lam - k4c1.lam
    by_tensor = (
        np.tensordot(trav, logR, axes=([1, 2], [0, 1]))
        + 1j * np.tensordot(trav, W, axes=([1, 2], [0, 1]))
        - occ @ dlam
    )
    by_positions = (
        np.bincount(sample, logR[vertex, successor], n_samples)
        + 1j * np.bincount(sample, W[vertex, successor], n_samples)
        - occ @ dlam
    )
    assert trav.sum() > n_samples and np.ptp(by_tensor.imag) > 0
    assert np.allclose(by_positions, by_tensor, rtol=1e-12, atol=0)
    r = ls.verify_energy_variation(k4c1, e2, omega=omega, n_samples=n_samples, rng=ls.RngStream(seed))
    estimates = {c.name: c.estimate for c in r.checks if c.name.startswith("multiplicative functional")}
    vals = np.exp(by_tensor)
    assert estimates["multiplicative functional (real)"] == pytest.approx(vals.real.mean(), rel=1e-12, abs=0)
    assert estimates["multiplicative functional (imag)"] == pytest.approx(vals.imag.mean(), rel=1e-9, abs=0)


def test_energy_variation_rejects_bigger_conductance(p2):
    C = p2.C * 2
    e2 = EnergyForm(p2.vertices, C, p2.kappa)
    with pytest.raises(GraphError):
        ls.verify_energy_variation(p2, e2)


def test_soup_statistics_reject_negative_alpha(p2):
    with pytest.raises(GraphError, match="alpha must be finite and nonnegative"):
        _soup_occupations(p2, -1.0, ls.RngStream(0).generator, 10)


def test_zeta_suite(k4_rooted, cube):
    _assert_all_pass(ls.verify_zeta(k4_rooted, m_max=8))
    _assert_all_pass(ls.verify_zeta(cube, m_max=8))


def test_occupation_suite(p2):
    # the Q-polynomial fourth-moment statistics are heavy-tailed; use a
    # sample size where the normal approximation of the gate is reliable
    _assert_all_pass(ls.verify_occupation_marginals(p2, n_samples=10000, rng=ls.RngStream(18)))


def test_occupation_suite_without_edges(v1):
    # N_x is 0 in every soup: an exact check, not a chi-square over one cell
    r = ls.verify_occupation_marginals(v1, n_samples=500, rng=ls.RngStream(3))
    _assert_all_pass(r)
    assert "every N_x is 0 (no edge at x)" in [c.name for c in r.checks]


def test_report_serialization(p2):
    r = ls.verify_dynkin(p2, k=1, n_samples=100, rng=ls.RngStream(19))
    doc = json.loads(r.to_json())
    assert doc["suite"] == "dynkin"
    assert doc["passed"] == r.passed
    assert len(doc["checks"]) == len(r.checks)
    assert "PASS" in r.table() or "FAIL" in r.table()


def test_report_records_failure(p2):
    r = ls.VerificationReport("demo", "p2", 0, None)
    r.add_exact("off by one", 1.0, 2.0, 1e-9)
    r.finalize(0.0)
    assert not r.passed


def test_reports_reproducible(p2):
    a = ls.verify_dynkin(p2, k=1, n_samples=2000, rng=ls.RngStream(20)).to_json()
    b = ls.verify_dynkin(p2, k=1, n_samples=2000, rng=ls.RngStream(20)).to_json()
    assert json.loads(a)["checks"] == json.loads(b)["checks"]


def _chisquare_cases():
    """(observed, expected) in the shapes of the two chi-squares: tree counts
    against a spanning-tree law, and geometric counts with a merged tail."""
    rng = np.random.default_rng(0)
    for name in ("p2", "k3_wreath", "mirror_p2", "k4c1"):
        _, probs = enumerate_spanning_trees(ls.load_energy_form(ls.fixture(name)))
        for n in (30, 10_000):
            yield rng.multinomial(n, probs / probs.sum()), probs * n
    for p_geo in (0.05, 0.5, 0.97):
        for n in (50, 10_000):
            kmax = 40
            probs = np.append(p_geo * (1 - p_geo) ** np.arange(kmax - 1), (1 - p_geo) ** (kmax - 1))
            while len(probs) > 2 and probs[-1] * n < 5:
                probs = np.append(probs[:-2], probs[-2] + probs[-1])
            yield rng.multinomial(n, probs / probs.sum()), probs * n


def test_chisquare_p_is_scipys_bit_for_bit():
    from scipy import stats

    from loopsoup.verify import _chisquare_p

    for observed, expected in _chisquare_cases():
        want = stats.chisquare(observed, expected).pvalue
        for obs in (observed, observed.astype(float)):
            got = _chisquare_p(obs, expected)
            assert type(got) is type(want) and got.tobytes() == want.tobytes()
