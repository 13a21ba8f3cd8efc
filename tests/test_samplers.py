import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import killed_box
from scipy import stats

import loopsoup as ls
from loopsoup.graph import GraphError
from loopsoup.loops import PointedLoop
from loopsoup.samplers import _cdf, _draw, _sample_trivial_points, _step_table, _tail_mass, wick_power
from loopsoup.verify import _soup_occupations


def test_rng_stream_reproducible():
    a = ls.RngStream(123).generator.random(5)
    b = ls.RngStream(123).generator.random(5)
    assert np.array_equal(a, b)
    c = ls.RngStream(123, stream=1).generator.random(5)
    assert not np.array_equal(a, c)


def test_draw_never_picks_a_zero_probability_entry():
    # a uniform equal to a table entry (0.0 included) falls past it, as in
    # Generator.choice, so entries of zero mass are never drawn
    p = np.array([0.0, 0.25, 0.0, 0.75, 0.0])
    cdf = _cdf(p)
    for u in cdf[cdf < 1]:
        assert p[_draw(SimpleNamespace(random=lambda: u), cdf)] > 0


def test_loop_sampler_deterministic(p2):
    l1 = ls.sample_pointed_loop(p2, ls.RngStream(7))
    l2 = ls.sample_pointed_loop(p2, ls.RngStream(7))
    assert l1 == l2


def test_loop_sampler_length_law(p2):
    # on P2 the length law is proportional to Tr(P^k)/k over even k
    sampler = ls.PointedLoopSampler(p2)
    probs = sampler.length_probs
    assert probs[2] == pytest.approx((2 * 0.25 / 2) / np.log(4 / 3), rel=1e-9)
    assert probs[3] == 0.0
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class _PowerTableSampler:
    """Reference pointed-loop sampler over the k_cap+1 dense powers of P:
    lengths by Tr(P^k)/k, base points by diag P^k, steps by power columns."""

    def __init__(self, e, k_cap):
        self.e, self.powers = e, [np.eye(e.n), e.P.copy()]
        for _ in range(2, k_cap + 1):
            self.powers.append(self.powers[-1] @ e.P)
        traces = np.array([np.trace(Pk) / max(k, 1) for k, Pk in enumerate(self.powers)])
        traces[:2] = 0.0
        self.length_probs = traces / traces.sum()
        self.base_cdfs = [_cdf(np.diag(Pk) / np.diag(Pk).sum()) if t > 0 else None
                          for Pk, t in zip(self.powers, traces)]

    def sample(self, gen):
        k = _draw(gen, _cdf(self.length_probs))
        seq = [_draw(gen, self.base_cdfs[k])]
        for i in range(1, k):
            w = self.e.P[seq[-1]] * self.powers[k - i][:, seq[0]]
            seq.append(_draw(gen, _cdf(w / w.sum())))
        taus = gen.standard_exponential(k) / self.e.lam[seq]
        return PointedLoop(tuple(seq), tuple(float(t) for t in taus))


TRANSIENT_FIXTURES = ["p2", "k4c1", "counterexample", "k3_wreath", "mirror_p2"]
KILLED_BOXES = [(2, 0), (5, 1), (8, 2), (12, 3)]


def _form(name):
    if isinstance(name, tuple):
        return killed_box(*name)
    return ls.load_energy_form(ls.fixture(name))


@pytest.mark.parametrize("name", TRANSIENT_FIXTURES + KILLED_BOXES, ids=str)
def test_eigen_sampler_matches_the_power_table(name):
    e = _form(name)
    sampler = ls.PointedLoopSampler(e)
    ref = _PowerTableSampler(e, sampler.k_cap)
    # the same support, exact zeros included (odd lengths on bipartite forms)
    assert np.array_equal(sampler.length_probs > 0, ref.length_probs > 0)
    np.testing.assert_allclose(sampler.length_probs, ref.length_probs, rtol=1e-12, atol=0)
    if isinstance(name, tuple):  # a box of Z^2 is bipartite
        assert not sampler.length_probs[1::2].any()
    for k in np.nonzero(ref.length_probs)[0]:
        cdf, ref_cdf = sampler._base_cdf[k], ref.base_cdfs[k]
        probs, ref_probs = np.diff(cdf, prepend=0.0), np.diag(ref.powers[k]) / np.trace(ref.powers[k])
        assert np.array_equal(probs > 0, ref_probs > 0)
        np.testing.assert_allclose(cdf, ref_cdf, rtol=1e-12, atol=0)
        np.testing.assert_allclose(probs, ref_probs, rtol=1e-12, atol=4 * np.finfo(float).eps)
    # and both samplers draw the same loops, consuming the same draws
    gen, ref_gen = ls.RngStream(31).generator, ls.RngStream(31).generator
    for _ in range(5000):
        assert sampler.sample(gen) == ref.sample(ref_gen)
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("L,chord", [(4, 1e-3), (6, 1e-3), (8, 1e-2)])
def test_floor_keeps_small_odd_diagonals(L, chord):
    # a weak chord makes the box's odd closed walks genuine but small next
    # to the eigen scale (U o U) |w|^k: the floor must not zero them
    box = killed_box(L, seed=7)
    C = box.C.copy()
    C[0, L + 1] = C[L + 1, 0] = chord
    e = ls.EnergyForm(box.vertices, C, box.kappa)
    sampler = ls.PointedLoopSampler(e)
    ref = _PowerTableSampler(e, sampler.k_cap)
    assert np.array_equal(sampler.length_probs > 0, ref.length_probs > 0)
    assert sampler.length_probs[3::2].all()
    for k in np.nonzero(ref.length_probs)[0]:
        assert np.array_equal(np.diff(sampler._base_cdf[k], prepend=0.0) > 0, np.diag(ref.powers[k]) > 0)
    gen, ref_gen = ls.RngStream(32).generator, ls.RngStream(32).generator
    assert [sampler.sample(gen) for _ in range(2000)] == [ref.sample(ref_gen) for _ in range(2000)]


@pytest.mark.parametrize("name,k_cap", [("p2", None), ("p2", 16), ("k4c1", None), ("k4c1", 64)])
def test_dropped_mass_is_the_length_tail(name, k_cap):
    e = _form(name)
    sampler = ls.PointedLoopSampler(e, k_cap)
    K = sampler.k_cap
    brute = sum(np.trace(np.linalg.matrix_power(e.P, k)) / k for k in range(K + 1, 4 * K + 1))
    assert sampler.dropped_mass == pytest.approx(brute, rel=1e-12, abs=0)
    ens = ls.sample_loop_soup(e, 1.0, ls.RngStream(0), k_cap=k_cap)
    assert (ens.k_cap, ens.dropped_mass) == (K, sampler.dropped_mass)


def test_dropped_mass_counts_the_floored_diagonals():
    # a chord of 1e-12 makes the box's odd closed walks genuine but below
    # the floor: the diagonal mass it zeroes is dropped, next to the tail
    box = killed_box(6, seed=7)
    C = box.C.copy()
    C[0, 7] = C[7, 0] = 1e-12
    e = ls.EnergyForm(box.vertices, C, box.kappa)
    sampler = ls.PointedLoopSampler(e)
    ref = _PowerTableSampler(e, sampler.k_cap)
    floored = 0.0
    for k in range(2, sampler.k_cap + 1):
        kept = np.diff(sampler._base_cdf[k], prepend=0.0) > 0
        floored += np.diag(ref.powers[k])[~kept].sum() / k
    w = np.linalg.eigh(e.C / np.sqrt(np.outer(e.lam, e.lam)))[0]
    assert floored > 0
    assert sampler.dropped_mass - _tail_mass(w, sampler.k_cap) == pytest.approx(floored, rel=0.05, abs=0)


def test_loop_sampler_is_memoised_per_form_and_cap(k4c1, monkeypatch):
    built = []
    init = ls.PointedLoopSampler.__init__

    def counting_init(self, e, k_cap=None):
        built.append(k_cap)
        init(self, e, k_cap)

    monkeypatch.setattr(ls.PointedLoopSampler, "__init__", counting_init)
    ls.sample_loop_soup(k4c1, 1.0, ls.RngStream(0))
    ls.sample_loop_soup(k4c1, 1.0, ls.RngStream(1))
    _soup_occupations(k4c1, 1.0, ls.RngStream(2).generator, 10)
    assert built == [None]
    ls.sample_loop_soup(k4c1, 1.0, ls.RngStream(0), k_cap=32)
    ls.sample_loop_soup(k4c1, 1.0, ls.RngStream(1), k_cap=32)
    assert built == [None, 32]


def test_memoised_loop_sampler_does_not_keep_its_form_alive():
    e = killed_box(4, seed=0)
    ls.sample_loop_soup(e, 1.0, ls.RngStream(0))
    form = weakref.ref(e)
    del e
    gc.collect()
    assert form() is None


def test_soup_occupation_mean(p2):
    rng = ls.RngStream(42)
    n = 20000
    occ = np.zeros(2)
    for _ in range(n):
        occ += ls.sample_loop_soup(p2, 1.0, rng).occupation()
    occ /= n
    G = ls.green(p2).G
    se = np.sqrt(2 * np.diag(G) ** 2 / n)  # Gamma(1, Gxx) variance
    assert np.all(np.abs(occ - np.diag(G)) < 5 * se)


def test_soup_traversal_mean(p2):
    rng = ls.RngStream(43)
    n = 20000
    tot = 0.0
    for _ in range(n):
        tot += ls.sample_loop_soup(p2, 1.0, rng).traversals()[0, 1]
    assert tot / n == pytest.approx(1 / 3, abs=0.02)


def test_soup_alpha_zero(p2):
    ens = ls.sample_loop_soup(p2, 0.0, ls.RngStream(1))
    assert ens.loops == [] and np.all(ens.trivial == 0)


def test_trivial_detail_points_match_aggregate_mean():
    lam, alpha, cutoff = 2.0, 1.0, 1e-10 / 2.0
    gen = ls.RngStream(5).generator
    n = 5000
    sums = np.array([_sample_trivial_points(lam, alpha, gen, cutoff).sum() for _ in range(n)])
    # aggregate occupation is Gamma(alpha, rate lam): mean alpha/lam, var alpha/lam^2
    assert sums.mean() == pytest.approx(alpha / lam, abs=5 * np.sqrt(alpha / lam**2 / n))
    ks = stats.kstest(sums, "gamma", args=(alpha, 0, 1 / lam))
    assert ks.pvalue > 0.001


def test_bridge_deterministic_and_ends(p2):
    b = ls.sample_bridge(p2, "x", "y", ls.RngStream(9))
    assert b.vertices[0] == p2.index["x"] and b.vertices[-1] == p2.index["y"]
    b2 = ls.sample_bridge(p2, "x", "y", ls.RngStream(9))
    assert b.vertices == b2.vertices and b.taus == b2.taus


def test_bridge_endpoint_law(k4c1):
    # P(bridge a->b is the single step (a,b)) = P^a_b / V^{a,b}
    V = np.linalg.inv(np.eye(4) - k4c1.P)
    expect = k4c1.P[0, 1] / V[0, 1]
    rng = ls.RngStream(17)
    n = 20000
    ab = (k4c1.index["a"], k4c1.index["b"])
    hits = sum(ls.sample_bridge(k4c1, "a", "b", rng).vertices == ab for _ in range(n))
    se = np.sqrt(expect * (1 - expect) / n)
    assert abs(hits / n - expect) < 5 * se


def test_gff_covariance(p2):
    rng = ls.RngStream(3)
    n = 20000
    S = np.zeros((2, 2))
    for _ in range(n):
        f = ls.sample_gff(p2, rng)
        S += np.outer(f.phi, f.phi)
    S /= n
    assert np.allclose(S, ls.green(p2).G, atol=0.03)


def test_complex_gff_covariance(p2):
    rng = ls.RngStream(4)
    n = 20000
    acc = 0.0
    for _ in range(n):
        f = ls.sample_gff(p2, rng, complex_field=True)
        acc += (f.phi[0] * np.conj(f.phi[1])).real
    # E[phi_x conj(phi_y)] = 2 G^{xy}
    assert acc / n == pytest.approx(2 * ls.green(p2).G[0, 1], abs=0.05)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name", ["p2", "k4c1", "counterexample", "box8"])
def test_gff_is_exact_linear_map_of_its_draws(name, complex_field):
    # phi = F z for some fixed F: read the normal draws z from a twin stream,
    # solve Phi = F Z over m >= n fields, and check F F^T = G (2G for the
    # complex field).  Any exact factor passes; the next draws of both
    # streams agreeing pins the number of draws a field consumes.
    e = killed_box(8, seed=5) if name == "box8" else ls.load_energy_form(ls.fixture(name))
    m = 2 * e.n
    rng, twin = ls.RngStream(21), ls.RngStream(21)
    phi = np.array([ls.sample_gff(e, rng, complex_field).phi for _ in range(m)]).T
    parts = [phi.real, phi.imag] if complex_field else [phi]
    Z = np.array([[twin.generator.standard_normal(e.n) for _ in parts] for _ in range(m)])
    cov = np.zeros((e.n, e.n))
    for k, part in enumerate(parts):
        F = np.linalg.lstsq(Z[:, k, :], part.T, rcond=None)[0].T
        cov += F @ F.T
    G = ls.green(e).G
    assert np.linalg.norm(cov - len(parts) * G) <= 1e-10 * np.linalg.norm(G)
    assert rng.generator.random() == twin.generator.random()


def test_gff_rejects_recurrent_and_nan_forms(k4_rooted):
    with pytest.raises(GraphError, match="transient"):
        ls.sample_gff(k4_rooted, ls.RngStream(0))
    nan_form = ls.EnergyForm(["x", "y"], [[0, 1], [1, 0]], [float("nan"), 1.0], validate=False)
    with pytest.raises(GraphError):
        ls.sample_gff(nan_form, ls.RngStream(0))


def test_wick_power_orthogonality():
    # :phi^2: and :phi^3: against plain Hermite expectations under N(0, s)
    gen = np.random.default_rng(11)
    s = 0.7
    z = gen.normal(0, np.sqrt(s), size=200000)
    w2 = wick_power(s, z, 2)
    w3 = wick_power(s, z, 3)
    assert w2.mean() == pytest.approx(0.0, abs=0.02)
    assert w3.mean() == pytest.approx(0.0, abs=0.05)
    assert (w2 * w2).mean() == pytest.approx(2 * s**2, rel=0.05)


def test_loop_erase():
    assert ls.loop_erase(["a", "b", "a", "c"]) == ["a", "c"]
    assert ls.loop_erase(["a", "b", "c", "b", "d"]) == ["a", "b", "d"]
    assert ls.loop_erase(["a"]) == ["a"]


def test_wilson_deterministic(k4c1):
    t1, e1 = ls.wilson_sample(k4c1, ls.RngStream(2))
    t2, e2 = ls.wilson_sample(k4c1, ls.RngStream(2))
    assert t1.key() == t2.key()
    assert len(e1.loops) == len(e2.loops)


def test_wilson_rooted_tree_shape(k4_rooted):
    tree, ens = ls.wilson_sample(k4_rooted, ls.RngStream(3), root="a")
    assert "a" not in tree.parent or tree.parent["a"] is None
    # every non-root vertex reaches the root
    for v in "bcd":
        cur = v
        for _ in range(4):
            cur = tree.parent[cur]
            if cur == "a":
                break
        assert cur == "a"


def test_wilson_cayley_uniform(k4_rooted):
    rng = ls.RngStream(8)
    n = 16000
    counts = {}
    for _ in range(n):
        tree, _ = ls.wilson_sample(k4_rooted, rng, root="a")
        counts[tree.key()] = counts.get(tree.key(), 0) + 1
    assert len(counts) == 16  # Cayley: 4^{4-2} spanning trees of K4
    chi = stats.chisquare(list(counts.values()))
    assert chi.pvalue > 0.001


def test_wilson_erased_soup_network(k4c1):
    # erased loops form an alpha=1 soup network: E[L-hat^x] = G^{xx}
    rng = ls.RngStream(13)
    n = 20000
    occ = np.zeros(4)
    for _ in range(n):
        _, ens = ls.wilson_sample(k4c1, rng)
        occ += ens.occupation()
    G = ls.green(k4c1).G
    assert np.all(np.abs(occ / n - np.diag(G)) < 0.02)


def test_wilson_step_table_built_once_per_form(k4c1):
    assert _step_table(k4c1) is _step_table(k4c1)


def test_wilson_requires_root_when_recurrent(k4_rooted):
    with pytest.raises(GraphError):
        ls.wilson_sample(k4_rooted, ls.RngStream(0))


@pytest.mark.parametrize("k_cap", [0, 1])
def test_k_cap_below_two_rejected(p2, k_cap):
    with pytest.raises(GraphError, match="k_cap"):
        ls.PointedLoopSampler(p2, k_cap=k_cap)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_soup_rejects_non_finite_alpha(p2, alpha):
    with pytest.raises(GraphError, match="alpha"):
        ls.sample_loop_soup(p2, alpha, ls.RngStream(0))
