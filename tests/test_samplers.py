import gc
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref
from bisect import bisect_right

import numpy as np
import pytest
from conftest import killed_box
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from test_exact import _two_edges

import loopsoup as ls
from loopsoup import samplers
from loopsoup.exact import _factor
from loopsoup.graph import GraphError, _root_index
from loopsoup.loops import PointedLoop
from loopsoup.samplers import (
    _bridges,
    _positions,
    _row,
    _soup_occupations,
    _soups,
    _step_table,
    _tail_mass,
    _trees,
    _walk,
    wick_power,
)


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
    row = _row(p)
    for u in row:
        if u < 1:
            assert p[bisect_right(row, u)] > 0


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
        self.base_cdfs = [_row(np.diag(Pk) / np.diag(Pk).sum()) if t > 0 else None
                          for Pk, t in zip(self.powers, traces)]

    def sample(self, gen):
        k = bisect_right(_row(self.length_probs), gen.random())
        seq = [bisect_right(self.base_cdfs[k], gen.random())]
        for i in range(1, k):
            w = self.e.P[seq[-1]] * self.powers[k - i][:, seq[0]]
            seq.append(bisect_right(_row(w / w.sum()), gen.random()))
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
        np.testing.assert_allclose(cdf[:-1], ref_cdf, rtol=1e-12, atol=0)
        np.testing.assert_allclose(probs, ref_probs, rtol=1e-12, atol=4 * np.finfo(float).eps)
    # and both samplers draw the same loops, consuming the same draws
    gen, ref_gen = ls.RngStream(31).generator, ls.RngStream(31).generator
    for _ in range(5000):
        assert sampler.sample(gen) == ref.sample(ref_gen)
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("name", ["p2", "k4c1", "counterexample", (2, 0), (8, 2)], ids=str)
def test_warm_loop_sampler_draws_what_a_fresh_one_draws(name, monkeypatch):
    # the memoised step rows move no draw: a sampler whose rows were filled
    # on another stream, a fresh one and one that keeps no row draw the
    # same loops and leave the same next draw
    e = _form(name)
    warm = ls.PointedLoopSampler(e)
    fill = ls.RngStream(5, stream=1).generator
    for _ in range(1000):
        warm.sample(fill)
    assert warm._rows
    fresh = ls.PointedLoopSampler(e)
    gens = [ls.RngStream(7).generator for _ in range(3)]
    loops = [[s.sample(g) for _ in range(500)] for s, g in zip((warm, fresh), gens)]
    monkeypatch.setattr(samplers, "MAX_CACHED_ROWS", 0)
    bare = ls.PointedLoopSampler(e)
    loops.append([bare.sample(gens[2]) for _ in range(500)])
    assert not bare._rows
    assert loops[0] == loops[1] == loops[2]
    assert gens[0].random() == gens[1].random() == gens[2].random()


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


@pytest.mark.parametrize("name", ["p2", "k4c1"])
def test_dropped_mass_is_the_length_tail(name):
    e = _form(name)
    sampler = ls.PointedLoopSampler(e)
    K = sampler.k_cap
    brute = sum(np.trace(np.linalg.matrix_power(e.P, k)) / k for k in range(K + 1, 4 * K + 1))
    assert sampler.dropped_mass == pytest.approx(brute, rel=1e-12, abs=0)
    ens = ls.sample_loop_soup(e, 1.0, ls.RngStream(0))
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
        cdf = sampler._base_cdf[k]  # None where the length is never drawn
        kept = np.zeros(e.n, dtype=bool) if cdf is None else np.diff(cdf, prepend=0.0) > 0
        floored += np.diag(ref.powers[k])[~kept].sum() / k
    w = np.linalg.eigh(e.C / np.sqrt(np.outer(e.lam, e.lam)))[0]
    assert floored > 0
    assert sampler.dropped_mass - _tail_mass(w, sampler.k_cap) == pytest.approx(floored, rel=0.05, abs=0)


def test_loop_sampler_is_memoised_per_form_and_cap(k4c1, monkeypatch):
    built = []
    init = ls.PointedLoopSampler.__init__

    def counting_init(self, e):
        built.append(e)
        init(self, e)

    monkeypatch.setattr(ls.PointedLoopSampler, "__init__", counting_init)
    ls.sample_loop_soup(k4c1, 1.0, ls.RngStream(0))
    ls.sample_loop_soup(k4c1, 1.0, ls.RngStream(1))
    ls.sample_pointed_loop(k4c1, ls.RngStream(2))
    _soup_occupations(k4c1, 1.0, ls.RngStream(3).generator, 10)
    assert built == [k4c1]


def test_memoised_loop_sampler_does_not_keep_its_form_alive():
    e = killed_box(4, seed=0)
    ls.sample_loop_soup(e, 1.0, ls.RngStream(0))
    form = weakref.ref(e)
    del e
    gc.collect()
    assert form() is None


def test_derived_objects_make_no_cycle_with_their_form():
    # refcounting alone frees a form and everything memoised in it: a cycle
    # (a sampler holding its form strongly) would wait for the cyclic collector
    e = killed_box(4, seed=0)
    ls.sample_loop_soup(e, 1.0, ls.RngStream(0))
    ls.sample_bridge(e, "0", "5", ls.RngStream(1))
    ls.wilson_sample(e, ls.RngStream(2))
    form = weakref.ref(e)
    gc.disable()
    try:
        del e
        assert form() is None
    finally:
        gc.enable()


def test_walk_table_is_one_entry_with_or_without_a_target(k4c1):
    assert _step_table(k4c1) is _step_table(k4c1, None)
    assert _step_table(k4c1, 0) is not _step_table(k4c1)


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


@pytest.mark.parametrize("name,alpha", [("p2", 1.0), ("k4c1", 2.0), ("k4c1", 0.5), ("v1", 1.0), ("p2", 0.0)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_loop_soup_is_the_first_soup_of_a_batch(name, alpha, seed):
    e = _form(name)
    rng, gen = ls.RngStream(seed), ls.RngStream(seed).generator
    ens = ls.sample_loop_soup(e, alpha, rng)
    batch = _soup_occupations(e, alpha, gen, 1)
    _, vertex, successor = batch.positions
    assert len(ens.loops) == batch.counts[0]
    assert np.array_equal(ens.occupation(), batch.occupation[0])
    assert np.array_equal(ens.visit_counts(), batch.visits[0])
    assert np.array_equal(ens.traversals(), np.bincount(vertex * e.n + successor, minlength=e.n**2).reshape(e.n, e.n))
    assert (ens.k_cap, ens.dropped_mass) == (batch.k_cap, batch.dropped_mass)
    assert rng.generator.random() == gen.random()  # the same number of draws


@pytest.mark.parametrize("name,alpha", [("p2", 0.5), ("k4c1", 1.0), ("counterexample", 2.0), ((5, 1), 1.0),
                                        ("k4c1", 0.0), ("v1", 1.0)], ids=str)
@pytest.mark.parametrize("n_samples", [0, 1, 25])
def test_soup_batch_is_the_positions_of_sampled_loops(name, alpha, n_samples):
    e = _form(name)
    gen, ref = ls.RngStream(3).generator, ls.RngStream(3).generator
    batch = _soup_occupations(e, alpha, gen, n_samples)
    cap, counts, occ, sampler = _soups(e, alpha, ref, n_samples)
    loops = [sampler.sample(ref) for _ in range(counts.sum())]
    vertex, successor, tau, lengths = _positions(loops)
    assert successor.tolist() == [v for loop in loops for v in loop.vertices[1:] + loop.vertices[:1]]
    sample = np.repeat(np.repeat(np.arange(n_samples), counts), lengths)
    np.add.at(occ, (sample, vertex), tau)
    assert np.array_equal(batch.counts, counts) and (batch.k_cap, batch.dropped_mass) == cap
    assert batch.occupation.tobytes() == occ.tobytes()
    assert np.array_equal(batch.visits, np.bincount(sample * e.n + vertex, minlength=n_samples * e.n)
                          .reshape(n_samples, e.n))
    for got, want in zip(batch.positions, (sample, vertex, successor)):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert gen.random() == ref.random()  # the same number of draws


def test_soup_batch_of_soups_without_loops():
    # p2 at alpha 0.05 draws Poisson(0.0144) loops per soup: none at seed 1
    e = _form("p2")
    batch = _soup_occupations(e, 0.05, ls.RngStream(1).generator, 20)
    assert not batch.counts.any() and not batch.visits.any()
    assert all(a.size == 0 for a in batch.positions)
    ref = ls.RngStream(1).generator
    ref.poisson(0.05 * samplers._loop_sampler(e).total, 20)
    assert np.array_equal(batch.occupation, ref.gamma(0.05, 1.0 / e.lam, size=(20, 2)))


def test_soups_on_a_form_without_edges(v1):
    # no nontrivial loop exists: the soups are their Gamma trivial occupations
    ens = ls.sample_loop_soup(v1, 1.0, ls.RngStream(0))
    assert ens.loops == [] and ens.trivial[0] > 0 and (ens.k_cap, ens.dropped_mass) == (None, 0.0)
    batch = _soup_occupations(v1, 2.0, ls.RngStream(1).generator, 5)
    gamma = ls.RngStream(1).generator.gamma(2.0, 1.0 / v1.lam, size=(5, 1))
    assert np.array_equal(batch.occupation, gamma)
    assert not batch.counts.any() and not batch.visits.any() and batch.k_cap is None


def test_bridge_deterministic_and_ends(p2):
    b = ls.sample_bridge(p2, "x", "y", ls.RngStream(9))
    assert b.vertices[0] == p2.index["x"] and b.vertices[-1] == p2.index["y"]
    b2 = ls.sample_bridge(p2, "x", "y", ls.RngStream(9))
    assert b.vertices == b2.vertices and b.taus == b2.taus


def test_bridge_skips_rows_of_no_weight():
    # a bridge a -> b never enters c or d: their rows of the table are
    # empty, built with no RuntimeWarning (an error in this suite)
    e = _two_edges([1.0, 1.0, 1.0, 1.0])
    b = ls.sample_bridge(e, "a", "b", ls.RngStream(0))
    assert set(b.vertices) <= {0, 1} and b.vertices[-1] == 1
    cdf, _, V = _step_table(e, 1)
    assert V[2] == V[3] == 0 and cdf[2:] == [(), ()]
    with pytest.raises(GraphError, match=r"^'c' unreachable from 'a'$"):
        ls.sample_bridge(e, "a", "c", ls.RngStream(0))
    with pytest.raises(GraphError, match=r"^'c' unreachable from 'a'$"):
        _bridges(e, 0, 2, ls.RngStream(0).generator, 3)
    with pytest.raises(GraphError, match=r"^bridge sampling requires a transient chain$"):
        _bridges(_form("k4_rooted"), 0, 1, ls.RngStream(0).generator, 3)


def test_bridge_fails_to_end_within_the_step_bound(monkeypatch):
    # V_y = lambda_y G_yy = 8.8e12: each arrival at y stops the bridge with
    # probability 1e-13, so its excursions, each of two steps, never end
    e = ls.load_energy_form({"vertices": ["x", "y"], "edges": [["x", "y", 8.811858427706042]],
                             "killing": {"y": 1e-12}})
    monkeypatch.setattr(samplers, "MAX_STEPS", 1000)
    with pytest.raises(GraphError, match="bridge failed to end"):
        ls.sample_bridge(e, "x", "y", ls.RngStream(0))
    with pytest.raises(GraphError, match=r"^bridge failed to end$"):
        _bridges(e, 0, 1, ls.RngStream(0).generator, 3)


def test_bridge_excursion_fails_to_end_within_the_step_bound(monkeypatch):
    # on the path x - a - b - c - y every excursion from x to y takes at least
    # four steps: under a bound of three the first never arrives at y
    e = ls.load_energy_form({"vertices": ["x", "a", "b", "c", "y"],
                             "edges": [["x", "a", 1.0], ["a", "b", 1.0], ["b", "c", 1.0], ["c", "y", 1.0]],
                             "killing": {"y": 1.0}})
    assert ls.sample_bridge(e, "x", "y", ls.RngStream(0)).vertices[-1] == e.index["y"]
    monkeypatch.setattr(samplers, "MAX_STEPS", 3)
    with pytest.raises(GraphError, match=r"^bridge failed to end$"):
        ls.sample_bridge(e, "x", "y", ls.RngStream(0))
    with pytest.raises(GraphError, match=r"^bridge failed to end$"):
        _bridges(e, 0, 4, ls.RngStream(0).generator, 3)


@pytest.mark.parametrize("name,x,y", [("p2", "x", "y"), ("k4c1", "a", "b"), ("k4c1", "c", "c"),
                                        ("counterexample", 0, 5), ((6, 4), 0, 21)], ids=str)
def test_bridges_draw_what_sample_bridge_draws(name, x, y):
    e = _form(name)
    x, y = (e.vertices[v] for v in (x, y)) if isinstance(x, int) else (x, y)
    gen, ref = ls.RngStream(5).generator, ls.RngStream(5).generator
    vertex, tau, lengths = _bridges(e, e.index[x], e.index[y], gen, 0)
    assert vertex.size == tau.size == lengths.size == 0 and vertex.dtype == np.int64
    vertex, tau, lengths = _bridges(e, e.index[x], e.index[y], gen, 40)
    bridges = [ls.sample_bridge(e, x, y, ref) for _ in range(40)]
    assert lengths.tolist() == [len(b.vertices) for b in bridges]
    assert vertex.tolist() == [v for b in bridges for v in b.vertices]
    assert tau.tobytes() == np.array([t for b in bridges for t in b.taus]).tobytes()
    assert gen.random() == ref.random()  # the same number of draws


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


def _erase(path):
    """Progressive loop erasure of a whole walk, by position: the positions
    the self-avoiding path keeps (a revisit keeps the later visit), and the
    positions of each erased loop, in the order the loops close.  The
    walk-then-erase reference for samplers._wilson, which erases as it
    walks."""
    kept, at, loops = [], {}, []
    for t, v in enumerate(path):
        i = at.get(v, len(kept))
        if i < len(kept) and path[kept[i]] == v:  # else v is new, or erased since
            loops.append(kept[i:])
            del kept[i:]
        at[v] = len(kept)
        kept.append(t)
    return kept, loops


def _stack_erase(path):
    # Wilson's former inline erasure: a stack of positions and a map from
    # each stack vertex to its place, cut back to a revisited vertex
    stack, pos, loops = [], {}, []
    for t, v in enumerate(path):
        if v in pos:
            i = pos[v]
            loops.append(stack[i:])
            for s in stack[i:]:
                del pos[path[s]]
            del stack[i:]
        stack.append(t)
        pos[v] = len(stack) - 1
    return stack, loops


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_erased_walk_is_its_start_exactly_when_it_ends_there(path):
    # what lets verify_loop_erasure count straight-to-cemetery walks by
    # their last vertex
    assert (ls.loop_erase(path) == [path[0]]) == (path[-1] == path[0])


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_erase_matches_the_stack_erasure(path):
    kept, loops = _erase(path)
    assert (kept, loops) == _stack_erase(path)
    assert ls.loop_erase(path) == [path[t] for t in kept]
    # every position is kept or erased exactly once
    assert sorted(kept + [t for loop in loops for t in loop]) == list(range(len(path)))


def test_wilson_deterministic(k4c1):
    t1, e1 = ls.wilson_sample(k4c1, ls.RngStream(2))
    t2, e2 = ls.wilson_sample(k4c1, ls.RngStream(2))
    assert np.array_equal(t1.parent_index, t2.parent_index)
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
    rows = np.array([ls.wilson_sample(k4_rooted, rng, root="a")[0].parent_index for _ in range(n)])
    _, counts = np.unique(rows, axis=0, return_counts=True)
    assert len(counts) == 16  # Cayley: 4^{4-2} spanning trees of K4
    chi = stats.chisquare(counts)
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


@pytest.mark.parametrize("name,root", [("k4_rooted", "a"), ("k4_rooted", "d"), ("k4c1", None), ((6, 5), None)],
                         ids=str)
def test_tree_rows_are_the_trees_of_wilson_sample(name, root):
    e = _form(name)
    gen, ref = ls.RngStream(11).generator, ls.RngStream(11).generator
    rows, erased = _trees(e, gen, root, 0)
    assert rows.shape == (0, e.n) and erased.size == 0
    rows, erased = _trees(e, gen, root, 30)
    draws = [ls.wilson_sample(e, ref, root=root) for _ in range(30)]
    assert rows.dtype == np.int64
    assert np.array_equal(rows, np.array([tree.parent_index for tree, _ in draws]))
    assert erased.tolist() == [len(ens.loops) for _, ens in draws]
    assert gen.random() == ref.random()  # the same number of draws


def reference_branches(gen, table, end, parent, erase=_erase):
    """Wilson's algorithm for one tree, each walk erased after it ends: the
    reference for _wilson, which erases as it walks.  In the list parent of
    n entries, each branch is a _walk from the least vertex not yet in the
    tree until it enters the tree (the index end at first) or the cemetery,
    then one standard_exponential draw for its visits, then erase of the
    whole path.  Each kept visit sets parent[v] to the next kept index, n at
    the cemetery.  Yields each branch as (path, exponentials, kept
    positions, erased loops) once parent holds it."""
    n = len(parent)
    in_tree = [v == end for v in range(n)]
    for start in range(n):
        if in_tree[start]:
            continue
        path, nxt = _walk(gen, table, start, in_tree)
        exps = gen.standard_exponential(len(path))
        kept, loops = erase(path)
        branch = [path[t] for t in kept] + [nxt]  # ends in the tree or at the cemetery n
        for v, w in zip(branch, branch[1:]):
            parent[v] = w
            in_tree[v] = True
        yield path, exps, kept, loops


_WILSON_CASES = [(name, root) for name in sorted(ls.FIXTURES)
                 for e in [_form(name)] for root in ([None] if e.transient else e.vertices)]


@pytest.mark.parametrize("name,root", _WILSON_CASES + [((8, 1), None), ((16, 2), None)], ids=str)
def test_wilson_matches_the_walk_then_erase_reference(name, root):
    e = _form(name)
    end, table = _root_index(e, root), _step_table(e)
    gen, ref = ls.RngStream(6).generator, ls.RngStream(6).generator
    rows, erased = _trees(e, gen, root, 20)
    for row, count in zip(rows.tolist(), erased.tolist()):
        parent = [e.n] * e.n
        assert count == sum(len(loops) for *_, loops in reference_branches(ref, table, end, parent))
        assert row == parent
    for _ in range(20):
        tree, ens = ls.wilson_sample(e, gen, root=root)
        parent, loops, trivial = [e.n] * e.n, [], np.zeros(e.n)
        for path, exps, kept, erased_at in reference_branches(ref, table, end, parent):
            taus = exps / e.lam[path]
            loops += [(tuple(path[t] for t in loop), tuple(taus[loop].tolist())) for loop in erased_at]
            trivial[np.array(path)[kept]] = taus[kept]
        assert tree.parent_index.tolist() == parent
        assert [(loop.vertices, loop.taus) for loop in ens.loops] == loops
        assert ens.trivial.tobytes() == trivial.tobytes()
    assert gen.random() == ref.random()  # the same number of draws


def test_wilson_step_table_built_once_per_form(k4c1):
    # the walk table, and a bridge table per target
    for target in (None, 1):
        assert _step_table(k4c1, target) is _step_table(k4c1, target)


def _dense_walk_rows(e):
    """Wilson's step rows as the dense build made them: the _row of each row
    of [C | kappa] / lambda at its np.nonzero columns, column n the cemetery."""
    M = np.hstack([e.C, e.kappa[:, None]]) / e.lam[:, None]
    cols = [np.flatnonzero(row) for row in M]
    return [_row(row[c]) if c.size else () for row, c in zip(M, cols)], [tuple(c.tolist()) for c in cols]


@pytest.mark.parametrize(
    "e",
    [ls.load_energy_form(ls.fixture(name)) for name in sorted(ls.FIXTURES)]
    + [killed_box(7, 2), killed_box(16, 5),
       # C_01 / lambda_0 underflows to 0: the dense build leaves the entry out
       ls.EnergyForm(["a", "b", "c"], [[0, 5e-324, 0], [5e-324, 0, 1], [0, 1, 0]], [1e10, 0, 1])],
    ids=[*sorted(ls.FIXTURES), "box7", "box16", "underflow"],
)
def test_walk_table_from_the_nonzeros_matches_the_dense_rows(e):
    cdf, column, V = _step_table(e)
    assert (cdf, column) == _dense_walk_rows(e) and V is None


def test_factor_field_and_tree_allocate_no_dense_matrix():
    e = killed_box(32, 4)  # a fresh form: no factor, table or P yet
    tracemalloc.start()
    try:
        _factor(e)
        ls.sample_gff(e, ls.RngStream(0))
        ls.wilson_sample(e, ls.RngStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < e.n**2 * 8


# digests of a field, a bridge, a Wilson tree and log det G on the graph
# document argv[1], printed as JSON
_THREAD_DIGESTS = """
import hashlib, json, sys
import numpy as np
import loopsoup as ls
e = ls.load_energy_form(sys.argv[1])
digest = lambda *parts: hashlib.sha256(repr(parts).encode()).hexdigest()
bridge = ls.sample_bridge(e, e.vertices[0], e.vertices[-1], ls.RngStream(2))
tree, ens = ls.wilson_sample(e, ls.RngStream(3))
W = np.triu(np.random.default_rng(4).uniform(-np.pi, np.pi, (e.n, e.n)), 1) * (e.C > 0)
W -= W.T
e2 = ls.EnergyForm(e.vertices, 0.7 * e.C, e.kappa + 0.1)
print(json.dumps({
    "field": digest(ls.sample_gff(e, ls.RngStream(1)).phi.tolist()),
    "bridge": digest(bridge.vertices, bridge.taus),
    "tree": digest(tree.parent_index.tolist(), [(l.vertices, l.taus) for l in ens.loops], ens.trivial.tolist()),
    "logdet_G": digest(ls.green(e).logdet_G),
    "twisted_log_Z": digest(ls.twisted_green(e, W)[1]),
    "partition_ratio": digest(ls.partition_ratio(e, e2, W)),
}))
"""


def test_banded_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # only 1 and 2 threads are tested: the reference host has two cores
    e = killed_box(16, 6)
    iu, ju = np.nonzero(np.triu(e.C))
    doc = {"vertices": list(e.vertices), "edges": [[e.vertices[i], e.vertices[j], e.C[i, j]] for i, j in zip(iu, ju)],
           "killing": dict(zip(e.vertices, e.kappa.tolist()))}
    path = tmp_path / "box16.json"
    path.write_text(json.dumps(doc))
    src = str(pathlib.Path(ls.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", _THREAD_DIGESTS, str(path)],
                              capture_output=True, text=True, env=env, timeout=120, check=True)
        digests.append(json.loads(done.stdout))
    assert digests[0] == digests[1]


def test_walk_stops_on_a_flagged_vertex_or_the_cemetery():
    # a chain 0 -> 1 -> 2 -> cemetery (column 3), one entry per row
    table = (np.ones((3, 1)), [[1], [2], [3]], None)
    gen = ls.RngStream(0).generator
    assert _walk(gen, table, 0, [False] * 3) == ([0, 1, 2], 3)
    assert _walk(gen, table, 0, [False, False, True]) == ([0, 1], 2)
    assert _walk(gen, table, 0, [False, True, True]) == ([0], 1)


def test_walk_never_visits_a_flagged_vertex(k4c1):
    table, gen = _step_table(k4c1), ls.RngStream(4).generator
    stop = [False, False, True, False]
    for _ in range(200):
        path, end = _walk(gen, table, 0, stop)
        assert 2 not in path and end in (2, k4c1.n)


def test_walk_fails_to_end_within_the_step_bound(k4_rooted, monkeypatch):
    # a recurrent form's table has an empty cemetery column: with nothing
    # flagged, no walk ends
    monkeypatch.setattr(samplers, "MAX_STEPS", 50)
    with pytest.raises(GraphError, match="walk failed to end"):
        _walk(ls.RngStream(0).generator, _step_table(k4_rooted), 0, [False] * 4)
    # Wilson's branches walk under the same bound
    monkeypatch.setattr(samplers, "MAX_STEPS", 0)
    with pytest.raises(GraphError, match="walk failed to end"):
        ls.wilson_sample(k4_rooted, ls.RngStream(0), root="a")
    with pytest.raises(GraphError, match=r"^walk failed to end$"):
        _trees(k4_rooted, ls.RngStream(0).generator, "a", 3)


def test_wilson_requires_root_when_recurrent(k4_rooted):
    with pytest.raises(GraphError):
        ls.wilson_sample(k4_rooted, ls.RngStream(0))


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_soup_rejects_non_finite_alpha(p2, alpha):
    with pytest.raises(GraphError, match="alpha"):
        ls.sample_loop_soup(p2, alpha, ls.RngStream(0))
