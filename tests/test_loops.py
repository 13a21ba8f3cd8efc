import itertools
import math

import numpy as np
import pytest

import loopsoup as ls
from loopsoup import loops
from loopsoup.graph import GraphError
from loopsoup.loops import DiscreteLoop, _canonical_rotation


def based_walk_loops(e, k_max):
    """Reference enumerator: a DFS over the closed walks whose base is
    their least vertex, each rotation class kept once through its
    canonical rotation, in sorted order."""
    P = e.P
    found = {}

    def dfs(base, prefix):
        cur = prefix[-1]
        for nxt in range(base, e.n):
            if P[cur, nxt] <= 0:
                continue
            if nxt == base and len(prefix) >= 2:
                canon, r = _canonical_rotation(tuple(prefix))
                if canon not in found:
                    mass = 1.0
                    for i in range(len(prefix)):
                        mass *= P[prefix[i], prefix[(i + 1) % len(prefix)]]
                    found[canon] = mass / (len(prefix) // r)
            if len(prefix) < k_max:
                prefix.append(nxt)
                dfs(base, prefix)
                prefix.pop()

    for base in range(e.n):
        dfs(base, [base])
    return [(DiscreteLoop(canon), mass) for canon, mass in sorted(found.items())]


def test_mu_two_step(p2):
    assert ls.mu_discrete(p2, ["x", "y"]) == pytest.approx(0.25, abs=1e-12)


def test_mu_doubled_loop_divides_by_multiplicity(p2):
    # (x,y,x,y) traverses the period-2 pattern twice: (1/2)^4 / 2
    assert ls.mu_discrete(p2, ["x", "y", "x", "y"]) == pytest.approx(1 / 32, abs=1e-12)
    assert ls.mu_discrete(p2, ["x", "y"] * 3) == pytest.approx(1 / 192, abs=1e-12)


def test_mu_rotation_invariant(k4c1):
    assert ls.mu_discrete(k4c1, ["a", "b", "c"]) == pytest.approx(
        ls.mu_discrete(k4c1, ["b", "c", "a"]), abs=1e-15
    )


def test_mu_trivial_loop_rejected(p2):
    with pytest.raises(GraphError):
        ls.mu_discrete(p2, ["x"])


def test_mu_rejects_loops_that_are_not_vertex_indices(p2):
    for bad in (DiscreteLoop((0, 5)), DiscreteLoop(("x", "y")), DiscreteLoop((-1, 0))):
        with pytest.raises(GraphError, match="not indices"):
            ls.mu_discrete(p2, bad)
    with pytest.raises(GraphError, match="unknown vertex"):
        ls.mu_discrete(p2, ["x", "q"])


def test_discrete_loop_multiplicity():
    assert DiscreteLoop.from_sequence(["a", "b", "a", "b"]).multiplicity == 2
    assert DiscreteLoop.from_sequence(["a", "b", "c"]).multiplicity == 1


def test_total_mass_p2(p2):
    assert ls.mu_nontrivial_total(p2) == pytest.approx(np.log(4 / 3), abs=1e-12)


def test_total_mass_k4c1(k4c1):
    assert ls.mu_nontrivial_total(k4c1) == pytest.approx(np.log(256 / 125), abs=1e-12)


@pytest.mark.parametrize(
    "name, k_max",
    [(name, k) for name in ("p2", "v1", "k4c1", "k3_wreath", "mirror_p2") for k in range(11)]
    + [("k4c1", 12)],
)
def test_enumeration_matches_based_walk_reference(name, k_max):
    # same classes in the same order, masses equal bit for bit
    e = ls.load_energy_form(ls.fixture(name))
    loops, _ = ls.enumerate_loops(e, k_max)
    assert loops == based_walk_loops(e, k_max)


def test_enumeration_rejects_negative_length(p2, k3):
    for k_max in (-1, -3):
        with pytest.raises(GraphError, match="negative"):
            ls.enumeration_tail_bound(p2, k_max)
        with pytest.raises(GraphError, match="negative"):
            ls.enumerate_loops(p2, k_max)
        with pytest.raises(GraphError, match="negative"):
            ls.wreath_identity_sum(k3, 2, k_max)


def test_enumeration_masses_are_mu(k4c1):
    loops, _ = ls.enumerate_loops(k4c1, 6)
    for loop, mass in loops:
        assert mass == pytest.approx(ls.mu_discrete(k4c1, loop), rel=1e-12)


def test_enumerated_loops_are_canonical_when_names_are_not_sorted():
    # names out of index order: a loop is stored at its least rotation by
    # index, which from_sequence and mu_discrete must reproduce exactly
    C = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.5], [2.0, 0.5, 0.0]])
    e = ls.EnergyForm(["y", "x", "z"], C, [1.0, 0.3, 0.7])
    loops, _ = ls.enumerate_loops(e, 6)
    for loop, mass in loops:
        assert DiscreteLoop.from_sequence(loop.vertices) == loop
        assert ls.mu_discrete(e, loop) == mass
        assert ls.mu_discrete(e, [e.vertices[v] for v in loop.vertices]) == mass


def test_euler_product_vs_total(p2):
    # primitive loops only: sum over multiples of a primitive class p of
    # mass(p^m) = -log(1 - mass-rate); totals must agree with -log det(I-P)
    loops, tail = ls.enumerate_loops(p2, 14)
    prims = [(l, m) for l, m in loops if l.multiplicity == 1]
    euler = 0.0
    for loop, mass in prims:
        euler += -math.log1p(-mass * loop.multiplicity) if loop.p == 2 else mass
    # on P2 the only primitive class is (x,y) with rate 1/4
    assert euler == pytest.approx(-math.log(1 - 0.25), abs=1e-12)
    assert euler == pytest.approx(ls.mu_nontrivial_total(p2), abs=1e-12)


def test_alpha_permanent_small():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    # identity has 2 cycles, the swap 1: alpha^2*1*4 + alpha*2*3
    assert ls.alpha_permanent(M, 2.0) == pytest.approx(4 * 4 + 2 * 6)
    assert ls.alpha_permanent(M, 1.0) == pytest.approx(4 + 6)
    assert ls.alpha_permanent(M, 1.0, fixed_point_free=True) == pytest.approx(6)


def test_alpha_permanent_stirling_recurrence():
    # sum over permutations of alpha^{cycles} = alpha(alpha+1)...(alpha+k-1)
    for k in (2, 3, 4, 5):
        M = np.ones((k, k))
        expect = math.prod(0.7 + i for i in range(k))
        assert ls.alpha_permanent(M, 0.7) == pytest.approx(expect, rel=1e-12)


def test_occupation_moments_p2(p2):
    assert ls.occupation_moments(p2, 1.0, ["x", "y"]) == pytest.approx(5 / 9, abs=1e-12)
    # single-loop moment mu(l-hat^{x,y}) = G^{xy} G^{yx}
    assert ls.occupation_moments(p2, 1.0, ["x", "y"], kind="single_loop") == pytest.approx(
        1 / 9, abs=1e-12
    )


def test_occupation_laplace_p2(p2):
    val = ls.occupation_laplace(p2, 1.0, np.array([1.0, 1.0]))
    assert val == pytest.approx(3 / 8, abs=1e-9)


def test_occupation_laplace_alpha_power(p2):
    chi = np.array([0.5, 0.25])
    v1 = ls.occupation_laplace(p2, 1.0, chi)
    v2 = ls.occupation_laplace(p2, 2.0, chi)
    assert v2 == pytest.approx(v1 ** 2, rel=1e-9)


def test_edge_count_factorial_moments(p2):
    # mu(N(N-1)...(N-k+1)) = (k-1)! (G^{xy} C_{xy})^k with G^{xy}C = 1/3
    for k in (1, 2, 3):
        expect = math.factorial(k - 1) * (1 / 3) ** k
        assert ls.edge_count_moments(p2, ("x", "y"), k) == pytest.approx(expect, rel=1e-12)


def test_visit_count_p2(p2):
    assert ls.mu_visit_count(p2, "x") == pytest.approx(2 * (2 / 3) - 1, abs=1e-12)


def test_moments_read_one_green_per_form(k4c1, monkeypatch):
    calls, green = [], loops.green
    monkeypatch.setattr(loops, "green", lambda e: calls.append(e) or green(e))
    G = green(k4c1).G
    for _ in range(2):
        assert ls.occupation_moments(k4c1, 1.0, ["a", "b"]) == G[0, 0] * G[1, 1] + G[0, 1] ** 2
        assert ls.renormalized_power_moment(k4c1, "a", "b", 1, 1, 1.0) == G[0, 1] ** 2
        assert ls.mu_visit_count(k4c1, "a") == k4c1.lam[0] * G[0, 0] - 1.0
        assert ls.edge_count_moments(k4c1, ("a", "b"), 1) == G[0, 1] * k4c1.C[0, 1]
    assert calls == [k4c1]
    assert not loops._green_matrix(k4c1).flags.writeable


def enumeration_tail(e, k_max, k, scale):
    """Bound on the mu-mass of N(N-1)...(N-k+1) over the loops longer than
    k_max, for a count N <= scale * length.  The loops of length m weigh
    Tr(P^m)/m <= n rho^m/m, so the tail is at most n scale^k sum_{m > k_max}
    m^{k-1} rho^m, a series whose terms fall by at most
    r = rho ((k_max + 2)/(k_max + 1))^{k-1}.  At k = 1 it is (k_max + 1)
    times ls.enumeration_tail_bound."""
    rho = ls.spectral_radius(e)
    r = rho * ((k_max + 2) / (k_max + 1)) ** (k - 1)
    return e.n * scale**k * (k_max + 1) ** (k - 1) * rho ** (k_max + 1) / (1 - r)


def test_visit_and_traversal_counts_match_enumeration():
    # lambda = 5.7, 12.5, 5.2: the closed forms hold beyond constant lambda
    e = ls.load_energy_form({"vertices": ["a", "b", "c"], "edges": [["a", "b", 1], ["b", "c", 2.5], ["a", "c", 0.7]],
                             "killing": {"a": 4, "b": 9, "c": 2}})
    k_max = 14
    loops, tail = ls.enumerate_loops(e, k_max)
    assert enumeration_tail(e, k_max, 1, 1.0) == pytest.approx((k_max + 1) * tail, rel=1e-12)
    for x in e.vertices:
        exact = ls.mu_visit_count(e, x)
        enum = sum(mass * loop.vertices.count(e.index[x]) for loop, mass in loops)
        bound = enumeration_tail(e, k_max, 1, 1.0)
        assert bound < 1e-4 * exact
        assert 0 <= exact - enum <= bound
    for x, y in itertools.permutations(e.vertices, 2):
        i, j = e.index[x], e.index[y]
        for k in (1, 2, 3):
            # a loop of length m steps from x to y at most m/2 times
            exact, enum = ls.edge_count_moments(e, (x, y), k), 0.0
            for loop, mass in loops:
                v = loop.vertices
                n_xy = sum(v[t] == i and v[(t + 1) % loop.p] == j for t in range(loop.p))
                enum += mass * math.perm(n_xy, k)
            assert 0 <= exact - enum <= enumeration_tail(e, k_max, k, 0.5)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_renormalized_power_is_the_inline_q2_bit_for_bit(alpha):
    gen = np.random.default_rng(int(alpha * 10))
    sigma = gen.uniform(0.2, 3.0)
    c = gen.gamma(alpha, sigma, size=1000) - alpha * sigma
    inline = 0.5 * (c**2 - 2 * sigma * c - alpha * sigma**2)
    assert ls.renormalized_power(c, 2, alpha, sigma).tobytes() == inline.tobytes()
    assert ls.renormalized_power(c, 1, alpha, sigma).tobytes() == c.tobytes()
    assert np.array_equal(ls.renormalized_power(c, 0, alpha, sigma), np.ones_like(c))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("x, y", [("a", "-al"), ("a", "a"), ("al", "be")])
def test_renormalized_power_moment_is_the_permanent_expansion(alpha, x, y):
    from loopsoup.verify import exact_orth_covariance

    e = ls.load_energy_form(ls.fixture("counterexample"))  # lambda is 4 at the corners, 3 at the midpoints
    for k, l in itertools.product(range(3), repeat=2):
        closed = ls.renormalized_power_moment(e, x, y, k, l, alpha)
        assert closed == pytest.approx(exact_orth_covariance(e, x, y, k, l, alpha), abs=1e-12)


def test_renormalized_powers_stop_at_k_2(p2):
    from loopsoup.verify import exact_orth_covariance

    with pytest.raises(GraphError, match="k <= 2"):
        ls.renormalized_power(np.zeros(3), 3, 1.0, 0.5)
    with pytest.raises(GraphError, match="k <= 2"):
        exact_orth_covariance(p2, "x", "y", 3, 3, 1.0)


def test_hit_avoid_single_point(p2):
    mass, prob = ls.mu_hit_avoid(p2, ["x"], [], alpha=1.0)
    # P(no loop of the alpha=1 soup visits x) = 1/(lambda_x G^{xx}) = 3/4
    assert prob == pytest.approx(0.75, abs=1e-9)
    assert mass == pytest.approx(ls.mu_nontrivial_total(p2), abs=1e-12)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_hit_avoid_rejects_non_finite_alpha(p2, alpha):
    with pytest.raises(GraphError, match="alpha"):
        ls.mu_hit_avoid(p2, ["x"], [], alpha=alpha)


def test_hit_avoid_rejects_negative_alpha(p2):
    # exp(-alpha * mass) would be a "probability" above 1
    with pytest.raises(GraphError, match="alpha must be finite and nonnegative"):
        ls.mu_hit_avoid(p2, ["x"], [], alpha=-1.0)


def hit_avoid_reference(e, hit, avoid):
    """Reference mass: one log-determinant per subset of hit, in
    itertools.combinations order, summed exactly."""
    universe = [v for v in e.vertices if v not in set(avoid)]
    terms = []
    for r in range(len(hit) + 1):
        for S in itertools.combinations(hit, r):
            keep = e.indices([v for v in universe if v not in set(S)])
            if len(keep):
                sub = e.P[np.ix_(keep, keep)]
                terms.append((-1) ** r * -np.linalg.slogdet(np.eye(len(keep)) - sub)[1])
    return max(math.fsum(terms), 0.0)


@pytest.mark.parametrize("n_hit", [0, 1, 4, 12])
@pytest.mark.parametrize("n_avoid", [0, 1, 4])
def test_hit_avoid_equals_reference(n_hit, n_avoid):
    # (12, 4): the 12 hit vertices are all the vertices not avoided
    e = ls.load_energy_form(ls.fixture("counterexample"))
    order = np.random.default_rng(7 * n_hit + n_avoid).permutation(e.n)
    hit = [e.vertices[i] for i in order[:n_hit]]
    avoid = [e.vertices[i] for i in order[e.n - n_avoid:]]
    mass, prob = ls.mu_hit_avoid(e, hit, avoid, alpha=0.5)
    assert mass == hit_avoid_reference(e, hit, avoid)
    assert prob == float(np.exp(-0.5 * mass))


@pytest.mark.parametrize("seed", range(4))
def test_hit_avoid_mass_does_not_depend_on_hit_order(seed):
    # the terms cancel to a mass of order 1e-8: a float sum in hit order
    # moved it by up to 5e-5 relative when hit was reversed
    e = ls.load_energy_form(ls.fixture("counterexample"))
    order = np.random.default_rng([seed, 2]).permutation(e.n)
    hit, avoid = [e.vertices[i] for i in order[:12]], [e.vertices[order[12]]]
    mass, _ = ls.mu_hit_avoid(e, hit, avoid)
    shuffled = [hit[i] for i in np.random.default_rng(seed).permutation(12)]
    for permuted in (hit[::-1], shuffled):
        assert ls.mu_hit_avoid(e, permuted, avoid)[0] == mass


@pytest.mark.parametrize("hit, avoid", [(["x", "y"], []), (["x"], ["y"])])
def test_hit_avoid_hit_set_covers_the_rest(p2, hit, avoid):
    mass, _ = ls.mu_hit_avoid(p2, hit, avoid)
    assert mass == hit_avoid_reference(p2, hit, avoid)


@pytest.mark.parametrize("name, hit", [("p2", ["x", "x", "y"]), ("counterexample", ["a", "a", "b"])])
def test_hit_avoid_repeated_hit_vertex_counts_once(name, hit):
    # the reference sums every subset, repeats included, and they cancel
    e = ls.load_energy_form(ls.fixture(name))
    mass, _ = ls.mu_hit_avoid(e, hit, [])
    assert mass == pytest.approx(hit_avoid_reference(e, hit, []), rel=1e-9, abs=1e-12)
    assert mass == ls.mu_hit_avoid(e, list(dict.fromkeys(hit)), [])[0]


def test_hit_avoid_errors(p2, k4_rooted):
    cex = ls.load_energy_form(ls.fixture("counterexample"))
    with pytest.raises(GraphError, match="hit and avoid sets overlap"):
        ls.mu_hit_avoid(p2, ["x"], ["x", "y"])
    with pytest.raises(GraphError, match="hit set size 13 exceeds guard 12"):
        ls.mu_hit_avoid(cex, cex.vertices[:13], [])
    for hit in (["a"], []):
        with pytest.raises(GraphError, match="recurrent chain is infinite"):
            ls.mu_hit_avoid(k4_rooted, hit, [])
    mass, _ = ls.mu_hit_avoid(k4_rooted, ["a"], ["b"])
    assert mass == hit_avoid_reference(k4_rooted, ["a"], ["b"])


def test_hit_avoid_additivity(k4c1):
    # mu(hits a) + mu(avoids a) partitions the total mass
    hit, _ = ls.mu_hit_avoid(k4c1, ["a"], [])
    avoid = ls.mu_nontrivial_total(ls.restrict(k4c1, ["b", "c", "d"]))
    assert hit + avoid == pytest.approx(ls.mu_nontrivial_total(k4c1), abs=1e-12)


def test_cross_hitting_p2(p2):
    series, tail, logdet = ls.cross_hitting_series(p2, ["x"], ["y"])
    assert logdet == pytest.approx(np.log(4 / 3), abs=1e-12)
    assert abs(series - logdet) <= tail + 1e-12


def test_cross_hitting_k4c1(k4c1):
    series, tail, logdet = ls.cross_hitting_series(k4c1, ["a"], ["b"])
    assert abs(series - logdet) <= tail + 1e-12


def test_wreath_identity(k3):
    ns = {"a": 2, "b": 2, "c": 2}
    w = ls.build_wreath(k3, ns)
    total = ls.mu_nontrivial_total(w)
    approx, tail = ls.wreath_identity_sum(k3, ns, 14)
    assert abs(total - approx) <= tail + 1e-12


def test_spectral_radius_and_tail(p2):
    assert ls.spectral_radius(p2) == pytest.approx(0.5, abs=1e-12)
    assert ls.enumeration_tail_bound(p2, 14) == pytest.approx(
        2 * 0.5 ** 15 / (15 * 0.5), abs=1e-15
    )
