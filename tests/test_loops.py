import math

import numpy as np
import pytest

import loopsoup as ls
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


def test_hit_avoid_single_point(p2):
    mass, prob = ls.mu_hit_avoid(p2, ["x"], [], alpha=1.0)
    # P(no loop of the alpha=1 soup visits x) = 1/(lambda_x G^{xx}) = 3/4
    assert prob == pytest.approx(0.75, abs=1e-9)
    assert mass == pytest.approx(ls.mu_nontrivial_total(p2), abs=1e-12)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_hit_avoid_rejects_non_finite_alpha(p2, alpha):
    with pytest.raises(GraphError, match="alpha"):
        ls.mu_hit_avoid(p2, ["x"], [], alpha=alpha)


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
