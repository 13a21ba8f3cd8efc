import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopsoup as ls
from loopsoup import zeta


def _dfs_counts(e, m_max):
    """Reference counts: a DFS over every non-backtracking walk from every
    base, which is exponential in m_max."""
    A = e.C
    neighbors = [np.nonzero(A[i])[0].tolist() for i in range(e.n)]
    N = [0] * (m_max + 1)
    L = [0] * (m_max + 1)

    def walk(base, first, prev, cur, depth):
        for nxt in neighbors[cur]:
            if nxt == prev:
                continue
            d = depth + 1
            if nxt == base and d >= 2:
                L[d] += 1
                if cur != first:
                    N[d] += 1
            if d < m_max:
                walk(base, first, cur, nxt, d)

    for base in range(e.n):
        for start in neighbors[base]:
            walk(base, start, base, start, 1)
    return N[1:], L[1:]


def _unit_form(n, edges):
    C = np.zeros((n, n))
    for i, j in edges:
        C[i, j] = C[j, i] = 1.0
    return ls.EnergyForm([f"v{i}" for i in range(n)], C, np.ones(n), require_connected=False)


def _torus(m):
    edges = [(i * m + j, i * m + (j + 1) % m) for i in range(m) for j in range(m)]
    edges += [(i * m + j, ((i + 1) % m) * m + j) for i in range(m) for j in range(m)]
    return _unit_form(m * m, edges)


@pytest.mark.parametrize("name", ["p2", "v1", "single_edge", "k4_rooted", "cube", "torus3", "torus4"])
def test_counts_equal_dfs(name):
    e = _torus(int(name[-1])) if name.startswith("torus") else ls.load_energy_form(ls.fixture(name))
    for m_max in range(11):
        counts = ls.non_backtracking_counts(e, m_max)
        assert counts == _dfs_counts(e, m_max)
        assert all(type(c) is int for c in counts[0] + counts[1])


@given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.integers(0, 10))
@settings(deadline=None, max_examples=100)
def test_counts_equal_dfs_on_random_graphs(n, seed, density, m_max):
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    e = _unit_form(n, [p for p in pairs if rng.random() < density])
    # keep the DFS reference small: it lists every walk
    branching = max(1.0, e.C.sum(axis=1).max() - 1)
    while m_max > 2 and e.C.sum() * branching ** (m_max - 1) > 2e5:
        m_max -= 1
    assert ls.non_backtracking_counts(e, m_max) == _dfs_counts(e, m_max)


def test_high_degree_star_counts_zero():
    # a tree has no geodesic loops; an a-priori int64 bound on the walk
    # count 2|E| (d_max - 1)^(m_max - 1) would reject this star
    n = 201
    e = _unit_form(n, [(0, i) for i in range(1, n)])
    assert ls.non_backtracking_counts(e, 10) == ([0] * 10, [0] * 10)


def test_counts_exact_until_int64_overflow(k4_rooted, monkeypatch):
    # past the length guard, K4's counts reach int64: L_62 is 0.75 * 2^63
    monkeypatch.setattr(zeta, "ENUM_M_MAX_GUARD", 100)
    N, _ = ls.non_backtracking_counts(k4_rooted, 62)
    Q, _ = zeta.line_graph_operator(k4_rooted)
    Q = Q.astype(int).astype(object)
    power = np.eye(len(Q), dtype=int).astype(object)
    traces = []
    for _ in range(62):
        power = power.dot(Q)
        traces.append(int(np.trace(power)))
    assert N == traces
    with pytest.raises(ls.GraphError, match="length 63 overflow int64"):
        ls.non_backtracking_counts(k4_rooted, 63)


def test_counts_negative_length_rejected(cube):
    with pytest.raises(ls.GraphError, match=r"series length m_max = -3 is negative"):
        ls.non_backtracking_counts(cube, -3)


def test_counts_length_guard(cube):
    with pytest.raises(ls.GraphError, match="exceeds enumeration guard 10"):
        ls.non_backtracking_counts(cube, 11)


def test_k4_counts(k4_rooted):
    r = ls.zeta_ihara(k4_rooted, [0.1], 8)
    assert r.N[2] == 24  # N_3
    assert r.N[0] == r.N[1] == 0
    assert r.chi == 6 - 4  # |E| - |X|


def test_cube_counts(cube):
    r = ls.zeta_ihara(cube, [0.1], 8)
    assert r.N[3] == 48  # N_4
    assert all(r.N[m] == 0 for m in (0, 1, 2, 4))  # bipartite: no odd geodesics


def test_counts_match_enumeration(k4_rooted, cube):
    for e in (k4_rooted, cube):
        r = ls.zeta_ihara(e, [0.05], 8)
        N_enum, L_enum = ls.non_backtracking_counts(e, 8)
        assert tuple(N_enum) == tuple(r.N)
        assert tuple(L_enum) == tuple(r.L)


@pytest.mark.parametrize("m_max", [0, 1, 2])
def test_short_series_match_enumeration(k4_rooted, m_max):
    r = ls.zeta_ihara(k4_rooted, [0.05], m_max)
    N_enum, L_enum = ls.non_backtracking_counts(k4_rooted, m_max)
    assert (tuple(r.N), tuple(r.L)) == (tuple(N_enum), tuple(L_enum))


def test_negative_series_length_rejected(cube):
    with pytest.raises(ls.GraphError):
        ls.zeta_ihara(cube, [0.05], -1)


def test_grid_values_agree(k4_rooted):
    r = ls.zeta_ihara(k4_rooted, [0.05, 0.15, 0.25], 12)
    for u, iz_vertex, iz_line, iz_series in r.grid:
        assert iz_vertex == pytest.approx(iz_line, rel=1e-9)
        assert iz_series == pytest.approx(iz_vertex, rel=1e-3)


def test_single_edge_trivial_zeta():
    e = ls.load_energy_form(ls.fixture("single_edge"))
    r = ls.zeta_ihara(e, [0.3], 6)
    assert all(n == 0 for n in r.N)
    for u, iz_vertex, iz_line, iz_series in r.grid:
        assert iz_vertex == pytest.approx(1.0, abs=1e-12)


def test_zeta_on_weighted_graph_uses_adjacency_support(k4c1):
    # killing and conductance values do not enter the combinatorial zeta
    r1 = ls.zeta_ihara(k4c1, [0.1], 6)
    kr = ls.load_energy_form(ls.fixture("k4_rooted"))
    r2 = ls.zeta_ihara(kr, [0.1], 6)
    assert tuple(r1.N) == tuple(r2.N)
