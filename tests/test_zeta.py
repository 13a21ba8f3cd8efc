import pytest

import loopsoup as ls


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
