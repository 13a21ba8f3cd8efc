import numpy as np
import pytest

import loopsoup as ls


@pytest.fixture
def p2():
    return ls.load_energy_form(ls.fixture("p2"))


@pytest.fixture
def v1():
    return ls.load_energy_form(ls.fixture("v1"))


@pytest.fixture
def k4c1():
    return ls.load_energy_form(ls.fixture("k4c1"))


@pytest.fixture
def k4_rooted():
    return ls.load_energy_form(ls.fixture("k4_rooted"))


@pytest.fixture
def cube():
    return ls.load_energy_form(ls.fixture("cube"))


@pytest.fixture
def k3():
    return ls.load_energy_form(ls.fixture("k3_wreath"))


def random_energy_form(rng, n=4, transient=True):
    """Random connected weighted graph for property tests."""
    while True:
        C = np.triu(rng.uniform(0.2, 2.0, size=(n, n)) * (rng.random((n, n)) < 0.7), 1)
        C = C + C.T
        kappa = rng.uniform(0.1, 1.0, size=n) if transient else np.zeros(n)
        try:
            return ls.EnergyForm([f"v{i}" for i in range(n)], C, kappa)
        except ls.GraphError:
            continue


def killed_box(L, seed):
    """L x L box of Z^2 with U[0.5, 1.5] conductances, killed on its
    boundary (the edges that leave the box become killing)."""
    rng = np.random.default_rng(seed)
    idx = np.arange(L * L).reshape(L, L)
    C = np.zeros((L * L, L * L))
    for a, b in ((idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])):
        C[a.ravel(), b.ravel()] = C[b.ravel(), a.ravel()] = rng.uniform(0.5, 1.5, size=a.size)
    exits = np.zeros((L, L))
    for side in (exits[0], exits[-1], exits[:, 0], exits[:, -1]):
        side += rng.uniform(0.5, 1.5, size=L)
    return ls.EnergyForm([str(i) for i in range(L * L)], C, exits.ravel())
