import os

# One BLAS thread for the whole session, as perfbench/run.py sets it, before
# numpy loads: LAPACK's potri (G's diagonal blocks) and the soup sampler's
# eigh return different last bits at different thread counts, and the golden
# digests pin exact values bit for bit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
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


def shuffled_box(L, seed):
    """killed_box(L, seed) with its vertices shuffled, and the neighbours 0
    and 1 put first and last: the half-bandwidth is n - 1."""
    e = killed_box(L, seed)
    rest = np.random.default_rng(seed).permutation(np.arange(2, e.n))
    order = np.concatenate(([0], rest, [1]))
    return ls.EnergyForm([e.vertices[i] for i in order], e.C[np.ix_(order, order)], e.kappa[order])


def edge_one_form(e, seed):
    """A seeded antisymmetric one-form, uniform on [-pi, pi] on each edge
    of e and zero off them."""
    W = np.triu(np.random.default_rng(seed).uniform(-np.pi, np.pi, (e.n, e.n)), 1) * (e.C > 0)
    return W - W.T
