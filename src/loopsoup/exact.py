"""Deterministic linear algebra: Green functions, potentials, transfer
matrices, hitting kernels, capacities and twisted partition functions.

Everything here is a closed-form determinant or inverse of the energy
matrix M_lambda - C; samplers and Monte Carlo checks live elsewhere.
"""

from dataclasses import dataclass

import numpy as np

from .graph import GraphError, restrict

__all__ = [
    "GreenBundle",
    "TransferMatrix",
    "green",
    "green_chi",
    "recurrent_green",
    "transfer_matrix",
    "hitting_kernel",
    "capacity",
    "twisted_green",
    "partition_ratio",
]


@dataclass(frozen=True)
class GreenBundle:
    """Green matrix of a transient chain together with log-determinants.

    logdet_G = log det(G) and logdet_IminusP = log det(I-P); they satisfy
    -log det(I-P) = log(det(G) * prod lambda_x).
    """

    vertices: tuple
    G: np.ndarray
    logdet_G: float
    logdet_IminusP: float
    G_chi: np.ndarray | None = None

    @property
    def detG(self):
        return float(np.exp(self.logdet_G))

    def entry(self, x, y):
        index = {v: i for i, v in enumerate(self.vertices)}
        return float(self.G[index[x], index[y]])

    def to_dict(self):
        return {
            "vertices": list(self.vertices),
            "G": self.G.tolist(),
            "logdet_G": self.logdet_G,
            "logdet_IminusP": self.logdet_IminusP,
        }


@dataclass(frozen=True)
class TransferMatrix:
    edges: tuple  # oriented edges, pairs of vertex names
    K: np.ndarray


def _logdet_posdef(A):
    with np.errstate(invalid="ignore"):
        sign, logdet = np.linalg.slogdet(A)
    # written so that a NaN sign or log-det fails the test
    if not (sign > 0 and np.isfinite(logdet)):
        raise GraphError("matrix is numerically singular or not positive definite")
    return logdet


def green(e, chi=None):
    """Green function G = (M_lambda - C)^{-1} of a transient chain.

    With chi, also stores G_chi = (M_lambda + M_chi - C)^{-1}.
    """
    if not e.transient:
        raise GraphError("Green function requires a transient chain (some killing)")
    L = e.laplacian()
    G = np.linalg.inv(L)
    logdet_G = -_logdet_posdef(L)
    # log det(I-P) = log det(M_lambda - C) - sum log lambda
    logdet_IminusP = -logdet_G - float(np.log(e.lam).sum())
    G_chi = None
    if chi is not None:
        G_chi = green_chi(e, chi)
    return GreenBundle(e.vertices, G, logdet_G, logdet_IminusP, G_chi)


def green_chi(e, chi):
    """G_chi = (M_lambda + M_chi - C)^{-1} (Feynman-Kac perturbation)."""
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (e.n,):
        raise GraphError("chi must be a per-vertex measure")
    if np.any(chi < 0):
        raise GraphError("chi must be nonnegative")
    if not e.transient and not np.any(chi > 0):
        raise GraphError("recurrent chain needs a nonzero chi")
    return np.linalg.inv(e.laplacian() + np.diag(chi))


def recurrent_green(e, nu):
    """Green operator of a recurrent chain applied to a charge-zero measure.

    Returns the unique f with (M_lambda - C) f = nu and <f, lambda> = 0.
    """
    if e.transient:
        raise GraphError("recurrent Green operator requires a recurrent chain")
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (e.n,):
        raise GraphError("nu must be a per-vertex measure")
    if abs(nu.sum()) > 1e-12 * max(1.0, np.abs(nu).max()):
        raise GraphError("nu must have total charge zero")
    f = np.linalg.pinv(e.laplacian()) @ nu
    f -= (f @ e.lam) / e.lam.sum()
    return f


def _green_matrix_for_edges(e, root):
    """Green matrix used by the transfer matrix: G itself when transient,
    the chain killed at the root (extended by zeros) when recurrent."""
    if e.transient:
        if root is not None:
            raise GraphError("root only applies to recurrent chains")
        return green(e).G
    if root is None:
        raise GraphError("recurrent chain needs a root for the transfer matrix")
    keep = [v for v in e.vertices if v != root]
    if len(keep) == e.n:
        raise GraphError(f"unknown root {root!r}")
    idx = e.indices(keep)
    G = np.zeros((e.n, e.n))
    G[np.ix_(idx, idx)] = np.linalg.inv(restrict(e, keep).laplacian())
    return G


def transfer_matrix(e, edges, root=None):
    """K^{(x,y),(u,v)} = G^{x,u} + G^{y,v} - G^{x,v} - G^{y,u} over the
    given oriented edges.  For recurrent chains G is taken rooted; the
    result does not depend on the root."""
    edges = [tuple(edge) for edge in edges]
    for x, y in edges:
        if x == y:
            raise GraphError(f"degenerate edge ({x!r}, {x!r})")
        if e.C[e.index[x], e.index[y]] <= 0:
            raise GraphError(f"edge ({x!r}, {y!r}) has zero conductance")
    G = _green_matrix_for_edges(e, root)
    ix = e.indices([x for x, _ in edges])
    iy = e.indices([y for _, y in edges])
    K = G[np.ix_(ix, ix)] + G[np.ix_(iy, iy)] - G[np.ix_(ix, iy)] - G[np.ix_(iy, ix)]
    return TransferMatrix(tuple(edges), K)


def hitting_kernel(e, F):
    """Balayage (Poisson) kernel H^F: rows over all vertices, columns F.

    [H^F]^x_y = 1_{x=y} on F; for x outside F it is the distribution of
    the hitting point of F, sum_b [G^D]^{x,b} C_{b,y} with D = F^c.
    """
    F = list(F)
    if not F:
        raise GraphError("hitting kernel of the empty set")
    idxF = e.indices(F)
    comp = np.setdiff1d(np.arange(e.n), idxF)
    H = np.zeros((e.n, len(F)))
    H[idxF, np.arange(len(F))] = 1.0
    if comp.size:
        eD = restrict(e, [e.vertices[i] for i in comp])
        GD = np.linalg.inv(eD.laplacian())
        H[comp, :] = GD @ e.C[np.ix_(comp, idxF)]
    return H


def capacity(e, F):
    """Cap(F) = <kappa H^F, 1> = e(H^F 1, H^F 1); both are computed and
    must agree."""
    if not e.transient:
        raise GraphError("capacity requires a transient chain")
    H = hitting_kernel(e, F)
    h = H.sum(axis=1)  # the capacitary potential, = 1 on F
    cap_measure = float(e.kappa @ h)
    cap_energy = float(h @ e.laplacian() @ h)
    if abs(cap_measure - cap_energy) > 1e-9 * max(1.0, abs(cap_measure)):
        raise GraphError("capacity formulas disagree beyond tolerance")
    return cap_measure


def _omega_matrix(e, omega):
    """Normalize a one-form to a dense antisymmetric matrix."""
    if isinstance(omega, dict):
        W = np.zeros((e.n, e.n))
        for (x, y), w in omega.items():
            i, j = e.index[x], e.index[y]
            W[i, j] = w
            W[j, i] = -w
        return W
    W = np.asarray(omega, dtype=float)
    if W.shape != (e.n, e.n):
        raise GraphError("one-form must be an n x n antisymmetric matrix")
    if np.any(np.abs(W + W.T) > 1e-12 * max(1.0, np.abs(W).max())):
        raise GraphError("one-form is not antisymmetric")
    return W


def twisted_green(e, omega, steps=16):
    """Green function twisted by a one-form and the branch-tracked log Z.

    G^{(omega)} = (M_lambda - C e^{i omega})^{-1}.  log Z follows the
    continuous branch along the homotopy t -> t*omega from the real value
    at t=0; the phase is unwrapped with adaptive step refinement.
    """
    if not e.transient:
        raise GraphError("twisted Green function requires a transient chain")
    W = _omega_matrix(e, omega)
    L0 = e.laplacian()

    def logdet_at(t):
        A = np.diag(e.lam) - e.C * np.exp(1j * t * W)
        sign, logabs = np.linalg.slogdet(A)
        return logabs, np.angle(sign)

    while True:
        ts = np.linspace(0.0, 1.0, steps + 1)
        raw = [logdet_at(t) for t in ts]
        phases = np.empty(steps + 1)
        phases[0] = raw[0][1]  # real positive determinant at t=0
        ok = True
        for j in range(1, steps + 1):
            d = raw[j][1] - phases[j - 1]
            d -= 2 * np.pi * np.round(d / (2 * np.pi))
            if abs(d) > np.pi / 2:
                ok = False
                break
            phases[j] = phases[j - 1] + d
        if ok:
            break
        steps *= 2
        if steps > 4096:
            raise GraphError("branch tracking failed to converge")
    logdet = raw[-1][0] + 1j * phases[-1]
    G_omega = np.linalg.inv(np.diag(e.lam) - e.C * np.exp(1j * W))
    log_Z = -logdet  # Z_{e,omega} = det(G^{(omega)})
    if np.allclose(W, 0):
        log_Z = complex(-_logdet_posdef(L0))
    return G_omega, log_Z


def partition_ratio(e, e2, omega=None, alpha=1.0):
    """(Z_{e2,omega} / Z_e)^alpha on the continuous branch."""
    if e.vertices != e2.vertices:
        raise GraphError("energy forms must share the vertex set")
    if np.any((e2.C > 0) & (e.C == 0)):
        raise GraphError("conductance support of e2 must lie inside that of e")
    if omega is None:
        omega = np.zeros((e.n, e.n))
    _, log_Z2 = twisted_green(e2, omega)
    log_Z1 = -_logdet_posdef(e.laplacian())
    return complex(np.exp(alpha * (log_Z2 - log_Z1)))
