"""Deterministic linear algebra: Green functions, potentials, transfer
matrices, hitting kernels, capacities and twisted partition functions.

Everything here is a closed-form determinant or inverse of the energy
matrix M_lambda - C = R R^T, whose Cholesky factor R (_factor) is taken
once per form; samplers and Monte Carlo checks live elsewhere.

Every determinant here is real and positive, so _logdet_posdef is the one
log-determinant.  For a transient chain and an antisymmetric one-form
omega, A = M_lambda - C e^{i omega} is Hermitian, and |x* (C e^{i omega}) x|
<= |x|^T C |x| gives x* A x >= |x|^T (M_lambda - C) |x| > 0: A is positive
definite, so log det A is real and has no branch to track.
"""

import weakref
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotri

from .graph import GraphError, _inv, restrict

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
    """log det A of a real or Hermitian matrix whose determinant must be
    real and positive; GraphError otherwise (singular, sign not 1, NaN)."""
    with np.errstate(invalid="ignore"):
        sign, logdet = np.linalg.slogdet(A)
    # a NaN sign or log-det fails this test; rounding leaves the sign of a
    # Hermitian positive definite matrix within 1e-8 of 1
    if not (abs(sign - 1) < 1e-8 and np.isfinite(logdet)):
        raise GraphError("matrix is numerically singular or not positive definite")
    return logdet


_FACTORS = weakref.WeakKeyDictionary()


def _factor(e):
    """Read-only lower Cholesky factor R R^T = M_lambda - C of a transient
    form, taken once per form; GraphError if there is none or it is not finite."""
    R = _FACTORS.get(e)
    if R is None:
        if not e.transient:
            raise GraphError("Green function requires a transient chain (some killing)")
        try:
            R = np.linalg.cholesky(e.laplacian())
        except np.linalg.LinAlgError as err:
            raise GraphError("energy matrix is not numerically positive definite") from err
        # a NaN or inf in row i of R reaches R_ii = sqrt(A_ii - sum_j R_ij^2)
        if not np.isfinite(np.diagonal(R)).all():
            raise GraphError("energy matrix is not finite")
        R.setflags(write=False)
        _FACTORS[e] = R
    return R


def green(e):
    """Green function G = (M_lambda - C)^{-1} of a transient chain, from its
    Cholesky factor R: log det G = -2 sum log R_ii, and LAPACK potri fills
    one triangle of G, mirrored into the other.  The caller owns G."""
    R = _factor(e)
    logdet_G = -2.0 * float(np.log(np.diagonal(R)).sum())
    G = dpotri(R.T)[0].T  # potri on the upper factor R.T: G is C-ordered, lower triangle set
    for j in range(e.n - 1):
        G[j, j + 1 :] = G[j + 1 :, j]
    # log det(I-P) = log det(M_lambda - C) - sum log lambda
    logdet_IminusP = -logdet_G - float(np.log(e.lam).sum())
    return GreenBundle(e.vertices, G, logdet_G, logdet_IminusP)


def green_chi(e, chi):
    """G_chi = (M_lambda + M_chi - C)^{-1} (Feynman-Kac perturbation)."""
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (e.n,):
        raise GraphError("chi must be a per-vertex measure")
    if not np.all(np.isfinite(chi)):
        raise GraphError("chi must be finite")
    if np.any(chi < 0):
        raise GraphError("chi must be nonnegative")
    if not e.transient and not np.any(chi > 0):
        raise GraphError("recurrent chain needs a nonzero chi")
    return _inv(e.laplacian() + np.diag(chi), "energy matrix is singular: some component is never killed")


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
    G[np.ix_(idx, idx)] = _inv(restrict(e, keep).laplacian(), "some component never reaches the root")
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
        GD = _inv(eD.laplacian())
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
            i, j = e.indices((x, y))
            W[i, j] = w
            W[j, i] = -w
    else:
        W = np.asarray(omega, dtype=float)
        if W.shape != (e.n, e.n):
            raise GraphError("one-form must be an n x n antisymmetric matrix")
    if not np.all(np.isfinite(W)):
        raise GraphError("one-form must be finite")
    if np.any(np.abs(W + W.T) > 1e-12 * max(1.0, np.abs(W).max())):
        raise GraphError("one-form is not antisymmetric")
    return W


def twisted_green(e, omega):
    """Green function twisted by a one-form, and log Z.

    G^{(omega)} = A^{-1} with A = M_lambda - C e^{i omega}, and
    log Z = -log det A = log(Z_{e,omega}).  A is Hermitian and positive
    definite (see the module docstring), so log Z is real: a loop and its
    reversal carry the same mass and opposite holonomy.
    """
    if not e.transient:
        raise GraphError("twisted Green function requires a transient chain")
    W = _omega_matrix(e, omega)
    A = np.diag(e.lam) - e.C * np.exp(1j * W)
    log_Z = complex(-_logdet_posdef(A))
    return np.linalg.inv(A), log_Z


def partition_ratio(e, e2, omega=None, alpha=1.0):
    """(Z_{e2,omega} / Z_e)^alpha, real and positive: both partition
    functions are positive determinants (see the module docstring)."""
    if e.vertices != e2.vertices:
        raise GraphError("energy forms must share the vertex set")
    if np.any((e2.C > 0) & (e.C == 0)):
        raise GraphError("conductance support of e2 must lie inside that of e")
    if not np.isfinite(alpha):
        raise GraphError("alpha must be finite")
    if omega is None:
        omega = np.zeros((e.n, e.n))
    _, log_Z2 = twisted_green(e2, omega)
    log_Z1 = -_logdet_posdef(e.laplacian())
    return complex(np.exp(alpha * (log_Z2 - log_Z1)))
