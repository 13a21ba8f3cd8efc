"""Deterministic linear algebra: Green functions, potentials, transfer
matrices, hitting kernels, capacities and twisted partition functions.

Everything here is a closed-form determinant or inverse of the energy
matrix M_lambda - C = R R^T, whose Cholesky factor R (_factor) is taken
once per form and kept in it (graph.per_form); samplers and Monte Carlo
checks live elsewhere.  Every Green function, of the form or of a derived
chain (killed outside D, with chi added to its killing, or a recurrent
chain killed at its root), is green() of that chain's EnergyForm, so it
comes from that chain's factor.

R vanishes more than the half-bandwidth b below its diagonal (a killed
L x L box numbered row by row has b = L), so _factor keeps only its band:
_band_factor builds the (b + 1) x n band of M_lambda - C from the form's
nonzero pattern and LAPACK dpbtrf factors it, in O(n b^2) work, and no
n x n factor is formed.  log det G is read from the band's first row, R's
diagonal.  green() works along the band (_green_band): cut into blocks of
rows at least as tall as the band is wide, R is block lower-bidiagonal, and
G follows block row by block row from the last one, in O(n^2 b) work.  A
form of at most 32 vertices, or one whose band fills its matrix, is a
single block: its G is LAPACK potri of R.

For a transient chain and an antisymmetric one-form omega,
A = M_lambda - C e^{i omega} is Hermitian, and |x* (C e^{i omega}) x|
<= |x|^T C |x| gives x* A x >= |x|^T (M_lambda - C) |x| > 0: A is positive
definite, so log det A is real and has no branch to track.  A has the
form's nonzero pattern, so the same band serves it: _band_factor factors
its complex band by zpbtrf (once per call, as A depends on omega),
twisted_green runs _green_band on that band, and log Z = -log det A is read
from its diagonal, as is log Z of partition_ratio.

The other determinants here are real and positive, and _logdet_posdef
takes them by dense LU (slogdet): those of small matrices, and two that
verify_energy_variation differences.  loops.mu_nontrivial_total keeps the
LU log-det of the energy matrix, since the band's log-det moves that
suite's central difference in kappa_x past its 1e-12 Richardson check, and
the suite's Schwinger second difference takes the LU log-det of
M_lambda - C + s 1_x + t 1_y in the same way.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.lapack import dpbtrf, zpbtrf

from .graph import EnergyForm, GraphError, _root_index, per_form, restrict

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
    """log det A of a real matrix (or of each of a stack) by LU, whose
    determinant must be positive; GraphError otherwise."""
    with np.errstate(invalid="ignore"):
        sign, logdet = np.linalg.slogdet(A)
    # a NaN sign or log-det fails this test; a real matrix's sign is exactly 1, -1 or 0
    if not np.all((sign == 1) & np.isfinite(logdet)):
        raise GraphError("matrix is numerically singular or not positive definite")
    return logdet


def _band_factor(e, omega=None):
    """Lower Cholesky factor R R^H = A of the energy matrix A = M_lambda - C
    of a transient form, or of the twisted A = M_lambda - C e^{i omega} given
    an antisymmetric n x n one-form omega, in LAPACK band storage: the
    (b + 1) x n array ab, b = _bandwidth(e), with ab[i - j, j] = R_ij, so
    ab[0] is the diagonal of R.  The band of A is built from the form's
    nonzero pattern and lambda, and factored by dpbtrf (real) or zpbtrf
    (Hermitian); no n x n array is formed.  GraphError if there is no
    factor or it is not finite."""
    if not e.transient:
        raise GraphError("Green function requires a transient chain (some killing)")
    rows, cols = e.nonzero
    lower = rows > cols
    rows, cols = rows[lower], cols[lower]
    off = -e.C[rows, cols] if omega is None else -e.C[rows, cols] * np.exp(1j * omega[rows, cols])
    ab = np.zeros((_bandwidth(e) + 1, e.n), off.dtype, order="F")  # Fortran order: pbtrf factors it in place
    ab[0] = e.lam
    ab[rows - cols, cols] = off
    ab, info = (dpbtrf if omega is None else zpbtrf)(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise GraphError("energy matrix is not numerically positive definite: some component is never killed")
    # a NaN or inf in row i of R reaches R_ii = sqrt(A_ii - sum_j |R_ij|^2)
    if not np.isfinite(ab[0]).all():
        raise GraphError("energy matrix is not finite")
    return ab


@per_form
def _factor(e):
    """The read-only real band factor _band_factor(e), taken once per form."""
    ab = _band_factor(e)
    ab.setflags(write=False)
    return ab


def _logdet_inverse(ab):
    """log det A^{-1} = -2 sum log R_ii of A = R R^H, from the diagonal of
    its band factor ab alone."""
    return -2.0 * float(np.log(ab[0].real).sum())


def _logdet_green(e):
    """log det G, from the form's factor."""
    return _logdet_inverse(_factor(e))


@per_form
def _bandwidth(e):
    """Half-bandwidth b, the largest i - j over C_ij != 0 (0 without
    edges), read from the form's nonzero pattern: the energy matrix and its
    factor R vanish more than b below the diagonal."""
    rows, cols = e.nonzero
    return int((rows - cols).max(initial=0))


def _band_block(ab, a, c, d):
    """R[a:d, a:c] as a dense array, read from a band ab of _band_factor:
    green()'s diagonal block D_k = R[a:c, a:c] over E_{k+1} = R[c:d, a:c].
    Column j of R[a:, a:c] is ab[:, a + j] shifted down j rows, so the band's
    columns are written as the rows of a buffer one entry wider than the
    block is tall, which read at the block's own width is R[a:d, a:c]^T.  The
    entries this pushes past row d - a are the band's unused trailing ones,
    zero, and land above R's diagonal or outside the block."""
    m, w = c - a, d - a
    band = ab[: w + 1, a:c]
    flat = np.zeros(m * (w + 1), ab.dtype)
    flat.reshape(m, w + 1)[:, : len(band)] = band.T
    return flat[: m * w].reshape(m, w).T


def _block_rows(e):
    """Rows per block of green(): s = max(b + 1, 32), b = _bandwidth(e)."""
    return max(_bandwidth(e) + 1, 32)


def _green_band(e, ab):
    """A^{-1} of the real or Hermitian energy matrix A = R R^H of the form e,
    by block back-substitution along the band ab = R of _band_factor.

    The rows are cut into blocks of s = _block_rows(e) = max(b + 1, 32),
    b = _bandwidth(e).  R vanishes more than b below its diagonal and
    s >= b, so R is block lower-bidiagonal: D_k = R[k,k], E_k = R[k,k-1]
    and zero blocks elsewhere.  R^H G = R^{-1} is lower triangular with
    diagonal blocks D_k^{-1}, so its block row k gives, from the last block
    up and with W = D_k^{-H} E_{k+1}^H,

        G[k,>k] = -W G[k+1,>k],    G[k,k] = potri(D_k) + W G[k+1,k+1] W^H,

    where potri(D) = (D D^H)^{-1}; the recurrence reads G only on and above
    its diagonal blocks.  The lower triangle of G[k,k] is copied into its
    upper one with its diagonal made real, and after the last block each
    G[k,>k] into G[>k,k], so G is exactly Hermitian.  The work is O(n^2 s),
    against O(n^3) for potri of R.  D_k and E_{k+1} are read from the band by
    _band_block.  LAPACK potri and trtrs are taken for the band's dtype and
    called on upper factors, potri on D_k^H and trtrs on D_k^T (it solves
    D_k^T conj(W) = E_{k+1}^T): the order in which a real G's bits are
    pinned.  A form with n <= s (every form of at most 32 vertices, and any
    whose band fills the matrix) is one block, and its G is LAPACK potri of
    R itself.
    """
    n = e.n
    s = _block_rows(e)
    potri, trtrs = get_lapack_funcs(("potri", "trtrs"), (ab,))
    G = np.empty((n, n), ab.dtype) if n > s else None
    for a in range(s * ((n - 1) // s), -1, -s):
        c, d = min(a + s, n), min(a + 2 * s, n)
        Bt = _band_block(ab, a, c, d).T  # [D_k^T, E_{k+1}^T]
        Gkk = potri(Bt[:, : c - a].conj())[0].T.conj()  # potri on the upper factor D_k^H: lower triangle set
        if c < n:
            W = trtrs(Bt[:, : c - a], Bt[:, c - a :])[0].conj()
            WG = W @ G[c:d, c:]
            np.negative(WG, out=G[a:c, c:])
            Gkk += WG[:, : d - c] @ W.conj().T
        i, j = np.tril_indices(c - a, -1)
        Gkk[j, i] = Gkk[i, j].conj()
        np.fill_diagonal(Gkk, Gkk.diagonal().real)
        if G is None:  # one block: G is potri's own output
            G = Gkk
        else:
            G[a:c, a:c] = Gkk
    for a in range(0, n - s, s):
        G[a + s :, a : a + s] = G[a : a + s, a + s :].conj().T
    return G


def green(e):
    """Green function G = (M_lambda - C)^{-1} of a transient chain, from its
    memoised Cholesky factor R by _green_band; log det G is _logdet_green.
    The caller owns G."""
    G = _green_band(e, _factor(e))
    logdet_G = _logdet_green(e)
    # log det(I-P) = log det(M_lambda - C) - sum log lambda
    logdet_IminusP = -logdet_G - float(np.log(e.lam).sum())
    return GreenBundle(e.vertices, G, logdet_G, logdet_IminusP)


def _chi_form(e, chi):
    """The chain with the measure chi added to its killing (Feynman-Kac
    perturbation), after checking chi."""
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (e.n,):
        raise GraphError("chi must be a per-vertex measure")
    if not np.all(np.isfinite(chi)):
        raise GraphError("chi must be finite")
    if np.any(chi < 0):
        raise GraphError("chi must be nonnegative")
    if not e.transient and not np.any(chi > 0):
        raise GraphError("recurrent chain needs a nonzero chi")
    return EnergyForm(e.vertices, e.C, e.kappa + chi, validate=False)


def green_chi(e, chi):
    """G_chi = (M_lambda + M_chi - C)^{-1} (Feynman-Kac perturbation)."""
    return green(_chi_form(e, chi)).G


def recurrent_green(e, nu):
    """Green operator of a recurrent chain applied to a charge-zero measure.

    Returns the unique f with (M_lambda - C) f = nu and <f, lambda> = 0.
    The chain killed at the first vertex solves the equation off that
    vertex, and so at it too: the rows of M_lambda - C and nu sum to zero.
    """
    if e.transient:
        raise GraphError("recurrent Green operator requires a recurrent chain")
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (e.n,):
        raise GraphError("nu must be a per-vertex measure")
    if abs(nu.sum()) > 1e-12 * max(1.0, np.abs(nu).max()):
        raise GraphError("nu must have total charge zero")
    f = _green_matrix_for_edges(e, e.vertices[0]) @ nu
    f -= (f @ e.lam) / e.lam.sum()
    return f


def _green_matrix_for_edges(e, root):
    """Green matrix of the transfer matrix and recurrent_green: G itself
    when transient, the chain killed at the root (extended by zeros) when
    recurrent."""
    if _root_index(e, root) == e.n:  # transient, rooted at the cemetery
        return green(e).G
    keep = [v for v in e.vertices if v != root]
    idx = e.indices(keep)
    G = np.zeros((e.n, e.n))
    try:
        G[np.ix_(idx, idx)] = green(restrict(e, keep)).G
    except GraphError as err:
        raise GraphError(f"some component never reaches the root {root!r}") from err
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
        GD = green(restrict(e, [e.vertices[i] for i in comp])).G
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
    reversal carry the same mass and opposite holonomy.  Both come from one
    band factor R R^H = A: G^{(omega)} by _green_band and
    log Z = -2 sum log R_ii.
    """
    ab = _band_factor(e, _omega_matrix(e, omega))
    return _green_band(e, ab), complex(_logdet_inverse(ab))


def partition_ratio(e, e2, omega=None, alpha=1.0):
    """(Z_{e2,omega} / Z_e)^alpha, real and positive: both partition
    functions are positive determinants (see the module docstring), read
    from the diagonals of the twisted band factor of e2 and of e's factor."""
    if e.vertices != e2.vertices:
        raise GraphError("energy forms must share the vertex set")
    if np.any((e2.C > 0) & (e.C == 0)):
        raise GraphError("conductance support of e2 must lie inside that of e")
    if not np.isfinite(alpha):
        raise GraphError("alpha must be finite")
    ab = _band_factor(e2, _omega_matrix(e, {} if omega is None else omega))
    return complex(np.exp(alpha * (_logdet_inverse(ab) - _logdet_green(e))))
