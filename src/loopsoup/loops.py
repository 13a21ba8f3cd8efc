"""The loop measure mu and its Poissonized moments.

Discrete loops are rotation classes of based closed walks.  A loop holds
its vertices as int indices into e.vertices; vertex names appear only in
arguments that name a vertex.  The mass of a loop is the product of
transition probabilities along one turn, divided by the multiplicity (the
number of repetitions of its minimal period), so that summing over
distinct loops gives sum_k Tr(P^k)/k = -log det(I-P).

This module holds every closed-form soup moment that the verify suites
test: the alpha-permanent moments of the occupation field, the
renormalized powers Q_k and their orthogonality, visit and traversal
counts.  The suites compare samples and independent oracles against them.
The moments read one read-only G per form (_green_matrix, kept by
graph.per_form), not a fresh green() each.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .exact import _chi_form, _logdet_green, _logdet_posdef, green, hitting_kernel
from .graph import GraphError, _register_sizes, per_form

__all__ = [
    "DiscreteLoop",
    "PointedLoop",
    "mu_discrete",
    "mu_nontrivial_total",
    "enumerate_loops",
    "spectral_radius",
    "alpha_permanent",
    "occupation_moments",
    "renormalized_power",
    "renormalized_power_moment",
    "occupation_laplace",
    "edge_count_moments",
    "mu_visit_count",
    "mu_hit_avoid",
    "cross_hitting_series",
    "wreath_identity_sum",
]

ENUM_VERTEX_GUARD = 8
ENUM_K_GUARD = 14
PERMANENT_GUARD = 10
HIT_GUARD = 12


def _canonical_rotation(seq):
    rotations = {seq[i:] + seq[:i] for i in range(len(seq))}
    return min(rotations), len(rotations)


@dataclass(frozen=True)
class DiscreteLoop:
    """Rotation class of a based closed walk, stored as its least rotation
    in vertex-index order; vertices are indices into e.vertices."""

    vertices: tuple

    @staticmethod
    def from_sequence(seq):
        canon, _ = _canonical_rotation(tuple(seq))
        return DiscreteLoop(canon)

    @property
    def p(self):
        return len(self.vertices)

    @property
    def multiplicity(self):
        """Number of repetitions of the minimal period."""
        _, r = _canonical_rotation(self.vertices)
        return self.p // r


@dataclass(frozen=True)
class PointedLoop:
    """Discrete loop with rescaled holding times per position; vertices
    are indices into e.vertices."""

    vertices: tuple
    taus: tuple

    @property
    def p(self):
        return len(self.vertices)


def mu_discrete(e, loop):
    """mu mass of a discrete loop (a DiscreteLoop, or a list or tuple of
    vertex names): product of P entries around the cycle over the
    multiplicity of the representative."""
    if isinstance(loop, (list, tuple)):
        loop = DiscreteLoop.from_sequence(e.indices(loop).tolist())
    if loop.p < 2:
        raise GraphError("trivial loops carry infinite mu mass")
    idx = loop.vertices
    if not set(idx) <= set(range(e.n)):
        raise GraphError(f"loop vertices {idx!r} are not indices of the {e.n} vertices")
    mass = 1.0
    for i in range(loop.p):
        step = e.P[idx[i], idx[(i + 1) % loop.p]]
        if step <= 0:
            x, y = e.vertices[idx[i]], e.vertices[idx[(i + 1) % loop.p]]
            raise GraphError(f"loop step ({x!r}, {y!r}) has zero conductance")
        mass *= step
    return mass / loop.multiplicity


def mu_nontrivial_total(e):
    """mu(p > 1) = -log det(I - P) = log(det(G) prod lambda_x)."""
    if not e.transient:
        raise GraphError("total loop mass requires a transient chain")
    # the LU log-det, not the Cholesky one: verify_energy_variation differences it to 1e-12
    return float(np.log(e.lam).sum()) - _logdet_posdef(e.laplacian())


def _symmetrized(e):
    """S = M_lambda^{-1/2} C M_lambda^{-1/2}, symmetric and similar to P.
    GraphError when a product lambda_x lambda_y leaves the floats."""
    with np.errstate(over="ignore"):  # rejected below
        lam2 = np.outer(e.lam, e.lam)
    if not np.isfinite(lam2).all():
        raise GraphError("lambda_x lambda_y leaves the floating-point range")
    return e.C / np.sqrt(lam2)


def spectral_radius(e):
    """Spectral radius of P (real spectrum by lambda-symmetry)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(_symmetrized(e)))))


def _geometric_tail(n, rho, k):
    """Geometric tail bound n rho^(k+1) / ((k+1)(1-rho)) >= sum_{m>k} n rho^m / m,
    for 0 <= rho < 1."""
    return n * rho ** (k + 1) / ((k + 1) * (1 - rho))


def _check_alpha(alpha):
    """GraphError unless alpha is a soup intensity: finite and nonnegative."""
    if not 0 <= alpha < np.inf:
        raise GraphError("alpha must be finite and nonnegative")


def enumeration_tail_bound(e, k_max):
    """Bound on the mu mass of the loops longer than k_max.  GraphError for
    a negative or non-integer k_max, or a recurrent chain."""
    try:
        if operator.index(k_max) < 0:
            raise GraphError(f"enumeration length {k_max} is negative")
    except TypeError:
        raise GraphError(f"enumeration length {k_max!r} is not an integer") from None
    rho = spectral_radius(e)
    if rho >= 1:
        raise GraphError("tail bound needs a transient chain")
    return _geometric_tail(e.n, rho, k_max)


def enumerate_loops(e, k_max):
    """All discrete loops with 2 <= p <= k_max and their mu masses.

    Returns (list of (DiscreteLoop, mass), tail bound on the mass of
    longer loops), in lexicographic order of vertex indices.  Each rotation
    class is one necklace w^r, w a Lyndon word, stored as its least
    rotation.  The necklaces come from the Fredricksen-Kessler-Maiorana
    prenecklace tree (Ruskey, Savage & Wang 1992) grown from each base
    letter: a word a_1..a_t of period p takes a next letter b >= a_{t+1-p}
    only when P[a_t, b] > 0, and keeps its period if b = a_{t+1-p}, else
    its period becomes t + 1.  A word with p dividing t is a necklace and
    is a loop when P[a_t, a_1] > 0.  Each node carries the product of P
    along its prefix, so a loop's mass is that product times P[a_t, a_1],
    divided by its multiplicity t / p.  One loop walks the tree in preorder
    on an explicit stack of (word, period, product) nodes and appends each
    loop to one list: no chain of generators passes a loop back up, and no
    self-referencing closure keeps the list alive after the call.
    """
    n = e.n
    if n > ENUM_VERTEX_GUARD:
        raise GraphError(f"{n} vertices exceed enumeration guard {ENUM_VERTEX_GUARD}")
    tail = enumeration_tail_bound(e, k_max)  # GraphError unless k_max is an integer >= 0
    if k_max > ENUM_K_GUARD:
        raise GraphError(f"enumeration length {k_max} exceeds guard {ENUM_K_GUARD}")
    P = e.P.tolist()  # Python floats: the same products, without numpy's per-scalar cost
    loops = []
    stack = [((base,), 1, 1.0) for base in reversed(range(n))]  # (word, period, prefix product)
    while stack:
        word, period, mass = stack.pop()
        t, row = len(word), P[word[-1]]
        if t >= 2 and t % period == 0 and row[word[0]] > 0:
            loops.append((DiscreteLoop(word), mass * row[word[0]] / (t // period)))
        if t < k_max:
            least = word[t - period]
            for nxt in reversed(range(least, n)):  # pushed in descending order, so popped in preorder
                if row[nxt] > 0:
                    stack.append((word + (nxt,), period if nxt == least else t + 1, mass * row[nxt]))
    return loops, tail


def _cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def alpha_permanent(M, alpha, fixed_point_free=False):
    """Per_alpha(M) = sum_sigma alpha^{#cycles(sigma)} prod M_{i,sigma(i)};
    with fixed_point_free, only derangements contribute (Per^0_alpha)."""
    M = np.asarray(M, dtype=float)
    k = M.shape[0]
    if M.shape != (k, k):
        raise GraphError("alpha permanent needs a square matrix")
    if k > PERMANENT_GUARD:
        raise GraphError(f"matrix size {k} exceeds permanent guard {PERMANENT_GUARD}")
    total = 0.0
    for perm in itertools.permutations(range(k)):
        if fixed_point_free and any(perm[i] == i for i in range(k)):
            continue
        prod = 1.0
        for i in range(k):
            prod *= M[i, perm[i]]
        total += alpha ** _cycle_count(perm) * prod
    return total


@per_form
def _green_matrix(e):
    """Read-only G of the form, built once per form by green() and read by
    every closed-form moment here; freed with the form."""
    G = green(e).G
    G.setflags(write=False)
    return G


def occupation_moments(e, alpha, points, kind="raw"):
    """Moments of the occupation field at a vertex multiset.

    kind="raw": E[prod L-hat^{x_i}] = Per_alpha of the Green submatrix;
    kind="centered": same with fixed-point-free permutations only;
    kind="single_loop": mu(l-hat^{x_1,...,x_n}) = G^{x1,x2}...G^{xn,x1}.
    """
    points = list(points)
    idx = e.indices(points)
    G = _green_matrix(e)
    M = G[np.ix_(idx, idx)]
    if kind == "raw":
        return alpha_permanent(M, alpha)
    if kind == "centered":
        return alpha_permanent(M, alpha, fixed_point_free=True)
    if kind == "single_loop":
        n = len(points)
        return float(np.prod([M[i, (i + 1) % n] for i in range(n)]))
    raise GraphError(f"unknown moment kind {kind!r}")


def _renormalized_coeffs(k, alpha, sigma):
    """Coefficients, lowest degree first, of the renormalized power
    Q_k^{alpha,sigma}(u) of a centred occupation u; GraphError past k = 2."""
    table = {0: [1.0], 1: [0.0, 1.0], 2: [-alpha * sigma**2 / 2.0, -sigma, 0.5]}
    if k not in table:
        raise GraphError(f"renormalized powers are implemented for k <= 2, not k = {k}")
    return table[k]


def renormalized_power(values, k, alpha, sigma):
    """Q_k^{alpha,sigma} of centred occupations u = L-hat^x - alpha sigma,
    sigma = G^{xx}: Q_0 = 1, Q_1 = u, Q_2 = u^2/2 - sigma u - alpha sigma^2/2.
    The terms are summed from the highest degree down."""
    u, coeffs = np.asarray(values, dtype=float), _renormalized_coeffs(k, alpha, sigma)
    terms = [coeffs[d] * u**d for d in reversed(range(len(coeffs))) if coeffs[d]]
    return sum(terms[1:], terms[0])


def renormalized_power_moment(e, x, y, k, l, alpha):
    """E[Q_k(L~^x) Q_l(L~^y)] = delta_{kl} (G^{xy})^{2k} alpha(alpha+1)...(alpha+k-1) / k!
    for the centred occupation field L~ of the soup of intensity alpha, Q_k
    taken at sigma = G^{xx} and Q_l at G^{yy}."""
    if k != l:
        return 0.0
    i, j = e.indices([x, y])
    rising = float(np.prod([alpha + t for t in range(k)]))
    return _green_matrix(e)[i, j] ** (2 * k) * rising / math.factorial(k)


def occupation_laplace(e, alpha, chi):
    """E[e^{-<L_alpha, chi>}] = det(I + M_sqrt(chi) G M_sqrt(chi))^{-alpha}
    = (det G_chi / det G)^alpha; both forms computed and compared."""
    chi = np.asarray(chi, dtype=float)
    e_chi = _chi_form(e, chi)
    bundle = green(e)
    sq = np.sqrt(chi)
    A = np.eye(e.n) + sq[:, None] * bundle.G * sq[None, :]
    v1 = float(np.exp(-alpha * _logdet_posdef(A)))
    v2 = float(np.exp(alpha * (_logdet_green(e_chi) - bundle.logdet_G)))
    if abs(v1 - v2) > 1e-9 * max(1.0, abs(v1)):
        raise GraphError("Laplace transform determinant forms disagree")
    return v1


def edge_count_moments(e, edge, k):
    """k-th factorial moment of the traversal count of an edge:
    mu(N(N-1)...(N-k+1)) = (k-1)! (G^{xy} C_{xy})^k."""
    x, y = edge
    i, j = e.index[x], e.index[y]
    if e.C[i, j] <= 0:
        raise GraphError(f"edge ({x!r}, {y!r}) has zero conductance")
    G = _green_matrix(e)
    return math.factorial(k - 1) * (G[i, j] * e.C[i, j]) ** k


def mu_visit_count(e, x):
    """mu(N_x) = lambda_x G^{xx} - 1 (trivial loops carry N_x = 0)."""
    i = e.index[x]
    return e.lam[i] * _green_matrix(e)[i, i] - 1.0


def _restricted_mass(e, keep_idx):
    """mu^{W}(p>1) = -log det(I - P|_W) for a vertex index subset W, or
    one mass per row of a (k, w) stack of subsets."""
    keep = np.asarray(keep_idx)
    if keep.shape[-1] == 0:
        return 0.0
    sub = e.P[keep[..., :, None], keep[..., None, :]]
    return -_logdet_posdef(np.eye(keep.shape[-1]) - sub)


def mu_hit_avoid(e, hit, avoid=(), alpha=1.0):
    """Mass of nontrivial loops contained in avoid^c visiting every vertex
    of hit, by inclusion-exclusion over subsets of hit; and the Poisson
    probability exp(-alpha * mass) that the soup contains no such loop.
    Subsets of one size share one stacked log-det.  The signed terms are
    summed exactly (math.fsum), so the mass does not depend on the order
    of hit; the terms cancel, and their own rounding, about eps * sum |term|,
    still bounds the error of a small mass.  A repeated hit vertex counts
    once.  A recurrent form with nothing avoided has infinite
    mass: GraphError.

    Returns (mass, probability).
    """
    # repeated hit vertices cancel in the inclusion-exclusion
    hit, avoid = list(dict.fromkeys(hit)), list(avoid)
    if set(hit) & set(avoid):
        raise GraphError("hit and avoid sets overlap")
    if len(hit) > HIT_GUARD:
        raise GraphError(f"hit set size {len(hit)} exceeds guard {HIT_GUARD}")
    _check_alpha(alpha)
    hit_idx, avoid_idx = e.indices(hit).tolist(), set(e.indices(avoid).tolist())
    if not avoid and not e.transient:
        raise GraphError("loop mass of a recurrent chain is infinite: avoid some vertex")
    universe = [i for i in range(e.n) if i not in avoid_idx]
    terms = []
    # an empty keep set (r = |universe|) has mass 0 and is skipped
    for r in range(min(len(hit), len(universe) - 1) + 1):
        keep = [[i for i in universe if i not in S] for S in map(set, itertools.combinations(hit_idx, r))]
        terms += ((-1) ** r * _restricted_mass(e, np.array(keep))).tolist()
    mass = max(math.fsum(terms), 0.0)
    return mass, float(np.exp(-alpha * mass))


def cross_hitting_series(e, F1, F2):
    """mu(loops meeting both F1 and F2) as the balayage-trace series
    sum_k Tr((H12 H21)^k)/k for k <= 64, with its geometric tail bound and
    the log-determinant reference value.

    Returns (partial_sum, tail_bound, logdet_value).
    """
    F1, F2 = list(F1), list(F2)
    if not F1 or not F2:
        raise GraphError("both vertex sets must be nonempty")
    if set(F1) & set(F2):
        raise GraphError("vertex sets overlap")
    H2 = hitting_kernel(e, F2)
    H1 = hitting_kernel(e, F1)
    H12 = H2[e.indices(F1), :]  # hitting distribution of F2 from F1
    H21 = H1[e.indices(F2), :]
    M = H12 @ H21
    q = float(np.linalg.norm(M, 2))
    total = 0.0
    power = np.eye(M.shape[0])
    for k in range(1, 65):
        power = power @ M
        total += np.trace(power) / k
    if q >= 1:
        raise GraphError("balayage product is not a contraction")
    tail = _geometric_tail(min(M.shape), q, 64)
    # inclusion-exclusion reference: mu(hit F1 and F2)
    masses = []
    for drop in [(), F1, F2, F1 + F2]:
        keep = e.indices([v for v in e.vertices if v not in set(drop)])
        masses.append(_restricted_mass(e, keep))
    logdet_value = masses[0] - masses[1] - masses[2] + masses[3]
    return float(total), float(tail), float(logdet_value)


def wreath_identity_sum(e, n_per_vertex, k_max):
    """prod n_x * sum over enumerated loops of mu(loop) prod_{x visited}
    1/n_x, an approximation (within the enumeration tail) of the total
    nontrivial loop mass of the wreath product chain."""
    ns = _register_sizes(e, n_per_vertex)
    loops, tail = enumerate_loops(e, k_max)
    prefactor = float(math.prod(ns))
    inv = [1.0 / n_x for n_x in ns]
    total = 0.0
    for loop, mass in loops:
        total += mass * math.prod(inv[v] for v in set(loop.vertices))
    return prefactor * total, prefactor * tail
