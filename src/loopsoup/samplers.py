"""Seed-deterministic samplers: discrete loops, Poisson loop soups,
bridges, Gaussian free fields and Wilson's algorithm.

All samplers consume a counter-based RngStream (or any numpy Generator)
and are bit-reproducible for a fixed (seed, stream, call sequence).

Every step of a chain (loop, bridge or walk) is an inverse-CDF lookup: one
gen.random() and a binary search in a cumulative table.  The tables are
normalised as Generator.choice normalises its own, so a step consumes the
same draw and returns the same index as gen.choice(n, p=row), draw for
draw.  The pointed-loop sampler's length and base-point tables come from
one eigendecomposition and are built once per (form, length cap), the
walk table of Wilson's algorithm once per form and a bridge's rows once
per bridge; only the pointed-loop step conditioned on the loop's base
point and length is built at each step, from Krylov columns P^m e_base
taken per loop.

The free field needs no Green matrix: with M_lambda - C = R R^T (Cholesky),
phi = R^{-T} z for z standard normal has covariance
R^{-T} R^{-1} = (M_lambda - C)^{-1} = G.  R is taken once per form
(exact._factor) and shared by every field and bridge drawn on it.

Soup statistics are sums over loop positions: the occupation field, the
visit counts N_x and the oriented traversal counts N_{x,y} of an ensemble
(and the per-sample statistics of the verify suites) are each one
np.add.at or np.bincount over the flat arrays of _positions.
"""

import weakref
from array import array
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrs
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components
from scipy.special import eval_hermitenorm, exp1

from .exact import _factor
from .graph import GraphError
from .loops import PointedLoop, mu_nontrivial_total
from .rng import as_generator

__all__ = [
    "LoopEnsemble",
    "SpanningTree",
    "FieldSample",
    "PointedLoopSampler",
    "sample_pointed_loop",
    "sample_loop_soup",
    "sample_bridge",
    "sample_gff",
    "wick_power",
    "wilson_sample",
    "loop_erase",
]


@dataclass
class LoopEnsemble:
    """A sampled loop soup: nontrivial pointed loops, whose vertices index
    the vertex names, plus the aggregated trivial-loop occupation per
    vertex.  A soup drawn by a PointedLoopSampler carries its length cap
    k_cap and the mu mass dropped_mass of the loops it leaves out (None and
    0.0 otherwise)."""

    vertices: tuple
    alpha: float
    loops: list
    trivial: np.ndarray
    trivial_points: dict = field(default_factory=dict)
    k_cap: int | None = None
    dropped_mass: float = 0.0

    def occupation(self):
        """Occupation field L-hat over the vertex list."""
        vertex, _, tau, _ = _positions(self.loops)
        occ = self.trivial.astype(float)
        np.add.at(occ, vertex, tau)
        return occ

    def traversals(self):
        """Oriented-edge traversal counts N_{x,y} as a dense matrix."""
        n = len(self.vertices)
        vertex, successor, _, _ = _positions(self.loops)
        return np.bincount(vertex * n + successor, minlength=n * n).reshape(n, n)

    def visit_counts(self):
        """Vertex visit counts N_x over nontrivial loops."""
        vertex, _, _, _ = _positions(self.loops)
        return np.bincount(vertex, minlength=len(self.vertices))


def _positions(loops):
    """Every position of an iterable of loops as flat arrays: the vertex,
    the next vertex around the loop, the holding time, plus each loop's
    length.  Positions run loop by loop in iteration order, so np.add.at
    over them adds each cell's terms in sampling order.  One pass over raw
    buffers: a generator of loops is never held in memory as loop
    objects."""
    vertex, successor, tau, lengths = array("q"), array("q"), array("d"), array("q")
    for loop in loops:
        idx = loop.vertices
        vertex.extend(idx)
        successor.extend(idx[1:] + idx[:1])
        tau.extend(loop.taus)
        lengths.append(len(idx))
    return tuple(np.array(a) for a in (vertex, successor, tau, lengths))


@dataclass
class SpanningTree:
    """Rooted oriented spanning tree: child -> parent, with None standing
    for the cemetery root of a transient chain."""

    parent: dict
    root: object  # vertex name, or None for the cemetery

    def key(self):
        """Canonical hashable identity of the tree (for frequency counts)."""
        return tuple(sorted(self.parent.items(), key=lambda kv: str(kv[0])))

    def edges(self):
        return [(c, p) for c, p in self.parent.items() if p is not None]

    def contains_edge(self, x, y):
        """Whether the undirected edge {x, y} is in the tree."""
        return self.parent.get(x) == y or self.parent.get(y) == x


@dataclass
class FieldSample:
    vertices: tuple
    phi: np.ndarray
    complex_field: bool = False


def _cdf(p):
    """Cumulative table of the probability array p, normalised exactly as
    Generator.choice normalises its own."""
    cdf = p.cumsum()  # the method: np.cumsum's dispatch costs more than a short sum
    cdf /= cdf[-1]
    return cdf


def _draw(gen, cdf):
    """Index drawn from a _cdf table with one gen.random(): the same draw
    and index as gen.choice(len(cdf), p=p)."""
    return int(cdf.searchsorted(gen.random(), side="right"))


def _sparse_cdfs(M):
    """Nonzero entries of each row of the row-stochastic M as padded rows
    (cdf, column): row u draws column[u][_draw(gen, cdf[u])].

    Adding 0.0 is exact, so each row's cumulative sums equal those of the
    dense row at its nonzero entries, and the draw matches
    gen.choice(len(M[u]), p=M[u]).  Padding repeats the row total 1.0,
    which no draw in [0, 1) passes.
    """
    rows, cols = np.nonzero(M)
    deg = np.bincount(rows, minlength=M.shape[0])
    slot = np.arange(rows.size) - np.repeat(np.cumsum(deg) - deg, deg)
    weights = np.zeros((M.shape[0], deg.max()))
    weights[rows, slot] = M[rows, cols]
    column = np.zeros(weights.shape, dtype=int)
    column[rows, slot] = cols
    cdf = np.cumsum(weights, axis=1)
    cdf /= cdf[:, -1:]
    return cdf, column.tolist()


_STEP_TABLES = weakref.WeakKeyDictionary()


def _step_table(e):
    """Jump law of the chain as _sparse_cdfs rows of [P | kappa/lambda]:
    column n is the cemetery.

    Built once per form (its C, kappa, lambda and P are read-only), after
    checking that every walk ends: on a transient form each component
    holds a killed vertex, and a recurrent form (walked to a root) is
    connected.
    """
    table = _STEP_TABLES.get(e)
    if table is None:
        n_comp, labels = connected_components(csr_array(e.C), directed=False)
        if e.transient and np.unique(labels[e.kappa > 0]).size < n_comp:
            raise GraphError("some component is never killed: its walks never end")
        if not e.transient and n_comp > 1:
            raise GraphError("recurrent chain is disconnected: some walks never reach the root")
        table = _STEP_TABLES[e] = _sparse_cdfs(np.hstack([e.C, e.kappa[:, None]]) / e.lam[:, None])
    return table


class PointedLoopSampler:
    """Exact sampler for the normalized nontrivial loop measure.

    Draws the length k with probability (Tr(P^k)/k) / mu(p>1), the base
    point proportionally to the diagonal of P^k, then the intermediate
    vertices by conditioned transitions; holding times are exp(1)/lambda.

    The tables come from one eigendecomposition U diag(w) U^T of
    S = M_lambda^{-1/2} C M_lambda^{-1/2}, which is similar to P: row k
    of the (k_cap+1) x n base table is diag P^k = (U o U) w^k, its sum
    is Tr P^k = sum_i w_i^k, and rho = max |w|.  Where P^k has a
    structural zero (odd k on a bipartite graph) the eigen sum leaves
    rounding noise, so every entry at or below 1e-10 (U o U) |w|^k is
    set to 0.  The step from u at position i of a length-k loop weighs
    P[u] * (P^{k-i})[:, base], a Krylov column built per loop by mat-vecs
    from P[:, base]; mat-vecs keep the exact zeros of the powers.

    dropped_mass is the mu mass left out: the tail sum_{k>k_cap}
    sum_i w_i^k/k, summed term by term, plus the diagonal mass the floor
    set to 0.  The sampler keeps P and lambda and holds the form only
    weakly (e), so a memoised sampler never keeps it alive.
    """

    def __init__(self, e, k_cap=None):
        if not e.transient:
            raise GraphError("loop sampling requires a transient chain")
        self._form = weakref.ref(e)
        self.total = mu_nontrivial_total(e)
        if self.total <= 0:
            raise GraphError("no nontrivial loops on this chain")
        w, U = np.linalg.eigh(e.C / np.sqrt(np.outer(e.lam, e.lam)))
        rho = float(np.max(np.abs(w)))
        if not rho < 1:
            raise GraphError("loop sampling requires spectral radius below 1")
        if k_cap is None:
            k_cap = 8
            while e.n * rho ** (k_cap + 1) / ((k_cap + 1) * (1 - rho)) > 1e-12 * self.total:
                k_cap *= 2
                if k_cap > 1 << 16:
                    raise GraphError("length cap growth failed")
        if k_cap < 2:
            raise GraphError("k_cap must be at least 2 (nontrivial loops have length >= 2)")
        self.k_cap = k_cap
        self.P, self.lam = e.P, e.lam
        k = np.arange(k_cap + 1)
        wk = w ** k[:, None]
        UU = (U * U).T
        diag = wk @ UU  # row k: diag P^k
        scale = np.abs(wk, out=wk) @ UU
        del wk
        zeroed = diag <= 1e-10 * scale
        lost = np.abs(diag, out=scale).sum(axis=1, where=zeroed)  # per length, the mass set to 0
        diag[zeroed] = 0.0
        trace = diag.sum(axis=1)
        probs = np.zeros(k_cap + 1)
        probs[2:] = trace[2:] / k[2:]
        self.length_probs = probs / probs.sum()
        self._length_cdf = _cdf(self.length_probs)
        self.dropped_mass = _tail_mass(w, k_cap) + float((lost[2:] / k[2:]).sum())
        # base point given the length k: proportional to the diagonal of P^k
        # (rows of zero trace are never drawn)
        with np.errstate(invalid="ignore", divide="ignore"):
            diag /= trace[:, None]
            self._base_cdf = np.cumsum(diag, axis=1, out=diag)
            self._base_cdf /= self._base_cdf[:, -1:]

    @property
    def e(self):
        """The energy form, held weakly: None once nothing else keeps it."""
        return self._form()

    def sample(self, rng):
        gen = as_generator(rng)
        k = _draw(gen, self._length_cdf)
        base = _draw(gen, self._base_cdf[k])
        P = self.P
        cols = [None, P[:, base]]  # cols[m] = (P^m)[:, base]
        for _ in range(2, k):
            cols.append(P @ cols[-1])
        seq = [base]
        for i in range(1, k):
            w = P[seq[-1]] * cols[k - i]
            seq.append(_draw(gen, _cdf(w / w.sum())))
        taus = gen.standard_exponential(k) / self.lam[seq]
        return PointedLoop(tuple(seq), tuple(taus.tolist()))


def _tail_mass(w, k_cap):
    """sum_{k>k_cap} sum_i w_i^k/k for |w| < 1, summed term by term in
    blocks of lengths until the geometric bound on what is left,
    |w|^k/(k (1-|w|)), no longer moves the sum."""
    a = np.abs(w)
    total, k0 = 0.0, k_cap + 1
    while True:
        k = np.arange(k0, k0 + 1024)[:, None]
        total += float((w**k / k).sum())
        k0 += 1024
        if (a**k0 / (k0 * (1 - a))).sum() <= 1e-17 * abs(total):
            return total


_SAMPLERS = weakref.WeakKeyDictionary()


def _loop_sampler(e, k_cap=None):
    """PointedLoopSampler of the form at this k_cap, built once per
    (form, k_cap) and kept while the form lives."""
    per_cap = _SAMPLERS.setdefault(e, {})
    sampler = per_cap.get(k_cap)
    if sampler is None:
        sampler = per_cap[k_cap] = PointedLoopSampler(e, k_cap)
    return sampler


def sample_pointed_loop(e, rng, k_cap=None):
    return _loop_sampler(e, k_cap).sample(rng)


def _sample_trivial_points(lam, alpha, gen, cutoff):
    """Points of the Poisson process with intensity alpha e^{-lam t}/t dt
    above the cutoff (the individual trivial-loop occupations at a vertex)."""
    w1 = exp1(lam * cutoff) - exp1(1.0)  # mass on (cutoff, 1/lam)
    w2 = exp1(1.0)  # mass on (1/lam, inf)
    count = gen.poisson(alpha * (w1 + w2))
    points = []
    for _ in range(count):
        if gen.random() * (w1 + w2) < w1:
            while True:
                t = cutoff * np.exp(gen.random() * np.log(1.0 / (lam * cutoff)))
                if gen.random() < np.exp(-lam * t):
                    points.append(t)
                    break
        else:
            while True:
                t = (1.0 + gen.standard_exponential()) / lam
                if gen.random() < 1.0 / (lam * t):
                    points.append(t)
                    break
    return np.array(points)


def sample_loop_soup(e, alpha, rng, k_cap=None, trivial_detail_vertex=None):
    """Poisson ensemble L_alpha: Poisson(alpha mu(p>1)) nontrivial loops
    plus Gamma(alpha, rate lambda_x) aggregated trivial occupation.

    With trivial_detail_vertex, the individual trivial-loop occupations at
    that vertex are sampled explicitly (point process truncated at a
    relative cutoff 1e-10) instead of the aggregate.
    """
    gen = as_generator(rng)
    if not 0 <= alpha < np.inf:
        raise GraphError("alpha must be finite and nonnegative")
    if alpha == 0:
        return LoopEnsemble(e.vertices, 0.0, [], np.zeros(e.n))
    sampler = _loop_sampler(e, k_cap)
    n_loops = gen.poisson(alpha * sampler.total)
    loops = [sampler.sample(gen) for _ in range(n_loops)]
    trivial = np.array([gen.gamma(alpha, 1.0 / l) for l in e.lam])
    detail = {}
    if trivial_detail_vertex is not None:
        i = e.index[trivial_detail_vertex]
        points = _sample_trivial_points(e.lam[i], alpha, gen, cutoff=1e-10 / e.lam[i])
        trivial[i] = points.sum()
        detail[trivial_detail_vertex] = points
    return LoopEnsemble(e.vertices, alpha, loops, trivial, detail, sampler.k_cap, sampler.dropped_mass)


@dataclass
class BridgePath:
    """Open path sampled from the normalized bridge measure mu^{x,y}/G^{x,y};
    vertices are indices into e.vertices."""

    vertices: tuple
    taus: tuple


def sample_bridge(e, x, y, rng, max_steps=10**7):
    """Bridge from x to y: at u, stop with probability delta_{u,y}/V^u_y,
    else move to z with probability P^u_z V^z_y / V^u_y (V = (I-P)^{-1} =
    G M_lambda: V_y = lambda_y G e_y is one solve with the Cholesky factor).
    Holding times exp(1)/lambda at every position including the last."""
    if not e.transient:
        raise GraphError("bridge sampling requires a transient chain")
    gen = as_generator(rng)
    i, j = e.index[x], e.index[y]
    Vj = np.zeros(e.n)
    Vj[j] = e.lam[j]
    Vj = dpotrs(_factor(e).T, Vj)[0]  # LAPACK potrs on the upper factor R.T, no copy of R
    if Vj[i] <= 0:
        raise GraphError(f"{y!r} unreachable from {x!r}")
    cdfs = {}  # row u of the h-transformed step law, built on first visit
    seq = [i]
    for _ in range(max_steps):
        u = seq[-1]
        if u == j and gen.random() < 1.0 / Vj[u]:
            break
        if u not in cdfs:
            w = e.P[u, :] * Vj
            cdfs[u] = _cdf(w / w.sum())
        seq.append(_draw(gen, cdfs[u]))
    else:
        raise GraphError("bridge failed to terminate")
    taus = gen.standard_exponential(len(seq)) / e.lam[seq]
    return BridgePath(tuple(seq), tuple(taus.tolist()))


def sample_gff(e, rng, complex_field=False):
    """Gaussian free field with covariance G (E[phi phi-bar] = 2G in the
    complex case).

    phi = R^{-T} z, with R R^T = M_lambda - C the Cholesky factorisation
    of the energy matrix and z standard normal: one factor per form (the
    memoised exact._factor) and one triangular solve per real part.  G is
    never formed.
    """
    R = _factor(e)
    gen = as_generator(rng)

    def solve(z):
        return solve_triangular(R, z, lower=True, trans="T", check_finite=False)

    phi = solve(gen.standard_normal(e.n))
    if complex_field:
        phi = phi + 1j * solve(gen.standard_normal(e.n))
    return FieldSample(e.vertices, phi, complex_field)


def wick_power(gxx, value, n):
    """:phi^n: = G^{n/2} He_n(phi / sqrt(G)) with He_n the probabilists'
    Hermite polynomial."""
    s = np.sqrt(gxx)
    return gxx ** (n / 2.0) * eval_hermitenorm(n, np.asarray(value) / s)


def loop_erase(path):
    """Progressive erasure of based sub-loops from the origin; returns a
    self-avoiding path."""
    out = []
    pos = {}
    for v in path:
        if v in pos:
            for w in out[pos[v] + 1 :]:
                del pos[w]
            del out[pos[v] + 1 :]
        else:
            pos[v] = len(out)
            out.append(v)
    return out


def wilson_sample(e, rng, vertex_order=None, root=None):
    """Wilson's algorithm: iterated loop-erased walks building a spanning
    tree, together with the ensemble of erased loops.

    Transient chains are rooted at the cemetery (root=None in the tree);
    recurrent chains need an explicit root vertex.  Every walk visit
    carries an exp(1)/lambda holding time; erased visits accumulate into
    the erased loops, the surviving visit of each tree vertex becomes its
    trivial occupation.
    """
    gen = as_generator(rng)
    n = e.n
    if e.transient and root is not None:
        raise GraphError("root only applies to recurrent chains")
    if not e.transient and root is None:
        raise GraphError("recurrent chain needs an explicit root")
    cdf, column = _step_table(e)
    in_tree = np.zeros(n, dtype=bool)
    parent = {}
    trivial = np.zeros(n)
    erased = []
    if root is not None:
        in_tree[e.indices([root])] = True
    order = e.indices(vertex_order).tolist() if vertex_order is not None else range(n)
    for start in order:
        if in_tree[start]:
            continue
        stack = [(start, float(gen.standard_exponential()) / e.lam[start])]
        pos = {start: 0}
        terminal = None
        while True:
            u = stack[-1][0]
            nxt = column[u][_draw(gen, cdf[u])]
            if nxt == n or in_tree[nxt]:
                terminal = None if nxt == n else nxt
                break
            tau = float(gen.standard_exponential()) / e.lam[nxt]
            if nxt in pos:
                i = pos[nxt]
                cycle = stack[i:]
                erased.append(PointedLoop(tuple(v for v, _ in cycle), tuple(t for _, t in cycle)))
                for v, _ in cycle:
                    del pos[v]
                del stack[i:]
            stack.append((nxt, tau))
            pos[nxt] = len(stack) - 1
        for idx_in_stack, (v, tau) in enumerate(stack):
            nxt_v = (
                stack[idx_in_stack + 1][0]
                if idx_in_stack + 1 < len(stack)
                else terminal
            )
            parent[e.vertices[v]] = e.vertices[nxt_v] if nxt_v is not None else None
            in_tree[v] = True
            trivial[v] = tau
    tree = SpanningTree(parent, root)
    ensemble = LoopEnsemble(e.vertices, 1.0, erased, trivial)
    return tree, ensemble
