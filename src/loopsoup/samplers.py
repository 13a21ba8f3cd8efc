"""Seed-deterministic samplers: discrete loops, Poisson loop soups,
bridges, Gaussian free fields and Wilson's algorithm.

All samplers consume a counter-based RngStream (or any numpy Generator)
and are bit-reproducible for a fixed (seed, stream, call sequence).

Every step of a chain (loop, bridge or walk) is an inverse-CDF lookup: one
uniform and bisect.bisect_right over a cumulative row.  A step row is a
tuple kept at the row's nonzero columns less the last, whose sum 1.0 no
uniform reaches.  The rows are normalised as Generator.choice normalises
its own, so a step consumes the same draw and returns the same index as
gen.choice(n, p=row), draw for draw.  The pointed-loop sampler's length and
base-point tables come from one eigendecomposition per form.  Its
conditioned step rows are memoised on the sampler, one per (base, steps
left, vertex), each computed once from the Krylov columns P^m e_base of the
first loop that misses it; at most MAX_CACHED_ROWS rows are kept, and they
go with the memoised sampler when the form goes.  The cache changes no
draw: a warm sampler draws what a fresh one draws.  Every walk that must
end reads one _step_table per form and target and steps it in _walk, the
one step loop of Wilson's branches, bridge excursions and absorbed walks:
it stops on entering a vertex flagged in a stop list (the tree, the bridge
target, or none) or the cemetery column, within MAX_STEPS steps.  Holding
times are drawn per walk, after it stops.  Wilson's algorithm and
loop_erase share one loop erasure, _erase.  A spanning tree is an int
parent array, n the cemetery.

The free field needs no Green matrix: with M_lambda - C = R R^T (Cholesky),
phi = R^{-T} z for z standard normal has covariance
R^{-T} R^{-1} = (M_lambda - C)^{-1} = G.  R is taken once per form
(exact._factor) and shared by every field and bridge drawn on it; _field
is the one solve, for sample_gff and the Dynkin suite.

_soups is the one soup draw; sample_loop_soup is a batch of one.  Soup
statistics are sums over loop positions: the occupation field, the visit
counts N_x and the oriented traversal counts N_{x,y} of an ensemble (and
the per-soup statistics of a batch, _soup_occupations) are each one
np.add.at or np.bincount over the flat arrays of _positions.
"""

import weakref
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrs
from scipy.special import eval_hermitenorm

from .exact import _factor
from .graph import GraphError
from .loops import PointedLoop, _check_alpha, _geometric_tail, mu_nontrivial_total
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
    """Rooted oriented spanning tree as an int parent array over the vertex
    list: parent_index[v] is v's parent, n the cemetery of a transient
    chain and the parent of a recurrent chain's root."""

    vertices: tuple
    parent_index: np.ndarray
    root: object  # vertex name, or None for the cemetery

    @property
    def parent(self):
        """child -> parent by name, None for the cemetery; a recurrent
        chain's root is left out."""
        n, names = len(self.vertices), self.vertices
        return {v: None if p == n else names[p]
                for v, p in zip(names, self.parent_index.tolist()) if v != self.root}


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
    """Index drawn from a cumulative row (a _cdf array or a tuple) with one
    gen.random(): bisect_right returns cdf.searchsorted(u, side="right"),
    the same draw and index as gen.choice(len(cdf), p=p).  The step loops
    inline this lookup."""
    return bisect_right(cdf, gen.random())


def _sparse_cdfs(M):
    """Nonzero entries of each row of the row-stochastic M as lists of
    tuple rows (cdf, column): row u draws column[u][_draw(gen, cdf[u])].

    Adding 0.0 is exact, so each row's cumulative sums equal those of the
    dense row at its nonzero entries, and the draw matches
    gen.choice(len(M[u]), p=M[u]).  A cdf row leaves out its last sum,
    1.0, which no uniform in [0, 1) reaches, so a draw past the others
    takes the last column.  A row of no weight is empty.
    """
    rows, cols = np.nonzero(M)
    deg = np.bincount(rows, minlength=M.shape[0])
    start = np.cumsum(deg) - deg
    slot = np.arange(rows.size) - np.repeat(start, deg)
    weights = np.zeros((M.shape[0], deg.max()))
    weights[rows, slot] = M[rows, cols]
    cdf = np.cumsum(weights, axis=1)
    np.divide(cdf, cdf[:, -1:], out=cdf, where=cdf[:, -1:] > 0)  # rows of no weight stay 0
    flat = tuple(cdf[rows, slot].tolist())
    column = tuple(np.arange(M.shape[1]).astype(object)[cols].tolist())  # one int object per column
    a, b = start.tolist(), (start + deg).tolist()
    return [flat[i:max(i, j - 1)] for i, j in zip(a, b)], [column[i:j] for i, j in zip(a, b)]


_STEP_TABLES = weakref.WeakKeyDictionary()  # form -> {target: table}


def _step_table(e, target=None):
    """Jump law of the chain as (cdf, column, V, stop): _sparse_cdfs rows,
    built once per form and target (the form's arrays are read-only).

    No target: rows of [P | kappa/lambda], column n the cemetery, V and
    stop None, after checking that every walk ends: on a transient form
    each component holds a killed vertex, and a recurrent form (walked to a
    root) is connected.  Target y: V = (I-P)^{-1} e_y = lambda_y G e_y, one
    solve with the Cholesky factor, row u the bridge step
    P^u_z V^z / sum_z P^u_z V^z, and the stop list flagging y alone; a row
    of no weight (another component, a vertex with no edges) stays empty,
    and no bridge enters it.
    """
    tables = _STEP_TABLES.setdefault(e, {})
    table = tables.get(target)
    if table is None:
        if target is None:
            n_comp, labels = e.connected_components
            if e.transient and np.unique(labels[e.kappa > 0]).size < n_comp:
                raise GraphError("some component is never killed: its walks never end")
            if not e.transient and n_comp > 1:
                raise GraphError("recurrent chain is disconnected: some walks never reach the root")
            V = stop = None
            M = np.hstack([e.C, e.kappa[:, None]]) / e.lam[:, None]
        else:
            V = np.zeros(e.n)
            V[target] = e.lam[target]
            V = dpotrs(_factor(e).T, V)[0]  # LAPACK potrs on the upper factor R.T, no copy of R
            M = e.P * V
            w = M.sum(axis=1, keepdims=True)
            np.divide(M, w, out=M, where=w > 0)
            stop = [v == target for v in range(e.n)]
        table = tables[target] = (*_sparse_cdfs(M), V, stop)
    return table


# step bound of every walk that must end (a Wilson branch, a bridge excursion,
# a walk to the cemetery)
MAX_STEPS = 10**7


def _walk(gen, table, start, stop):
    """Walk on a _step_table from the index start until it enters a vertex
    flagged in the list stop, or the cemetery column: the indices visited
    before that, and the one that ended it.  GraphError after MAX_STEPS."""
    cdf, column, random = table[0], table[1], gen.random
    u, path, cemetery = start, [start], len(cdf)
    for _ in range(MAX_STEPS):
        u = column[u][bisect_right(cdf[u], random())]
        if u == cemetery or stop[u]:
            return path, u
        path.append(u)
    raise GraphError("walk failed to end")


# conditioned step rows one PointedLoopSampler keeps at most (about 200
# bytes each on a box of Z^2); past it a missed row is computed and not kept
MAX_CACHED_ROWS = 1 << 16


class PointedLoopSampler:
    """Exact sampler for the normalized nontrivial loop measure.

    Draws the length k with probability (Tr(P^k)/k) / mu(p>1), the base
    point proportionally to the diagonal of P^k, then the intermediate
    vertices by conditioned transitions; holding times are exp(1)/lambda.
    The base and the k - 1 steps take one gen.random(k), whose values are
    those of k scalar draws.

    The tables come from one eigendecomposition U diag(w) U^T of
    S = M_lambda^{-1/2} C M_lambda^{-1/2}, which is similar to P: row k
    of the (k_cap+1) x n diagonal table is diag P^k = (U o U) w^k, its
    sum is Tr P^k = sum_i w_i^k, and rho = max |w|.  Where P^k has a
    structural zero (odd k on a bipartite graph) the eigen sum leaves
    rounding noise, so every entry at or below 1e-10 (U o U) |w|^k is
    set to 0.  The base-point table keeps the cumulative rows of the
    lengths of nonzero probability only.  The step from u with m steps
    left in a loop based at b weighs P[u] * (P^m)[:, b].  Its cumulative
    row, normalised over the dense row as _cdf does, is memoised per
    (b, m, u) at the nonzero columns of P[u] less the last (_step_row; the
    index a draw returns has weight > 0, so the lookup matches the dense
    one).  A loop builds the Krylov columns P^m e_b by mat-vecs from
    P[:, b] only when it misses a row; mat-vecs keep the exact zeros of the
    powers.  The cache grows by at most one row per drawn step, holds at
    most min(n^2 (k_cap - 1), MAX_CACHED_ROWS) rows, and lives as long as
    the sampler.

    dropped_mass is the mu mass left out: the tail sum_{k>k_cap}
    sum_i w_i^k/k, summed term by term, plus the diagonal mass the floor
    set to 0.  The sampler keeps P and lambda and holds the form only
    weakly (e), so a memoised sampler never keeps it alive.
    """

    def __init__(self, e):
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
        k_cap = 8
        while _geometric_tail(e.n, rho, k_cap) > 1e-12 * self.total:
            k_cap *= 2
            if k_cap > 1 << 16:
                raise GraphError("length cap growth failed")
        self.k_cap = k_cap
        self.P, self.lam = e.P, e.lam.tolist()
        k = np.arange(k_cap + 1)
        wk = w ** k[:, None]
        UU = (U * U).T
        diag = wk @ UU  # row k: diag P^k
        scale = diag.copy()  # |w|^k = w^k bit for bit on even k
        odd = wk[1::2]
        scale[1::2] = np.abs(odd, out=odd) @ UU
        del wk, odd
        zeroed = diag <= 1e-10 * scale
        lost = np.abs(diag, out=scale).sum(axis=1, where=zeroed)  # per length, the mass set to 0
        diag[zeroed] = 0.0
        del scale, zeroed
        trace = diag.sum(axis=1)
        probs = np.zeros(k_cap + 1)
        probs[2:] = trace[2:] / k[2:]
        self.length_probs = probs / probs.sum()
        self._length_cdf = _cdf(self.length_probs).tolist()
        self.dropped_mass = _tail_mass(w, k_cap) + float((lost[2:] / k[2:]).sum())
        # base point given the length k: proportional to the diagonal of P^k,
        # a row for each length of nonzero probability and None for the others
        # (odd lengths on a bipartite graph), which are never drawn
        drawn = np.flatnonzero(self.length_probs)
        base = diag[drawn]
        del diag
        base /= trace[drawn, None]
        np.cumsum(base, axis=1, out=base)
        base /= base[:, -1:]
        self._base_cdf = [None] * (k_cap + 1)
        for j, row in zip(drawn.tolist(), base):
            self._base_cdf[j] = row
        self._support = [np.flatnonzero(row) for row in self.P]
        self._columns = [z.tolist() for z in self._support]
        self._rows = {}  # (m n + u) n + base -> _step_row over the columns _support[u]

    @property
    def e(self):
        """The energy form, held weakly: None once nothing else keeps it."""
        return self._form()

    def sample(self, rng):
        gen = as_generator(rng)
        k = _draw(gen, self._length_cdf)
        uniform = gen.random(k).tolist()  # the base, then the k - 1 steps
        base = bisect_right(self._base_cdf[k], uniform[0])
        P, n, rows, columns = self.P, len(self.lam), self._rows, self._columns
        seq, u, cols = [base], base, None
        for i in range(1, k):
            m = k - i
            key = (m * n + u) * n + base
            cdf = rows.get(key)
            if cdf is None:
                if cols is None:  # cols[j] = (P^j)[:, base] for j <= m
                    cols = [None, P[:, base]]
                    for _ in range(1, m):
                        cols.append(P @ cols[-1])
                cdf = _step_row(P[u] * cols[m], self._support[u])
                if len(rows) < MAX_CACHED_ROWS:
                    rows[key] = cdf
            u = columns[u][bisect_right(cdf, uniform[i])]
            seq.append(u)
        lam = self.lam
        taus = [t / lam[v] for v, t in zip(seq, gen.standard_exponential(k).tolist())]
        return PointedLoop(tuple(seq), tuple(taus))


def _step_row(w, support):
    """Cumulative row of the weights w, normalised over the dense row as
    _cdf(w / w.sum()) is (a pairwise sum groups its terms by where the zeros
    sit), kept at the columns support but the last, where it is 1.0; support
    holds every nonzero weight.  A draw stops where the row rises, at a
    weight > 0, so support[bisect_right(row, u)] is
    cdf.searchsorted(u, side="right") for u in [0, 1)."""
    w /= w.sum()
    return tuple(_cdf(w)[support[:-1]].tolist())


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


def _loop_sampler(e):
    """PointedLoopSampler of the form, built once per form and kept while
    the form lives."""
    sampler = _SAMPLERS.get(e)
    if sampler is None:
        sampler = _SAMPLERS[e] = PointedLoopSampler(e)
    return sampler


def sample_pointed_loop(e, rng):
    return _loop_sampler(e).sample(rng)


def _soups(e, alpha, gen, n_samples):
    """The one draw of n_samples independent soups L_alpha: the
    Poisson(alpha mu(p>1)) loop counts, then the Gamma(alpha, rate
    lambda_x) trivial occupations (n_samples x n), then a generator of the
    loops of soup 0, soup 1, ...  The memoised sampler is taken only when a
    loop can be drawn (alpha > 0 and the form has an edge).  Returns
    ((k_cap, dropped_mass), counts, trivial, loops)."""
    _check_alpha(alpha)
    sampler = _loop_sampler(e) if alpha > 0 and e.C.any() else None
    cap = (sampler.k_cap, sampler.dropped_mass) if sampler else (None, 0.0)
    counts = gen.poisson(alpha * sampler.total if sampler else 0.0, n_samples)
    trivial = gen.gamma(alpha, 1.0 / e.lam, size=(n_samples, e.n))
    return cap, counts, trivial, (sampler.sample(gen) for _ in range(counts.sum()))


class SoupBatch(NamedTuple):
    """Per-soup statistics, row s for soup s: loop counts, occupation fields
    and visit counts N_x, and the (sample, vertex, successor) of every loop
    position, in sampling order."""

    counts: np.ndarray
    occupation: np.ndarray
    visits: np.ndarray
    positions: tuple
    k_cap: int | None
    dropped_mass: float


def _soup_occupations(e, alpha, gen, n_samples):
    """SoupBatch of n_samples soups drawn by _soups."""
    cap, counts, occ, loops = _soups(e, alpha, gen, n_samples)
    # the count array first: allocated before the draws, it leaves the lowest
    # peak RSS when suites run repeatedly in one process
    visits = np.zeros((n_samples, e.n), dtype=np.int64)
    vertex, successor, tau, lengths = _positions(loops)
    sample = np.repeat(np.repeat(np.arange(n_samples), counts), lengths)
    np.add.at(occ, (sample, vertex), tau)
    np.add.at(visits, (sample, vertex), 1)
    return SoupBatch(counts, occ, visits, (sample, vertex, successor), *cap)


def sample_loop_soup(e, alpha, rng):
    """Poisson ensemble L_alpha: Poisson(alpha mu(p>1)) nontrivial loops
    plus Gamma(alpha, rate lambda_x) aggregated trivial occupation, the
    first soup of _soups."""
    cap, _, trivial, loops = _soups(e, alpha, as_generator(rng), 1)
    return LoopEnsemble(e.vertices, alpha, list(loops), trivial[0], *cap)


@dataclass
class BridgePath:
    """Open path sampled from the normalized bridge measure mu^{x,y}/G^{x,y};
    vertices are indices into e.vertices."""

    vertices: tuple
    taus: tuple


def sample_bridge(e, x, y, rng):
    """Bridge from x to y: at u, stop with probability delta_{u,y}/V^u_y,
    else move to z with probability P^u_z V^z_y / V^u_y (the _step_table of
    target y), so the stop test is drawn at each arrival at y, between
    excursions.  Holding times exp(1)/lambda at every position, the last too."""
    if not e.transient:
        raise GraphError("bridge sampling requires a transient chain")
    gen = as_generator(rng)
    i, j = e.index[x], e.index[y]
    table = _step_table(e, j)
    _, _, V, stop = table
    if V[i] <= 0:
        raise GraphError(f"{y!r} unreachable from {x!r}")
    seq, u = [], i
    while not (u == j and gen.random() < 1.0 / V[j]):
        path, u = _walk(gen, table, u, stop)
        seq += path
    seq.append(j)
    lam = e.lam.tolist()
    taus = [t / lam[v] for v, t in zip(seq, gen.standard_exponential(len(seq)).tolist())]
    return BridgePath(tuple(seq), tuple(taus))


def sample_gff(e, rng, complex_field=False):
    """Gaussian free field with covariance G (E[phi phi-bar] = 2G in the
    complex case).

    phi = R^{-T} z, with R R^T = M_lambda - C the Cholesky factorisation
    of the energy matrix and z standard normal: one factor per form (the
    memoised exact._factor) and one triangular solve per real part.  G is
    never formed.
    """
    gen = as_generator(rng)
    phi = _field(e, gen.standard_normal(e.n))
    if complex_field:
        phi = phi + 1j * _field(e, gen.standard_normal(e.n))
    return FieldSample(e.vertices, phi, complex_field)


def _field(e, z):
    """R^{-T} z: standard normal columns z give free-field columns, of
    covariance G = (R R^T)^{-1}."""
    return solve_triangular(_factor(e), z, lower=True, trans="T", check_finite=False)


def wick_power(gxx, value, n):
    """:phi^n: = G^{n/2} He_n(phi / sqrt(G)) with He_n the probabilists'
    Hermite polynomial."""
    s = np.sqrt(gxx)
    return gxx ** (n / 2.0) * eval_hermitenorm(n, np.asarray(value) / s)


def _erase(path):
    """Progressive loop erasure by position: the positions the self-avoiding
    path keeps (a revisit keeps the later visit), and the positions of each
    erased loop, in the order the loops close."""
    kept, at, loops = [], {}, []
    for t, v in enumerate(path):
        i = at.get(v, len(kept))
        if i < len(kept) and path[kept[i]] == v:  # else v is new, or erased since
            loops.append(kept[i:])
            del kept[i:]
        at[v] = len(kept)
        kept.append(t)
    return kept, loops


def loop_erase(path):
    """Self-avoiding path left by progressive erasure (_erase) of a path."""
    return [path[t] for t in _erase(path)[0]]


def wilson_sample(e, rng, root=None):
    """Wilson's algorithm: iterated loop-erased walks building a spanning
    tree, together with the ensemble of erased loops.

    Transient chains are rooted at the cemetery (root=None in the tree);
    recurrent chains need an explicit root vertex.  Each branch is a _walk
    from the least vertex not yet in the tree until it enters the tree or
    the cemetery; its visits get exp(1)/lambda holding times, drawn in one
    call after the walk stops.  Each kept visit sets parent[v] to the next
    kept index, n at the cemetery.  Erased visits accumulate into the erased
    loops, the surviving visit of each tree vertex becomes its trivial
    occupation.
    """
    gen = as_generator(rng)
    n = e.n
    if e.transient and root is not None:
        raise GraphError("root only applies to recurrent chains")
    if not e.transient and root is None:
        raise GraphError("recurrent chain needs an explicit root")
    table, lam = _step_table(e), e.lam.tolist()
    in_tree = [False] * n
    parent, erased, trivial = [n] * n, [], np.zeros(n)
    if root is not None:
        in_tree[e.indices([root])[0]] = True
    for start in range(n):
        if in_tree[start]:
            continue
        path, nxt = _walk(gen, table, start, in_tree)
        taus = [t / lam[v] for v, t in zip(path, gen.standard_exponential(len(path)).tolist())]
        kept, loops = _erase(path)
        for loop in loops:
            erased.append(PointedLoop(tuple([path[t] for t in loop]), tuple([taus[t] for t in loop])))
        branch = [path[t] for t in kept] + [nxt]  # ends in the tree or at the cemetery n
        for v, w, t in zip(branch, branch[1:], kept):
            parent[v] = w
            in_tree[v] = True
            trivial[v] = taus[t]
    return SpanningTree(e.vertices, np.array(parent), root), LoopEnsemble(e.vertices, 1.0, erased, trivial)
