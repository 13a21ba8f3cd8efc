"""Seed-deterministic samplers: discrete loops, Poisson loop soups,
bridges, Gaussian free fields and Wilson's algorithm.

All samplers consume a counter-based RngStream (or any numpy Generator)
and are bit-reproducible for a fixed (seed, stream, call sequence).

Every step of a chain (loop, bridge or walk) is an inverse-CDF lookup: one
uniform and bisect.bisect_right over a cumulative row.  _row builds every
step row: a tuple kept at the row's nonzero columns less the last, whose
sum 1.0 no uniform reaches.  The rows are normalised as Generator.choice
normalises its own, so a step consumes the same draw and returns the same
index as gen.choice(n, p=row), draw for draw.

What a form determines is built once and kept in the form by
graph.per_form, and freed with it: its pointed-loop sampler
(_loop_sampler), its step tables (_step_table, one per target) and its
Cholesky factor (exact._factor).  The sampler's length and base-point
tables come from one eigendecomposition.  Its conditioned step rows are
memoised on the sampler, one per (base, steps left, vertex), each
computed once from the Krylov columns P^m e_base of the first loop that
misses it; at most MAX_CACHED_ROWS rows are kept, and they go with the
sampler.  The cache changes no draw: a warm sampler draws what a fresh
one draws.  Both kinds of _step_table go through one row builder,
_sparse_cdfs, fed (row, column, weight) triples in np.nonzero order:
Wilson's from the form's nonzero pattern and killed vertices
(_jump_weights), with no n x n array, and a bridge's from its dense
h-transform.  Holding times are drawn per walk, after it stops.  A
spanning tree is an int parent array, n the cemetery.

Each chain has one core, shared by the one-sample API and the batches of
the verify suites and the CLI: PointedLoopSampler._steps draws a loop's
vertices (sample adds its holding times), _bridges draws n bridges
(sample_bridge is n = 1), and _wilson runs Wilson's algorithm for one
tree, erasing each branch's loops as it walks, on a stack of vertices
(_trees keeps the parent arrays of n trees; for wilson_sample it also
records each position walked and, on a stack of positions beside the
vertex stack, the positions of each loop it erases).  Every walk that
must end, in these cores and in _walk (a walk to a flagged vertex or the
cemetery, which verify_loop_erasure takes), ends within MAX_STEPS steps
or raises GraphError.  A batch writes its chains into flat array("q")
and array("d") buffers (trees into the rows of one int array), never one
object per sample, and makes each draw the one-sample API makes, in the
same order, so it draws the same streams.  The holding times of loops,
bridges and Wilson's walks are one division of the buffers,
exps / lambda[vertex], the IEEE division that each position drawn alone
makes.

The free field needs no Green matrix: with M_lambda - C = R R^T (Cholesky),
phi = R^{-T} z for z standard normal has covariance
R^{-T} R^{-1} = (M_lambda - C)^{-1} = G.  R is taken once per form and
held as its band (exact._factor), shared by every field and bridge drawn
on it; _field is the one banded triangular solve (LAPACK tbtrs), for
sample_gff and the Dynkin suite, and a bridge's Green column is one
banded solve (LAPACK pbtrs).

_soups is the one soup draw; sample_loop_soup is a batch of one.  Soup
statistics are sums over loop positions: the occupation field, the visit
counts N_x and the oriented traversal counts N_{x,y} of an ensemble (the
flat arrays of _positions) and the per-soup statistics of a batch
(_soup_occupations) are each one np.add.at or np.bincount over the
positions; _successors finds each position's successor around its loop.
"""

import weakref
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpbtrs, dtbtrs
from scipy.special import eval_hermitenorm

from .exact import _factor
from .graph import GraphError, _root_index, per_form
from .loops import PointedLoop, _check_alpha, _geometric_tail, _symmetrized, mu_nontrivial_total
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
    vertex, tau, lengths = array("q"), array("d"), array("q")
    for loop in loops:
        vertex.extend(loop.vertices)
        tau.extend(loop.taus)
        lengths.append(len(loop.vertices))
    vertex, lengths = np.array(vertex), np.array(lengths)
    return vertex, _successors(vertex, lengths), np.array(tau), lengths


def _successors(vertex, lengths):
    """The next vertex around each loop of the ragged array vertex, whose
    loops have the given lengths: the next position's, the loop's first
    at its last."""
    ends = np.cumsum(lengths)
    nxt = np.arange(1, len(vertex) + 1)
    nxt[ends - 1] = ends - lengths
    return vertex[nxt]


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


def _row(w):
    """Cumulative step row of the weights w, in column order: the cumsum
    over its last entry, as Generator.choice normalises its own, as a tuple
    less that last entry, 1.0, which no uniform in [0, 1) reaches.

    w holds a row's nonzero weights, or its weights at any columns that
    hold them all: adding 0.0 is exact, so the sums are the dense row's at
    those columns.  A uniform r passes the row's entries only where it
    rises, at a weight > 0, so columns[bisect_right(row, r)] is the dense
    cdf.searchsorted(r, side="right"), the index gen.choice draws.
    """
    cdf = w.cumsum()  # the method: np.cumsum's dispatch costs more than a short sum
    cdf /= cdf[-1]
    return tuple(cdf[:-1].tolist())


def _sparse_cdfs(n, rows, cols, weights):
    """Step rows of an n-row chain from its nonzero weights at (rows, cols),
    in np.nonzero order (row by row, columns ascending), as lists of tuple
    rows (cdf, column), cdf[u] the _row of row u's weights: a uniform r
    draws column[u][bisect_right(cdf[u], r)].  A row of no weight is
    empty."""
    end = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    column = tuple(np.arange(cols.max(initial=0) + 1, dtype=object)[cols].tolist())  # one int object per column
    spans = list(zip([0, *end[:-1]], end))
    return [_row(weights[i:j]) if i < j else () for i, j in spans], [column[i:j] for i, j in spans]


def _jump_weights(e):
    """Nonzero entries of [P | kappa/lambda] as (rows, cols, weights) in
    np.nonzero order, column n the cemetery, from the form's nonzero
    pattern and its killed vertices: C_uv / lambda_u and kappa_u / lambda_u,
    each the IEEE quotient the dense matrix holds.  No n x n array is
    formed.  A quotient that underflows to 0 is left out, as np.nonzero of
    the dense matrix leaves it out."""
    rows, cols = e.nonzero
    killed = np.flatnonzero(e.kappa)
    weights = np.concatenate([e.C[rows, cols], e.kappa[killed]])
    rows = np.concatenate([rows, killed])
    cols = np.concatenate([cols, np.full(killed.size, e.n)])
    # a stable sort by row puts each cemetery entry last in its row
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    weights = weights[order] / e.lam[rows]
    kept = weights != 0
    return rows[kept], cols[kept], weights[kept]


@per_form
def _step_table(e, target=None):
    """Jump law of the chain as (cdf, column, V): _sparse_cdfs rows,
    built once per form and target (the form's arrays are read-only).

    No target: rows of [P | kappa/lambda] from _jump_weights, column n the
    cemetery, V None, after checking that every walk ends: on a
    transient form each component holds a killed vertex, and a recurrent
    form (walked to a root) is connected.  Target y: V = (I-P)^{-1} e_y =
    lambda_y G e_y, one banded solve with the Cholesky factor, row u the
    bridge step P^u_z V^z / sum_z P^u_z V^z over the dense row; a row of no
    weight (another component, a vertex with no edges) stays empty, and no
    bridge enters it.
    """
    if target is None:
        n_comp, labels = e.connected_components
        if e.transient and np.unique(labels[e.kappa > 0]).size < n_comp:
            raise GraphError("some component is never killed: its walks never end")
        if not e.transient and n_comp > 1:
            raise GraphError("recurrent chain is disconnected: some walks never reach the root")
        return (*_sparse_cdfs(e.n, *_jump_weights(e)), None)
    V = np.zeros(e.n)
    V[target] = e.lam[target]
    V = dpbtrs(_factor(e), V, lower=1)[0]  # LAPACK pbtrs on the factor's band
    M = e.P * V
    w = M.sum(axis=1, keepdims=True)
    np.divide(M, w, out=M, where=w > 0)
    rows, cols = np.nonzero(M)
    return (*_sparse_cdfs(e.n, rows, cols, M[rows, cols]), V)


# step bound of every walk that must end (a Wilson branch, a bridge, a walk
# to the cemetery): GraphError if one has not ended after MAX_STEPS steps
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
    set to 0.  The length table is the _row of the lengths of nonzero
    probability, and the base-point table keeps the cumulative rows of
    those lengths only.  The step from u with m steps left in a loop based
    at b weighs P[u] * (P^m)[:, b].  Normalised over the dense row, its
    _row at the nonzero columns of P[u] is memoised per (b, m, u).  A loop
    builds the Krylov columns P^m e_b by mat-vecs from P[:, b] only when it
    misses a row; mat-vecs keep the exact zeros of the powers.  The cache grows by at most one row per drawn step, holds at
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
        w, U = np.linalg.eigh(_symmetrized(e))
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
        self.dropped_mass = _tail_mass(w, k_cap) + float((lost[2:] / k[2:]).sum())
        drawn = np.flatnonzero(self.length_probs)  # the lengths of nonzero probability
        self._lengths, self._length_cdf = drawn.tolist(), _row(self.length_probs[drawn])
        # base point given the length k: proportional to the diagonal of P^k,
        # a row for each drawn length and None for the others (odd lengths on
        # a bipartite graph); numpy rows, as Python floats the 4,194,304
        # entries of a killed 32 x 32 box at k_cap 8192 would take about 4x
        # the memory
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
        self._rows = {}  # (m n + u) n + base -> _row over the columns _support[u]

    @property
    def e(self):
        """The energy form, held weakly: None once nothing else keeps it."""
        return self._form()

    def sample(self, rng):
        gen = as_generator(rng)
        seq, lam = self._steps(gen), self.lam
        taus = [t / lam[v] for v, t in zip(seq, gen.standard_exponential(len(seq)).tolist())]
        return PointedLoop(tuple(seq), tuple(taus))

    def _steps(self, gen):
        """The vertices of one loop, its base point first: a length, then
        one gen.random(k) for the base and the k - 1 steps.  sample draws
        the holding times after them."""
        k = self._lengths[bisect_right(self._length_cdf, gen.random())]
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
                w = P[u] * cols[m]
                w /= w.sum()  # over the dense row: a pairwise sum groups its terms by where the zeros sit
                cdf = _row(w[self._support[u]])
                if len(rows) < MAX_CACHED_ROWS:
                    rows[key] = cdf
            u = columns[u][bisect_right(cdf, uniform[i])]
            seq.append(u)
        return seq


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


@per_form
def _loop_sampler(e):
    """PointedLoopSampler of the form, built once per form and kept while
    the form lives."""
    return PointedLoopSampler(e)


def sample_pointed_loop(e, rng):
    return _loop_sampler(e).sample(rng)


def _soups(e, alpha, gen, n_samples):
    """The one draw of n_samples independent soups L_alpha: the
    Poisson(alpha mu(p>1)) loop counts, then the Gamma(alpha, rate
    lambda_x) trivial occupations (n_samples x n), then the counts.sum()
    loops of soup 0, soup 1, ..., which the caller draws in that order from
    the returned sampler.  The memoised sampler is taken only when a loop
    can be drawn (alpha > 0 and the form has an edge); else it is None and
    every count is 0.  Returns ((k_cap, dropped_mass), counts, trivial,
    sampler)."""
    _check_alpha(alpha)
    sampler = _loop_sampler(e) if alpha > 0 and e.C.any() else None
    cap = (sampler.k_cap, sampler.dropped_mass) if sampler else (None, 0.0)
    counts = gen.poisson(alpha * sampler.total if sampler else 0.0, n_samples)
    trivial = gen.gamma(alpha, 1.0 / e.lam, size=(n_samples, e.n))
    return cap, counts, trivial, sampler


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
    """SoupBatch of n_samples soups drawn by _soups.  Each loop takes the
    draws of PointedLoopSampler.sample, its _steps and one
    standard_exponential, into flat buffers: no loop object is built, and
    the holding times are one division of the buffers, the one a loop
    drawn alone makes."""
    cap, counts, occ, sampler = _soups(e, alpha, gen, n_samples)
    # the count array first: allocated before the draws, it leaves the lowest
    # peak RSS when suites run repeatedly in one process
    visits = np.zeros((n_samples, e.n), dtype=np.int64)
    vertex, exps, lengths = array("q"), array("d"), array("q")
    for _ in range(counts.sum()):
        seq = sampler._steps(gen)
        vertex.extend(seq)
        exps.frombytes(gen.standard_exponential(len(seq)).tobytes())
        lengths.append(len(seq))
    vertex, lengths = np.array(vertex), np.array(lengths)
    tau = np.frombuffer(exps) / e.lam[vertex]
    sample = np.repeat(np.repeat(np.arange(n_samples), counts), lengths)
    np.add.at(occ, (sample, vertex), tau)
    np.add.at(visits, (sample, vertex), 1)
    return SoupBatch(counts, occ, visits, (sample, vertex, _successors(vertex, lengths)), *cap)


def sample_loop_soup(e, alpha, rng):
    """Poisson ensemble L_alpha: Poisson(alpha mu(p>1)) nontrivial loops
    plus Gamma(alpha, rate lambda_x) aggregated trivial occupation, the
    first soup of _soups."""
    gen = as_generator(rng)
    cap, counts, trivial, sampler = _soups(e, alpha, gen, 1)
    return LoopEnsemble(e.vertices, alpha, [sampler.sample(gen) for _ in range(counts[0])], trivial[0], *cap)


@dataclass
class BridgePath:
    """Open path sampled from the normalized bridge measure mu^{x,y}/G^{x,y};
    vertices are indices into e.vertices."""

    vertices: tuple
    taus: tuple


def _bridges(e, i, j, gen, n_bridges):
    """n_bridges bridges from the index i to the index j (the vertex y), as
    flat arrays: each position's vertex and holding time, bridge by bridge,
    and each bridge's length.  At u a bridge stops with probability
    delta_{u,y}/V^u_y, else moves to z with probability P^u_z V^z_y / V^u_y
    (the _step_table of target j), so the stop test is drawn at each
    arrival at y, before the next step.  Its holding times, exp(1)/lambda at
    every position, the last too, are one standard_exponential draw after
    it stops.  GraphError if a bridge has not stopped after MAX_STEPS
    steps."""
    if not e.transient:
        raise GraphError("bridge sampling requires a transient chain")
    cdf, column, V = _step_table(e, j)
    if V[i] <= 0:
        raise GraphError(f"{e.vertices[j]!r} unreachable from {e.vertices[i]!r}")
    stays, random = float(1.0 / V[j]), gen.random
    vertex, exps, lengths = array("q"), array("d"), array("q")
    for _ in range(n_bridges):
        start, u = len(vertex), i
        vertex.append(u)
        for _ in range(MAX_STEPS):
            if u == j and random() < stays:
                break
            u = column[u][bisect_right(cdf[u], random())]
            vertex.append(u)
        else:
            raise GraphError("bridge failed to end")
        exps.frombytes(gen.standard_exponential(len(vertex) - start).tobytes())
        lengths.append(len(vertex) - start)
    vertex = np.array(vertex)
    return vertex, np.frombuffer(exps) / e.lam[vertex], np.array(lengths)


def sample_bridge(e, x, y, rng):
    """Bridge from x to y, the one bridge of _bridges."""
    vertex, tau, _ = _bridges(e, e.index[x], e.index[y], as_generator(rng), 1)
    return BridgePath(tuple(vertex.tolist()), tuple(tau.tolist()))


def sample_gff(e, rng, complex_field=False):
    """Gaussian free field with covariance G (E[phi phi-bar] = 2G in the
    complex case).

    phi = R^{-T} z, with R R^T = M_lambda - C the Cholesky factorisation
    of the energy matrix and z standard normal: one factor per form (the
    memoised exact._factor, a band) and one banded triangular solve per
    real part.  Neither G nor a dense factor is formed.
    """
    gen = as_generator(rng)
    phi = _field(e, gen.standard_normal(e.n))
    if complex_field:
        phi = phi + 1j * _field(e, gen.standard_normal(e.n))
    return FieldSample(e.vertices, phi, complex_field)


def _field(e, z):
    """R^{-T} z: standard normal columns z give free-field columns, of
    covariance G = (R R^T)^{-1}."""
    return dtbtrs(_factor(e), z, uplo="L", trans="T")[0]  # LAPACK tbtrs on the factor's band


def wick_power(gxx, value, n):
    """:phi^n: = G^{n/2} He_n(phi / sqrt(G)) with He_n the probabilists'
    Hermite polynomial."""
    s = np.sqrt(gxx)
    return gxx ** (n / 2.0) * eval_hermitenorm(n, np.asarray(value) / s)


def loop_erase(path):
    """Self-avoiding path left by progressive loop erasure of a path: its
    vertices on a stack, cut back to a vertex the path revisits while it is
    stacked."""
    kept, stacked = [], set()
    for v in path:
        if v in stacked:
            while kept[-1] != v:
                stacked.remove(kept.pop())
        else:
            stacked.add(v)
            kept.append(v)
    return kept


def _wilson(gen, table, end, walks=None):
    """Wilson's algorithm for one spanning tree on the _step_table table,
    rooted at the index end (n, the cemetery, on a transient chain): its
    parent list of n entries, n at the cemetery and at end, and the number
    of loops its walks erased.

    From each vertex not yet in the tree, in index order, a branch walks
    until it enters the tree or the cemetery, erasing as it walks: the
    vertices of its loop-erased path are a stack, flagged in on_path, and
    a step onto a stacked vertex pops the stack back to that vertex, one
    erased loop.  Then one standard_exponential draw, one value per
    position walked, and each stacked vertex gets the next as its parent.
    GraphError if a branch has not ended after MAX_STEPS steps.

    walks, if given, is five flat buffers that the branches extend as they
    erase: array("q") vertex and array("d") exps, each position walked (the
    tree or cemetery index that ends a branch is no position), in walk
    order; array("q") kept, the positions each branch keeps; array("q")
    loops, the positions of each erased loop, in the order the loops
    close; and array("q") ends, where each loop ends in loops.  A stack of
    positions runs beside the vertex stack: a loop is the positions stacked
    from the revisited vertex's up, and the revisit takes that vertex's
    place."""
    cdf, column, random, exponential = table[0], table[1], gen.random, gen.standard_exponential
    n, erased = len(cdf), 0
    parent, in_tree, on_path = [n] * n, [False] * (n + 1), [False] * n
    in_tree[n] = in_tree[end] = True  # the cemetery ends every walk that reaches it
    if walks:
        vertex, exps, kept, loops, ends = walks
    for start in range(n):
        if in_tree[start]:
            continue
        u, stack = start, [start]
        on_path[start] = True
        if walks:
            base, at = len(vertex), [len(vertex)]
            vertex.append(start)
        for steps in range(1, MAX_STEPS + 1):
            u = column[u][bisect_right(cdf[u], random())]
            if in_tree[u]:
                break
            if on_path[u]:
                erased += 1
                while stack[-1] != u:
                    on_path[stack.pop()] = False
                if walks:
                    loops.extend(at[len(stack) - 1 :])  # u's position up: one loop
                    ends.append(len(loops))
                    at[len(stack) - 1 :] = [base + steps]
                    vertex.append(u)
            else:
                on_path[u] = True
                stack.append(u)
                if walks:
                    at.append(base + steps)
                    vertex.append(u)
        else:
            raise GraphError("walk failed to end")
        draws = exponential(steps)
        if walks:
            exps.frombytes(draws.tobytes())
            kept.extend(at)
        stack.append(u)
        for v, w in zip(stack, stack[1:]):
            parent[v] = w
            in_tree[v] = True
    return parent, erased


def _trees(e, gen, root, n_trees):
    """n_trees spanning trees by Wilson's algorithm (_wilson): their parent
    arrays as the rows of an int array, and the number of loops each
    erased."""
    end, table = _root_index(e, root), _step_table(e)
    # filled in place: 10^4 row arrays in a list add 1.7 MB of peak RSS
    rows, erased = np.empty((n_trees, e.n), dtype=np.int64), np.zeros(n_trees, dtype=np.int64)
    for s in range(n_trees):
        rows[s], erased[s] = _wilson(gen, table, end)
    return rows, erased


def wilson_sample(e, rng, root=None):
    """Wilson's algorithm: iterated loop-erased walks building a spanning
    tree, together with the ensemble of erased loops.

    Transient chains are rooted at the cemetery (root=None in the tree);
    recurrent chains need an explicit root vertex.  _wilson records each
    position its branches walk and the positions of each loop they erase;
    the holding times are one division of the buffers, exps / lambda[vertex],
    the IEEE division of each position alone.  Each erased loop becomes a
    PointedLoop, and the position that each tree vertex keeps gives its
    trivial occupation.
    """
    gen, end, walks = as_generator(rng), _root_index(e, root), tuple(map(array, "qdqqq"))
    parent, _ = _wilson(gen, _step_table(e), end, walks)
    vertex, tau, kept, looped = map(np.array, walks[:4])
    tau /= e.lam[vertex]
    trivial = np.bincount(vertex[kept], tau[kept], minlength=e.n)  # each vertex is kept once
    loop_vertex, loop_tau, ends = vertex[looped].tolist(), tau[looped].tolist(), walks[4].tolist()
    loops = [PointedLoop(tuple(loop_vertex[a:b]), tuple(loop_tau[a:b])) for a, b in zip([0, *ends], ends)]
    return SpanningTree(e.vertices, np.array(parent), root), LoopEnsemble(e.vertices, 1.0, loops, trivial)
