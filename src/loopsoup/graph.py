"""Finite weighted graphs with killing, and the derived Markov chains.

An energy form is the data (X, C, kappa): a finite vertex set, symmetric
nonnegative conductances with zero diagonal, and a nonnegative killing
measure.  It determines lambda_x = kappa_x + sum_y C_{x,y} and the
sub-stochastic transition matrix P^x_y = C_{x,y}/lambda_x.  The chain is
transient iff kappa is not identically zero.
"""

import functools
import itertools
import json
import math
import operator
from collections.abc import Mapping

import numpy as np
from scipy.sparse import csgraph, csr_array

__all__ = [
    "EnergyForm",
    "GraphError",
    "load_energy_form",
    "restrict",
    "recurrent_extension",
    "trace_on",
    "build_wreath",
]

WREATH_STATE_GUARD = 4096


class GraphError(ValueError):
    """Invalid graph data or operation precondition."""


def per_form(fn):
    """Memoise fn(e) or fn(e, key) in the form's __dict__, where
    cached_property keeps P: one value per form and key, the key None when
    left out, built on first use and freed with the form."""
    slot = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def memo(e, key=None):
        try:
            return e.__dict__[slot][key]
        except KeyError:
            value = fn(e) if key is None else fn(e, key)
            e.__dict__.setdefault(slot, {})[key] = value
            return value

    return memo


class EnergyForm:
    """Immutable energy form: vertices, conductances C, killing kappa.

    C is shared when it is a read-only float array that owns its data, as
    another form's C is, and copied otherwise.

    Derived attributes: lam (lambda vector), transient flag, an index map
    from vertex name to position, and, built on first use: P (transition
    matrix), nonzero (the nonzero pattern of C, row by row) and
    connected_components.  The symmetry check, connected_components and
    exact._bandwidth read the nonzero pattern, not the dense C.  per_form
    memoises what other modules derive from a form beside these.
    """

    def __init__(self, vertices, C, kappa, validate=True, require_connected=True):
        self.vertices = tuple(str(v) for v in vertices)
        shared = type(C) is np.ndarray and C.dtype == float and C.flags.owndata and not C.flags.writeable
        self.C = C if shared else np.array(C, dtype=float)
        self.kappa = np.array(kappa, dtype=float)
        n = len(self.vertices)
        if validate:
            if len(set(self.vertices)) != n or n == 0:
                raise GraphError("vertex list must be nonempty without duplicates")
            if self.C.shape != (n, n):
                raise GraphError("conductance matrix shape mismatch")
            if self.kappa.shape != (n,):
                raise GraphError("killing vector shape mismatch")
            if not np.all(np.isfinite(self.kappa)):
                bad = self.vertices[int(np.argmin(np.isfinite(self.kappa)))]
                raise GraphError(f"non-finite killing at vertex {bad!r}")
            if not np.all(np.isfinite(self.C)):
                i, j = np.unravel_index(int(np.argmin(np.isfinite(self.C))), self.C.shape)
                raise GraphError(
                    f"non-finite conductance on edge ({self.vertices[i]!r}, {self.vertices[j]!r})"
                )
            if np.any(self.kappa < 0):
                bad = self.vertices[int(np.argmin(self.kappa))]
                raise GraphError(f"negative killing at vertex {bad!r}")
            if np.any(self.C < 0):
                i, j = np.unravel_index(int(np.argmin(self.C)), self.C.shape)
                raise GraphError(
                    f"negative conductance on edge ({self.vertices[i]!r}, {self.vertices[j]!r})"
                )
            # an asymmetric pair has a nonzero side, so the nonzeros hold every one
            rows, cols = self.nonzero
            weights = self.C[rows, cols]
            asym = np.abs(weights - self.C[cols, rows])
            worst = asym.max(initial=0.0)
            if worst > 1e-12 * max(1.0, weights.max(initial=0.0)):
                # the first worst entry of |C - C^T| in row-major order: the upper side of a worst pair
                worst_at = asym == worst
                i, j = min(zip(np.minimum(rows, cols)[worst_at], np.maximum(rows, cols)[worst_at]))
                raise GraphError(
                    f"asymmetric conductance on edge ({self.vertices[i]!r}, {self.vertices[j]!r})"
                )
            if np.any(np.diag(self.C) != 0):
                bad = self.vertices[int(np.argmax(np.diag(self.C) != 0))]
                raise GraphError(f"self-loop conductance at vertex {bad!r}")
        self.C.setflags(write=False)
        self.kappa.setflags(write=False)
        with np.errstate(over="ignore"):  # an overflow is rejected below
            self.lam = self.kappa + self.C.sum(axis=1)
        if validate and np.any(self.lam <= 0):
            bad = self.vertices[int(np.argmin(self.lam))]
            raise GraphError(f"lambda is not positive at vertex {bad!r} (isolated, unkilled)")
        if validate and not np.all(np.isfinite(self.lam)):
            bad = self.vertices[int(np.argmin(np.isfinite(self.lam)))]
            raise GraphError(f"lambda overflows at vertex {bad!r}")
        if validate and require_connected and self.connected_components[0] > 1:
            raise GraphError("conductance graph is disconnected")
        self.lam.setflags(write=False)
        self.transient = bool(np.any(self.kappa > 0))
        self.index = {v: i for i, v in enumerate(self.vertices)}

    @functools.cached_property
    def P(self):
        """Read-only transition matrix P^x_y = C_{x,y}/lambda_x."""
        P = self.C / self.lam[:, None]
        P.setflags(write=False)
        return P

    @functools.cached_property
    def nonzero(self):
        """Read-only (rows, cols) of the nonzero conductances, row by row and
        in column order within a row, taken once per form."""
        rows, cols = np.divmod(np.flatnonzero(self.C != 0), self.n)
        rows.setflags(write=False)
        cols.setflags(write=False)
        return rows, cols

    @functools.cached_property
    def connected_components(self):
        """(number, labels) of the conductance graph's connected components,
        from a CSR matrix of the nonzeros: the one csr_array(C) would build."""
        rows, cols = self.nonzero
        indptr = np.searchsorted(rows, np.arange(self.n + 1))
        graph = csr_array((self.C[rows, cols], cols, indptr), shape=(self.n, self.n))
        return csgraph.connected_components(graph, directed=False)

    @property
    def n(self):
        return len(self.vertices)

    def indices(self, subset):
        """Map an iterable of vertex names to an index array (order kept)."""
        try:
            return np.array([self.index[v] for v in subset], dtype=int)
        except KeyError as err:
            raise GraphError(f"unknown vertex {err.args[0]!r}") from None

    def laplacian(self):
        """M_lambda - C, the matrix of the energy form."""
        return np.diag(self.lam) - self.C

    def __repr__(self):
        return f"EnergyForm(n={self.n}, transient={self.transient})"


def load_energy_form(source):
    """Build an EnergyForm from a graph document: a dict, or a path to a
    JSON file, with schema
    {"vertices": [...], "edges": [[u, v, w], ...], "killing": {v: k}}.
    Missing killing entries default to 0.  Duplicate edges are an error,
    and so is a document that does not parse: GraphError, with OSError for
    a path that cannot be read.
    """
    try:
        if isinstance(source, dict):
            doc = source
        else:
            with open(str(source), "rb") as fh:
                doc = json.load(fh)
        if not isinstance(doc, dict) or "vertices" not in doc:
            raise GraphError("document must be an object with a 'vertices' list")
        vertices = [str(v) for v in doc["vertices"]]
        index = {v: i for i, v in enumerate(vertices)}  # EnergyForm rejects a duplicate vertex
        n = len(vertices)
        C = np.zeros((n, n))
        seen = set()
        for edge in doc.get("edges", []):
            if len(edge) != 3:
                raise GraphError(f"malformed edge entry {edge!r}")
            u, v, w = str(edge[0]), str(edge[1]), float(edge[2])
            if u not in index or v not in index:
                raise GraphError(f"edge ({u!r}, {v!r}) references unknown vertex")
            if u == v:
                raise GraphError(f"self-loop edge at vertex {u!r}")
            i, j = index[u], index[v]
            if (i, j) in seen:
                raise GraphError(f"duplicate edge ({u!r}, {v!r})")
            seen.update({(i, j), (j, i)})
            C[i, j] = C[j, i] = w
        kappa = np.zeros(n)
        for v, k in doc.get("killing", {}).items():
            if str(v) not in index:
                raise GraphError(f"killing entry references unknown vertex {v!r}")
            kappa[index[str(v)]] = float(k)
    except GraphError:
        raise
    # ValueError covers JSON and UTF-8 errors, OverflowError a number too large
    # for a float, RecursionError JSON nested too deeply to parse
    except (AttributeError, TypeError, ValueError, OverflowError, RecursionError) as err:
        raise GraphError(f"malformed graph document: {err}") from None
    C.setflags(write=False)  # nothing else holds C: the form shares it
    return EnergyForm(vertices, C, kappa)


def _root_index(e, root):
    """Index at which a spanning tree or rooted chain ends: n, the cemetery,
    on a transient form (root must be None), the root's index on a
    recurrent one (root must be a vertex)."""
    if e.transient:
        if root is not None:
            raise GraphError("root only applies to recurrent chains")
        return e.n
    if root is None:
        raise GraphError("recurrent chain needs a root")
    if root not in e.index:
        raise GraphError(f"unknown root {root!r}")
    return e.index[root]


def restrict(e, D):
    """Chain killed at the exit of D: conductances C|_{DxD}, the mass of
    edges leaving D moved into the killing measure.  lambda is unchanged."""
    D = list(D)
    if not D:
        raise GraphError("restriction to empty vertex set")
    idx = e.indices(D)
    comp = np.setdiff1d(np.arange(e.n), idx)
    C = e.C[np.ix_(idx, idx)]
    kappa = e.kappa[idx] + e.C[np.ix_(idx, comp)].sum(axis=1)
    # the killed subchain may be disconnected; its Green matrix is then
    # block diagonal, which is fine everywhere downstream
    return EnergyForm([e.vertices[i] for i in idx], C, kappa, require_connected=False)


def recurrent_extension(e, cemetery="Delta"):
    """Add a cemetery point carrying the killing as conductances.

    The extension has C_{x,Delta} = kappa_x and no killing; it is
    recurrent, and killing it back at the cemetery recovers e.
    """
    if not e.transient:
        raise GraphError("recurrent extension requires a transient chain")
    if cemetery in e.index:
        raise GraphError(f"cemetery name {cemetery!r} collides with a vertex")
    n = e.n
    C = np.zeros((n + 1, n + 1))
    C[:n, :n] = e.C
    C[:n, n] = e.kappa
    C[n, :n] = e.kappa
    return EnergyForm(list(e.vertices) + [cemetery], C, np.zeros(n + 1))


def trace_on(e, F):
    """Trace of the chain on F: the chain watched only while in F.

    C^{F}_{x,y} = C_{x,y} + sum_{a,b in D} C_{x,a} C_{b,y} [G^D]^{a,b}
    with D = F^c, and lambda^{F}_x = lambda_x - sum_{a,b} C_{x,a} C_{b,x}
    [G^D]^{a,b}.  Its Green matrix is G restricted to FxF.
    """
    F = list(F)
    if not F:
        raise GraphError("trace on empty vertex set")
    idx = e.indices(F)
    comp = np.setdiff1d(np.arange(e.n), idx)
    if comp.size == 0:
        return EnergyForm([e.vertices[i] for i in idx], e.C[np.ix_(idx, idx)], e.kappa[idx])
    from .exact import green  # exact imports this module

    GD = green(restrict(e, [e.vertices[i] for i in comp])).G
    B = e.C[np.ix_(idx, comp)]  # C_{x,a}, x in F, a in D
    excursions = B @ GD @ B.T
    C = e.C[np.ix_(idx, idx)] + excursions
    np.fill_diagonal(C, 0.0)
    lam = e.lam[idx] - np.diag(excursions)
    # off-diagonal excursion mass already sits in C; the rest is killing
    kappa = lam - C.sum(axis=1)
    kappa[np.abs(kappa) < 1e-13 * np.maximum(1.0, lam)] = 0.0
    return EnergyForm([e.vertices[i] for i in idx], C, kappa)


def _register_sizes(e, n_per_vertex):
    """Wreath register size n_x of each vertex index, from one integer for
    every vertex or a mapping from vertex names to integers."""
    sizes = n_per_vertex if isinstance(n_per_vertex, Mapping) else dict.fromkeys(e.vertices, n_per_vertex)
    try:
        ns = [operator.index(sizes[v]) for v in e.vertices]
    except KeyError as err:
        raise GraphError(f"no register size for vertex {err.args[0]!r}") from None
    except TypeError:
        raise GraphError("register sizes must be integers") from None
    if min(ns) < 1:
        raise GraphError("register sizes must be >= 1")
    return ns


def build_wreath(e, n_per_vertex):
    """Wreath product chain: attach a cyclic register Z/n_x Z to every
    vertex; a jump x -> x' re-randomizes the registers at x and x' only.

    States are pairs (x, z) with z a tuple of register values.  The
    killing and lambda of a state equal those of its first coordinate.
    """
    ns = _register_sizes(e, n_per_vertex)
    total = e.n * math.prod(ns)
    if total > WREATH_STATE_GUARD:
        raise GraphError(f"wreath state space of size {total} exceeds guard {WREATH_STATE_GUARD}")
    configs = list(itertools.product(*[range(k) for k in ns]))
    states = [(x, z) for x in range(e.n) for z in configs]
    names = [f"{e.vertices[x]}|" + ",".join(map(str, z)) for x, z in states]
    m = len(states)
    C = np.zeros((m, m))
    kappa = np.zeros(m)
    for a, (x, z) in enumerate(states):
        kappa[a] = e.kappa[x]
        for b, (xp, zp) in enumerate(states):
            if b <= a or e.C[x, xp] == 0:
                continue
            if all(z[y] == zp[y] for y in range(e.n) if y != x and y != xp):
                w = e.C[x, xp] / (ns[x] * ns[xp])
                C[a, b] = C[b, a] = w
    return EnergyForm(names, C, kappa)
