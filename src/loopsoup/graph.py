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

import numpy as np

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


def _inv(A, message="restricted energy matrix is singular: some component is never killed"):
    """np.linalg.inv(A), raising GraphError(message) when A is singular."""
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError as err:
        raise GraphError(message) from err


class EnergyForm:
    """Immutable energy form: vertices, conductances C, killing kappa.

    Derived attributes: lam (lambda vector), P (transition matrix, built on
    first use), transient flag, and an index map from vertex name to position.
    """

    def __init__(self, vertices, C, kappa, validate=True, require_connected=True):
        self.vertices = tuple(str(v) for v in vertices)
        self.C = np.array(C, dtype=float)
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
            asym = np.abs(self.C - self.C.T)
            if np.any(asym > 1e-12 * max(1.0, self.C.max())):
                i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
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
        if validate and require_connected and not _connected(self.C):
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


def _connected(C):
    n = C.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        x = stack.pop()
        for y in np.nonzero(C[x] > 0)[0]:
            if not seen[y]:
                seen[y] = True
                stack.append(int(y))
    return bool(seen.all())


def load_energy_form(source):
    """Build an EnergyForm from a graph document.

    Accepts a dict, a JSON string, or a path to a JSON file with schema
    {"vertices": [...], "edges": [[u, v, w], ...], "killing": {v: k}}.
    Missing killing entries default to 0.  Duplicate edges are an error.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
        else:
            with open(text) as fh:
                doc = json.load(fh)
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise GraphError("document must be an object with a 'vertices' list")
    vertices = [str(v) for v in doc["vertices"]]
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise GraphError("duplicate vertex identifiers")
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
    return EnergyForm(vertices, C, kappa)


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
    eD = restrict(e, [e.vertices[i] for i in comp])
    if not eD.transient:
        raise GraphError("restriction to the complement must be transient")
    GD = _inv(eD.laplacian())
    B = e.C[np.ix_(idx, comp)]  # C_{x,a}, x in F, a in D
    excursions = B @ GD @ B.T
    C = e.C[np.ix_(idx, idx)] + excursions
    np.fill_diagonal(C, 0.0)
    lam = e.lam[idx] - np.diag(B @ GD @ B.T)
    # off-diagonal excursion mass already sits in C; the rest is killing
    kappa = lam - C.sum(axis=1)
    kappa[np.abs(kappa) < 1e-13 * np.maximum(1.0, lam)] = 0.0
    return EnergyForm([e.vertices[i] for i in idx], C, kappa)


def build_wreath(e, n_per_vertex):
    """Wreath product chain: attach a cyclic register Z/n_x Z to every
    vertex; a jump x -> x' re-randomizes the registers at x and x' only.

    States are pairs (x, z) with z a tuple of register values.  The
    killing and lambda of a state equal those of its first coordinate.
    """
    ns = {v: int(n_per_vertex[v]) if hasattr(n_per_vertex, "__getitem__") and not isinstance(n_per_vertex, int) else int(n_per_vertex) for v in e.vertices}
    if any(k < 1 for k in ns.values()):
        raise GraphError("register sizes must be >= 1")
    total = e.n * int(np.prod([ns[v] for v in e.vertices]))
    if total > WREATH_STATE_GUARD:
        raise GraphError(f"wreath state space of size {total} exceeds guard {WREATH_STATE_GUARD}")
    configs = list(itertools.product(*[range(ns[v]) for v in e.vertices]))
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
                w = e.C[x, xp] / (ns[e.vertices[x]] * ns[e.vertices[xp]])
                C[a, b] = C[b, a] = w
    return EnergyForm(names, C, kappa)
