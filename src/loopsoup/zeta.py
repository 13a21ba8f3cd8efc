"""Ihara zeta function of an unweighted graph, three ways.

IZ(u) = (1-u^2)^{-chi} det(I - uA + u^2(D-I))^{-1} with chi = |E|-|X|,
      = det(I - uQ)^{-1} for the non-backtracking line-graph operator Q,
      = exp(sum_m N_m u^m / m) with N_m the number of tailless geodesic
        based loops of length m.
"""

from dataclasses import dataclass

import numpy as np

from .graph import GraphError

__all__ = ["ZetaReport", "zeta_ihara", "non_backtracking_counts", "line_graph_operator"]

ENUM_M_MAX_GUARD = 10


@dataclass(frozen=True)
class ZetaReport:
    chi: int
    N: tuple  # N_m for m = 1..m_max (tailless geodesic based loops)
    L: tuple  # L_m for m = 1..m_max (geodesic based loops)
    grid: tuple  # entries (u, IZ_vertex, IZ_line, IZ_series)

    def to_dict(self):
        return {
            "chi": self.chi,
            "N": list(self.N),
            "L": list(self.L),
            "grid": [{"u": u, "IZ": v, "IZ_line": l, "IZ_series": s} for u, v, l, s in self.grid],
        }


def _adjacency(e):
    A = e.C.copy()
    if np.any((A != 0) & (A != 1)):
        raise GraphError("Ihara zeta requires unit conductances")
    return A


def line_graph_operator(e):
    """Oriented-edge operator Q[(x,y),(y,z)] = 1 for z != x; Tr(Q^m) = N_m."""
    A = _adjacency(e)
    edges = [(i, j) for i in range(e.n) for j in range(e.n) if A[i, j]]
    index = {edge: k for k, edge in enumerate(edges)}
    Q = np.zeros((len(edges), len(edges)))
    for (x, y), k in index.items():
        for z in np.nonzero(A[y])[0]:
            if z != x:
                Q[k, index[(y, int(z))]] = 1.0
    return Q, edges


def _trace_series(M_coeffs, m_max):
    """traces[k, d] = u^d coefficient of Tr(M(u)^k), k, d = 0..m_max, for
    M(u) = sum_d u^d M_d with no constant term; powers are truncated
    polynomial matrices."""
    n = M_coeffs[1].shape[0]
    # power[d] = coefficient matrix of u^d in M(u)^k
    power = np.zeros((m_max + 1, n, n))
    power[0] = np.eye(n)
    traces = [np.trace(power, axis1=1, axis2=2)]
    for _ in range(m_max):
        nxt = np.zeros_like(power)
        for d1 in range(m_max + 1):
            if not power[d1].any():
                continue
            for d2, M in M_coeffs.items():
                if d1 + d2 <= m_max:
                    nxt[d1 + d2] += power[d1] @ M
        power = nxt
        traces.append(np.trace(power, axis1=1, axis2=2))
    return np.array(traces)


def _series_counts(e, m_max):
    """(N_m, L_m) for m = 1..m_max from the vertex determinant formulas."""
    A = _adjacency(e)
    D = np.diag(A.sum(axis=1))
    n_edges = int(A.sum()) // 2
    chi = n_edges - e.n
    traces = _trace_series({1: A, 2: -(D - np.eye(e.n))}, m_max)
    # log IZ(u) = -chi log(1-u^2) - log det(I - M(u)) with
    # -log det(I - M) = sum_k Tr(M^k)/k
    logIZ = np.zeros(m_max + 1)
    for k in range(1, m_max + 1):
        logIZ += traces[k] / k
    for j in range(1, m_max // 2 + 1):
        logIZ[2 * j] += chi / j
    N = [logIZ[m] * m for m in range(1, m_max + 1)]
    # sum L_m u^m = (1-u^2) Tr((I - M(u))^{-1}) - |X|, Tr((I-M)^{-1}) = sum_k Tr(M^k)
    tr = traces.sum(axis=0)
    L = [tr[m] - (tr[m - 2] if m >= 2 else 0.0) for m in range(1, m_max + 1)]
    return chi, N, L


def _round_counts(values, what):
    out = []
    for m, v in enumerate(values, start=1):
        r = round(v)
        if abs(v - r) > 1e-6 or r < 0:
            raise GraphError(f"{what}_{m} = {v} does not round to a nonnegative integer")
        out.append(int(r))
    return out


def non_backtracking_counts(e, m_max):
    """Exhaustive counts of geodesic based loops.

    L_m counts closed walks of length m with no backtrack at interior
    steps; N_m additionally excludes walks with a tail (last step equal to
    the reverse of the first).  Serves as the oracle for zeta_ihara.
    """
    if m_max > ENUM_M_MAX_GUARD:
        raise GraphError(f"m_max {m_max} exceeds enumeration guard {ENUM_M_MAX_GUARD}")
    A = _adjacency(e)
    neighbors = [np.nonzero(A[i])[0].tolist() for i in range(e.n)]
    N = [0] * (m_max + 1)
    L = [0] * (m_max + 1)

    def walk(base, first, prev, cur, depth):
        for nxt in neighbors[cur]:
            if nxt == prev:
                continue
            d = depth + 1
            if nxt == base and d >= 2:
                L[d] += 1
                # tailless: the step into the base must not reverse the
                # first step of the walk
                if cur != first:
                    N[d] += 1
            if d < m_max:
                walk(base, first, cur, nxt, d)

    for base in range(e.n):
        for start in neighbors[base]:
            walk(base, start, base, start, 1)
    return N[1:], L[1:]


def zeta_ihara(e, u_grid, m_max):
    """Ihara zeta report: series counts and IZ(u) on a grid, each
    computed three independent ways."""
    A = _adjacency(e)
    degrees = A.sum(axis=1)
    u_max = 1.0 / max(1.0, degrees.max() - 1.0)
    for u in u_grid:
        if not (0 < u < u_max):
            raise GraphError(f"u = {u} outside the convergence region (0, {u_max})")
    if m_max < 0:
        raise GraphError(f"series length m_max = {m_max} is negative")
    chi, N_series, L_series = _series_counts(e, m_max)
    N = _round_counts(N_series, "N")
    L = _round_counts(L_series, "L")
    Q, _ = line_graph_operator(e)
    D = np.diag(degrees)
    grid = []
    for u in u_grid:
        B = np.eye(e.n) - u * A + u * u * (D - np.eye(e.n))
        iz_vertex = (1 - u * u) ** (-chi) / np.linalg.det(B)
        iz_line = 1.0 / np.linalg.det(np.eye(Q.shape[0]) - u * Q) if Q.size else 1.0
        iz_series = float(np.exp(sum(N[m - 1] * u**m / m for m in range(1, m_max + 1))))
        grid.append((float(u), float(iz_vertex), float(iz_line), float(iz_series)))
    return ZetaReport(chi, tuple(N), tuple(L), tuple(grid))
