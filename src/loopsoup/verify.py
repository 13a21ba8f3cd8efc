"""Verification harness: every sampler is pinned to the exact engine's
closed forms, and every closed form is cross-checked against independent
oracles (enumeration, Isserlis expansions, finite differences).

Each suite returns a VerificationReport.  Statistical checks gate on
|z| < 4 (relaxed to 5 with a Bonferroni note when a suite holds more than
20 checks); exact checks carry their own residual tolerances.  Every
suite degrades to its exact subset when n_samples = 0.
"""

import itertools
import json
from collections import Counter
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sstats

from .exact import _logdet_posdef, _omega_matrix, green, partition_ratio, transfer_matrix
from .graph import EnergyForm, GraphError, restrict, trace_on
from .loops import (
    alpha_permanent,
    enumerate_loops,
    mu_hit_avoid,
    mu_nontrivial_total,
    occupation_laplace,
    spectral_radius,
)
from .rng import as_generator
from .samplers import (
    SpanningTree,
    _draw,
    _loop_sampler,
    _positions,
    _step_table,
    loop_erase,
    sample_bridge,
    wilson_sample,
)
from .zeta import line_graph_operator, non_backtracking_counts, zeta_ihara

__all__ = [
    "VerificationReport",
    "verify_dynkin",
    "verify_transfer_current",
    "verify_loop_erasure",
    "verify_reflection_positivity",
    "verify_energy_variation",
    "verify_zeta",
    "verify_occupation_marginals",
    "enumerate_spanning_trees",
    "self_avoiding_paths",
    "gaussian_squared_moment",
    "exact_orth_covariance",
    "default_involution",
]


@dataclass
class Check:
    name: str
    kind: str  # "exact" | "stat" | "pvalue" | "bool"
    exact: float | None = None
    estimate: float | None = None
    se: float | None = None
    z: float | None = None
    residual: float | None = None
    tol: float | None = None
    p_value: float | None = None
    passed: bool = False

    def to_dict(self):
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass
class VerificationReport:
    suite: str
    fixture: str
    n_samples: int
    seed: object
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    def add_exact(self, name, exact, value, tol):
        scale = max(1.0, abs(exact))
        residual = abs(value - exact) / scale
        self.checks.append(
            Check(name, "exact", exact=float(exact), estimate=float(value),
                  residual=float(residual), tol=tol, passed=bool(residual <= tol))
        )

    def add_stat(self, name, exact, estimate, se):
        if se <= 0:
            z = 0.0 if abs(estimate - exact) < 1e-12 else float("inf")
        else:
            z = (estimate - exact) / se
        self.checks.append(
            Check(name, "stat", exact=float(exact), estimate=float(estimate),
                  se=float(se), z=float(z))
        )

    def add_pvalue(self, name, p, threshold=1e-3):
        self.checks.append(
            Check(name, "pvalue", p_value=float(p), tol=threshold,
                  passed=bool(p > threshold))
        )

    def add_bool(self, name, ok, residual=None, tol=None):
        self.checks.append(
            Check(name, "bool", residual=residual, tol=tol, passed=bool(ok)))

    @property
    def z_gate(self):
        return 5.0 if len(self.checks) > 20 else 4.0

    def finalize(self, t0):
        gate = self.z_gate
        for c in self.checks:
            if c.kind == "stat":
                c.passed = bool(abs(c.z) < gate)
        self.wall_time = time.perf_counter() - t0
        return self

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "suite": self.suite,
            "fixture": self.fixture,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "z_gate": self.z_gate,
            "passed": self.passed,
            "wall_time": round(self.wall_time, 3),
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)

    def table(self):
        lines = [f"suite {self.suite} fixture {self.fixture} n={self.n_samples} seed={self.seed}"]
        for c in self.checks:
            detail = []
            if c.z is not None:
                detail.append(f"z={c.z:+.2f}")
            if c.residual is not None:
                detail.append(f"res={c.residual:.2e}")
            if c.p_value is not None:
                detail.append(f"p={c.p_value:.4f}")
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name} " + " ".join(detail))
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'} ({self.wall_time:.2f}s)")
        return "\n".join(lines)


def _suite(name, fixture, n_samples, rng):
    """Start time, generator and empty report of a sampled suite."""
    seed = getattr(rng, "seed", rng if isinstance(rng, int) else None)
    return time.perf_counter(), as_generator(rng), VerificationReport(name, fixture, n_samples, seed)


def _mean_se(values):
    values = np.asarray(values, dtype=float)
    n = len(values)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def _soup_occupations(e, alpha, gen, n_samples):
    """Per-sample soup statistics of n_samples independent soups:
    occupation fields, visit counts and the (sample, vertex, successor)
    index arrays of every loop position, in sampling order."""
    sampler = _loop_sampler(e)
    counts = gen.poisson(alpha * sampler.total, n_samples)
    occ = gen.gamma(alpha, 1.0 / e.lam, size=(n_samples, e.n))
    # the count array first: allocated before the draws, it leaves the lowest
    # peak RSS when suites run repeatedly in one process
    visits = np.zeros((n_samples, e.n), dtype=np.int64)
    loops = (sampler.sample(gen) for _ in range(counts.sum()))  # drawn in sample order
    vertex, successor, tau, lengths = _positions(loops)
    sample = np.repeat(np.repeat(np.arange(n_samples), counts), lengths)
    np.add.at(occ, (sample, vertex), tau)
    np.add.at(visits, (sample, vertex), 1)
    return occ, visits, (sample, vertex, successor)


# ---------------------------------------------------------------------------
# exact oracles


def _isserlis(points, cov):
    """Sum over pair partitions of products of covariances."""
    if not points:
        return 1.0
    if len(points) % 2:
        return 0.0
    first, rest = points[0], points[1:]
    total = 0.0
    for i in range(len(rest)):
        total += cov[first, rest[i]] * _isserlis(rest[:i] + rest[i + 1 :], cov)
    return total


def gaussian_squared_moment(G, indices, k):
    """E[prod_i (1/2) sum_{j<=k} (phi_j^{x_i})^2] for k independent
    copies of the field with covariance G, by Isserlis expansion."""
    n = len(indices)
    total = 0.0
    for assign in itertools.product(range(k), repeat=n):
        prod = 1.0
        for copy in range(k):
            pts = tuple(
                idx for idx, a in zip(indices, assign) for _ in range(2) if a == copy
            )
            prod *= _isserlis(pts, G)
        total += prod
    return total / 2**n


def _q_poly_coeffs(kk, alpha, sigma):
    """Coefficients (low to high degree) of the renormalized power
    polynomial Q_k^{alpha,sigma}."""
    if kk == 0:
        return [1.0]
    if kk == 1:
        return [0.0, 1.0]
    if kk == 2:
        return [-alpha * sigma**2 / 2.0, -sigma, 0.5]
    if kk == 3:
        return [
            4 * sigma**3 * alpha / 6.0,
            3 * sigma**2 * (2 - alpha) / 6.0,
            -sigma,
            1.0 / 6.0,
        ]
    raise GraphError("renormalized powers implemented for k <= 3")


def exact_orth_covariance(e, x, y, k, l, alpha):
    """E[Q_k(centered L at x) * Q_l(centered L at y)] expanded into raw
    occupation moments through alpha-permanents."""
    G = green(e).G
    i, j = e.index[x], e.index[y]
    sx, sy = G[i, i], G[j, j]
    cx = _q_poly_coeffs(k, alpha, sx)
    cy = _q_poly_coeffs(l, alpha, sy)

    def raw(a, b):
        pts = [i] * a + [j] * b
        if not pts:
            return 1.0
        M = G[np.ix_(pts, pts)]
        return alpha_permanent(M, alpha)

    # centered powers expanded binomially: (L - alpha*sigma)^m
    total = 0.0
    for m, cm in enumerate(cx):
        if cm == 0:
            continue
        for r, cr in enumerate(cy):
            if cr == 0:
                continue
            acc = 0.0
            for a in range(m + 1):
                for b in range(r + 1):
                    acc += (
                        math.comb(m, a)
                        * math.comb(r, b)
                        * (-alpha * sx) ** (m - a)
                        * (-alpha * sy) ** (r - b)
                        * raw(a, b)
                    )
            total += cm * cr * acc
    return total


def _orth_target(gxy, k, l, alpha):
    """E[Q_k(L^x) Q_l(L^y)] = delta_{kl} (G^{xy})^{2k} alpha(alpha+1)...(alpha+k-1) / k!."""
    if k != l:
        return 0.0
    rising = float(np.prod([alpha + t for t in range(k)]))
    return gxy ** (2 * k) * rising / math.factorial(k)


def enumerate_spanning_trees(e, root=None):
    """Exhaustive oracle: all rooted spanning trees with their exact
    probabilities Z_e * prod C.  Transient chains are rooted at the
    cemetery (parent None); recurrent ones at the given root."""
    if e.n > 6:
        raise GraphError("spanning tree enumeration guard exceeded")
    if e.transient:
        if root is not None:
            raise GraphError("root only applies to recurrent chains")
        logZ = green(e).logdet_G
        choosers = []
        names = list(e.vertices)
        for i in range(e.n):
            opts = [(int(j), e.C[i, j]) for j in np.nonzero(e.C[i])[0]]
            if e.kappa[i] > 0:
                opts.append((None, e.kappa[i]))
            choosers.append(opts)
    else:
        if root is None:
            raise GraphError("recurrent chain needs a root")
        keep = [v for v in e.vertices if v != root]
        logZ = -_logdet_posdef(restrict(e, keep).laplacian())
        names = keep
        choosers = [
            [
                (int(j) if e.vertices[j] != root else None, e.C[e.index[v], j])
                for j in np.nonzero(e.C[e.index[v]])[0]
            ]
            for v in keep
        ]
    Z = float(np.exp(logZ))
    trees = []
    index_of = {v: i for i, v in enumerate(names)}
    for combo in itertools.product(*choosers):
        # chooser positions of the parents; the root (None) has none
        parent_idx = [None if c[0] is None else index_of[e.vertices[c[0]]] for c in combo]
        # acyclicity: len(names) parent steps take every vertex to the root
        reach = list(range(len(names)))
        for _ in names:
            reach = [None if j is None else parent_idx[j] for j in reach]
        if any(j is not None for j in reach):
            continue
        weight = float(np.prod([c[1] for c in combo]))
        parent = {names[i]: root if j is None else names[j] for i, j in enumerate(parent_idx)}
        trees.append((parent, Z * weight))
    return trees


def self_avoiding_paths(e, x, y):
    """All self-avoiding paths from x to y along positive conductances, as
    lists of vertex indices."""
    paths = []
    target = e.index[y]

    def dfs(path, seen):
        cur = path[-1]
        if cur == target:
            paths.append(list(path))
            return
        for nxt in np.nonzero(e.C[cur])[0]:
            if int(nxt) not in seen:
                seen.add(int(nxt))
                path.append(int(nxt))
                dfs(path, seen)
                path.pop()
                seen.remove(int(nxt))

    dfs([e.index[x]], {e.index[x]})
    return paths


def _erased_path_law(e, x, y):
    """Exact law of the loop-erased bridge: mass(eta) = prod C * det of the
    Green submatrix over eta's vertices, normalized by G^{x,y}.  Paths are
    keyed by their vertex indices."""
    G = green(e).G
    law = {}
    for path in self_avoiding_paths(e, x, y):
        mass = float(np.prod([e.C[path[i], path[i + 1]] for i in range(len(path) - 1)]))
        mass *= float(np.linalg.det(G[np.ix_(path, path)]))
        law[tuple(path)] = mass
    total = sum(law.values())
    return law, total, float(G[e.index[x], e.index[y]])


def default_involution(e):
    """Pairing v <-> -v (or a* <-> b*) read off the vertex names."""
    rho = {}
    for v in e.vertices:
        if v.startswith("-") and v[1:] in e.index:
            rho[v] = v[1:]
        elif "-" + v in e.index:
            rho[v] = "-" + v
        elif v.startswith("a") and "b" + v[1:] in e.index:
            rho[v] = "b" + v[1:]
        elif v.startswith("b") and "a" + v[1:] in e.index:
            rho[v] = "a" + v[1:]
        else:
            raise GraphError(f"no mirror partner found for vertex {v!r}")
    return rho


# ---------------------------------------------------------------------------
# suites


def verify_dynkin(e, k=1, n_samples=0, rng=0, fixture="?"):
    """L-hat at alpha=k/2 versus half the squared norm of k free fields:
    exact Isserlis-vs-permanent agreement, sampled joint moments up to
    order 3, and the bridge identity at k=1."""
    t0, gen, report = _suite("dynkin", fixture, n_samples, rng)
    alpha = k / 2.0
    bundle = green(e)
    G = bundle.G
    verts = list(range(min(e.n, 2)))
    multisets = []
    for order in (1, 2, 3):
        multisets += [
            tuple(m) for m in itertools.combinations_with_replacement(verts, order)
        ]
    for m in multisets:
        per = alpha_permanent(G[np.ix_(m, m)], alpha)
        iss = gaussian_squared_moment(G, m, k)
        name = "E[" + " ".join(f"L^{e.vertices[i]}" for i in m) + "]"
        report.add_exact("isserlis_vs_permanent " + name, per, iss, 1e-9)
    if n_samples > 0:
        occ, _, _ = _soup_occupations(e, alpha, gen, n_samples)
        z = gen.standard_normal((n_samples, e.n, k))
        Lf = np.linalg.cholesky(G)
        phi = np.einsum("ij,sjk->sik", Lf, z)
        w = 0.5 * (phi**2).sum(axis=2)
        for m in multisets:
            per = alpha_permanent(G[np.ix_(m, m)], alpha)
            name = " ".join(e.vertices[i] for i in m)
            mean, se = _mean_se(np.prod(occ[:, m], axis=1))
            report.add_stat(f"soup moment ({name})", per, mean, se)
            mean, se = _mean_se(np.prod(w[:, m], axis=1))
            report.add_stat(f"field moment ({name})", per, mean, se)
        if k == 1 and e.n >= 2:
            x, y = e.vertices[0], e.vertices[1]
            chi = 0.4 + 0.1 * np.arange(e.n)
            lhs_vals = phi[:, 0, 0] * phi[:, 1, 0] * np.exp(-w @ chi)
            occ_half, _, _ = _soup_occupations(e, 0.5, gen, n_samples)
            bridge_f = np.empty(n_samples)
            for s in range(n_samples):
                b = sample_bridge(e, x, y, gen)
                # builtin sum adds term by term, in path order
                bridge_f[s] = np.exp(-sum(chi[list(b.vertices)] * b.taus))
            rhs_vals = G[0, 1] * np.exp(-occ_half @ chi) * bridge_f
            m1, s1 = _mean_se(lhs_vals)
            m2, s2 = _mean_se(rhs_vals)
            report.add_stat("bridge identity E[phi_x phi_y F(phi^2/2)]", m2, m1, float(np.hypot(s1, s2)))
    return report.finalize(t0)


def _tree_edge_probability(e, edges, root=None):
    """P(all undirected edges in the tree) = prod C * det K."""
    K = transfer_matrix(e, edges, root=root).K
    conds = [e.C[e.index[x], e.index[y]] for x, y in edges]
    return float(np.prod(conds) * np.linalg.det(K))


def verify_transfer_current(e, edge_sets=None, n_samples=0, rng=0, root=None,
                            fixture="?"):
    """Spanning trees: exhaustive-law oracle, edge-inclusion determinants,
    the determinantal Laplace functional and negative association."""
    t0, gen, report = _suite("transfer_current", fixture, n_samples, rng)
    all_edges = [
        (e.vertices[i], e.vertices[j])
        for i in range(e.n)
        for j in range(i + 1, e.n)
        if e.C[i, j] > 0
    ]
    if edge_sets is None:
        edge_sets = [[edge] for edge in all_edges[:2]]
        if len(all_edges) >= 2:
            edge_sets.append(all_edges[:2])
    named_sets = [
        ("+".join(f"{a}-{b}" for a, b in edges), edges, _tree_edge_probability(e, edges, root=root))
        for edges in edge_sets
    ]
    oracle = None
    if e.n <= 4:
        oracle = [(SpanningTree(parent, root), p) for parent, p in enumerate_spanning_trees(e, root=root)]
        report.add_exact("tree law total mass", 1.0, sum(p for _, p in oracle), 1e-9)
        for name, edges, det_prob in named_sets:
            brute = sum(
                p for tree, p in oracle if all(tree.contains_edge(a, b) for a, b in edges)
            )
            report.add_exact(f"inclusion det vs oracle [{name}]", brute, det_prob, 1e-9)
    # negative association, determinants only
    if len(all_edges) >= 2:
        p12 = _tree_edge_probability(e, all_edges[:2], root=root)
        p1 = _tree_edge_probability(e, [all_edges[0]], root=root)
        p2 = _tree_edge_probability(e, [all_edges[1]], root=root)
        report.add_bool(
            "negative association (det)", p12 <= p1 * p2 + 1e-12,
            residual=p12 - p1 * p2, tol=1e-12,
        )
    g_values = {edge: 0.3 + 0.1 * i for i, edge in enumerate(all_edges)}
    K_all = transfer_matrix(e, all_edges, root=root).K
    d = np.sqrt(
        np.array(
            [e.C[e.index[x], e.index[y]] * (1 - np.exp(-g_values[(x, y)])) for x, y in all_edges]
        )
    )
    laplace_exact = float(np.linalg.det(np.eye(len(all_edges)) - d[:, None] * K_all * d[None, :]))
    if n_samples > 0:
        counts = Counter()
        incl = np.zeros(len(edge_sets))
        lap = np.empty(n_samples)
        for s in range(n_samples):
            tree, _ = wilson_sample(e, gen, root=root)
            counts[tree.key()] += 1
            for ti, edges in enumerate(edge_sets):
                if all(tree.contains_edge(a, b) for a, b in edges):
                    incl[ti] += 1
            lap[s] = np.exp(
                -sum(g_values[edge] for edge in all_edges if tree.contains_edge(*edge))
            )
        if oracle is not None:
            expected = np.array([p for _, p in oracle]) * n_samples
            observed = np.array([counts[tree.key()] for tree, _ in oracle], dtype=float)
            chi2, p = sstats.chisquare(observed, expected)
            report.add_pvalue(f"tree law chi-square ({len(oracle)} trees)", p)
        for ti, (name, _, det_prob) in enumerate(named_sets):
            freq = incl[ti] / n_samples
            se = np.sqrt(max(det_prob * (1 - det_prob), 1e-12) / n_samples)
            report.add_stat(f"inclusion freq [{name}]", det_prob, freq, se)
        mean, se = _mean_se(lap)
        report.add_stat("edge Laplace functional", laplace_exact, mean, se)
    return report.finalize(t0)


def _walk_to_absorption(e, table, start, gen, max_steps=10**7):
    """Vertex indices of a walk from the index start until killed; table is
    _step_table(e)."""
    cdf, column = table
    path = [start]
    for _ in range(max_steps):
        u = path[-1]
        nxt = column[u][_draw(gen, cdf[u])]
        if nxt == e.n:
            return path
        path.append(nxt)
    raise GraphError("walk failed to reach absorption")


def verify_loop_erasure(e, x, y, n_samples=0, rng=0, fixture="?"):
    """Loop-erased bridge law against prod C * det G_eta, plus the
    straight-to-cemetery probability kappa_x G^{xx}."""
    t0, gen, report = _suite("loop_erasure", fixture, n_samples, rng)
    law, total, gxy = _erased_path_law(e, x, y)
    report.add_exact("sum of erased-path masses = G^{x,y}", gxy, total, 1e-9)
    i = e.index[x]
    p_direct = e.kappa[i] * green(e).G[i, i]
    if n_samples > 0:
        counts = Counter(
            tuple(loop_erase(sample_bridge(e, x, y, gen).vertices)) for _ in range(n_samples)
        )
        tv = 0.5 * sum(
            abs(counts[path] / n_samples - mass / total)
            for path in sorted(set(law) | set(counts))
            for mass in [law.get(path, 0.0)]
        )
        report.add_bool(
            f"bridge erasure TV distance ({len(law)} paths)", tv < 0.01,
            residual=tv, tol=0.01,
        )
        table = _step_table(e)
        hits = sum(loop_erase(_walk_to_absorption(e, table, i, gen)) == [i] for _ in range(n_samples))
        freq = hits / n_samples
        se = np.sqrt(p_direct * (1 - p_direct) / n_samples)
        report.add_stat("P(erased walk goes straight to cemetery)", p_direct, freq, se)
    return report.finalize(t0)


def _validate_involution(e, rho, partition):
    for v in e.vertices:
        if rho.get(rho.get(v)) != v:
            raise GraphError(f"rho is not an involution at {v!r}")
    perm = e.indices([rho[v] for v in e.vertices])
    if np.any(np.abs(e.C - e.C[np.ix_(perm, perm)]) > 1e-12):
        raise GraphError("rho does not preserve the conductances")
    if np.any(np.abs(e.kappa - e.kappa[perm]) > 1e-12):
        raise GraphError("rho does not preserve the killing")
    xp, xm, x0 = (list(s) for s in partition)
    if set(xp) | set(xm) | set(x0) != set(e.vertices):
        raise GraphError("partition does not cover the vertex set")
    if set(xp) & set(xm) or not xp or not xm:
        raise GraphError("X+ and X- must be nonempty and disjoint")
    if {rho[v] for v in xp} != set(xm) or {rho[v] for v in x0} != set(x0):
        raise GraphError("partition inconsistent with rho")
    return xp, xm, x0


def verify_reflection_positivity(e, rho, partition=None, counterexample_sets=None,
                                 fixture="?"):
    """Positivity-side checks (PSD Gram over exponential functionals, NPD
    tree-inclusion covariance) and, when counterexample_sets names the two
    midpoint pairs, the exact strictly-negative loop-functional value."""
    t0 = time.perf_counter()
    report = VerificationReport("reflection_positivity", fixture, 0, None)
    if partition is None:
        # take one vertex of each rho-orbit, preferring the lexicographically
        # smaller name, so {v, rho(v)} splits into X+ and X-
        xp = [v for v in e.vertices if v < rho[v]]
        partition = (xp, [rho[v] for v in xp], [])
    xp, xm, x0 = _validate_involution(e, rho, partition)
    et = e if not x0 else trace_on(e, xp + xm)
    ip = et.indices(xp)
    cross = et.C[np.ix_(ip, et.indices([rho[v] for v in xp]))]
    eigs = np.linalg.eigvalsh((cross + cross.T) / 2)
    report.add_bool(
        "cross conductance matrix nonnegative definite", eigs.min() >= -1e-9,
        residual=float(eigs.min()), tol=1e-9,
    )
    G = green(et).G
    mirror = et.indices([rho[v] for v in et.vertices])  # chi o rho = chi[mirror]
    chis = []
    for v in xp:
        chi = np.zeros(et.n)
        chi[et.index[v]] = 0.3
        chis.append(chi)
    if len(xp) >= 2:
        chi = np.zeros(et.n)
        chi[et.indices(xp[:2])] = 0.25
        chis.append(chi)
    chi = np.zeros(et.n)
    chi[et.indices(xp)] = 0.1
    chis.append(chi)
    M = np.empty((len(chis), len(chis)))
    for a, ca in enumerate(chis):
        for b, cb in enumerate(chis):
            tot = ca + cb[mirror]
            M[a, b] = np.exp(0.5 * tot @ G @ tot)
    gram_eigs = np.linalg.eigvalsh((M + M.T) / 2)
    report.add_bool(
        "free-field Gram PSD", gram_eigs.min() >= -1e-9 * max(1.0, abs(M).max()),
        residual=float(gram_eigs.min() / max(1.0, abs(M).max())), tol=1e-9,
    )
    plus_edges = [
        (xp[i], xp[j])
        for i in range(len(xp))
        for j in range(len(xp))
        if i < j and et.C[et.index[xp[i]], et.index[xp[j]]] > 0
    ]
    if plus_edges:
        m = len(plus_edges)
        Kcov = np.empty((m, m))
        singles = [_tree_edge_probability(et, [edge]) for edge in plus_edges]
        for a, ea in enumerate(plus_edges):
            for b, eb in enumerate(plus_edges):
                mirrored = (rho[eb[0]], rho[eb[1]])
                pab = _tree_edge_probability(et, [ea, mirrored])
                Kcov[a, b] = pab - singles[a] * singles[b]
        cov_eigs = np.linalg.eigvalsh((Kcov + Kcov.T) / 2)
        report.add_bool(
            "tree-inclusion covariance nonpositive definite",
            cov_eigs.max() <= 1e-9,
            residual=float(cov_eigs.max()), tol=1e-9,
        )
    if counterexample_sets is not None:
        (a1, a2), (b1, b2) = counterexample_sets
        ra1, ra2, rb1, rb2 = rho[a1], rho[a2], rho[b1], rho[b2]
        m1, _ = mu_hit_avoid(e, [a1, a2, ra1, ra2], [b1, b2, rb1, rb2])
        m2, _ = mu_hit_avoid(e, [b1, b2, rb1, rb2], [a1, a2, ra1, ra2])
        m3, _ = mu_hit_avoid(e, [a1, a2, rb1, rb2], [b1, b2, ra1, ra2])
        m4, _ = mu_hit_avoid(e, [b1, b2, ra1, ra2], [a1, a2, rb1, rb2])
        report.add_exact("counterexample: mu(A,B' mirrored) vanishes", 0.0, m1, 1e-9)
        report.add_exact("counterexample: mu(A',B mirrored) vanishes", 0.0, m2, 1e-9)
        value = m1 + m2 - m3 - m4
        report.add_bool(
            "counterexample: mu(Phi * Phi o rho) strictly negative",
            value < -1e-9, residual=value, tol=1e-9,
        )
    return report.finalize(t0)


def verify_energy_variation(e, e2=None, omega=None, alpha=1.0, n_samples=0,
                            rng=0, fixture="?"):
    """Multiplicative loop functionals against partition-function ratios,
    plus finite-difference derivative and Schwinger-function checks."""
    t0, gen, report = _suite("energy_variation", fixture, n_samples, rng)
    if e2 is None:
        e2 = e
    if e.vertices != e2.vertices:
        raise GraphError("energy forms must share the vertex set")
    if np.any((e2.C > 0) & (e.C == 0)) or np.any(e2.C > e.C + 1e-12):
        raise GraphError("need C' <= C with support(C') inside support(C)")
    if np.any(e2.lam < e.lam - 1e-12):
        raise GraphError("need lambda' >= lambda")
    W = np.zeros((e.n, e.n)) if omega is None else _omega_matrix(e, omega)
    ratio = partition_ratio(e, e2, W, alpha)
    if np.allclose(e2.C, e.C) and not W.any():
        chi = e2.kappa - e.kappa
        report.add_exact(
            "ratio equals occupation Laplace transform",
            occupation_laplace(e, alpha, chi), ratio.real, 1e-12,
        )
    if n_samples > 0:
        occ, _, (sample, vertex, successor) = _soup_occupations(e, alpha, gen, n_samples)
        logR = np.zeros((e.n, e.n))
        mask = e.C > 0
        logR[mask] = np.log(e2.C[mask] / e.C[mask])
        dlam = e2.lam - e.lam
        exponent = (
            np.bincount(sample, logR[vertex, successor], n_samples)
            + 1j * np.bincount(sample, W[vertex, successor], n_samples)
            - occ @ dlam
        )
        vals = np.exp(exponent)
        mr, sr = _mean_se(vals.real)
        mi, si = _mean_se(vals.imag)
        report.add_stat("multiplicative functional (real)", ratio.real, mr, sr)
        report.add_stat("multiplicative functional (imag)", ratio.imag, mi, si)
    # derivative of the total loop mass in the killing rate
    x_idx = 0
    G = green(e).G
    exact_deriv = -(G[x_idx, x_idx] - 1.0 / e.lam[x_idx])
    h = 1e-5

    def total_mass_with_kappa(delta):
        kap = e.kappa.copy()
        kap[x_idx] += delta
        em = EnergyForm(e.vertices, e.C, kap, validate=False)
        return mu_nontrivial_total(em)

    fd = (total_mass_with_kappa(h) - total_mass_with_kappa(-h)) / (2 * h)
    fd2 = (total_mass_with_kappa(2 * h) - total_mass_with_kappa(-2 * h)) / (4 * h)
    report.add_exact("d mu(p>1)/d kappa_x vs -mu(l-hat 1_{p>1})", exact_deriv, fd, 1e-6)
    report.add_bool(
        "Richardson consistency of the derivative step",
        abs(fd - fd2) < 10 * max(abs(fd - exact_deriv), 1e-12),
        residual=abs(fd - fd2),
    )
    if e.n <= 4:
        loops, tail = enumerate_loops(e, 12)
        enum = sum(
            mass * loop.vertices.count(x_idx) / e.lam[x_idx]
            for loop, mass in loops
        )
        rho_b = spectral_radius(e)
        bound = e.n * rho_b**13 / (1 - rho_b) / e.lam.min() + 1e-9
        report.add_bool(
            "enumerated mu(l-hat 1_{p>1}) within tail bound",
            abs(enum - (-exact_deriv)) <= bound,
            residual=abs(enum - (-exact_deriv)), tol=bound,
        )
    # Schwinger: mu(l-hat^x l-hat^y) = (G^{xy})^2 by second differences
    if e.n >= 2:
        y_idx = 1
        L = e.laplacian()

        def logdet_gchi(s, t):
            A = L.copy()
            A[x_idx, x_idx] += s
            A[y_idx, y_idx] += t
            return -_logdet_posdef(A)

        hh = 1e-4
        mixed = (
            logdet_gchi(hh, hh)
            - logdet_gchi(hh, -hh)
            - logdet_gchi(-hh, hh)
            + logdet_gchi(-hh, -hh)
        ) / (4 * hh * hh)
        exact = G[x_idx, y_idx] ** 2
        report.add_exact("Schwinger mu(l^x l^y) = (G^{xy})^2", exact, mixed, 1e-5)
    return report.finalize(t0)


def verify_zeta(e, m_max=8, fixture="?"):
    """Three-way integer agreement of the non-backtracking counts and the
    zeta values on a grid."""
    t0 = time.perf_counter()
    report = VerificationReport("zeta", fixture, 0, None)
    degrees = e.C.sum(axis=1)
    u_hi = 1.0 / max(1.0, degrees.max() - 1.0)
    grid = [0.2 * u_hi, 0.5 * u_hi]
    zr = zeta_ihara(e, grid, m_max)
    N_enum, L_enum = non_backtracking_counts(e, m_max)
    Q, _ = line_graph_operator(e)
    power = np.eye(Q.shape[0])
    for m in range(1, m_max + 1):
        power = power @ Q
        trace = float(np.trace(power))
        report.add_exact(f"N_{m} determinant series vs enumeration", N_enum[m - 1], zr.N[m - 1], 0)
        report.add_exact(f"N_{m} line-graph trace vs enumeration", N_enum[m - 1], trace, 1e-6)
        report.add_exact(f"L_{m} determinant series vs enumeration", L_enum[m - 1], zr.L[m - 1], 0)
    rho_q = float(np.max(np.abs(np.linalg.eigvals(Q)))) if Q.size else 0.0
    for u, izv, izl, izs in zr.grid:
        report.add_exact(f"IZ({u:.3f}) vertex vs line formula", izv, izl, 1e-9)
        s = u * rho_q
        tail = np.exp(2 * Q.shape[0] * s ** (m_max + 1) / ((m_max + 1) * (1 - s))) - 1 if s < 1 else np.inf
        report.add_bool(
            f"IZ({u:.3f}) series within truncation bound",
            abs(izs / izv - 1) <= tail + 1e-9,
            residual=abs(izs / izv - 1), tol=float(tail),
        )
    return report.finalize(t0)


def verify_occupation_marginals(e, alpha_list=(0.5, 1.0, 2.0), n_samples=0,
                                rng=0, fixture="?"):
    """Gamma marginals, geometric visit counts and the renormalized-power
    orthogonality, exact and sampled."""
    t0, gen, report = _suite("occupation", fixture, n_samples, rng)
    G = green(e).G
    x, y = e.vertices[0], e.vertices[min(1, e.n - 1)]
    i, j = e.index[x], e.index[y]
    for alpha in alpha_list:
        for k, l in [(1, 1), (1, 2), (2, 2)]:
            exact = exact_orth_covariance(e, x, y, k, l, alpha)
            report.add_exact(
                f"orthogonality Q_{k},Q_{l} (alpha={alpha})", _orth_target(G[i, j], k, l, alpha),
                exact, 1e-9,
            )
    if n_samples > 0:
        for alpha in alpha_list:
            occ, visits, _ = _soup_occupations(e, alpha, gen, n_samples)
            ks = sstats.kstest(occ[:, i], "gamma", args=(alpha, 0.0, G[i, i]))
            report.add_pvalue(f"KS L-hat^{x} vs Gamma({alpha}, G^xx)", ks.pvalue)
            if alpha == 1.0:
                p_geo = 1.0 / (e.lam[i] * G[i, i])
                vals = visits[:, i] + 1
                kmax = max(int(vals.max()), 2)
                observed = np.bincount(np.minimum(vals, kmax), minlength=kmax + 1)[1:]
                probs = p_geo * (1 - p_geo) ** np.arange(kmax - 1)
                probs = np.append(probs, (1 - p_geo) ** (kmax - 1))
                # merge sparse tail cells for a valid chi-square
                while len(probs) > 2 and probs[-1] * n_samples < 5:
                    probs[-2] += probs[-1]
                    observed[-2] += observed[-1]
                    probs, observed = probs[:-1], observed[:-1]
                chi2, p = sstats.chisquare(observed, probs * n_samples)
                report.add_pvalue("chi-square N_x + 1 vs geometric", p)
            if e.n >= 2:
                cx = occ[:, i] - alpha * G[i, i]
                cy = occ[:, j] - alpha * G[j, j]
                q2x = 0.5 * (cx**2 - 2 * G[i, i] * cx - alpha * G[i, i] ** 2)
                q2y = 0.5 * (cy**2 - 2 * G[j, j] * cy - alpha * G[j, j] ** 2)
                pairs = {
                    (1, 1): cx * cy,
                    (1, 2): cx * q2y,
                    (2, 2): q2x * q2y,
                }
                for (k, l), vals in pairs.items():
                    mean, se = _mean_se(vals)
                    report.add_stat(
                        f"sampled E[Q_{k} Q_{l}] (alpha={alpha})", _orth_target(G[i, j], k, l, alpha),
                        mean, se,
                    )
    return report.finalize(t0)
