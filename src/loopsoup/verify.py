"""Verification harness: every sampler is pinned to the exact engine's
closed forms, and every closed form is cross-checked against independent
oracles.  The closed forms live in loops and exact; this module holds
only the oracles (Isserlis expansions, the permanent expansion of the
renormalized-power products, enumerations, finite differences), the
sampling and the reports.

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
from scipy import special

from .exact import _logdet_posdef, _omega_matrix, green, partition_ratio, transfer_matrix
from .graph import EnergyForm, GraphError, _root_index, restrict, trace_on
from .loops import (
    _geometric_tail,
    _renormalized_coeffs,
    enumerate_loops,
    mu_hit_avoid,
    mu_nontrivial_total,
    occupation_laplace,
    occupation_moments,
    renormalized_power,
    renormalized_power_moment,
    spectral_radius,
)
from .rng import as_generator
from .samplers import _bridges, _field, _soup_occupations, _step_table, _trees, _walk, loop_erase
from .zeta import _u_max, line_graph_operator, non_backtracking_counts, zeta_ihara

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
    fixture: str = "?"  # the graph document, named by the CLI
    n_samples: int = 0
    seed: object = None
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
        if se > 0:
            z = float((estimate - exact) / se)
        else:  # a sample of no spread puts no scale on a miss: no z, and the check fails
            z = 0.0 if abs(estimate - exact) < 1e-12 else None
        self.checks.append(
            Check(name, "stat", exact=float(exact), estimate=float(estimate), se=float(se), z=z)
        )

    def add_pvalue(self, name, p):
        self.checks.append(
            Check(name, "pvalue", p_value=float(p), tol=1e-3, passed=bool(p > 1e-3))
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
                c.passed = c.z is not None and bool(abs(c.z) < gate)
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


def _suite(name, n_samples, rng):
    """Start time, generator and empty report of a sampled suite."""
    seed = getattr(rng, "seed", rng if isinstance(rng, int) else None)
    return time.perf_counter(), as_generator(rng), VerificationReport(name, n_samples=n_samples, seed=seed)


def _chisquare_p(observed, expected):
    """p-value of Pearson's chi-square test of observed counts against
    expected counts of the same total, on len - 1 degrees of freedom: what
    scipy.stats.chisquare returns, bit for bit, without importing
    scipy.stats.  Its check that the totals agree is left out: every caller
    takes expected = probs * n with probs summing to 1."""
    observed = np.asarray(observed, dtype=float)
    stat = ((observed - expected) ** 2 / expected).sum()
    return special.chdtrc(len(observed) - 1, stat)


def _mean_se(values):
    values = np.asarray(values, dtype=float)
    n = len(values)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0


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


def exact_orth_covariance(e, x, y, k, l, alpha):
    """E[Q_k(centered L at x) * Q_l(centered L at y)] expanded binomially
    into raw occupation moments, the alpha-permanents of
    loops.occupation_moments."""
    G = green(e).G
    sx, sy = G[e.index[x], e.index[x]], G[e.index[y], e.index[y]]
    # centered powers expanded binomially: (L - alpha*sigma)^m
    total = 0.0
    for m, cm in enumerate(_renormalized_coeffs(k, alpha, sx)):
        if cm == 0:
            continue
        for r, cr in enumerate(_renormalized_coeffs(l, alpha, sy)):
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
                        * occupation_moments(e, alpha, [x] * a + [y] * b)
                    )
            total += cm * cr * acc
    return total


def enumerate_spanning_trees(e, root=None):
    """Exhaustive oracle: all rooted spanning trees with their exact
    probabilities Z_e * prod C = exp(log det G + sum log C), as arrays
    (parents, probabilities), row t of parents tree t's parent array.
    Transient chains are rooted at the cemetery, index n; recurrent ones at
    the given root, as the chain killed there: the root's children point at
    it and the root at n."""
    if e.n > 6:
        raise GraphError("spanning tree enumeration guard exceeded")
    n, keep, end = e.n, np.arange(e.n), _root_index(e, root)
    if end < n:
        keep = np.delete(keep, end)
        e = restrict(e, [e.vertices[i] for i in keep])
    logdet_G = green(e).logdet_G
    # each kept vertex chooses a neighbour, or the end (the cemetery or the root) by its killing
    choosers = []
    for i in range(e.n):
        opts = [(keep[j], e.C[i, j]) for j in np.nonzero(e.C[i])[0]]
        if e.kappa[i] > 0:
            opts.append((end, e.kappa[i]))
        choosers.append(opts)
    parents, log_weights = [], []
    for combo in itertools.product(*choosers):
        parent = np.full(n + 1, n)  # n, the end of every tree, is its own parent
        parent[keep] = [c[0] for c in combo]
        reach = parent
        for _ in range(n):  # n parent steps take every vertex to n, unless it lies on a cycle
            reach = parent[reach]
        if (reach == n).all():
            parents.append(parent[:n])
            log_weights.append(sum(math.log(c[1]) for c in combo))
    # in log space: Z and prod C may each leave the floats where their product does not
    with np.errstate(over="ignore"):  # rejected below
        probs = np.exp(logdet_G + np.array(log_weights))
    # every tree has positive probability, unless it leaves the floats
    if not all(0 < p < math.inf for p in probs.tolist()):
        raise GraphError("spanning tree probabilities leave the floating-point range")
    return np.array(parents).reshape(-1, n), probs


def _inclusions(parents, iu, ju):
    """(tree, edge) inclusions of parent-array rows, edge a being {iu[a], ju[a]}."""
    return (parents[:, iu] == ju) | (parents[:, ju] == iu)


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
        with np.errstate(over="ignore"):  # rejected below
            mass = float(np.prod([e.C[path[i], path[i + 1]] for i in range(len(path) - 1)]))
        mass *= float(np.linalg.det(G[np.ix_(path, path)]))
        law[tuple(path)] = mass
    total = sum(law.values())
    if not 0 < total < math.inf:
        raise GraphError("erased-path masses leave the floating-point range")
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


def verify_dynkin(e, k=1, n_samples=0, rng=0):
    """L-hat at alpha=k/2 versus half the squared norm of k free fields:
    exact Isserlis-vs-permanent agreement, sampled joint moments up to
    order 3, and the bridge identity at k=1."""
    t0, gen, report = _suite("dynkin", n_samples, rng)
    alpha = k / 2.0
    G = green(e).G
    verts = list(range(min(e.n, 2)))
    multisets = []
    for order in (1, 2, 3):
        multisets += [
            tuple(m) for m in itertools.combinations_with_replacement(verts, order)
        ]
    perms = [occupation_moments(e, alpha, [e.vertices[i] for i in m]) for m in multisets]
    for m, per in zip(multisets, perms):
        iss = gaussian_squared_moment(G, m, k)
        name = "E[" + " ".join(f"L^{e.vertices[i]}" for i in m) + "]"
        report.add_exact("isserlis_vs_permanent " + name, per, iss, 1e-9)
    if n_samples > 0:
        occ = _soup_occupations(e, alpha, gen, n_samples).occupation
        z = gen.standard_normal((e.n, n_samples, k))
        phi = _field(e, z.reshape(e.n, -1)).reshape(z.shape)  # phi[x, s, copy]
        w = 0.5 * (phi**2).sum(axis=2).T
        for m, per in zip(multisets, perms):
            name = " ".join(e.vertices[i] for i in m)
            mean, se = _mean_se(np.prod(occ[:, m], axis=1))
            report.add_stat(f"soup moment ({name})", per, mean, se)
            mean, se = _mean_se(np.prod(w[:, m], axis=1))
            report.add_stat(f"field moment ({name})", per, mean, se)
        if k == 1 and e.n >= 2:
            chi = 0.4 + 0.1 * np.arange(e.n)
            lhs_vals = phi[0, :, 0] * phi[1, :, 0] * np.exp(-w @ chi)
            occ_half = _soup_occupations(e, 0.5, gen, n_samples).occupation
            vertex, tau, lengths = _bridges(e, 0, 1, gen, n_samples)
            # bincount adds each bridge's terms in path order, from 0
            bridge_f = np.exp(-np.bincount(np.repeat(np.arange(n_samples), lengths), chi[vertex] * tau, n_samples))
            rhs_vals = G[0, 1] * np.exp(-occ_half @ chi) * bridge_f
            m1, s1 = _mean_se(lhs_vals)
            m2, s2 = _mean_se(rhs_vals)
            report.add_stat("bridge identity E[phi_x phi_y F(phi^2/2)]", m2, m1, float(np.hypot(s1, s2)))
    return report.finalize(t0)


def _inclusion_probability(c, K, sub):
    """P(the undirected edges sub are all in the tree) = prod c[sub] *
    det K[sub, sub], of the edges' conductances c and transfer matrix K."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product is rejected below
        p = float(np.prod(c[sub]) * np.linalg.det(K[np.ix_(sub, sub)]))
    if not math.isfinite(p):
        raise GraphError("edge inclusion probability overflows")
    return p


def _edge_laplace(c, K, g):
    """E[exp(-sum_a g_a 1{a in T})] = det(I - D K D) over the edges of
    conductances c and transfer matrix K, D^2 = diag c (1 - e^{-g})."""
    d = np.sqrt(c * (1 - np.exp(-g)))
    return float(np.linalg.det(np.eye(len(c)) - d[:, None] * K * d[None, :]))


def verify_transfer_current(e, n_samples=0, rng=0, root=None):
    """Spanning trees: exhaustive-law oracle, inclusion determinants of the
    edge sets {e_0}, {e_1} and {e_0, e_1}, the determinantal Laplace
    functional and negative association, on trees as parent-array rows."""
    t0, gen, report = _suite("transfer_current", n_samples, rng)
    iu, ju = np.nonzero(np.triu(e.C) > 0)
    c = e.C[iu, ju]
    all_edges = [(e.vertices[i], e.vertices[j]) for i, j in zip(iu, ju)]
    tm = transfer_matrix(e, all_edges, root=root)
    subsets = [[0], [1], [0, 1]] if len(all_edges) >= 2 else [[0]] * len(all_edges)
    named_sets = []
    for sub in subsets:
        name = "+".join(f"{a}-{b}" for a, b in (all_edges[a] for a in sub))
        named_sets.append((name, sub, _inclusion_probability(c, tm.K, sub)))
    oracle = None
    if e.n <= 4:
        oracle, probs = enumerate_spanning_trees(e, root=root)
        report.add_exact("tree law total mass", 1.0, sum(probs.tolist()), 1e-9)
        inc = _inclusions(oracle, iu, ju)
        for name, sub, det_prob in named_sets:
            brute = sum(probs[inc[:, sub].all(axis=1)].tolist())
            report.add_exact(f"inclusion det vs oracle [{name}]", brute, det_prob, 1e-9)
    # negative association, determinants only
    if len(all_edges) >= 2:
        (_, _, p1), (_, _, p2), (_, _, p12) = named_sets
        report.add_bool(
            "negative association (det)", p12 <= p1 * p2 + 1e-12,
            residual=p12 - p1 * p2, tol=1e-12,
        )
    g = 0.3 + 0.1 * np.arange(len(all_edges))
    laplace_exact = _edge_laplace(c, tm.K, g)
    if n_samples > 0:
        rows, _ = _trees(e, gen, root, n_samples)
        inc = _inclusions(rows, iu, ju)
        if oracle is not None:
            counts = np.array([(rows == parent).all(axis=1).sum() for parent in oracle])
            if len(oracle) == 1:
                report.add_bool("every tree is the only tree", counts[0] == n_samples)
            else:
                p = _chisquare_p(counts, probs * n_samples)
                report.add_pvalue(f"tree law chi-square ({len(oracle)} trees)", p)
        for name, sub, det_prob in named_sets:
            freq = inc[:, sub].all(axis=1).sum() / n_samples
            se = np.sqrt(max(det_prob * (1 - det_prob), 1e-12) / n_samples)
            report.add_stat(f"inclusion freq [{name}]", det_prob, freq, se)
        # g summed edge by edge, in edge order: a pairwise .sum(axis=1) moves last bits
        exponent = np.zeros(n_samples)
        for a, g_a in enumerate(g):
            exponent[inc[:, a]] += g_a
        # the exact se, from E[e^{-2 <g, 1_T>}]: a sample of equal trees has no spread
        var = _edge_laplace(c, tm.K, 2 * g) - laplace_exact**2
        se = np.sqrt(max(var, 1e-12) / n_samples)
        report.add_stat("edge Laplace functional", laplace_exact, float(np.exp(-exponent).mean()), se)
    return report.finalize(t0)


def verify_loop_erasure(e, x, y, n_samples=0, rng=0):
    """Loop-erased bridge law against prod C * det G_eta, plus the
    straight-to-cemetery probability kappa_x G^{xx}."""
    t0, gen, report = _suite("loop_erasure", n_samples, rng)
    law, total, gxy = _erased_path_law(e, x, y)
    report.add_exact("sum of erased-path masses = G^{x,y}", gxy, total, 1e-9)
    i = e.index[x]
    p_direct = e.kappa[i] * green(e).G[i, i]
    if n_samples > 0:
        vertex, _, lengths = _bridges(e, i, e.index[y], gen, n_samples)
        vertex, ends = vertex.tolist(), np.cumsum(lengths).tolist()
        counts = Counter(tuple(loop_erase(vertex[a:b])) for a, b in zip([0, *ends], ends))
        tv = 0.5 * sum(
            abs(counts[path] / n_samples - mass / total)
            for path in sorted(set(law) | set(counts))
            for mass in [law.get(path, 0.0)]
        )
        report.add_bool(
            f"bridge erasure TV distance ({len(law)} paths)", tv < 0.01,
            residual=tv, tol=0.01,
        )
        table, nowhere = _step_table(e), [False] * e.n  # the walk ends only at the cemetery
        # the erased walk is [x] exactly when the walk ends at x, its start
        hits = sum(_walk(gen, table, i, nowhere)[0][-1] == i for _ in range(n_samples))
        freq = hits / n_samples
        se = np.sqrt(max(p_direct * (1 - p_direct), 0.0) / n_samples)  # p_direct may round above 1
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


def verify_reflection_positivity(e, rho, partition=None, counterexample_sets=None):
    """Positivity-side checks (PSD Gram over exponential functionals, NPD
    tree-inclusion covariance) and, when counterexample_sets names the two
    midpoint pairs, the exact strictly-negative loop-functional value."""
    t0 = time.perf_counter()
    report = VerificationReport("reflection_positivity")
    if partition is None:
        # take one vertex of each rho-orbit, preferring the lexicographically
        # smaller name, so {v, rho(v)} splits into X+ and X-
        xp = [v for v in e.vertices if v < rho[v]]
        partition = (xp, [rho[v] for v in xp], [])
    xp, xm, x0 = _validate_involution(e, rho, partition)
    et = e if not x0 else trace_on(e, xp + xm)
    ip, im = et.indices(xp), et.indices([rho[v] for v in xp])
    cross = et.C[np.ix_(ip, im)]
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
    pa, pb = np.nonzero(np.triu(et.C[np.ix_(ip, ip)] > 0, 1))  # the plus edges {xp[pa], xp[pb]}
    if pa.size:
        m = pa.size
        # one transfer matrix: the plus edges, then their mirrors
        edges = [(xp[i], xp[j]) for i, j in zip(pa, pb)]
        K = transfer_matrix(et, edges + [(rho[x], rho[y]) for x, y in edges]).K
        c = et.C[np.r_[ip[pa], im[pa]], np.r_[ip[pb], im[pb]]]
        singles = [_inclusion_probability(c, K, [a]) for a in range(m)]
        Kcov = np.empty((m, m))
        for a in range(m):
            for b in range(m):
                Kcov[a, b] = _inclusion_probability(c, K, [a, m + b]) - singles[a] * singles[b]
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


def verify_energy_variation(e, e2=None, omega=None, alpha=1.0, n_samples=0, rng=0):
    """Multiplicative loop functionals against partition-function ratios,
    plus finite-difference derivative and Schwinger-function checks."""
    t0, gen, report = _suite("energy_variation", n_samples, rng)
    if e2 is None:
        e2 = e
    if e.vertices != e2.vertices:
        raise GraphError("energy forms must share the vertex set")
    if np.any((e2.C > 0) & (e.C == 0)) or np.any(e2.C > e.C + 1e-12):
        raise GraphError("need C' <= C with support(C') inside support(C)")
    if np.any(e2.lam < e.lam - 1e-12):
        raise GraphError("need lambda' >= lambda")
    x_idx, h = 0, 1e-5  # the vertex and the step of the kappa_x finite differences
    if e.lam[x_idx] <= 2 * h:
        raise GraphError(f"finite differences need lambda_x > {2 * h} at the first vertex")
    W = np.zeros((e.n, e.n)) if omega is None else _omega_matrix(e, omega)
    ratio = partition_ratio(e, e2, W, alpha)
    if np.allclose(e2.C, e.C) and not W.any():
        chi = e2.kappa - e.kappa
        report.add_exact(
            "ratio equals occupation Laplace transform",
            occupation_laplace(e, alpha, chi), ratio.real, 1e-12,
        )
    if n_samples > 0:
        batch = _soup_occupations(e, alpha, gen, n_samples)
        sample, vertex, successor = batch.positions
        logR = np.zeros((e.n, e.n))
        mask = e.C > 0
        logR[mask] = np.log(e2.C[mask] / e.C[mask])
        dlam = e2.lam - e.lam
        exponent = (
            np.bincount(sample, logR[vertex, successor], n_samples)
            + 1j * np.bincount(sample, W[vertex, successor], n_samples)
            - batch.occupation @ dlam
        )
        vals = np.exp(exponent)
        mr, sr = _mean_se(vals.real)
        mi, si = _mean_se(vals.imag)
        report.add_stat("multiplicative functional (real)", ratio.real, mr, sr)
        report.add_stat("multiplicative functional (imag)", ratio.imag, mi, si)
    # derivative of the total loop mass in the killing rate
    G = green(e).G
    exact_deriv = -(G[x_idx, x_idx] - 1.0 / e.lam[x_idx])

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
        lam_x = float(e.lam[x_idx])  # a Python float: the same quotient without numpy's per-scalar cost
        enum = sum(mass * loop.vertices.count(x_idx) / lam_x for loop, mass in loops)
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
        exact = occupation_moments(e, alpha, [e.vertices[x_idx], e.vertices[y_idx]], kind="single_loop")
        report.add_exact("Schwinger mu(l^x l^y) = (G^{xy})^2", exact, mixed, 1e-5)
    return report.finalize(t0)


def verify_zeta(e, m_max=8):
    """Three-way integer agreement of the non-backtracking counts and the
    zeta values on a grid."""
    t0 = time.perf_counter()
    report = VerificationReport("zeta")
    u_max = _u_max(e)
    grid = [0.2 * u_max, 0.5 * u_max]
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
        tail = np.exp(_geometric_tail(2 * Q.shape[0], s, m_max)) - 1 if s < 1 else np.inf
        report.add_bool(
            f"IZ({u:.3f}) series within truncation bound",
            abs(izs / izv - 1) <= tail + 1e-9,
            residual=abs(izs / izv - 1), tol=float(tail),
        )
    return report.finalize(t0)


ORTH_PAIRS = ((1, 1), (1, 2), (2, 2))  # the (k, l) of the occupation suite's E[Q_k Q_l] checks


def verify_occupation_marginals(e, n_samples=0, rng=0):
    """Gamma marginals, geometric visit counts and the renormalized-power
    orthogonality, exact and sampled, at alpha = 0.5, 1 and 2."""
    t0, gen, report = _suite("occupation", n_samples, rng)
    G = green(e).G
    x, y = e.vertices[0], e.vertices[min(1, e.n - 1)]
    i, j = e.index[x], e.index[y]
    for alpha in (0.5, 1.0, 2.0):
        for k, l in ORTH_PAIRS:
            exact = exact_orth_covariance(e, x, y, k, l, alpha)
            report.add_exact(
                f"orthogonality Q_{k},Q_{l} (alpha={alpha})", renormalized_power_moment(e, x, y, k, l, alpha),
                exact, 1e-9,
            )
    if n_samples > 0:
        # the exact KS p-value lives only in scipy.stats: its one import, here
        from scipy.stats import kstest

        p_geo, edge = 1.0 / (e.lam[i] * G[i, i]), e.C[i].any()
        for alpha in (0.5, 1.0, 2.0):
            batch = _soup_occupations(e, alpha, gen, n_samples)
            occ, visits = batch.occupation, batch.visits
            ks = kstest(occ[:, i], "gamma", args=(alpha, 0.0, G[i, i]))
            report.add_pvalue(f"KS L-hat^{x} vs Gamma({alpha}, G^xx)", ks.pvalue)
            if alpha == 1.0 and (not edge or p_geo >= 1):  # a geometric law of one cell
                why = "P(N_x = 0) rounds to 1" if edge else "no edge at x"
                report.add_bool(f"every N_x is 0 ({why})", not visits[:, i].any())
            elif alpha == 1.0:
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
                report.add_pvalue("chi-square N_x + 1 vs geometric", _chisquare_p(observed, probs * n_samples))
            if e.n >= 2:
                cx = occ[:, i] - alpha * G[i, i]
                cy = occ[:, j] - alpha * G[j, j]
                for k, l in ORTH_PAIRS:
                    vals = renormalized_power(cx, k, alpha, G[i, i]) * renormalized_power(cy, l, alpha, G[j, j])
                    mean, se = _mean_se(vals)
                    report.add_stat(
                        f"sampled E[Q_{k} Q_{l}] (alpha={alpha})", renormalized_power_moment(e, x, y, k, l, alpha),
                        mean, se,
                    )
    return report.finalize(t0)
