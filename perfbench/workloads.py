"""The three benchmark workloads and the output check of every operation.

A workload's set-up builds its inputs from the seed and returns a fixed
list of operations (a batch).  The runner repeats the batch in a closed
loop from one client; every repetition makes the same calls with the same
random streams, so the outputs of all repetitions must agree bit for bit.

Why these workloads:
- verify_mc: the user's "time to a verdict" through the CLI; per-step
  Python sampling on dense rows with n <= 16 and per-sample aggregation in
  loopsoup.verify.
- exact_oracles: deterministic exact calculus with no random draws
  (enumeration, zeta, determinant identities); every sampler change
  bypasses it.
- lattice_scale: killed L x L boxes with n up to 2304 through the library
  API; dense O(n^2) build, O(n^3) Green functions, wide-row walks and the
  (k_cap+1) n^2 pointed-sampler powers dominate.
"""

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import inputs

# -n of every sampled verify suite; the occupation/p2 false-failure rate
# recorded in NOTES.md is measured at this size
VERIFY_N = 10_000
VERIFY_SUITES = (
    ("occupation", "p2"),
    ("dynkin", "k4c1"),
    ("transfer_current", "k4_rooted"),
    ("loop_erasure", "k4c1"),
    # counterexample (n=16), not k4c1: on n <= 4 the suite enumerates loops
    # up to length 12, which would swamp the sampler cost
    ("energy_variation", "counterexample"),
)
# failing checks of these kinds are statistical verdicts, not wrong values
STAT_KINDS = ("stat", "pvalue")
STAT_BOOL_PREFIX = "bridge erasure TV distance"

ENUM_K = 10
ENUM_CLASSES_K4C1 = 9488  # rotation classes of k4c1 loops with 2 <= p <= 10
WREATH_K = 14
TORUS_M = 6
TORUS_M_MAX = 10
BOX_L = 20  # killed box used by the exact-kernel operations
HIT_SIZE = 12

LATTICE_SIZES = (16, 32, 48)
SOUP_SIZES = (8, 12)
TREES_PER_SIZE = 4
FIELDS_PER_SIZE = 2
SOUPS_PER_SIZE = 2
# latency samples reported by name: (metric, operation kind, box side)
LATENCIES = (("tree_ms", "tree", 48), ("soup_ms", "soup", 12), ("field_ms", "field", 48))


@dataclass
class Op:
    name: str
    run: object  # () -> output
    check: object  # output -> Verdict
    digest: object  # output -> bytes
    kind: str = ""
    size: int = 0


@dataclass
class Verdict:
    hard: list  # wrong values: the benchmark is not correct
    soft: list  # statistical verdicts that failed: the operation failed
    stat_fail: int = 0

    @property
    def ok(self):
        return not self.hard and not self.soft


def _verdict(problems):
    return Verdict([p for p in problems if p], [])


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


# -- CLI operations -----------------------------------------------------------


def cli_call(ls, argv):
    """Run loopsoup.cli.main in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ls.cli.main(argv)  # looked up per call so a tracer can wrap it
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _cli_json(out):
    code, text = out
    try:
        return json.loads(text)
    except ValueError:
        return None


def digest_cli(out):
    code, text = out
    doc = _cli_json(out)
    if isinstance(doc, dict):
        # wall_time is a clock reading and fixture the input path
        doc = {k: v for k, v in doc.items() if k not in ("wall_time", "fixture")}
        text = json.dumps(doc, sort_keys=True)
    return _sha(code, text)


def check_verify(out):
    code, _ = out
    doc = _cli_json(out)
    if code not in (0, 1) or not isinstance(doc, dict) or "checks" not in doc:
        return Verdict([f"exit code {code}, no report"], [])
    hard, soft, stat_fail = [], [], 0
    for c in doc["checks"]:
        if c["passed"]:
            continue
        if c["kind"] in STAT_KINDS or c["name"].startswith(STAT_BOOL_PREFIX):
            stat_fail += 1
            soft.append(f"statistical check failed: {c['name']}")
        else:
            hard.append(f"exact check failed: {c['name']}")
    if doc["passed"] != (not hard and not soft) or (code == 0) != doc["passed"]:
        hard.append(f"exit code {code} disagrees with the report verdict")
    return Verdict(hard, soft, stat_fail)


def _cli_op(ls, name, argv, check):
    return Op(name, lambda: cli_call(ls, argv), check, digest_cli)


def _write_fixture(ls, workdir, name, transient):
    doc = ls.fixture(name)
    inputs.validate(doc, transient=transient)
    path = os.path.join(workdir, f"{name}.json")
    inputs.write_doc(path, doc)
    return path


# -- verify_mc ------------------------------------------------------------------


def setup_verify_mc(ls, seed, workdir):
    ops = []
    for suite, graph in VERIFY_SUITES:
        path = _write_fixture(ls, workdir, graph, transient=graph != "k4_rooted")
        argv = ["verify", suite, "--graph", path, "-n", str(VERIFY_N), "--seed", str(seed), "--json"]
        ops.append(_cli_op(ls, f"verify {suite}/{graph}", argv, check_verify))
    return ops


# -- exact_oracles ----------------------------------------------------------------


def _check_mu(out):
    code, _ = out
    doc = _cli_json(out)
    if code != 0 or not isinstance(doc, dict):
        return Verdict([f"exit code {code}"], [])
    total, mass, tail = doc["mu_nontrivial_total"], doc["enumerated_mass"], doc["tail_bound"]
    return _verdict([
        doc["enumerated_loops"] != ENUM_CLASSES_K4C1
        and f"{doc['enumerated_loops']} loop classes, expected {ENUM_CLASSES_K4C1}",
        not (mass <= total + 1e-12 and total - mass <= tail + 1e-12)
        and f"enumerated mass {mass} not within {tail} below -log det(I-P) = {total}",
    ])


def _check_zeta_count(m, expected):
    def check(out):
        code, _ = out
        doc = _cli_json(out)
        if code != 0 or not isinstance(doc, dict):
            return Verdict([f"exit code {code}"], [])
        got = doc["N"][m - 1]
        return _verdict([got != expected and f"N_{m} = {got}, expected {expected}"])

    return check


def _laplacian(e):
    return np.diag(e.kappa + e.C.sum(axis=1)) - e.C


def _logdet_restricted(e, keep):
    L = _laplacian(e)[np.ix_(keep, keep)]
    lam = (e.kappa + e.C.sum(axis=1))[keep]
    return np.linalg.slogdet(L)[1] - np.log(lam).sum()  # log det(I - P|_keep)


def _green_residual(e, G, cols):
    """max |(L G - I)| over the given columns, relative to max |G|."""
    R = _laplacian(e) @ G[:, cols]
    R[cols, np.arange(len(cols))] -= 1.0
    return float(np.abs(R).max() / max(1.0, np.abs(G).max()))


def setup_exact_oracles(ls, seed, workdir):
    rng = np.random.default_rng([seed, 2])
    k4c1 = _write_fixture(ls, workdir, "k4c1", transient=True)
    cube = _write_fixture(ls, workdir, "cube", transient=False)
    k4 = _write_fixture(ls, workdir, "k4_rooted", transient=False)
    cex_path = _write_fixture(ls, workdir, "counterexample", transient=True)
    torus = os.path.join(workdir, "torus.json")
    inputs.write_doc(torus, inputs.unit_torus(TORUS_M, rng))
    box = ls.load_energy_form(inputs.killed_box(BOX_L, rng))
    cex = ls.load_energy_form(ls.fixture("counterexample"))
    k3 = ls.load_energy_form(ls.fixture("k3_wreath"))
    n = box.n

    registers = {v: int(r) for v, r in zip(k3.vertices, rng.integers(1, 4, size=3))}
    order = rng.permutation(cex.n)
    hit = [cex.vertices[i] for i in order[:HIT_SIZE]]
    avoid = [cex.vertices[order[HIT_SIZE]]]
    picks = rng.permutation(n)
    F1 = [box.vertices[i] for i in picks[:3]]
    F2 = [box.vertices[i] for i in picks[3:6]]
    split = picks[: n // 2]
    F = [box.vertices[i] for i in sorted(split)]
    D = [v for v in box.vertices if v not in set(F)]
    chi = rng.uniform(0.05, 2.0, size=n)
    iu, ju = np.nonzero(np.triu(box.C) > 0)
    W = np.zeros((n, n))
    W[iu, ju] = rng.uniform(-0.5, 0.5, size=len(iu))
    W -= W.T
    extra = np.zeros(n)
    extra[picks[:8]] = rng.uniform(0.1, 1.0, size=8)
    box2 = ls.EnergyForm(box.vertices, box.C, box.kappa + extra)
    edge_pick = rng.choice(len(iu), size=6, replace=False)
    edges = [(box.vertices[iu[k]], box.vertices[ju[k]]) for k in edge_pick]
    cols = np.sort(rng.choice(n, size=8, replace=False))

    def wreath():
        total = ls.mu_nontrivial_total(ls.build_wreath(k3, registers))
        approx, tail = ls.wreath_identity_sum(k3, registers, WREATH_K)
        return total, approx, tail

    def check_wreath(out):
        total, approx, tail = out
        return _verdict([abs(total - approx) > tail + 1e-12
                         and f"wreath sum {approx} differs from {total} beyond tail {tail}"])

    def hit_avoid():
        return ls.mu_hit_avoid(cex, hit, avoid)

    def check_hit_avoid(out):
        mass, prob = out
        keep = [i for i in range(cex.n) if cex.vertices[i] not in avoid]
        base = _logdet_restricted(cex, keep)
        # loops hitting every vertex of the hit set hit each single vertex
        single = min(
            _logdet_restricted(cex, [i for i in keep if cex.vertices[i] != h]) - base
            for h in hit
        )
        return _verdict([
            not (0.0 <= mass <= single + 1e-12) and f"mass {mass} outside [0, {single}]",
            abs(prob - np.exp(-mass)) > 1e-15 and "probability is not exp(-mass)",
        ])

    def cross():
        return ls.cross_hitting_series(box, F1, F2)

    def check_cross(out):
        partial, tail, value = out
        return _verdict([abs(partial - value) > tail + 1e-9 * max(1.0, abs(value))
                         and f"series {partial} misses {value} beyond tail {tail}"])

    def twisted():
        return ls.twisted_green(box, W)

    def check_twisted(out):
        G_omega, log_Z = out
        A = np.diag(box.lam) - box.C * np.exp(1j * W)
        resid = np.abs(A @ G_omega - np.eye(n)).max()
        logabs = np.linalg.slogdet(A)[1]
        return _verdict([
            resid > 1e-9 and f"|A G_omega - I| = {resid}",
            abs(log_Z.real + logabs) > 1e-9 and "Re log Z is not -log|det A|",
        ])

    def ratio():
        return ls.partition_ratio(box, box2, W)

    def check_ratio(out):
        return _verdict([not (0.0 < abs(out) <= 1.0 + 1e-12) and f"|Z2/Z1| = {abs(out)} outside (0, 1]"])

    def web():
        g = ls.green(box)
        gF = ls.green(ls.trace_on(box, F))
        gD = ls.green(ls.restrict(box, D))
        Gc = ls.green_chi(box, chi)
        return g, gF, gD, Gc

    def check_web(out):
        g, gF, gD, Gc = out
        idx = np.array([box.index[v] for v in F])
        scale = max(1.0, np.abs(g.G).max())
        return _verdict([
            np.abs(gF.G - g.G[np.ix_(idx, idx)]).max() > 1e-9 * scale
            and "trace Green function is not the F x F block of G",
            abs(g.logdet_G - gF.logdet_G - gD.logdet_G) > 1e-8
            and "log det G != log det G_F + log det G^D",
            np.abs(g.G - Gc - g.G @ (chi[:, None] * Gc)).max() > 1e-9 * scale
            and "resolvent identity fails",
            _green_residual(box, g.G, cols) > 1e-10 and "|L G - I| is not small",
        ])

    def cap():
        return ls.capacity(box, F1)

    def check_cap(out):
        return _verdict([not (0.0 < out <= box.kappa.sum() * (1 + 1e-12)) and f"capacity {out} outside (0, Cap(X)]"])

    def transfer():
        return ls.transfer_matrix(box, edges).K

    def check_transfer(K):
        conds = np.array([box.C[box.index[x], box.index[y]] for x, y in edges])
        p = conds * np.diag(K)
        return _verdict([
            np.abs(K - K.T).max() > 1e-12 and "transfer matrix is not symmetric",
            not np.all((p >= 0) & (p <= 1 + 1e-12)) and "edge inclusion probability outside [0, 1]",
        ])

    return [
        _cli_op(ls, f"mu k4c1 --k-cap {ENUM_K}", ["mu", k4c1, "--k-cap", str(ENUM_K), "--json"], _check_mu),
        Op("wreath_identity_sum k3", wreath, check_wreath, _digest_values),
        _cli_op(ls, "zeta cube", ["zeta", cube, "--json"], _check_zeta_count(4, 48)),
        _cli_op(ls, "zeta k4", ["zeta", k4, "--json"], _check_zeta_count(3, 24)),
        _cli_op(ls, "verify zeta cube", ["verify", "zeta", "--graph", cube, "--json"], check_verify),
        _cli_op(ls, "zeta torus", ["zeta", torus, "--m-max", str(TORUS_M_MAX), "--json"],
                _check_zeta_count(4, 8 * TORUS_M * TORUS_M)),
        _cli_op(ls, "verify zeta torus",
                ["verify", "zeta", "--graph", torus, "--m-max", str(TORUS_M_MAX), "--json"], check_verify),
        _cli_op(ls, "verify reflection counterexample",
                ["verify", "reflection", "--graph", cex_path, "--json"], check_verify),
        Op("mu_hit_avoid counterexample", hit_avoid, check_hit_avoid, _digest_values),
        Op("cross_hitting_series box", cross, check_cross, _digest_values),
        Op("twisted_green box", twisted, check_twisted, _digest_values),
        Op("partition_ratio box", ratio, check_ratio, _digest_values),
        Op("determinant web box", web, check_web, _digest_values),
        Op("capacity box", cap, check_cap, _digest_values),
        Op("transfer_matrix box", transfer, check_transfer, _digest_values),
    ]


def _digest_values(out):
    return _sha(*[x.tobytes() if isinstance(x, np.ndarray) else x for x in _flatten(out)])


def _flatten(out):
    if isinstance(out, (tuple, list)):
        for x in out:
            yield from _flatten(x)
    elif hasattr(out, "G") and hasattr(out, "logdet_G"):
        yield out.G
        yield (out.logdet_G, out.logdet_IminusP)
    else:
        yield out


# -- lattice_scale ----------------------------------------------------------------


def setup_lattice_scale(ls, seed, workdir):
    rng = np.random.default_rng([seed, 3])
    forms = {L: ls.load_energy_form(inputs.killed_box(L, rng))
             for L in sorted(set(LATTICE_SIZES) | set(SOUP_SIZES))}
    cols = {L: np.sort(rng.choice(e.n, size=8, replace=False)) for L, e in forms.items()}
    ops = []

    def sampled(kind, L, draw, check, digest):
        e = forms[L]
        s = len(ops) + 1  # one fixed stream per operation, the same in every batch
        ops.append(Op(f"{kind} L={L}", lambda: draw(e, ls.RngStream(seed, s)),
                      lambda out: check(e, out), digest, kind, L))

    for L in LATTICE_SIZES:
        e = forms[L]
        ops.append(Op(f"green L={L}", lambda e=e: ls.green(e),
                      lambda g, e=e, L=L: _check_green(e, g, cols[L]),
                      lambda g: _sha(g.G.tobytes(), g.logdet_G), "green", L))
        for _ in range(TREES_PER_SIZE):
            sampled("tree", L, lambda e, r: ls.wilson_sample(e, r), _check_tree, _digest_tree)
        for _ in range(FIELDS_PER_SIZE):
            sampled("field", L, lambda e, r: ls.sample_gff(e, r), _check_field, lambda f: f.phi.tobytes())
    for L in SOUP_SIZES:
        for _ in range(SOUPS_PER_SIZE):
            sampled("soup", L, lambda e, r: ls.sample_loop_soup(e, 1.0, r), _check_soup, _digest_soup)
    return ops


def _check_green(e, g, cols):
    G = g.G
    return _verdict([
        G.shape != (e.n, e.n) and "Green matrix has the wrong shape",
        not np.isfinite(G).all() and "Green matrix is not finite",
        np.abs(G - G.T).max() > 1e-10 * np.abs(G).max() and "Green matrix is not symmetric",
        _green_residual(e, G, cols) > 1e-9 and "|L G - I| is not small",
    ])


def _check_tree(e, out):
    tree, ensemble = out
    parent = tree.parent
    problems = [len(parent) != e.n and f"tree has {len(parent)} parent entries, expected {e.n}"]
    for v, p in parent.items():
        if p is None:
            problems.append(e.kappa[e.index[v]] <= 0 and f"{v} jumps to the cemetery without killing")
        else:
            problems.append(e.C[e.index[v], e.index[p]] <= 0 and f"tree edge {v}-{p} has zero conductance")
    reaches = set()  # vertices known to reach the cemetery
    for start in e.vertices:
        path, v = [], start
        while v is not None and v not in reaches:
            if v in path or v not in parent:
                return _verdict(problems + [f"the walk up from {start} cycles or leaves the tree"])
            path.append(v)
            v = parent[v]
        reaches.update(path)
    trivial = ensemble.trivial
    problems.append(not (np.isfinite(trivial).all() and (trivial > 0).all())
                    and "tree holding times are not finite and positive")
    return _verdict(problems)


def _digest_tree(out):
    tree, ensemble = out
    return _sha(sorted(tree.parent.items(), key=lambda kv: kv[0]),
                [(loop.vertices, loop.taus) for loop in ensemble.loops], ensemble.trivial.tobytes())


def _check_field(e, f):
    return _verdict([not (f.phi.shape == (e.n,) and np.isfinite(f.phi).all()) and "field is not finite"])


def _check_soup(e, ens):
    occ = ens.occupation()
    return _verdict([not (occ.shape == (e.n,) and np.isfinite(occ).all() and (occ >= 0).all())
                     and "soup occupation is not finite and nonnegative"])


def _digest_soup(ens):
    return _sha(ens.trivial.tobytes(), [(loop.vertices, loop.taus) for loop in ens.loops])


SETUPS = {
    "verify_mc": setup_verify_mc,
    "exact_oracles": setup_exact_oracles,
    "lattice_scale": setup_lattice_scale,
}
