"""Command line surface.

Subcommands: green, mu, sample, wilson, gff, zeta, verify, fixtures.
Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import fixtures as fixture_mod
from .exact import green, green_chi
from .graph import EnergyForm, GraphError, load_energy_form
from .loops import enumerate_loops, mu_hit_avoid, mu_nontrivial_total
from .rng import RngStream
from .samplers import SpanningTree, _soup_occupations, _trees, sample_gff
from .verify import (
    default_involution,
    verify_dynkin,
    verify_energy_variation,
    verify_loop_erasure,
    verify_occupation_marginals,
    verify_reflection_positivity,
    verify_transfer_current,
    verify_zeta,
)
from .zeta import _u_max, zeta_ihara

def _emit(args, payload, text=None):
    out = json.dumps(payload, indent=2) if (args.json or text is None) else text
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def nonnegative_int(raw):
    """Type of every -n/--samples option: a nonnegative integer, else a
    usage error (exit 2)."""
    n = int(raw)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def _parse_chi(e, raw):
    try:
        doc = json.loads(raw)
        values = [float(val) for val in doc.values()]
    except (AttributeError, TypeError, ValueError):
        raise GraphError(f"--chi must be a JSON object {{vertex: number}}, not {raw!r}") from None
    chi = np.zeros(e.n)
    chi[e.indices(doc)] = values
    return chi


def cmd_green(args):
    e = load_energy_form(args.graph)
    bundle = green(e)
    payload = bundle.to_dict()
    if args.chi:
        payload["G_chi"] = green_chi(e, _parse_chi(e, args.chi)).tolist()
    lines = ["G (" + " ".join(e.vertices) + ")"]
    lines += ["  " + " ".join(f"{v:.6f}" for v in row) for row in bundle.G]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_mu(args):
    e = load_energy_form(args.graph)
    payload = {"mu_nontrivial_total": mu_nontrivial_total(e)}
    if args.set:
        mass, prob = mu_hit_avoid(e, args.set, args.set2 or (), args.alpha)
        payload["hit"] = args.set
        payload["avoid"] = args.set2 or []
        payload["mass"] = mass
        payload["no_such_loop_probability"] = prob
    if args.k_cap is not None:
        loops, tail = enumerate_loops(e, args.k_cap)
        payload.update(enumerated_loops=len(loops), enumerated_mass=sum(m for _, m in loops), tail_bound=tail)
    _emit(args, payload, json.dumps(payload, indent=2))
    return 0


def cmd_sample(args):
    e = load_energy_form(args.graph)
    batch = _soup_occupations(e, args.alpha, RngStream(args.seed).generator, args.samples)
    samples = [{"n_loops": count, "occupation": dict(zip(e.vertices, occ))}
               for count, occ in zip(batch.counts.tolist(), batch.occupation.tolist())]
    # every soup of one form shares one sampler, so one cap and one dropped mass
    _emit(args, {"alpha": args.alpha, "seed": args.seed, "k_cap": batch.k_cap,
                 "dropped_mass": batch.dropped_mass, "samples": samples})
    return 0


def cmd_wilson(args):
    e = load_energy_form(args.graph)
    root = args.root if args.root else (None if e.transient else e.vertices[0])
    rows, erased = _trees(e, RngStream(args.seed).generator, root, args.samples)
    trees = [{"parent": SpanningTree(e.vertices, row, root).parent, "erased_loops": k}
             for row, k in zip(rows, erased.tolist())]
    _emit(args, {"seed": args.seed, "trees": trees})
    return 0


def cmd_gff(args):
    e = load_energy_form(args.graph)
    rng = RngStream(args.seed)
    fields = []
    for _ in range(args.samples):
        f = sample_gff(e, rng, complex_field=args.complex)
        phi = f.phi.tolist() if not args.complex else [[z.real, z.imag] for z in f.phi]
        fields.append(dict(zip(e.vertices, phi)))
    _emit(args, {"seed": args.seed, "fields": fields})
    return 0


def cmd_zeta(args):
    e = load_energy_form(args.graph)
    u_max = _u_max(e)
    try:
        grid = [float(u) for u in args.u_grid.split(",")] if args.u_grid else [0.2 * u_max, 0.5 * u_max]
    except ValueError:
        raise GraphError(f"--u-grid must be comma separated numbers, not {args.u_grid!r}") from None
    report = zeta_ihara(e, grid, args.m_max)
    _emit(args, report.to_dict())
    return 0


def cmd_verify(args):
    e = load_energy_form(args.graph)
    sampled = {"n_samples": args.samples, "rng": RngStream(args.seed)} if "samples" in args else {}
    report = args.run(e, args, **sampled)
    report.fixture = args.graph
    _emit(args, report.to_dict(), report.table())
    return 0 if report.passed else 1


def _transfer_current(e, args, **kw):
    return verify_transfer_current(e, root=None if e.transient else e.vertices[0], **kw)


def _loop_erasure(e, args, **kw):
    if e.n < 2:
        raise GraphError("loop_erasure needs at least two vertices")
    return verify_loop_erasure(e, e.vertices[0], e.vertices[1], **kw)


def _reflection(e, args, **kw):
    sets = (("al", "be"), ("ga", "de")) if all(v in e.index for v in ("al", "be", "ga", "de")) else None
    return verify_reflection_positivity(e, default_involution(e), counterexample_sets=sets, **kw)


def _energy_variation(e, args, **kw):
    kappa = e.kappa.copy()
    kappa[0] += 1.0
    return verify_energy_variation(e, EnergyForm(e.vertices, e.C, kappa), alpha=args.alpha, **kw)


# verify suite: (runner, whether it samples)
SUITES = {
    "dynkin": (lambda e, args, **kw: verify_dynkin(e, k=1, **kw), True),
    "transfer_current": (_transfer_current, True),
    "loop_erasure": (_loop_erasure, True),
    "reflection": (_reflection, False),
    "energy_variation": (_energy_variation, True),
    "zeta": (lambda e, args, **kw: verify_zeta(e, m_max=args.m_max, **kw), False),
    "occupation": (lambda e, args, **kw: verify_occupation_marginals(e, **kw), True),
}


def cmd_fixtures(args):
    paths = fixture_mod.write_fixtures(args.output or ".")
    print("\n".join(paths))
    return 0


@functools.cache  # built once per process: main runs in-process many times (tests, benchmark)
def build_parser():
    parser = argparse.ArgumentParser(prog="loopsoup")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=True, samples=None):
        if graph:
            p.add_argument("graph", help="graph JSON document path")
        p.add_argument("--json", action="store_true", help="machine readable output")
        p.add_argument("-o", "--output", default=None)
        if samples is not None:  # a sampling command: -n with this default, and the stream's --seed
            p.add_argument("-n", "--samples", type=nonnegative_int, default=samples)
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("green")
    common(p)
    p.add_argument("--chi", default=None, help="JSON measure {vertex: value}")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("mu")
    common(p)
    p.add_argument("--set", nargs="*", default=None, help="vertices to hit")
    p.add_argument("--set2", nargs="*", default=None, help="vertices to avoid")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--k-cap", type=int, default=None, help="enumerate loops up to this length")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("sample")
    common(p, samples=1)
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("wilson")
    common(p, samples=1)
    p.add_argument("--root", default=None)
    p.set_defaults(func=cmd_wilson)

    p = sub.add_parser("gff")
    common(p, samples=1)
    p.add_argument("--complex", action="store_true")
    p.set_defaults(func=cmd_gff)

    p = sub.add_parser("zeta")
    common(p)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--u-grid", default=None, help="comma separated u values")
    p.set_defaults(func=cmd_zeta)

    suites = sub.add_parser("verify").add_subparsers(dest="suite", required=True)
    for name, (run, sampled) in SUITES.items():
        p = suites.add_parser(name)
        p.add_argument("--graph", required=True)
        common(p, graph=False, samples=0 if sampled else None)
        p.set_defaults(func=cmd_verify, run=run)
    suites.choices["energy_variation"].add_argument("--alpha", type=float, default=1.0)
    suites.choices["zeta"].add_argument("--m-max", type=int, default=8)

    p = sub.add_parser("fixtures")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None):
    args, unknown = build_parser().parse_known_args(argv)
    try:
        if unknown:  # an option the command does not take, such as --alpha on most suites
            raise GraphError(f"unrecognized arguments: {' '.join(unknown)}")
        return args.func(args)
    except (GraphError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
