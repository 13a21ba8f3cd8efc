"""False-failure rates of one sampled verify suite over fresh streams.

Runs `loopsoup verify SUITE --graph GRAPH -n N` as the CLI runs it (the
CLI's own runner and option defaults), once for each of the 100 fresh
streams RngStream(s, 7), s = 0 .. 99, and prints how often the suite and
each of its checks failed, with each check's largest |z|.

    python3 tools/calibrate.py dynkin k4c1 -n 1000

GRAPH is a bundled fixture name or a path to a graph document.  BLAS is
pinned to one thread, as in the tests and the benchmark.  The form is
loaded once: its memoised sampler draws what a fresh one draws.
"""

import argparse
import os
import pathlib
import sys
from collections import Counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import loopsoup as ls  # noqa: E402
from loopsoup import cli  # noqa: E402

STREAM = 7  # the stream index of every calibration run; the CLI runs stream 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", choices=[name for name, (_, sampled) in cli.SUITES.items() if sampled])
    parser.add_argument("graph", help="fixture name or graph document path")
    parser.add_argument("-n", "--samples", type=int, default=10000)
    opts = parser.parse_args(argv)

    graph = opts.graph
    e = ls.load_energy_form(ls.fixture(graph) if graph in ls.FIXTURES else graph)
    args = cli.build_parser().parse_args(["verify", opts.suite, "--graph", graph, "-n", str(opts.samples)])
    fails, max_z, names, failed_runs = Counter(), {}, [], []
    seeds = range(100)
    for s in seeds:
        report = args.run(e, args, n_samples=opts.samples, rng=ls.RngStream(s, STREAM))
        for c in report.checks:
            if c.name not in max_z:
                names.append(c.name)
                max_z[c.name] = None
            fails[c.name] += not c.passed
            if c.z is not None:
                max_z[c.name] = max(abs(c.z), max_z[c.name] or 0.0)
        if not report.passed:
            failed_runs.append(s)
    print(f"verify {opts.suite} {graph} -n {opts.samples}: streams RngStream(s, {STREAM}), "
          f"s = {seeds.start}..{seeds.stop - 1}")
    print(f"suite failed on {len(failed_runs)} of {len(seeds)} streams: {failed_runs}")
    width = max(len(name) for name in names)
    print(f"{'check':{width}}  fails  max|z|")
    for name in names:
        z = "" if max_z[name] is None else f"{max_z[name]:.2f}"
        print(f"{name:{width}}  {fails[name]:5}  {z:>6}")


if __name__ == "__main__":
    main()
