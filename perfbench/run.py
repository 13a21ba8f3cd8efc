"""loopsoup benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; loopsoup is imported from src/.
After a timed set-up, the workload's fixed batch of operations is repeated
in a closed loop from one client until S seconds have passed.  Every
operation's output is checked, and every repetition must reproduce the
first bit for bit, so `attempted` and `failed` count each operation of
the batch once.  Set-up and operation times are rescaled to a
reference host speed by a calibration probe read after each of them
(HostClock).  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a run that alternates untraced and traced batches, so
the tracing overhead is measured in the same process and the traced
outputs are compared with the untraced ones.  The first line gives the
detail: batch quartiles and counts, per-operation times, latency
percentiles, failures and the environment.
"""

import os
import sys

# pin BLAS/OpenMP threads before numpy loads; the benchmark starts no
# worker processes
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3
IMPORT_REPS = 7  # the import varies by up to 1.8x between back-to-back calls
PROBE_REF_S = 0.003  # a calibration reading at the reference speed


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_loopsoup():
    """Import loopsoup from the checkout's src/ and time it (numpy is
    already loaded)."""
    if not (SRC / "loopsoup" / "__init__.py").is_file():
        fail(f"no loopsoup sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import loopsoup
    import loopsoup.cli

    elapsed = time.perf_counter() - t0
    if Path(loopsoup.__file__).resolve().parent != (SRC / "loopsoup").resolve():
        fail(f"loopsoup was imported from {loopsoup.__file__}, not from {SRC}")
    return loopsoup, elapsed


def child_import_s():
    """Time `import loopsoup.cli`, after numpy, in a fresh interpreter with
    this process's environment; the child is waited for."""
    code = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import loopsoup.cli; print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


class HostClock:
    """Rescales measured durations to a reference host speed.

    The host is shared: the same operation runs up to 1.6x slower for
    seconds or minutes at a time.  After every timed interval the clock
    reads the time of fixed calibration work that resembles the
    benchmark's: a pure-Python loop, 300 small numpy calls and a 160 x 160
    matrix product (fastest of three each).  The interval's duration is
    multiplied by PROBE_REF_S over the mean of the readings just before
    and just after it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.random((160, 160))
        cum = np.cumsum(rng.random(8))
        self.cum = cum / cum[-1]
        self.readings = []
        self.last = self.read()

    def read(self):
        best = [float("inf")] * 3
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for i in range(10_000):
                acc += i * i
            t1 = time.perf_counter()
            rng = np.random.default_rng(1)
            for _ in range(300):
                np.searchsorted(self.cum, rng.random())
            t2 = time.perf_counter()
            self.matrix @ self.matrix
            t3 = time.perf_counter()
            best = [min(b, t) for b, t in zip(best, (t1 - t0, t2 - t1, t3 - t2))]
        self.readings.append(sum(best))
        return sum(best)

    def mark(self):
        """Take the reading that the next interval's 'before' uses."""
        self.last = self.read()

    def rescale(self, elapsed):
        before, after = self.last, self.read()
        self.last = after
        return elapsed * PROBE_REF_S / ((before + after) / 2)


class RngProbe:
    """Counts the Philox blocks drawn by the RngStreams a batch makes.

    RngStream.__init__ is wrapped to remember each new stream (its counter
    starts at 0); the counters are read when the batch ends.  Reading the
    state draws nothing.
    """

    def __init__(self, ls):
        self.streams = []
        original = ls.RngStream.__init__
        probe = self

        def init(stream, *args, **kwargs):
            original(stream, *args, **kwargs)
            probe.streams.append(stream)

        ls.RngStream.__init__ = init

    def take_blocks(self):
        blocks = 0
        for stream in self.streams:
            words = stream.generator.bit_generator.state["state"]["counter"]
            blocks += sum(int(w) << (64 * k) for k, w in enumerate(words))
        self.streams = []
        return blocks


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def tail_percentile(values):
    """The highest percentile with ten samples above it, as its rank and
    value; None with fewer than eleven samples."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return None
    return {"p": 100 * k / (len(ordered) - 1), "value": ordered[k]}


def batch_s(times, stat):
    """Sum over the batch's operations of a statistic (min, median or
    mean) of each one's repetitions."""
    return sum(stat(ts) for ts in times)


class Run:
    def __init__(self, ls, setup_fn, seed, workdir, tracer, clock):
        self.ls = ls
        self.clock = clock
        self.setup_fn = setup_fn
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.probe = RngProbe(ls)
        # an operation is one call of the batch with its inputs; its
        # repetitions are timing samples of that same call, and the digest
        # check below makes them reproduce its output, so each operation
        # counts once and `failed` depends on the seed, not on how many
        # batches the run's time allowed
        self.attempted = set()
        self.failed = set()
        self.executions = 0
        self.hard = []
        self.soft = []
        # per mode, per op: measured durations, and durations at reference speed
        self.op_times = {"untraced": None, "traced": None}
        self.op_scaled = {"untraced": None, "traced": None}
        self.digests, self.blocks, self.stat_fails = set(), set(), set()

    def setup(self, traced):
        if traced:
            self.tracer.install()
            self.tracer.begin("setup")
        t0 = time.perf_counter()
        ops = self.setup_fn(self.ls, self.seed, self.workdir)
        elapsed = time.perf_counter() - t0
        scaled = self.clock.rescale(elapsed)
        if traced:
            self.tracer.end()
            self.tracer.uninstall()
        return ops, elapsed, scaled

    def batch(self, ops, traced):
        """Run every operation once and check its output; returns the batch
        wall time.  Output checks run outside the timed calls and with the
        tracer removed."""
        mode = "traced" if traced else "untraced"
        if self.op_times[mode] is None:
            self.op_times[mode] = [[] for _ in ops]
            self.op_scaled[mode] = [[] for _ in ops]
        wall = 0.0
        digest = hashlib.sha256()
        stat_fail = 0
        for k, (op, times, scaled) in enumerate(zip(ops, self.op_times[mode], self.op_scaled[mode])):
            if traced:
                self.tracer.install()
            t0 = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # an operation that raises is a failed operation
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
            scaled.append(self.clock.rescale(elapsed))
            wall += elapsed
            times.append(elapsed)
            self.executions += 1
            self.attempted.add(k)
            if error is not None:
                self.failed.add(k)
                self.hard.append(f"{op.name}: raised {error}")
                digest.update(error.encode())
                continue
            verdict = op.check(out)
            stat_fail += verdict.stat_fail
            if not verdict.ok:
                self.failed.add(k)
                self.hard += [f"{op.name}: {p}" for p in verdict.hard]
                self.soft += [f"{op.name}: {p}" for p in verdict.soft]
            digest.update(op.digest(out))
        self.digests.add(digest.hexdigest())
        self.blocks.add(self.probe.take_blocks())
        self.stat_fails.add(stat_fail)
        return wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    clock = HostClock()
    ls, import_s = import_loopsoup()
    import_times = [(import_s, clock.rescale(import_s))]
    sys.path.insert(0, str(HERE))
    import scipy

    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.SETUPS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.SETUPS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir()
    traced = bool(args.trace)
    tracer = tracer_mod.Tracer(ls) if traced else None
    run = Run(ls, workloads.SETUPS[args.workload], args.seed, str(workdir), tracer, clock)
    try:
        for _ in range(IMPORT_REPS - 1):
            clock.mark()
            elapsed = child_import_s()
            import_times.append((elapsed, clock.rescale(elapsed)))
        setup_times = []
        for _ in range(SETUP_REPS):
            ops = None  # the previous set-up's inputs must not add to the peak RSS
            clock.mark()
            ops, elapsed, scaled = run.setup(traced)
            setup_times.append((elapsed, scaled))
        walls = {"untraced": [], "traced": []}
        layer = []
        start = time.perf_counter()
        # a traced run alternates untraced and traced batches
        while True:
            batch_traced = traced and len(walls["untraced"]) > len(walls["traced"])
            if batch_traced:
                tracer.begin("batch")
            wall = run.batch(ops, batch_traced)
            if batch_traced:
                tracer.end()
                _, spans, counts = tracer.segments[-1]
                layer.append(tracer_mod.segment_metrics(tracer.names, spans, counts))
            walls["traced" if batch_traced else "untraced"].append(wall)
            if time.perf_counter() - start >= args.seconds and (not traced or walls["traced"]):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced:
            tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reproducible = len(run.digests) == 1 and len(run.blocks) == 1 and len(run.stat_fails) == 1
    correct = not run.hard and reproducible
    untraced_times = run.op_times["untraced"]
    untraced_scaled = run.op_scaled["untraced"]
    import_s, import_scaled = zip(*import_times)
    inputs_s, inputs_scaled = zip(*setup_times)
    latency = {}
    for metric, kind, size in workloads.LATENCIES:
        ms = [1000 * t for op, ts in zip(ops, untraced_times) if (op.kind, op.size) == (kind, size) for t in ts]
        if ms:
            latency[metric] = {"median": statistics.median(ms), "quartiles": quartiles(ms),
                               "tail": tail_percentile(ms), "samples": len(ms)}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "batch_wall_s": {mode: {"quartiles": quartiles(w), "batches": len(w)} for mode, w in walls.items() if w},
        "ops": {op.name + f" #{k}": {"min_s": min(ts), "median_s": statistics.median(ts),
                                     "ref_mean_s": statistics.mean(rs), "runs": len(ts)}
                for k, (op, ts, rs) in enumerate(zip(ops, untraced_times, untraced_scaled))},
        "latency_ms": latency,
        "setup": {"import_s": import_s, "import_ref_mean_s": statistics.mean(import_scaled),
                  "inputs_s": inputs_s, "inputs_ref_mean_s": statistics.mean(inputs_scaled)},
        "wall_estimates_s": {f"{ref}{name}": batch_s(times, stat)
                             for ref, times in (("", untraced_times), ("ref_", untraced_scaled))
                             for name, stat in (("min", min), ("median", statistics.median),
                                                ("mean", statistics.mean))},
        "ops_failed_frac": len(run.failed) / len(run.attempted),
        "executions": run.executions,
        "outputs_sha256": sorted(run.digests),
        "rng_blocks": sorted(run.blocks),
        "reproducible": reproducible,
        "hard_failures": sorted(set(run.hard)),
        "statistical_failures": sorted(set(run.soft)),
        "env": {
            "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "host_probe_s": quartiles(clock.readings),
            "host_probes": len(clock.readings),
        },
    }
    if traced:
        # per-layer figures cover one set-up and one batch: the medians of
        # the traced set-ups and of the traced batches, added
        setups = [tracer_mod.segment_metrics(tracer.names, spans, counts)
                  for kind, spans, counts in tracer.segments if kind == "setup"]
        values = {key: statistics.median(m[key] for m in setups) + statistics.median(m[key] for m in layer)
                  for key in layer[0]}
        values["rng.blocks"] = next(iter(run.blocks))
        values["verify.stat_fail"] = next(iter(run.stat_fails))
        values["trace.overhead_s"] = (batch_s(run.op_scaled["traced"], statistics.mean)
                                      - batch_s(untraced_scaled, statistics.mean))
        for metric, _, _ in workloads.LATENCIES:
            values[metric] = latency[metric]["median"] if metric in latency else 0.0
        # each layer time as a share of one traced set-up plus one traced batch
        traced_s = statistics.median(elapsed for elapsed, _ in setup_times) + statistics.median(walls["traced"])
        detail["traced_share"] = {key: value / traced_s for key, value in values.items()
                                  if key.endswith("_s") and not key.endswith(("per_s", "overhead_s")) and value > 0}
    else:
        values = {
            "setup_s": statistics.mean(import_scaled) + statistics.mean(inputs_scaled),
            # per-operation mean: a run has only 2 to 4 repetitions of a
            # verify_mc operation, and over repeated runs their rescaled mean
            # spread less than their minimum or median (NOTES.md)
            "wall_s": batch_s(untraced_scaled, statistics.mean),
            "peak_rss_mb": peak_rss_mb,
        }
    if {m["name"] for m in declared} != set(values):
        fail(f"measured metrics {sorted(values)} differ from those BENCHMARK.json declares")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(detail))
    print(" ".join(f"{key}={m['value']:.6g}{m['unit']}" for key, m in metrics.items())
          + f" ops_failed_frac={detail['ops_failed_frac']:.4g} correct={correct}")
    print(json.dumps({"correct": correct, "attempted": len(run.attempted), "failed": len(run.failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
