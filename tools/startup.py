"""Time the start-up of loopsoup: the CLI import and the load of a graph.

Over N fresh interpreters (N defaults to 10), each with BLAS pinned to
one thread, it times `import loopsoup.cli` from a bare interpreter (numpy
and scipy included) and prints the median and interquartile range of that
time, the median ru_maxrss after the import, the number of modules loaded
and whether scipy.stats was among them.  It then prints the best of three
load_energy_form times on perfbench/inputs.py's killed L x L boxes, drawn
from default_rng([1, L]), for L = 16, 32, 48, 64, and beside each the
tracemalloc peak of a fourth load, traced apart so that the timed loads
run untraced.

    python3 tools/startup.py [N]

The 64 x 64 box takes about 0.4 GB at its peak.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import loopsoup as ls  # noqa: E402

CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import loopsoup.cli
import_s = time.perf_counter() - t0
print(json.dumps({"import_s": import_s, "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "modules": len(sys.modules), "scipy_stats": "scipy.stats" in sys.modules}))
"""


def child_start():
    """One fresh interpreter's import time, RSS, module count and
    scipy.stats flag; the child is waited for."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "src")], capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout)


def main(argv):
    runs = [child_start() for _ in range(int(argv[1]) if len(argv) > 1 else 10)]
    times = [r["import_s"] for r in runs]
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (times[0],) * 3
    print(f"import loopsoup.cli over {len(runs)} interpreters: median {statistics.median(times):.3f} s, "
          f"IQR {q3 - q1:.3f} s, ru_maxrss {statistics.median(r['maxrss_mb'] for r in runs):.1f} MB, "
          f"{statistics.median(r['modules'] for r in runs):.0f} modules, "
          f"scipy.stats loaded: {any(r['scipy_stats'] for r in runs)}")
    print(f"{'L':>3} {'n':>5} {'load_s':>8} {'peak_mb':>8}")
    for L in (16, 32, 48, 64):
        doc = inputs.killed_box(L, np.random.default_rng([1, L]))
        load_s = []
        for _ in range(3):
            e = None  # the last box's form must not add to the peak
            t0 = time.perf_counter()
            e = ls.load_energy_form(doc)
            load_s.append(time.perf_counter() - t0)
        e = None
        tracemalloc.start()
        e = ls.load_energy_form(doc)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{L:3} {e.n:5} {min(load_s):8.4f} {peak / 2**20:8.1f}")


if __name__ == "__main__":
    main(sys.argv)
