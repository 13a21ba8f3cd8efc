"""Time the banded Cholesky factor, the Green function and a Wilson tree on
killed L x L boxes.

Each box is perfbench/inputs.py's, drawn from default_rng([1, L]).  For
each it prints n, the half-bandwidth b, the size of the factor's
(b + 1) x n band in MB (2^20 bytes), the number of row blocks green()
works in, the time of exact._factor (once, on a fresh form), the best of
three calls of green(), max |L G - I| with L the energy matrix, the best
of three calls of twisted_green() with a one-form uniform on [-pi, pi] on
each edge (drawn from default_rng([2, L])), and the best of three calls of
wilson_sample() at one seed (the first also builds the form's step table).

    python3 tools/green_scale.py [L ...]

L defaults to 16 32 48 64.  BLAS is pinned to one thread, as in the tests
and the benchmark.  The 64 x 64 box takes about 0.75 GB at its peak (C, G,
the energy matrix of the residual, the one-form and the temporaries of its
antisymmetry check, 128 MB each, and the complex twisted G, 256 MB).
"""

import os
import pathlib
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import loopsoup as ls  # noqa: E402
from loopsoup.exact import _bandwidth, _block_rows, _factor  # noqa: E402


def residual(e, G, cols=512):
    """max |L G - I|, a block of columns at a time."""
    L = e.laplacian()
    worst = 0.0
    for a in range(0, e.n, cols):
        block = L @ G[:, a : a + cols]
        block[a + np.arange(block.shape[1]), np.arange(block.shape[1])] -= 1.0
        worst = max(worst, float(np.abs(block).max()))
    return worst


def main(argv):
    sizes = [int(arg) for arg in argv[1:]] or [16, 32, 48, 64]
    print(f"{'L':>3} {'n':>5} {'b':>3} {'band_mb':>7} {'blocks':>6} {'factor_s':>9} {'green_s':>8} {'|LG-I|':>8} "
          f"{'twisted_s':>9} {'tree_s':>7}")
    for L in sizes:
        e = ls.load_energy_form(inputs.killed_box(L, np.random.default_rng([1, L])))
        t0 = time.perf_counter()
        band_mb = _factor(e).nbytes / 2**20
        factor_s = time.perf_counter() - t0
        green_s = []
        for _ in range(3):
            t0 = time.perf_counter()
            G = ls.green(e).G
            green_s.append(time.perf_counter() - t0)
        blocks = -(-e.n // _block_rows(e))
        W = np.triu(np.random.default_rng([2, L]).uniform(-np.pi, np.pi, (e.n, e.n)), 1) * (e.C > 0)
        W -= W.T
        twisted_s = []
        for _ in range(3):
            t0 = time.perf_counter()
            ls.twisted_green(e, W)
            twisted_s.append(time.perf_counter() - t0)
        tree_s = []
        for _ in range(3):  # one seed: the tree, and so the work, is the same each time
            t0 = time.perf_counter()
            ls.wilson_sample(e, ls.RngStream(0))
            tree_s.append(time.perf_counter() - t0)
        print(f"{L:3} {e.n:5} {_bandwidth(e):3} {band_mb:7.2f} {blocks:6} {factor_s:9.4f} {min(green_s):8.4f} "
              f"{residual(e, G):8.1e} {min(twisted_s):9.4f} {min(tree_s):7.4f}")


if __name__ == "__main__":
    main(sys.argv)
