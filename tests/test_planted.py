"""Planted defects: a sampler broken on purpose, by monkeypatch, must make
the verify suite that should see it fail, run as the CLI runs it
(-n 10000).  Each test first runs the suite without the defect at the same
seed, so the failure is the defect's, not a known false failure."""

import numpy as np
import pytest
from test_samplers import reference_branches

import loopsoup as ls
from loopsoup import samplers
from loopsoup.cli import main


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures")
    ls.write_fixtures(str(path))
    return path


def _verify(fixture_dir, suite, graph, seed):
    return main(["verify", suite, "--graph", str(fixture_dir / f"{graph}.json"),
                 "-n", "10000", "--seed", str(seed)])


def _plant_length_law_without_1_over_k(monkeypatch):
    """Draw a loop's length with probability proportional to Tr P^k, not
    Tr P^k / k."""
    init = samplers.PointedLoopSampler.__init__

    def planted(self, e):
        init(self, e)
        probs = self.length_probs * np.arange(self.k_cap + 1)
        probs /= probs.sum()
        drawn = np.flatnonzero(probs)
        self._lengths, self._length_cdf = drawn.tolist(), samplers._row(probs[drawn])

    monkeypatch.setattr(samplers.PointedLoopSampler, "__init__", planted)


def _plant_kept_erased_loop(monkeypatch):
    """Keep the first loop that each of Wilson's branches closes in the
    branch, instead of erasing it: samplers._wilson, where the trees erase,
    is replaced by the walk-then-erase reference with that erasure."""

    def erase(path):
        kept, loops = samplers._erase(path)
        if loops:
            kept, loops = sorted(kept + loops[0]), loops[1:]
        return kept, loops

    def planted(gen, table, end, branch=None):
        parent = [len(table[0])] * len(table[0])
        erased = 0
        for path, exps, _, loops in reference_branches(gen, table, end, parent, erase):
            erased += len(loops)
            if branch is not None:
                branch(path, exps)
        return parent, erased

    monkeypatch.setattr(samplers, "_wilson", planted)


@pytest.mark.parametrize("suite, graph", [
    ("occupation", "p2"), ("dynkin", "k4c1"), ("energy_variation", "counterexample"),
])
def test_soup_suites_see_a_length_law_without_1_over_k(fixture_dir, monkeypatch, suite, graph):
    assert _verify(fixture_dir, suite, graph, seed=0) == 0
    _plant_length_law_without_1_over_k(monkeypatch)
    assert _verify(fixture_dir, suite, graph, seed=0) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transfer_current_sees_a_kept_erased_loop(fixture_dir, monkeypatch, seed):
    assert _verify(fixture_dir, "transfer_current", "k4_rooted", seed) == 0
    _plant_kept_erased_loop(monkeypatch)
    assert _verify(fixture_dir, "transfer_current", "k4_rooted", seed) == 1
