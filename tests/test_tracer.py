"""The benchmark's span tracer (perfbench/tracer.py) wraps sampler
functions and methods by name and reads their attributes; a change that
drops one of them fails here."""

import importlib.util
from pathlib import Path

import loopsoup as ls
import loopsoup.cli  # noqa: F401  (the tracer wraps loopsoup.cli.main)
from loopsoup.samplers import PointedLoopSampler, _loop_sampler

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_mod)


def test_tracer_counts_the_sampler_layer():
    e = ls.load_energy_form(ls.fixture("k4c1"))  # a fresh form: its sampler is built while traced
    originals = (ls.sample_loop_soup, ls.samplers.sample_bridge, ls.wilson_sample,
                 PointedLoopSampler.__dict__["__init__"], PointedLoopSampler.__dict__["sample"])
    tracer = tracer_mod.Tracer(ls)
    tracer.install()
    try:
        tracer.begin("batch")
        rng = ls.RngStream(1)
        ls.sample_loop_soup(e, 2.0, rng)
        ls.wilson_sample(e, rng)
        ls.sample_bridge(e, "a", "b", rng)
        counts = tracer.counts
        tracer.end()
    finally:
        tracer.uninstall()
    assert counts["samplers.pointed_setups"] == 1
    assert counts["samplers.k_cap"] == _loop_sampler(e).k_cap
    for key in ("samplers.loops", "samplers.loop_steps", "samplers.bridges", "samplers.bridge_steps",
                "samplers.walk_steps"):
        assert counts[key] > 0, key
    assert originals == (ls.sample_loop_soup, ls.samplers.sample_bridge, ls.wilson_sample,
                         PointedLoopSampler.__dict__["__init__"], PointedLoopSampler.__dict__["sample"])


def test_tracer_counts_the_zeta_layer():
    e = ls.load_energy_form(ls.fixture("cube"))
    tracer = tracer_mod.Tracer(ls)
    tracer.install()
    try:
        tracer.begin("batch")
        ls.verify.verify_zeta(e, m_max=8)
        spans, counts = tracer.spans, tracer.counts
        tracer.end()
    finally:
        tracer.uninstall()
    names = [tracer.names[rec[0]] for rec in spans]
    assert "zeta.non_backtracking_counts" in names
    _, L = ls.non_backtracking_counts(e, 8)
    assert counts["zeta.walks"] == sum(L) > 0
    assert tracer_mod.segment_metrics(tracer.names, spans, counts)["zeta.enum_s"] > 0


def test_tracer_counts_the_enumeration_layer(tmp_path):
    # the tracer wraps loops.enumerate_loops by name: the CLI's mu and
    # wreath_identity_sum must reach it through that name for
    # loops.enumerate_s and loops.classes to read nonzero
    ls.write_fixtures(str(tmp_path))
    k3 = ls.load_energy_form(ls.fixture("k3_wreath"))
    tracer = tracer_mod.Tracer(ls)
    tracer.install()
    try:
        tracer.begin("batch")
        assert ls.cli.main(["mu", str(tmp_path / "k4c1.json"), "--k-cap", "10", "--json"]) == 0
        mu_classes = tracer.counts["loops.classes"]
        ls.wreath_identity_sum(k3, 2, 14)
        spans, counts = tracer.spans, tracer.counts
        tracer.end()
    finally:
        tracer.uninstall()
    assert mu_classes == 9488
    assert counts["loops.classes"] == 9488 + 2601
    assert tracer_mod.segment_metrics(tracer.names, spans, counts)["loops.enumerate_s"] > 0
