"""Golden SHA-256 digests of every sampler's output at fixed seeds.

Each digest covers the sampled values and one further draw from the same
stream, so it pins both what a sampler returns and how many draws it
consumes.  A change to any random stream therefore fails here and can only
be made on purpose: update the digest and record the change in CHANGES.md.
Exact values are pinned at one BLAS thread (conftest.py sets it), since
LAPACK's potri and potrs change their last bits with the thread count.
"""

import hashlib
import json

import pytest

import loopsoup as ls


def _form(name):
    return ls.load_energy_form(ls.fixture(name))


def _named(e, path):
    """A loop or bridge as [vertex names, holding times]: the digests were
    pinned on names."""
    return [[e.vertices[v] for v in path.vertices], path.taus]


def _loops(e, loops):
    return [_named(e, loop) for loop in loops]


def _pointed_loop(rng):
    e = _form("k4c1")
    sampler = ls.PointedLoopSampler(e)
    return _loops(e, (sampler.sample(rng) for _ in range(50)))


def _loop_soup(rng):
    e = _form("p2")
    out = []
    for _ in range(50):
        ens = ls.sample_loop_soup(e, 1.0, rng)
        out.append([_loops(e, ens.loops), ens.trivial.tolist()])
    return out


def _bridge(rng):
    e = _form("k4c1")
    return [_named(e, ls.sample_bridge(e, "a", "b", rng)) for _ in range(50)]


def _wilson(name, root):
    def run(rng):
        e = _form(name)
        out = []
        for _ in range(20):
            tree, ens = ls.wilson_sample(e, rng, root=root)
            out.append([tree.key(), _loops(e, ens.loops), ens.trivial.tolist()])
        return out

    return run


def _gff(rng):
    e = _form("p2")
    return [ls.sample_gff(e, rng).phi.tolist() for _ in range(20)]


def _report(report):
    doc = report.to_dict()
    del doc["wall_time"]
    return doc


def _loop_erasure(rng):
    return _report(ls.verify_loop_erasure(_form("k4c1"), "a", "b", n_samples=300, rng=rng))


def _occupation(rng):
    return _report(ls.verify_occupation_marginals(_form("p2"), n_samples=300, rng=rng))


def _dynkin(rng):
    return _report(ls.verify_dynkin(_form("k4c1"), k=1, n_samples=300, rng=rng))


def _energy_variation(rng):
    e = _form("counterexample")
    kappa = e.kappa.copy()
    kappa[0] += 1.0
    e2 = ls.EnergyForm(e.vertices, e.C, kappa)
    return _report(ls.verify_energy_variation(e, e2, n_samples=300, rng=rng))


def _zeta(rng):
    return _report(ls.verify_zeta(_form("cube")))


def _soup_stats(rng):
    e = _form("k4c1")
    out = []
    for _ in range(20):
        ens = ls.sample_loop_soup(e, 2.0, rng)
        out.append([ens.occupation().tolist(), ens.traversals().tolist(), ens.visit_counts().tolist()])
    return out


SAMPLERS = {
    "pointed_loop_k4c1": _pointed_loop,
    "loop_soup_p2": _loop_soup,
    "bridge_k4c1": _bridge,
    "wilson_k4c1": _wilson("k4c1", None),
    "wilson_k4_rooted": _wilson("k4_rooted", "a"),
    "gff_p2": _gff,
    "verify_loop_erasure_k4c1": _loop_erasure,
    "verify_occupation_p2": _occupation,
    "verify_dynkin_k4c1": _dynkin,
    "verify_energy_variation_counterexample": _energy_variation,
    "verify_zeta_cube": _zeta,
    "soup_stats_k4c1": _soup_stats,
}

GOLDEN = {
    ("bridge_k4c1", 0): "2cf04734ea1f85db9117263b20f9ac77cd6f070c81592c4e324a7cf2052a1803",
    ("bridge_k4c1", 1): "692d946f06299c4e78d6e06d471513f4a2914d17d008a42dc08c7216cd6dd149",
    ("gff_p2", 0): "595a407abd49be5cd108077a76278ab483b4001d4ad251c606f6c31ac19bc625",
    ("gff_p2", 1): "1990bc0e487f978b40e9458ba856571ff612369c6dd57a01b1087c769b960449",
    ("loop_soup_p2", 0): "c95898e7dd2365d7d6e4258310b2b026d1cbf814df68f6988729943c693086ae",
    ("loop_soup_p2", 1): "e7f05e84cdb01de5f322745d8a3c3c542398e917eadca5d672c213029dd4901f",
    ("pointed_loop_k4c1", 0): "6b13584d4ecc33eb6cab707fd3fe46b7053649402a4bdfde2b5c6a85f9c55253",
    ("pointed_loop_k4c1", 1): "7ee3659927e4c9199e4478f95937f52396ad8652705b210bc1942621e13fba97",
    ("soup_stats_k4c1", 0): "40e8f8a8ed4ea9c28ff2c53e153d80f92be77f507a6bb0a1220027ea21dfec04",
    ("soup_stats_k4c1", 1): "b817d324c16d32a0b51f77a69ce31e0e394dd04ddaeccc2576906df8b84daef0",
    ("verify_dynkin_k4c1", 0): "7cdad647e55ebfbd4f5193f1484e90625a6239ae70cf0b3353ceb94202a2569f",
    ("verify_dynkin_k4c1", 1): "695d28d90e80a9599250f50613e025a277259eb6ffb1d95f139b7a458b36291e",
    ("verify_energy_variation_counterexample", 0): "13652b98a66e3cd86b4c452b95d87b074631e365220fc35021af7cc7199490ab",
    ("verify_energy_variation_counterexample", 1): "845ca986b39ee667adb2be603603d9f5217d12628a5ccfb89aca6de67f809fa1",
    ("verify_loop_erasure_k4c1", 0): "a45a2b487959801f9ffd6a09d70dda7239226c9fa41396dda22bcdff7edfd67e",
    ("verify_loop_erasure_k4c1", 1): "aaca7c11d987b8190233b511066cda8e5e8451a8c07a06ffdfab5e8ed95c7f86",
    ("verify_occupation_p2", 0): "0b25b73a86b1b75c022ef1e51061ae96742d79e56f70131e0ac7043b5def471b",
    ("verify_occupation_p2", 1): "3328d0d091fb98d3988e7c790a75f22f27e27f72a685f9e543e167a846437f73",
    ("verify_zeta_cube", 0): "3b96219d7b23ce82fa7cebd0843de1656e3a9380bfec466634c704f7fa56035a",
    ("verify_zeta_cube", 1): "bb66dcf618a8c8adc15d990fc40171f9d14cf73b19deabddf27fac87a32afd64",
    ("wilson_k4_rooted", 0): "0d8c39495b33e6ddf5b6e89f7adcb5938bba9ff216ef40bcb3c4d9fb1a47befb",
    ("wilson_k4_rooted", 1): "59851b57118e5b44b973158afd3decbdf0948e3f17195ca1ce4299e02ac0355d",
    ("wilson_k4c1", 0): "a6a88bbd14e55a1d384a8a242d12e622fc93732d60e6e8cf9a35cecea18a2da8",
    ("wilson_k4c1", 1): "251d4e27f8f875955b1ff94942fd42a5163136961f0b8c3e99be79645ddb1f1a",
}


def _digest(rng, sample):
    out = sample(rng)
    doc = {"out": out, "next_draw": rng.generator.random()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_golden_digest(name, seed):
    assert _digest(ls.RngStream(seed), SAMPLERS[name]) == GOLDEN[name, seed]
