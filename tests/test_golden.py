"""Golden SHA-256 digests of every sampler's output at fixed seeds.

Each digest covers the sampled values and one further draw from the same
stream, so it pins both what a sampler returns and how many draws it
consumes.  A change to any random stream therefore fails here and can only
be made on purpose: update the digest and record the change in CHANGES.md.
"""

import hashlib
import json

import pytest

import loopsoup as ls


def _form(name):
    return ls.load_energy_form(ls.fixture(name))


def _loops(loops):
    return [[loop.vertices, loop.taus] for loop in loops]


def _pointed_loop(rng):
    sampler = ls.PointedLoopSampler(_form("k4c1"))
    return _loops(sampler.sample(rng) for _ in range(50))


def _loop_soup(rng):
    e = _form("p2")
    out = []
    for _ in range(50):
        ens = ls.sample_loop_soup(e, 1.0, rng)
        out.append([_loops(ens.loops), ens.trivial.tolist()])
    return out


def _bridge(rng):
    e = _form("k4c1")
    return [[b.vertices, b.taus] for b in (ls.sample_bridge(e, "a", "b", rng) for _ in range(50))]


def _wilson(name, root):
    def run(rng):
        e = _form(name)
        out = []
        for _ in range(20):
            tree, ens = ls.wilson_sample(e, rng, root=root)
            out.append([tree.key(), _loops(ens.loops), ens.trivial.tolist()])
        return out

    return run


def _gff(rng):
    e = _form("p2")
    return [ls.sample_gff(e, rng).phi.tolist() for _ in range(20)]


def _loop_erasure(rng):
    report = ls.verify_loop_erasure(_form("k4c1"), "a", "b", n_samples=300, rng=rng).to_dict()
    del report["wall_time"]
    return report


SAMPLERS = {
    "pointed_loop_k4c1": _pointed_loop,
    "loop_soup_p2": _loop_soup,
    "bridge_k4c1": _bridge,
    "wilson_k4c1": _wilson("k4c1", None),
    "wilson_k4_rooted": _wilson("k4_rooted", "a"),
    "gff_p2": _gff,
    "verify_loop_erasure_k4c1": _loop_erasure,
}

GOLDEN = {
    ("bridge_k4c1", 0): "2cf04734ea1f85db9117263b20f9ac77cd6f070c81592c4e324a7cf2052a1803",
    ("bridge_k4c1", 1): "692d946f06299c4e78d6e06d471513f4a2914d17d008a42dc08c7216cd6dd149",
    ("gff_p2", 0): "f492b363faf403045c0fa0fe3080bc82d4b54c63dfb6ca641c80c08eedd7c677",
    ("gff_p2", 1): "196d215f8071290e11436290876a9aef281eac70485d7987a04bcf3a0e333f36",
    ("loop_soup_p2", 0): "c95898e7dd2365d7d6e4258310b2b026d1cbf814df68f6988729943c693086ae",
    ("loop_soup_p2", 1): "e7f05e84cdb01de5f322745d8a3c3c542398e917eadca5d672c213029dd4901f",
    ("pointed_loop_k4c1", 0): "6b13584d4ecc33eb6cab707fd3fe46b7053649402a4bdfde2b5c6a85f9c55253",
    ("pointed_loop_k4c1", 1): "7ee3659927e4c9199e4478f95937f52396ad8652705b210bc1942621e13fba97",
    ("verify_loop_erasure_k4c1", 0): "76e8bfca23f6028e406cc8d8a739a0f6bbe69ad80b6d249d51aa3ac5958d97e3",
    ("verify_loop_erasure_k4c1", 1): "b4d45d710569b7a7e40b7007ee19407dc7e3139f7408ad9ce6b4a1c00882e479",
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
