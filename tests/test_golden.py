"""Golden SHA-256 digests of every sampler's output at fixed seeds.

Each digest covers the sampled values and one further draw from the same
stream, so it pins both what a sampler returns and how many draws it
consumes.  A change to any random stream therefore fails here and can only
be made on purpose: update the digest and record the change in CHANGES.md.
Exact values are pinned at one BLAS thread (conftest.py sets it), since
LAPACK's potri (G's diagonal blocks) and eigh change their last bits with
the thread count.
"""

import hashlib
import json

import numpy as np
import pytest

import loopsoup as ls
from loopsoup.cli import main

from conftest import killed_box, shuffled_box


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
            # the tree as (child, parent) name pairs sorted by child: the digests were pinned on names
            parent = tuple(sorted(tree.parent.items(), key=lambda kv: str(kv[0])))
            out.append([parent, _loops(e, ens.loops), ens.trivial.tolist()])
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


def _transfer_current(name, root):
    def run(rng):
        return _report(ls.verify_transfer_current(_form(name), n_samples=300, rng=rng, root=root))

    return run


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
    "verify_transfer_current_k4_rooted": _transfer_current("k4_rooted", "a"),
    "verify_transfer_current_k4c1": _transfer_current("k4c1", None),
    "verify_zeta_cube": _zeta,
    "soup_stats_k4c1": _soup_stats,
}

GOLDEN = {
    ("bridge_k4c1", 0): "2cf04734ea1f85db9117263b20f9ac77cd6f070c81592c4e324a7cf2052a1803",
    ("bridge_k4c1", 1): "692d946f06299c4e78d6e06d471513f4a2914d17d008a42dc08c7216cd6dd149",
    ("gff_p2", 0): "28a36cd04140e7bf92ac726a77c06e40a5232c556f8a278cd09a7e87bfaa9148",
    ("gff_p2", 1): "cf157ce9ba5ccd76c66745b0406883160efff7bc724f20a0726d8bd47fb7e804",
    ("loop_soup_p2", 0): "eab47745bf19386c33cef8d8206a0ed5ad703dce28d6802843e866789edf49cf",
    ("loop_soup_p2", 1): "ecfa26ed54f744c9d25530854cd3cca2bc29b33eb325a13b7b66565697178721",
    ("pointed_loop_k4c1", 0): "6b13584d4ecc33eb6cab707fd3fe46b7053649402a4bdfde2b5c6a85f9c55253",
    ("pointed_loop_k4c1", 1): "7ee3659927e4c9199e4478f95937f52396ad8652705b210bc1942621e13fba97",
    ("soup_stats_k4c1", 0): "8990619205c2185317fca49166d2d39f7409b12a5bec1b8c0fc8725e696fc65e",
    ("soup_stats_k4c1", 1): "f9f66caf3ec7db75809f8ccaecef4e6f01b4d56350907b333a374b1a2952dd25",
    ("verify_dynkin_k4c1", 0): "7c7aea33e4fd90f14ce50b97ce4a7519858f78694237df648765c15d014066e8",
    ("verify_dynkin_k4c1", 1): "f7cc1eb343dad50560541ab40662f39a7fbfbf9d17317922f1f0b7eafdc208ae",
    ("verify_energy_variation_counterexample", 0): "13652b98a66e3cd86b4c452b95d87b074631e365220fc35021af7cc7199490ab",
    ("verify_energy_variation_counterexample", 1): "845ca986b39ee667adb2be603603d9f5217d12628a5ccfb89aca6de67f809fa1",
    ("verify_loop_erasure_k4c1", 0): "a45a2b487959801f9ffd6a09d70dda7239226c9fa41396dda22bcdff7edfd67e",
    ("verify_loop_erasure_k4c1", 1): "aaca7c11d987b8190233b511066cda8e5e8451a8c07a06ffdfab5e8ed95c7f86",
    ("verify_occupation_p2", 0): "0b25b73a86b1b75c022ef1e51061ae96742d79e56f70131e0ac7043b5def471b",
    ("verify_occupation_p2", 1): "3328d0d091fb98d3988e7c790a75f22f27e27f72a685f9e543e167a846437f73",
    ("verify_transfer_current_k4_rooted", 0): "775b18e85bc3bdfc4c585a9808c3b5e8e4bcae5cfeb1a13fcde171487555b2c1",
    ("verify_transfer_current_k4_rooted", 1): "d2295fdc3692a43b79adfe1b5db9d1a48ca349a13026033fee57fbd41b6b7e27",
    ("verify_transfer_current_k4c1", 0): "4aa66424b044d2ee392c3906d7484ac6e41b0b6cd7d3003d9337685fbc5a5e05",
    ("verify_transfer_current_k4c1", 1): "7161cbb8ba03304faa8745629531bd5e660bcf56d50eb7d02d404d505b1f0bfc",
    ("verify_zeta_cube", 0): "3b96219d7b23ce82fa7cebd0843de1656e3a9380bfec466634c704f7fa56035a",
    ("verify_zeta_cube", 1): "bb66dcf618a8c8adc15d990fc40171f9d14cf73b19deabddf27fac87a32afd64",
    ("wilson_k4_rooted", 0): "98c16c09c92929dc7417c4fa2035f1482b1a2f4965edb603c2572ba90869c5d6",
    ("wilson_k4_rooted", 1): "a9f81871965952ad58ec85b02a418219fc24d925574bdb9339ad672424269ac9",
    ("wilson_k4c1", 0): "831d5e9b64aa77ce3c37b228109080ef6966d2c1d2210a1605f0e16216f1f388",
    ("wilson_k4c1", 1): "569bc3b79f39064717db690ba87c78a0406d113c2ac564aadb3828a3013d3903",
}


def _digest(rng, sample):
    out = sample(rng)
    doc = {"out": out, "next_draw": rng.generator.random()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_golden_digest(name, seed):
    assert _digest(ls.RngStream(seed), SAMPLERS[name]) == GOLDEN[name, seed]


# stdout of `loopsoup sample k4c1.json -n 5 --seed 0 --json`
CLI_SAMPLE_K4C1 = "2122a0f306713cbe23c59ae5133739ed04700e4430465c23a5ed07c80e9ebea3"


def test_golden_cli_sample(tmp_path, capsys):
    ls.write_fixtures(str(tmp_path))
    assert main(["sample", str(tmp_path / "k4c1.json"), "-n", "5", "--seed", "0", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLI_SAMPLE_K4C1


# stdout of `loopsoup wilson k4_rooted.json --root a -n 5 --seed 3 --json`:
# each "parent" object lists its children in vertex order
CLI_WILSON_K4_ROOTED = "e1a71d093da771e0bb21b2685f1a3aad8cb0c687bff990fc2207f4670ec422e9"


def test_golden_cli_wilson(tmp_path, capsys):
    ls.write_fixtures(str(tmp_path))
    argv = ["wilson", str(tmp_path / "k4_rooted.json"), "--root", "a", "-n", "5", "--seed", "3", "--json"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLI_WILSON_K4_ROOTED


# stdout of `loopsoup mu <fixture> --k-cap k --json`: the enumerated class
# count, their summed mass and the tail bound
CLI_MU = {
    ("k3_wreath", 14): "c13ed30834b085432768b28a2f87d2a0626da276cdb5328bf58e9b71d3deedf0",
    ("k4c1", 10): "e1fd0933e0f4894ca5dedd53140ed26568e766f09692d8878a3dfab48e3d1a5c",
    ("k4c1", 12): "a3ddb34c39876ae3504db8f435477262c1933f37449a989b970a1c1d8f2460e6",
    ("p2", 14): "280ee41520242c31c6775de0b6e393d5ce9b6e3b50cfbbb5af262ae03552f9a6",
}


@pytest.mark.parametrize("name, k_cap", sorted(CLI_MU))
def test_golden_cli_mu(tmp_path, capsys, name, k_cap):
    ls.write_fixtures(str(tmp_path))
    assert main(["mu", str(tmp_path / f"{name}.json"), "--k-cap", str(k_cap), "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLI_MU[name, k_cap]


def _killed_cube():
    """The 3-cube with unit killing: 8 vertices, so a loop meets up to 8
    registers, and 8 * 3 * 5 * 7 * 3 = 2520 wreath states fit the guard."""
    cube = _form("cube")
    return ls.EnergyForm(cube.vertices, cube.C, np.ones(8))


WREATH_REGISTERS = {
    ("k3_wreath", "2"): 2,
    ("k3_wreath", "a2b2c3"): {"a": 2, "b": 2, "c": 3},
    ("killed_cube", "2"): 2,
    ("killed_cube", "35731111"): dict(zip(_killed_cube().vertices, [3, 5, 7, 3, 1, 1, 1, 1])),
}

# wreath_identity_sum(e, registers, k) as (value, tail) in float.hex
WREATH_SUM = {
    ("k3_wreath", "2", 8): ("0x1.bd0b5ab7c6e0ap-1", "0x1.aa2f78f1b4cd0p-3"),
    ("k3_wreath", "2", 14): ("0x1.c09ba1b95b354p-1", "0x1.67303a1b24b49p-7"),
    ("k3_wreath", "a2b2c3", 8): ("0x1.f958ec4bb21e7p-1", "0x1.3fa39ab54799cp-2"),
    ("k3_wreath", "a2b2c3", 14): ("0x1.fce9b07a02b13p-1", "0x1.0d642b945b877p-6"),
    ("killed_cube", "2", 8): ("0x1.b3fe600000002p+5", "0x1.1160000000022p+6"),
    ("killed_cube", "2", 10): ("0x1.b49440cccccccp+5", "0x1.f7422e8ba2ed6p+4"),
    ("killed_cube", "35731111", 8): ("0x1.e44985ffffff9p+6", "0x1.506120000002ap+6"),
    ("killed_cube", "35731111", 10): ("0x1.e510547ffff9bp+6", "0x1.359f37a2e8bd1p+5"),
}


@pytest.mark.parametrize("name, registers, k", sorted(WREATH_SUM))
def test_golden_wreath_identity_sum(name, registers, k):
    e = _killed_cube() if name == "killed_cube" else _form(name)
    value, tail = ls.wreath_identity_sum(e, WREATH_REGISTERS[name, registers], k)
    assert (value.hex(), tail.hex()) == WREATH_SUM[name, registers, k]


# green(e) on killed boxes of 2 to 33 blocks of rows, and on a shuffled box
# whose band fills its matrix (one block): SHA-256 of G.tobytes() and
# logdet_G.hex().  test_exact.py pins every one-block G against potri; the
# boxes pin the block recurrence itself.
GREEN_MULTI_BLOCK = {
    ("killed_box", 8, 8): ("0ea641adeb86d23a7ae2e3a8f330d5f92dcdad3a16bbd758dd22c0ef40200ac1", "-0x1.2bc0c548ff734p+6"),
    ("killed_box", 12, 12): ("526ceeb05f640d21326c2808ba99bc4c3eb1469b48c51339c7bc661c585f20e7", "-0x1.5720a3ead03d8p+7"),
    ("killed_box", 20, 1): ("a8da2425ed13fe92f69aeae979a25aebe50ccf7436090c6de7222bf4a1945b85", "-0x1.d49f4a7318baap+8"),
    ("killed_box", 33, 5): ("fbb881d6f208ca6012de64c0d43ad9ac871cd11af59bde93a3662b3943f099b8", "-0x1.39b36a1c2b849p+10"),
    ("shuffled_box", 7, 3): ("3d28ff6369088cadbf00ea0aef2758c74865f4594020df6b4f698b97078bd331", "-0x1.dc9ebb3f6b827p+5"),
}


@pytest.mark.parametrize("kind, L, seed", sorted(GREEN_MULTI_BLOCK))
def test_golden_green(kind, L, seed):
    b = ls.green({"killed_box": killed_box, "shuffled_box": shuffled_box}[kind](L, seed))
    assert (hashlib.sha256(b.G.tobytes()).hexdigest(), b.logdet_G.hex()) == GREEN_MULTI_BLOCK[kind, L, seed]


# wilson_sample on killed boxes, three trees per stream: each tree's parent
# array, the vertices and holding times (float.hex) of its erased loops and
# the bytes of its trivial field, plus one further draw.  The fixture
# digests above erase a few loops per tree; a box's branches erase hundreds.
WILSON_BOX = {
    (16, 1, 0): "535a79c8bf202e8057be7a35e4f471652cd9801613553c065c3004b2a6a2232a",
    (16, 1, 1): "404f360024f88946c3dd0a40e72ade6d1b0d97c321a1383a33caa9fc92305bf6",
    (32, 2, 0): "ba4c47fb991476ba7e1eb32fb100c7f0e6d4019713c4487f689d7be4b99a81ce",
    (32, 2, 1): "dbbf6544b80b9a59367c215afb47be7708857dea40db22fd46ed5d1c9bb37d36",
}


def _wilson_box(L, box_seed):
    def run(rng):
        e = killed_box(L, box_seed)
        out = []
        for _ in range(3):
            tree, ens = ls.wilson_sample(e, rng)
            loops = [[list(loop.vertices), [t.hex() for t in loop.taus]] for loop in ens.loops]
            out.append([tree.parent_index.tolist(), loops, ens.trivial.tobytes().hex()])
        return out

    return run


@pytest.mark.parametrize("L, box_seed, seed", sorted(WILSON_BOX))
def test_golden_wilson_box(L, box_seed, seed):
    assert _digest(ls.RngStream(seed), _wilson_box(L, box_seed)) == WILSON_BOX[L, box_seed, seed]
