import json
import os
import pathlib
import subprocess
import sys

import pytest

import loopsoup as ls
from loopsoup import exact
from loopsoup.cli import main


@pytest.fixture
def fixture_dir(tmp_path):
    ls.write_fixtures(str(tmp_path))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_green_json(fixture_dir, capsys):
    code, out, _ = run(capsys, "green", str(fixture_dir / "k4c1.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["G"][0][0] == pytest.approx(0.4)
    assert doc["G"][0][1] == pytest.approx(0.2)


def test_green_text(fixture_dir, capsys):
    code, out, _ = run(capsys, "green", str(fixture_dir / "p2.json"))
    assert code == 0
    assert "0.666667" in out


def test_mu(fixture_dir, capsys):
    code, out, _ = run(capsys, "mu", str(fixture_dir / "p2.json"), "--set", "x")
    assert code == 0
    doc = json.loads(out)
    assert doc["no_such_loop_probability"] == pytest.approx(0.75)


def test_mu_repeated_hit_vertex(fixture_dir, capsys):
    code, out, _ = run(capsys, "mu", str(fixture_dir / "counterexample.json"), "--set", "a", "a", "b")
    assert code == 0
    doc = json.loads(out)
    e = ls.load_energy_form(str(fixture_dir / "counterexample.json"))
    assert doc["hit"] == ["a", "a", "b"]
    assert doc["mass"] == ls.mu_hit_avoid(e, ["a", "b"])[0]


def test_mu_zero_k_cap_enumerates_nothing(fixture_dir, capsys):
    code, out, _ = run(capsys, "mu", str(fixture_dir / "k4c1.json"), "--k-cap", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["enumerated_loops"] == 0 and doc["enumerated_mass"] == 0
    assert doc["tail_bound"] >= 0


def test_sample_seed_deterministic(fixture_dir, capsys):
    _, out1, _ = run(capsys, "sample", str(fixture_dir / "p2.json"), "-n", "3", "--seed", "5")
    _, out2, _ = run(capsys, "sample", str(fixture_dir / "p2.json"), "-n", "3", "--seed", "5")
    assert out1 == out2
    _, out3, _ = run(capsys, "sample", str(fixture_dir / "p2.json"), "-n", "3", "--seed", "6")
    assert out1 != out3


def test_wilson(fixture_dir, capsys):
    code, out, _ = run(capsys, "wilson", str(fixture_dir / "k4_rooted.json"), "--root", "a", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["trees"][0]["parent"]) == {"b", "c", "d"}


@pytest.mark.parametrize("graph,root", [("k4c1", None), ("k4_rooted", "a"), ("k4_rooted", None)])
def test_wilson_prints_the_trees_of_wilson_sample(fixture_dir, capsys, graph, root):
    # a recurrent form with no --root is rooted at its first vertex
    code, out, _ = run(capsys, "wilson", str(fixture_dir / f"{graph}.json"), "-n", "20", "--seed", "4", "--json",
                       *(["--root", root] if root else []))
    e, rng = ls.load_energy_form(str(fixture_dir / f"{graph}.json")), ls.RngStream(4)
    draws = [ls.wilson_sample(e, rng, root=root or (None if e.transient else e.vertices[0])) for _ in range(20)]
    assert code == 0
    assert json.loads(out)["trees"] == [{"parent": tree.parent, "erased_loops": len(ens.loops)} for tree, ens in draws]


def test_gff(fixture_dir, capsys):
    code, out, _ = run(capsys, "gff", str(fixture_dir / "p2.json"), "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["fields"][0]) == {"x", "y"}


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Shapes of the bands LAPACK dpbtrf factors during the test."""
    calls = []
    dpbtrf = exact.dpbtrf

    def counted(ab, **kw):
        calls.append(ab.shape)
        return dpbtrf(ab, **kw)

    monkeypatch.setattr(exact, "dpbtrf", counted)
    return calls


def test_gff_takes_one_factor(fixture_dir, capsys, cholesky_calls):
    code, out, _ = run(capsys, "gff", str(fixture_dir / "k4c1.json"), "-n", "5", "--seed", "3")
    assert code == 0
    assert len(json.loads(out)["fields"]) == 5
    assert cholesky_calls == [(4, 4)]


def test_dynkin_takes_one_factor(fixture_dir, capsys, cholesky_calls):
    # the suite's free fields come from the form's factor, as in gff
    code, _, _ = run(capsys, "verify", "dynkin", "--graph", str(fixture_dir / "k4c1.json"), "-n", "1000")
    assert code == 0
    assert cholesky_calls == [(4, 4)]


def test_soups_without_edges(fixture_dir, capsys):
    path = str(fixture_dir / "v1.json")
    code, out, _ = run(capsys, "sample", path, "-n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [s["n_loops"] for s in doc["samples"]] == [0, 0, 0] and doc["k_cap"] is None
    assert all(s["occupation"]["x"] > 0 for s in doc["samples"])
    for suite in ("dynkin", "energy_variation", "occupation"):
        code, _, err = run(capsys, "verify", suite, "--graph", path, "-n", "300")
        assert (code, err) == (0, ""), suite


def test_zeta_trivial(fixture_dir, capsys):
    code, out, _ = run(capsys, "zeta", str(fixture_dir / "single_edge.json"), "--m-max", "6")
    assert code == 0
    doc = json.loads(out)
    assert all(n == 0 for n in doc["N"])
    assert all(entry["IZ"] == pytest.approx(1.0) for entry in doc["grid"])


def test_verify_pass_exit_zero(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "verify", "dynkin", "--graph", str(fixture_dir / "p2.json"),
        "-n", "2000", "--seed", "7",
    )
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("graph", ["v1", "single_edge"])
def test_verify_transfer_current_one_tree(fixture_dir, capsys, graph):
    # one spanning tree: an exact check, not a chi-square over one cell
    code, out, _ = run(
        capsys, "verify", "transfer_current", "--graph", str(fixture_dir / f"{graph}.json"),
        "-n", "200", "--json",
    )
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    doc = json.loads(out, parse_constant=reject)
    assert doc["passed"] and "every tree is the only tree" in [c["name"] for c in doc["checks"]]


def test_verify_json_output(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "verify", "zeta", "--graph", str(fixture_dir / "k4_rooted.json"), "--json"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_fixtures_roundtrip(fixture_dir):
    for name in ls.FIXTURES:
        e = ls.load_energy_form(str(fixture_dir / f"{name}.json"))
        assert e.n >= 1


def test_counterexample_fixture_shape(fixture_dir):
    doc = json.loads((fixture_dir / "counterexample.json").read_text())
    assert len(doc["vertices"]) == 16
    assert all(w == 1 for _, _, w in doc["edges"])
    assert all(v == 1 for v in doc["killing"].values())


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "green", "/no/such/file.json")
    assert code == 2
    assert "error" in err


def test_bad_graph_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": ["a"], "edges": [], "killing": {}}))
    code, _, err = run(capsys, "green", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "doc",
    [
        '{"vertices": ["x", "y"], "edges": [["x", "y", 1]], "killing": {"x": NaN}}',
        '{"vertices": ["x", "y"], "edges": [["x", "y", Infinity]], "killing": {"x": 1}}',
    ],
)
def test_non_finite_graph_exit_two(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, out, err = run(capsys, "green", str(path), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: non-finite") and "Traceback" not in err


MALFORMED = {
    "not_json": b'{"vertices": [',
    "not_utf8": b'{"vertices": ["\xe9"], "killing": {}}',
    "bad_weight": b'{"vertices": ["x", "y"], "edges": [["x", "y", "x"]], "killing": {"x": 1}}',
    "bad_killing": b'{"vertices": ["x", "y"], "edges": [["x", "y", 1]], "killing": {"x": "x"}}',
    "vertices_number": b'{"vertices": 5}',
    "edge_number": b'{"vertices": ["x", "y"], "edges": [5], "killing": {"x": 1}}',
    "killing_list": b'{"vertices": ["x", "y"], "edges": [["x", "y", 1]], "killing": [1]}',
    "huge_weight": b'{"vertices": ["x", "y"], "edges": [["x", "y", 1' + b"0" * 400 + b']], "killing": {"x": 1}}',
    "huge_killing": b'{"vertices": ["x", "y"], "edges": [["x", "y", 1]], "killing": {"x": 1' + b"0" * 400 + b'}}',
    "deep_nesting": b'{"vertices": ' + b"[" * 100000 + b"]" * 100000 + b"}",
}


def _malformed_argv(tmp_path, case, command):
    """argv of a command on a malformed document, or with a path that cannot
    be read or written: a directory as the graph or as -o, or JSON text in
    place of a path."""
    good = tmp_path / "p2.json"
    good.write_text(json.dumps(ls.fixture("p2")))
    graph, extra = str(good), []
    if case in MALFORMED:
        graph = str(tmp_path / f"{case}.json")
        (tmp_path / f"{case}.json").write_bytes(MALFORMED[case])
    elif case == "graph_directory":
        graph = str(tmp_path)
    elif case == "output_directory":
        extra = ["-o", str(tmp_path)]
    elif case == "json_text":
        graph = json.dumps(ls.fixture("p2"))
    if command == "green":
        return ["green", graph, *extra]
    return ["verify", "dynkin", "--graph", graph, "-n", "10", *extra]


@pytest.mark.parametrize("command", ["green", "verify_dynkin"])
@pytest.mark.parametrize("case", [*MALFORMED, "graph_directory", "output_directory", "json_text"])
def test_malformed_document_exit_two(tmp_path, capsys, case, command):
    # exit 1 means a failed verification, so an unreadable input must not give it
    code, out, err = run(capsys, *_malformed_argv(tmp_path, case, command))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["green", "p2.json", "--chi", "notjson"],
        ["green", "p2.json", "--chi", '{"q": 1}'],
        ["green", "p2.json", "--chi", '{"x": NaN}'],
        ["wilson", "k4_rooted.json", "--root", "q"],
        ["zeta", "cube.json", "--u-grid", "abc"],
        ["sample", "p2.json", "--alpha", "nan"],
        ["verify", "energy_variation", "--graph", "p2.json", "--alpha", "nan", "-n", "10"],
        ["mu", "p2.json", "--set", "x", "--alpha", "nan"],
        ["mu", "k4c1.json", "--k-cap", "-1"],
        ["mu", "k4c1.json", "--k-cap", "-3"],
        ["verify", "loop_erasure", "--graph", "v1.json"],
        ["verify", "energy_variation", "--graph", "p2.json", "--alpha", "-1", "-n", "10"],
        ["mu", "p2.json", "--set", "x", "--alpha", "-1"],
        ["sample", "p2.json", "--alpha", "-1", "-n", "0"],
        ["verify", "occupation", "--graph", "p2.json", "--alpha", "1"],
    ],
)
def test_bad_argument_exit_two(fixture_dir, capsys, argv):
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "p2.json", "-n", "-2"],
        ["wilson", "k4c1.json", "-n", "-3"],
        ["gff", "p2.json", "-n", "-1"],
        ["verify", "dynkin", "--graph", "k4c1.json", "-n", "-5"],
    ],
    ids=["sample", "wilson", "gff", "verify"],
)
def test_negative_sample_count_is_a_usage_error(fixture_dir, capsys, argv):
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "-n/--samples: " + argv[-1] + " is negative" in err and "Traceback" not in err


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense-command"])
    assert exc.value.code == 2


def test_output_file(fixture_dir, tmp_path, capsys):
    dest = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "green", str(fixture_dir / "p2.json"), "--json", "-o", str(dest)
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["G"]


_START_UP = """
import contextlib, io, json, sys
import loopsoup, loopsoup.cli
with contextlib.redirect_stdout(io.StringIO()):
    loopsoup.cli.main(["green", sys.argv[1]])
after_green = "scipy.stats" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = loopsoup.cli.main(["verify", "occupation", "--graph", sys.argv[1], "-n", "50", "--json"])
print(json.dumps({"after_green": after_green, "code": code, "report": json.loads(out.getvalue())}))
"""


def test_start_up_leaves_scipy_stats_out(fixture_dir):
    # a fresh interpreter: this one has loaded scipy.stats already
    src = str(pathlib.Path(ls.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _START_UP, str(fixture_dir / "p2.json")],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    doc = json.loads(done.stdout)
    assert doc["after_green"] is False
    ks = [c for c in doc["report"]["checks"] if c["name"].startswith("KS ")]
    assert doc["code"] in (0, 1) and len(ks) == 3
    assert all(0 <= c["p_value"] <= 1 for c in ks)
