import json

import numpy as np
import pytest

import loopsoup as ls
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


def test_gff(fixture_dir, capsys):
    code, out, _ = run(capsys, "gff", str(fixture_dir / "p2.json"), "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["fields"][0]) == {"x", "y"}


def test_gff_takes_one_factor(fixture_dir, capsys, monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counted(A):
        calls.append(A.shape)
        return cholesky(A)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    code, out, _ = run(capsys, "gff", str(fixture_dir / "k4c1.json"), "-n", "5", "--seed", "3")
    assert code == 0
    assert len(json.loads(out)["fields"]) == 5
    assert calls == [(4, 4)]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["green", "p2.json", "--chi", "notjson"],
        ["green", "p2.json", "--chi", '{"q": 1}'],
        ["green", "p2.json", "--chi", '{"x": NaN}'],
        ["wilson", "k4_rooted.json", "--root", "q"],
        ["zeta", "cube.json", "--u-grid", "abc"],
        ["sample", "p2.json", "--alpha", "nan"],
        ["sample", "p2.json", "--k-cap", "1"],
        ["verify", "energy_variation", "--graph", "p2.json", "--alpha", "nan", "-n", "10"],
        ["mu", "p2.json", "--set", "x", "--alpha", "nan"],
    ],
)
def test_bad_argument_exit_two(fixture_dir, capsys, argv):
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


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
