"""Fuzz of the CLI entry points: graph documents of 1-4 vertices with
hostile weights, run in process through every command that reads a graph
and every verify suite.

Only two outcomes are accepted: exit 0 or 1 with JSON whose every number
is finite, or exit 2 with one error line and no traceback.  An exception
escaping main fails the test.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import samplers
from loopsoup.cli import main

WEIGHTS = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-12, 1e300, math.nan, math.inf]),
    st.floats(0.01, 10.0),
)


@st.composite
def documents(draw):
    """A graph document, a --root for `loopsoup wilson` (a vertex, absent
    or unknown)."""
    n = draw(st.integers(1, 4))
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        [vertices[i], vertices[j], draw(WEIGHTS)]
        for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    ]
    killing = {v: draw(WEIGHTS) for v in vertices if draw(st.booleans())}
    root = draw(st.sampled_from([*vertices, None, "unknown"]))
    return {"vertices": vertices, "edges": edges, "killing": killing}, root


def _numbers(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from _numbers(item)
    elif isinstance(doc, float):
        yield doc


def _assert_clean(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and err.startswith("error:") and "Traceback" not in err, err
    else:
        assert code in (0, 1), code
        assert all(math.isfinite(x) for x in _numbers(json.loads(out))), out
    return code


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.json"


@settings(max_examples=200, deadline=None)
@given(documents())
def test_tree_entry_points_exit_cleanly(graph_path, case):
    doc, root = case
    graph_path.write_text(json.dumps(doc))
    path = str(graph_path)
    # a killing of 1e-12 makes walks of about 1e12 steps: a low step bound
    # ends them in the bounded GraphError
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samplers, "MAX_STEPS", 10**4)
        _assert_clean(["wilson", path, "--json", "-n", "3", *(["--root", root] if root else [])])
        _assert_clean(["verify", "transfer_current", "--graph", path, "--json", "-n", "30"])


def _commands(path):
    """Every other command on the graph document at path, the sampled ones
    at small sizes."""
    yield from (["green", path], ["gff", path, "-n", "2"], ["mu", path, "--k-cap", "4", "--set", "v0"],
                ["sample", path, "-n", "2"], ["zeta", path])
    for suite in ("reflection", "zeta"):
        yield ["verify", suite, "--graph", path]
    for suite in ("dynkin", "occupation", "loop_erasure", "energy_variation"):
        yield ["verify", suite, "--graph", path, "-n", "20"]


@settings(max_examples=200, deadline=None)
@given(documents())
def test_other_entry_points_exit_cleanly(graph_path, case):
    doc, _ = case
    graph_path.write_text(json.dumps(doc))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samplers, "MAX_STEPS", 10**4)
        for argv in _commands(str(graph_path)):
            _assert_clean([*argv, "--json"])


# a law whose erased-path masses underflow to a total of 0, where
# lambda_x lambda_y overflows
HUGE_KILLING = {"vertices": ["v0", "v1", "v2"],
                "edges": [["v0", "v1", 1e300], ["v0", "v2", 0.0], ["v1", "v2", 6.885121032649647]],
                "killing": {"v1": 1e300, "v2": 1e300}}
# documents that once raised, warned, printed NaN or grew without bound: the
# document, the suite and the exit code (None: 0 or 1)
HOSTILE = {
    # V_y = lambda_y G_yy = 8.8e12: a bridge of some 1e13 excursions
    "endless_bridge": ({"vertices": ["v0", "v1"], "edges": [["v0", "v1", 8.811858427706042]],
                        "killing": {"v1": 1e-12}}, "loop_erasure", 2),
    "underflowing_law": (HUGE_KILLING, "loop_erasure", 2),
    "overflowing_lambdas": (HUGE_KILLING, "dynkin", 2),
    # prod C overflows
    "overflowing_law": ({"vertices": ["v0", "v1", "v2"], "edges": [["v0", "v2", 1e300], ["v2", "v1", 1e300]],
                         "killing": {"v0": 1e300, "v1": 1e300, "v2": 1e300}}, "loop_erasure", 2),
    # kappa_x G^xx is 1 but rounds above it
    "certain_cemetery": ({"vertices": ["v0", "v1", "v2"],
                          "edges": [["v0", "v1", 2.177483151596776], ["v0", "v2", 2.309236333417417],
                                    ["v1", "v2", 4.395453452845478]],
                          "killing": {"v0": 8.946910413070427}}, "loop_erasure", None),
    # det G and prod C leave the floats, the tree probability exp(log det G + sum log C) does not
    "huge_tree_weights": ({"vertices": ["v0", "v1"], "edges": [["v0", "v1", 1e300]], "killing": {"v0": 1e300}},
                          "transfer_current", None),
    # lambda_x = 1e-12: kappa_x - 2h makes lambda_x negative
    "tiny_lambda": ({"vertices": ["v0", "v1"], "edges": [["v0", "v1", 1e-12]],
                     "killing": {"v1": 0.7626424563334165}}, "energy_variation", 2),
    # p_geo rounds to 1: the geometric law has one cell
    "certain_geometric": ({"vertices": ["v0", "v1", "v2"],
                           "edges": [["v0", "v2", 1e-12], ["v1", "v2", 0.8724913621117653]],
                           "killing": {"v0": 1.0518155045658926, "v2": 1.282123566917113}},
                          "occupation", None),
}


@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_documents_exit_cleanly(graph_path, name, monkeypatch):
    doc, suite, code = HOSTILE[name]
    graph_path.write_text(json.dumps(doc))
    monkeypatch.setattr(samplers, "MAX_STEPS", 10**4)
    argv = ["verify", suite, "--graph", str(graph_path), "--json", "-n", "20"]
    assert _assert_clean(argv) in ((0, 1) if code is None else (code,))
