"""Fuzz of the spanning-tree entry points: graph documents of 1-4 vertices
with hostile weights, run through `loopsoup wilson` and `loopsoup verify
transfer_current` in process.

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
