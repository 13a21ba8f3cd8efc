import json

import numpy as np
import pytest

import loopsoup as ls
from loopsoup.graph import GraphError

from conftest import random_energy_form


def test_load_from_dict(p2):
    assert p2.vertices == ("x", "y")
    assert p2.lam[0] == 2.0
    assert p2.transient


def test_load_from_json_string():
    doc = json.dumps(ls.fixture("p2"))
    e = ls.load_energy_form(doc)
    assert e.vertices == ("x", "y")


def test_load_from_path(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(ls.fixture("k4c1")))
    e = ls.load_energy_form(str(path))
    assert e.n == 4


def test_missing_killing_defaults_to_zero():
    e = ls.load_energy_form(ls.fixture("single_edge"))
    assert not e.transient
    assert np.all(e.kappa == 0)


def test_duplicate_edge_rejected():
    doc = ls.fixture("p2")
    doc["edges"].append(["y", "x", 2])
    with pytest.raises(GraphError):
        ls.load_energy_form(doc)


def test_unknown_vertex_rejected():
    doc = ls.fixture("p2")
    doc["edges"].append(["x", "z", 1])
    with pytest.raises(GraphError):
        ls.load_energy_form(doc)


def test_negative_conductance_rejected():
    doc = ls.fixture("p2")
    doc["edges"][0][2] = -1
    with pytest.raises(GraphError):
        ls.load_energy_form(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_conductance_rejected(bad):
    doc = ls.fixture("p2")
    doc["edges"][0][2] = bad
    with pytest.raises(GraphError, match="non-finite conductance"):
        ls.load_energy_form(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_killing_rejected(bad):
    with pytest.raises(GraphError, match="non-finite killing"):
        ls.EnergyForm(["x", "y"], [[0, 1], [1, 0]], [1.0, bad])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lambda_overflow_rejected():
    with pytest.raises(GraphError, match="lambda overflows"):
        ls.EnergyForm(["x", "y"], [[0, 1e308], [1e308, 0]], [1e308, 1.0])


def test_disconnected_rejected():
    doc = {"vertices": ["a", "b", "c"], "edges": [["a", "b", 1]], "killing": {"c": 1}}
    with pytest.raises(GraphError):
        ls.load_energy_form(doc)


def test_isolated_vertex_without_killing_rejected():
    doc = {"vertices": ["a"], "edges": [], "killing": {}}
    with pytest.raises(GraphError):
        ls.load_energy_form(doc)


def test_lambda_symmetry(p2, k4c1):
    for e in (p2, k4c1):
        lhs = e.lam[:, None] * e.P
        assert np.allclose(lhs, lhs.T, atol=1e-12)


def test_transition_matrix_is_lazy_and_read_only(k4c1):
    assert "P" not in vars(k4c1)
    P = k4c1.P
    assert k4c1.P is P
    assert np.array_equal(P, k4c1.C / k4c1.lam[:, None])
    assert not P.flags.writeable


def test_transition_rows_sum_below_one(k4c1):
    assert np.all(k4c1.P.sum(axis=1) <= 1 + 1e-12)
    assert np.allclose(k4c1.P.sum(axis=1), 1 - k4c1.kappa / k4c1.lam)


def test_arrays_are_read_only(p2):
    with pytest.raises(ValueError):
        p2.C[0, 1] = 5.0


def test_restrict_adds_boundary_killing(k4c1):
    d = ls.restrict(k4c1, ["a", "b"])
    # each kept vertex loses edges to c and d; that mass moves to killing
    assert np.allclose(d.kappa, [3.0, 3.0])
    assert np.allclose(d.lam, [4.0, 4.0])


def test_trace_green_is_submatrix(k4c1):
    G = ls.green(k4c1).G
    tr = ls.trace_on(k4c1, ["a", "b"])
    Gt = ls.green(tr).G
    assert np.allclose(Gt, G[:2, :2], atol=1e-12)


def test_trace_partition_function_factorizes(k4c1):
    # Z_e = Z_{e^D} Z_{e^{F}} with Z = det(G)
    def log_z(e):
        return ls.green(e).logdet_G

    d = ls.restrict(k4c1, ["c", "d"])
    f = ls.trace_on(k4c1, ["a", "b"])
    assert log_z(k4c1) == pytest.approx(log_z(d) + log_z(f), abs=1e-9)


def test_recurrent_extension_is_recurrent(p2):
    ext = ls.recurrent_extension(p2)
    assert not ext.transient
    assert ext.n == 3
    # restricting back to the original vertices recovers the killing
    back = ls.restrict(ext, list(p2.vertices))
    assert np.allclose(back.kappa, p2.kappa)
    assert np.allclose(back.C[:2, :2], p2.C)


def test_wreath_state_count(k3):
    w = ls.build_wreath(k3, {"a": 2, "b": 2, "c": 2})
    assert w.n == 3 * 2 ** 3
    assert w.transient


def test_wreath_guard(k3):
    with pytest.raises(GraphError):
        ls.build_wreath(k3, {"a": 40, "b": 40, "c": 40})


def test_random_forms_satisfy_lambda_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(10):
        e = random_energy_form(rng)
        lhs = e.lam[:, None] * e.P
        assert np.allclose(lhs, lhs.T, atol=1e-12)


def test_duplicate_edge_rejected_after_zero_weight_copy():
    doc = {"vertices": ["x", "y"], "edges": [["x", "y", 0], ["y", "x", 1]], "killing": {"x": 1}}
    with pytest.raises(GraphError, match="duplicate edge"):
        ls.load_energy_form(doc)
