import json

import numpy as np
import pytest

import loopsoup as ls
from loopsoup.graph import GraphError, _root_index, per_form
from loopsoup.samplers import _trees
from loopsoup.verify import enumerate_spanning_trees

from conftest import killed_box, random_energy_form


def test_load_from_dict(p2):
    assert p2.vertices == ("x", "y")
    assert p2.lam[0] == 2.0
    assert p2.transient


def test_a_string_is_always_a_path(tmp_path, monkeypatch):
    # JSON text is not parsed: it names a file
    doc = json.dumps(ls.fixture("p2"))
    with pytest.raises(FileNotFoundError):
        ls.load_energy_form(doc)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "{p2}.json").write_text(doc)
    assert ls.load_energy_form("{p2}.json").vertices == ("x", "y")


@pytest.mark.parametrize("doc, match", [
    ({"vertices": 5}, "not iterable"),
    ({"vertices": ["x", "y"], "edges": [5]}, "has no len"),
    ({"vertices": ["x", "y"], "edges": [["x", "y", "w"]]}, "could not convert"),
    ({"vertices": ["x", "y"], "edges": [["x", "y", None]]}, "must be a string or a real number"),
    ({"vertices": ["x"], "killing": {"x": "k"}}, "could not convert"),
    ({"vertices": ["x"], "killing": [1]}, "no attribute 'items'"),
    ({"vertices": ["x", "y"], "edges": [["x", "y", 10**400]]}, "too large to convert to float"),
    ({"vertices": ["x"], "killing": {"x": 10**400}}, "too large to convert to float"),
])
def test_malformed_document_rejected(doc, match):
    with pytest.raises(GraphError, match="malformed graph document: .*" + match):
        ls.load_energy_form(doc)


@pytest.mark.parametrize("raw", [b'{"vertices": [', b'{"vertices": ["\xe9"]}',
                                 b'{"vertices": ' + b"[" * 100000 + b"]" * 100000 + b"}"],
                         ids=["json", "utf8", "deep"])
def test_unparsable_file_rejected(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(GraphError, match="malformed graph document"):
        ls.load_energy_form(str(path))


def test_duplicate_vertex_rejected():
    with pytest.raises(GraphError, match="without duplicates"):
        ls.load_energy_form({"vertices": ["x", "y", "x"], "edges": [["x", "y", 1.0]], "killing": {"x": 1}})


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


def test_connected_components_computed_once_per_form(monkeypatch):
    # validation and the walk table of Wilson's algorithm read one cached labelling
    calls = []
    components = ls.graph.csgraph.connected_components

    def counted(*args, **kwargs):
        calls.append(1)
        return components(*args, **kwargs)

    monkeypatch.setattr(ls.graph.csgraph, "connected_components", counted)
    e = ls.load_energy_form(ls.fixture("k4c1"))
    ls.wilson_sample(e, ls.RngStream(0))
    n_comp, labels = e.connected_components
    assert calls == [1] and n_comp == 1 and not labels.any()
    C = np.zeros((3, 3))
    C[0, 1] = C[1, 0] = 1.0
    split = ls.EnergyForm(["a", "b", "c"], C, np.ones(3), require_connected=False)
    assert split.connected_components[0] == 2 and len(calls) == 2


def test_per_form_keeps_one_value_per_form_and_key(p2, k4c1):
    calls = []

    @per_form
    def derived(e, key=None):
        calls.append((e.n, key))
        return object()

    assert derived(p2) is derived(p2, None) is derived(p2)
    assert derived(p2, 1) is derived(p2, 1) is not derived(p2)
    assert derived(k4c1) is not derived(p2)
    assert calls == [(2, None), (2, 1), (4, None)]


def test_per_form_does_not_keep_a_failure(p2):
    calls = []

    @per_form
    def failing(e):
        calls.append(1)
        raise GraphError("no value")

    for _ in range(2):
        with pytest.raises(GraphError, match="no value"):
            failing(p2)
    assert len(calls) == 2


def test_root_index(p2, k4_rooted):
    assert _root_index(p2, None) == 2
    assert _root_index(k4_rooted, "c") == 2


@pytest.mark.parametrize("run", [
    lambda e, root: _root_index(e, root),
    lambda e, root: ls.wilson_sample(e, ls.RngStream(0), root=root),
    lambda e, root: _trees(e, ls.RngStream(0).generator, root, 1),
    lambda e, root: ls.transfer_matrix(e, [("a", "b")], root=root),
    lambda e, root: enumerate_spanning_trees(e, root=root),
], ids=["root_index", "wilson", "tree_rows", "transfer_matrix", "spanning_trees"])
@pytest.mark.parametrize("form, root, match", [
    ("k4c1", "a", "root only applies to recurrent chains"),
    ("k4_rooted", None, "recurrent chain needs a root"),
    ("k4_rooted", "zz", "unknown root 'zz'"),
])
def test_every_root_check_says_the_same(run, form, root, match):
    with pytest.raises(GraphError, match=match):
        run(ls.load_energy_form(ls.fixture(form)), root)


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


def test_read_only_conductances_are_shared(monkeypatch, k4c1):
    from loopsoup import graph
    from loopsoup.exact import _chi_form

    built = []

    def recording_form(vertices, C, kappa):
        built.append(C)
        return ls.EnergyForm(vertices, C, kappa)

    monkeypatch.setattr(graph, "EnergyForm", recording_form)
    e = ls.load_energy_form(ls.fixture("k4c1"))
    assert np.shares_memory(e.C, built[0])
    # forms derived from a parent's C: the chi form, the kappa +- h forms of energy_variation
    assert np.shares_memory(_chi_form(k4c1, np.full(4, 0.5)).C, k4c1.C)
    assert np.shares_memory(ls.EnergyForm(k4c1.vertices, k4c1.C, k4c1.kappa + 1e-5).C, k4c1.C)


def test_writable_or_borrowed_conductances_are_copied(k4c1):
    C = np.array(k4c1.C)
    e = ls.EnergyForm(k4c1.vertices, C, k4c1.kappa)
    C[0, 1] = C[1, 0] = 5.0
    assert e.C[0, 1] == k4c1.C[0, 1]
    view = C.view()  # read-only, but its base stays writable
    view.setflags(write=False)
    assert not np.shares_memory(ls.EnergyForm(k4c1.vertices, view, k4c1.kappa).C, C)


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


@pytest.mark.parametrize("sizes", [np.int64(2), {"a": np.int64(2), "b": 2, "c": np.int32(2)}])
def test_wreath_accepts_numpy_integer_sizes(k3, sizes):
    assert np.array_equal(ls.build_wreath(k3, sizes).C, ls.build_wreath(k3, 2).C)
    assert ls.wreath_identity_sum(k3, sizes, 4) == ls.wreath_identity_sum(k3, 2, 4)


@pytest.mark.parametrize(
    "sizes, match",
    [(0, ">= 1"), ({"a": 2, "b": 0, "c": 2}, ">= 1"), ({"a": 2, "b": 2}, "no register size for vertex 'c'"),
     (2.5, "integers")],
)
def test_wreath_rejects_bad_sizes(k3, sizes, match):
    with pytest.raises(GraphError, match=match):
        ls.build_wreath(k3, sizes)
    with pytest.raises(GraphError, match=match):
        ls.wreath_identity_sum(k3, sizes, 4)


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


def _path_C(n=3):
    C = np.zeros((n, n))
    for i in range(n - 1):
        C[i, i + 1] = C[i + 1, i] = 1.0
    return C


@pytest.mark.parametrize("i, j", [(0, 2), (2, 0)])
def test_asymmetric_pair_with_a_zero_side_rejected(i, j):
    # the pair has one nonzero side; the message names its upper side, as
    # the first worst entry of |C - C^T| in row-major order
    C = _path_C()
    C[i, j] = 0.5
    with pytest.raises(GraphError, match=r"asymmetric conductance on edge \('v0', 'v2'\)"):
        ls.EnergyForm(["v0", "v1", "v2"], C, np.ones(3))


def test_asymmetric_message_names_the_worst_pair():
    C = _path_C(4)
    C[0, 1] += 1e-3
    C[3, 2] += 1e-2
    with pytest.raises(GraphError, match=r"edge \('v2', 'v3'\)"):
        ls.EnergyForm([f"v{k}" for k in range(4)], C, np.ones(4))


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_asymmetry_within_tolerance_accepted(scale):
    # the tolerance is 1e-12 max(1, max C), relative to the largest conductance
    C = _path_C() * scale
    C[0, 1] += 0.5e-12 * scale
    e = ls.EnergyForm(["v0", "v1", "v2"], C, np.ones(3))
    assert e.C[0, 1] != e.C[1, 0]
    C[0, 1] += 2e-12 * scale
    with pytest.raises(GraphError, match=r"asymmetric conductance on edge \('v0', 'v1'\)"):
        ls.EnergyForm(["v0", "v1", "v2"], C, np.ones(3))


def test_validation_order():
    # every fault at once; mending them one by one shows the order of the checks
    C = _path_C(4)
    kappa = np.ones(4)
    kappa[1], C[0, 1], kappa[2], C[2, 1], C[3, 2], C[3, 3] = np.inf, np.nan, -1.0, -1.0, 5.0, 1.0
    faults = [
        ("non-finite killing at vertex 'v1'", lambda: kappa.__setitem__(1, 1.0)),
        (r"non-finite conductance on edge \('v0', 'v1'\)", lambda: C.__setitem__((0, 1), 1.0)),
        ("negative killing at vertex 'v2'", lambda: kappa.__setitem__(2, 1.0)),
        (r"negative conductance on edge \('v2', 'v1'\)", lambda: C.__setitem__((2, 1), 1.0)),
        (r"asymmetric conductance on edge \('v2', 'v3'\)", lambda: C.__setitem__((3, 2), 1.0)),
        ("self-loop conductance at vertex 'v3'", lambda: C.__setitem__((3, 3), 0.0)),
    ]
    for match, mend in faults:
        with pytest.raises(GraphError, match=match):
            ls.EnergyForm([f"v{k}" for k in range(4)], C, kappa)
        mend()
    assert ls.EnergyForm([f"v{k}" for k in range(4)], C, kappa).n == 4


def _component_forms():
    forms = [ls.load_energy_form(ls.fixture(name)) for name in ls.FIXTURES]
    boxes = [killed_box(L, L) for L in (1, 2, 5, 8)]
    forms += boxes
    box = boxes[-2]  # 5 x 5
    forms.append(ls.restrict(box, [v for v in box.vertices if int(v) % 5 in (0, 2, 4)]))  # three columns
    forms.append(ls.restrict(box, [v for v in box.vertices if sum(divmod(int(v), 5)) % 2 == 0]))  # no edges
    cube = forms[list(ls.FIXTURES).index("cube")]
    forms.append(ls.restrict(cube, cube.vertices[::3]))
    # a Fortran-ordered C is read row by row too
    forms.append(ls.EnergyForm(box.vertices, np.asfortranarray(box.C), box.kappa))
    return forms


def test_connected_components_match_scipy_on_dense_C():
    from scipy.sparse import csgraph, csr_array

    split = 0
    for e in _component_forms():
        n_comp, labels = e.connected_components
        want_n, want_labels = csgraph.connected_components(csr_array(e.C), directed=False)
        assert n_comp == want_n and np.array_equal(labels, want_labels)
        split += n_comp > 1
    assert split >= 3


def test_nonzero_pattern_is_read_once_row_by_row(k4c1):
    rows, cols = k4c1.nonzero
    assert k4c1.nonzero[0] is rows
    assert np.array_equal(np.stack([rows, cols]), np.stack(np.nonzero(k4c1.C)))
    assert not rows.flags.writeable and not cols.flags.writeable
