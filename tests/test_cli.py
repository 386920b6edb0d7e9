import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riscpl.cli import load_complex, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def keyed(doc):
    out = {}
    for pt in doc["points"]:
        key = (pt["x"]["k"], pt["x"]["v"], pt["y"]["k"], pt["y"]["v"])
        out[key] = out.get(key, 0) + pt["multiplicity"]
    return out


def test_gen_presets_are_deterministic(capsys):
    code, first = run(capsys, "gen", "--preset", "random", "--seed", "9")
    assert code == 0
    code, second = run(capsys, "gen", "--preset", "random", "--seed", "9")
    assert code == 0
    assert first == second
    code, third = run(capsys, "gen", "--preset", "random", "--seed", "10")
    assert third != first


def test_dgm_hood_and_flattened(capsys, tmp_path):
    code, hood = run(capsys, "gen", "--preset", "hood")
    path = write_json(tmp_path / "hood.json", json.loads(hood))
    code, doc = run_json(capsys, "dgm", path)
    assert code == 0
    assert keyed(doc) == {(0, "2", 0, "0"): 1, (1, "-1", 0, "0"): 1}

    code, flat = run(capsys, "gen", "--preset", "flattened-hood")
    path = write_json(tmp_path / "flat.json", json.loads(flat))
    code, doc = run_json(capsys, "dgm", path)
    assert code == 0
    assert keyed(doc) == {(0, "2", 0, "0"): 1, (1, "-1", -2, "2"): 1}


def test_dgm_point_and_empty(capsys, tmp_path):
    path = write_json(tmp_path / "pt.json", {
        "field": 2,
        "vertices": [{"id": 1, "value": "0"}],
        "simplices": [[1]],
    })
    code, doc = run_json(capsys, "dgm", path)
    assert code == 0
    assert keyed(doc) == {(0, "0", 0, "0"): 1}

    path = write_json(tmp_path / "empty.json",
                      {"field": 2, "vertices": [], "simplices": []})
    code, doc = run_json(capsys, "dgm", path)
    assert code == 0
    assert doc["points"] == []


def test_dgm_csv_columns(capsys, tmp_path):
    code, hood = run(capsys, "gen", "--preset", "hood")
    path = write_json(tmp_path / "hood.json", json.loads(hood))
    code, out = run(capsys, "dgm", path, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("degree,region,pair_lo,pair_hi,ls_lo,ls_lo_closed,"
                        "ls_hi,ls_hi_closed,multiplicity,x_k,x_v,y_k,y_v")
    assert len(lines) == 3


def test_barcode_circle(capsys, tmp_path):
    code, circle = run(capsys, "gen", "--preset", "circle")
    path = write_json(tmp_path / "circle.json", json.loads(circle))
    code, doc = run_json(capsys, "barcode", path)
    assert code == 0
    bars = [(b["degree"], b["lo"], b["hi"], b["lo_closed"], b["hi_closed"])
            for b in doc["bars"]]
    assert bars == [(0, "0", "2", False, False), (0, "0", "2", True, True)]


def test_rejects_float_values(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {
        "field": 2,
        "vertices": [{"id": 1, "value": 0.5}],
        "simplices": [[1]],
    })
    code, _ = run(capsys, "dgm", path)
    assert code == 2


def assert_input_error(capsys, path):
    code = main(["dgm", path])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_rejects_empty_value_list(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {
        "vertices": [{"id": 1, "value": []}],
        "simplices": [[1]],
    })
    assert_input_error(capsys, path)


def test_rejects_non_list_simplex(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {
        "vertices": [{"id": 1, "value": "0"}],
        "simplices": [1],
    })
    assert_input_error(capsys, path)


def test_rejects_top_level_list(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", [{"id": 1, "value": "0"}])
    assert_input_error(capsys, path)


def test_rejects_non_object_vertex(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {"vertices": [1], "simplices": [[1]]})
    assert_input_error(capsys, path)


def test_rejects_list_vertex_id(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {
        "vertices": [{"id": [1], "value": "0"}],
        "simplices": [[1]],
    })
    assert_input_error(capsys, path)


def test_rejects_boolean_vertex_id(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {
        "vertices": [{"id": True, "value": "0"}],
        "simplices": [[1]],
    })
    assert_input_error(capsys, path)


def assert_module_error(capsys, path):
    code = main(["check", path, "--module"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_check_rejects_module_top_level_list(capsys, tmp_path):
    assert_module_error(capsys, write_json(tmp_path / "bad.json", [1, 2]))


def test_check_rejects_module_non_list_xs(capsys, tmp_path):
    assert_module_error(capsys, write_json(tmp_path / "bad.json", {"xs": 1}))


# A field must be a JSON integer (not a boolean or a float) that is a prime
# below 2^16.
BAD_FIELDS = [[1], 2.5, 2.0, True, False, None, "3", 4, 1, 0, -3, 65537]


@pytest.mark.parametrize("field", BAD_FIELDS, ids=repr)
def test_dgm_rejects_bad_field(capsys, tmp_path, field):
    path = write_json(tmp_path / "bad.json", {
        "field": field,
        "vertices": [{"id": 1, "value": "0"}, {"id": 2, "value": "1"}],
        "simplices": [[1, 2]],
    })
    assert_input_error(capsys, path)


@pytest.mark.parametrize("field", BAD_FIELDS, ids=repr)
def test_check_module_rejects_bad_field(capsys, tmp_path, field):
    path = write_json(tmp_path / "bad.json", {
        "field": field, "xs": [], "ys": [], "dims": [], "maps": [],
    })
    assert_module_error(capsys, path)


def test_field_three_is_accepted(capsys, tmp_path):
    path = write_json(tmp_path / "ok.json", {
        "field": 3,
        "vertices": [{"id": 1, "value": "0"}, {"id": 2, "value": "1"}],
        "simplices": [[1, 2]],
    })
    assert main(["dgm", path, "--out", str(tmp_path / "dgm.json")]) == 0
    assert json.loads((tmp_path / "dgm.json").read_text())["field"] == 3


def assert_cli_error(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# Complexes on which a created split vertex would take an existing id: a
# user vertex named like the first split of the edge a-b, and two edges
# whose end ids 1 and "1" print alike.
COLLIDING = {
    "user-id": {
        "vertices": [{"id": "a", "value": 0}, {"id": "b", "value": 1},
                     {"id": "a~b@1/4", "value": 5}],
        "simplices": [["a", "b"], ["a~b@1/4"]],
    },
    "int-and-string": {
        "vertices": [{"id": 1, "value": 0}, {"id": "1", "value": 0},
                     {"id": "b", "value": 1}],
        "simplices": [[1, "b"], ["1", "b"]],
    },
}


@pytest.mark.parametrize("case", sorted(COLLIDING))
def test_rejects_split_id_collision(capsys, tmp_path, case):
    path = write_json(tmp_path / "bad.json", COLLIDING[case])
    assert_cli_error(capsys, "barcode", path)


FLAG_INPUTS = {
    "one-value": {
        "vertices": [{"id": 1, "value": "0"}, {"id": 2, "value": "1"}],
        "simplices": [[1, 2]],
    },
    "two-values": {
        "vertices": [{"id": 1, "value": ["0", "0"]}, {"id": 2, "value": ["1", "2"]}],
        "simplices": [[1, 2]],
    },
    "module": {"field": 2, "xs": [], "ys": [], "dims": [], "maps": []},
}


@pytest.mark.parametrize("doc,argv", [
    ("one-value", ["dgm", "--func", "3"]),
    ("one-value", ["dgm", "--func", "-1"]),
    ("one-value", ["barcode", "--func", "1"]),
    ("one-value", ["check", "--func", "-1"]),
    ("two-values", ["interleave", "--g", "5"]),
    ("two-values", ["interleave", "--f", "-1"]),
    ("one-value", ["dgm", "--field", "0"]),
    ("one-value", ["barcode", "--field", "4"]),
    ("one-value", ["check", "--field", "1"]),
    ("two-values", ["interleave", "--field", "0"]),
    ("module", ["check", "--module", "--field", "0"]),
    ("module", ["check", "--module", "--field", "3"]),
    ("module", ["check", "--module", "--func", "0"]),
    ("module", ["check", "--module", "--cap", "5"]),
], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_rejects_bad_function_index_and_field_flag(capsys, tmp_path, doc, argv):
    path = write_json(tmp_path / "input.json", FLAG_INPUTS[doc])
    assert_cli_error(capsys, argv[0], path, *argv[1:])


# Arbitrary JSON, and documents shaped like complex files with arbitrary
# parts, for the loader fuzz test.
_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(max_size=6))
_json = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12,
)
_ids = st.integers(-2, 3) | st.sampled_from(["a", "b", "1"]) | _json
_values = (st.integers(-3, 3) | st.sampled_from(["1/2", "-1", "x", "1/0", "2.5"])
           | st.lists(st.integers(-3, 3) | st.sampled_from(["0", "1/3"]), max_size=3)
           | _json)
_vertex = st.fixed_dictionaries({}, optional={"id": _ids, "value": _values}) | _json
_documents = _json | st.fixed_dictionaries({}, optional={
    "field": st.integers(-1, 8) | _json,
    "vertices": st.lists(_vertex, max_size=5) | _json,
    "simplices": st.lists(st.lists(_ids, max_size=3) | _json, max_size=4) | _json,
})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_documents)
def test_load_complex_raises_only_value_error(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        k, field = load_complex(str(path))
    except ValueError:
        return
    assert isinstance(field, int) and not isinstance(field, bool)


def test_check_suites_pass(capsys, tmp_path):
    code, hood = run(capsys, "gen", "--preset", "hood")
    path = write_json(tmp_path / "hood.json", json.loads(hood))
    code, report = run_json(capsys, "check", path, "--suite", "all")
    assert code == 0
    assert report["ok"]
    assert set(report["suites"]) == {
        "exactness", "continuity", "decomposition", "yoneda"
    }


def test_check_empty_passes_vacuously(capsys, tmp_path):
    path = write_json(tmp_path / "empty.json",
                      {"field": 2, "vertices": [], "simplices": []})
    code, report = run_json(capsys, "check", path)
    assert code == 0 and report["ok"]


def test_check_mutated_module_dump_fails(capsys, tmp_path):
    code, hood = run(capsys, "gen", "--preset", "hood")
    path = write_json(tmp_path / "hood.json", json.loads(hood))
    dump = tmp_path / "module.json"
    code, _ = run_json(capsys, "dgm", path, "--dump-module", str(dump))
    assert code == 0

    code, report = run_json(capsys, "check", str(dump), "--module")
    assert code == 0 and report["ok"]

    mutated = json.loads(dump.read_text())
    for entry in mutated["maps"]:
        if any(any(row) for row in entry[2]):
            entry[2] = [[0] * len(row) for row in entry[2]]
            break
    bad = write_json(tmp_path / "mutated.json", mutated)
    code, report = run_json(capsys, "check", bad, "--module")
    assert code == 1
    assert not report["ok"]
    assert any("counterexample" in r for r in report["suites"].values())


def test_interleave_hood(capsys, tmp_path):
    code, hood = run(capsys, "gen", "--preset", "hood")
    doc = json.loads(hood)
    raised = {1: 1, 2: 2, 3: 1, 4: 1, 5: 3}
    for v in doc["vertices"]:
        v["value"] = [v["value"], str(raised[int(v["id"])])]
    path = write_json(tmp_path / "pair.json", doc)
    code, report = run_json(capsys, "interleave", path, "--delta", "1")
    assert code == 0
    assert report == {"delta": "1", "ok": True, "witness": report["witness"]}
    assert report["witness"] is not None


def test_interleave_equal_functions(capsys, tmp_path):
    path = write_json(tmp_path / "same.json", {
        "field": 2,
        "vertices": [{"id": 1, "value": ["0", "0"]},
                     {"id": 2, "value": ["1", "1"]}],
        "simplices": [[1, 2]],
    })
    code, report = run_json(capsys, "interleave", path)
    assert code == 0
    assert report["ok"] and report["delta"] == "0"


def test_plot_counts_glyphs(capsys, tmp_path):
    code, hood = run(capsys, "gen", "--preset", "hood")
    path = write_json(tmp_path / "hood.json", json.loads(hood))
    code, dgm_doc = run(capsys, "dgm", path)
    dpath = tmp_path / "dgm.json"
    dpath.write_text(dgm_doc)
    code, svg = run(capsys, "plot", str(dpath))
    assert code == 0
    assert svg.count("dgm-point") == 2
    for label in ("Ord", "Rel", "Ext"):
        assert label in svg

    epath = write_json(tmp_path / "e.json", {"field": 2, "points": []})
    code, svg = run(capsys, "plot", epath)
    assert code == 0
    assert svg.count("dgm-point") == 0 and "<svg" in svg


def test_atomic_write_and_round_trip(capsys, tmp_path):
    out = tmp_path / "hood.json"
    code = main(["gen", "--preset", "hood", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert not (tmp_path / "hood.json.tmp").exists()
    doc = json.loads(out.read_text())
    code, echo = run_json(capsys, "dgm", str(out))
    assert code == 0
    # parse(emit(x)) round trip on the complex file
    again = tmp_path / "again.json"
    again.write_text(json.dumps(doc))
    code, echo2 = run_json(capsys, "dgm", str(again))
    assert echo == echo2
