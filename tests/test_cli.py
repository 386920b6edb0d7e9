import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riscpl import cli
from riscpl.cli import interval_json, load_complex, main
from riscpl.exact_geometry import (
    INF,
    Coord,
    StripPoint,
    beta_levelset,
    classify_region,
    in_diag_downset,
    strip_location,
)
from riscpl.field_linalg import Mat
from riscpl.interleave import Transformation
from riscpl.risc_builder import DEFAULT_CAP

from test_oracles import HIGH_DIMENSIONAL


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
    return err


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
    return err


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


def simplex_file(tmp_path, nverts, nvalues=1):
    return write_json(tmp_path / "simplex.json", {
        "vertices": [{"id": v, "value": [str(v)] * nvalues} for v in range(nverts)],
        "simplices": [list(range(nverts))],
    })


def test_default_cap_bounds_the_face_closure(capsys, tmp_path):
    # 2^18 - 1 faces: refused at the first face past the cap, not after
    # building all of them
    path = simplex_file(tmp_path, 18)
    start = time.perf_counter()
    err = assert_cli_error(capsys, "dgm", path)
    assert time.perf_counter() - start < 0.5
    assert f"({DEFAULT_CAP + 1} > {DEFAULT_CAP}) while closing under faces" in err


@pytest.mark.parametrize("argv", [["dgm"], ["barcode"], ["check"], ["interleave"]],
                         ids=lambda x: x[0])
def test_every_command_on_a_complex_passes_its_cap_to_the_loader(capsys, tmp_path, argv):
    path = simplex_file(tmp_path, 7, 2)
    err = assert_cli_error(capsys, argv[0], path, "--cap", "100")
    assert "(101 > 100) while closing under faces" in err


def test_unknown_ids_give_one_error_line_under_every_hash_seed(tmp_path):
    path = write_json(tmp_path / "ghosts.json", {
        "vertices": [{"id": 1, "value": "0"}, {"id": 2, "value": "1"}],
        "simplices": [[1, 2], [1, "g", 2, "h", "i"], ["j", "k", 1], ["l"]],
    })
    src = str(Path(cli.__file__).resolve().parents[1])
    errs = set()
    for seed in range(1, 5):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "riscpl.cli", "dgm", path], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        errs.add(proc.stderr)
    assert errs == {"error: dangling vertex id g\n"}


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


def test_each_suite_reports_its_entry_of_all(capsys, tmp_path, monkeypatch):
    # a GF(3) hood dump: intact; with one nonzero structure map negated; and
    # with a space at the rim below the vertex walked first, mapping onto
    # the sample above it, so that decomposition fails after one block walk
    # and yoneda reads a partly filled walk dict
    from riscpl import strip_module

    code, hood = run(capsys, "gen", "--preset", "hood")
    path = write_json(tmp_path / "hood.json", json.loads(hood))
    intact = tmp_path / "hood3.json"
    code, _ = run(capsys, "dgm", path, "--field", "3", "--dump-module", str(intact))
    assert code == 0
    doc = json.loads(intact.read_text())
    nonzero = [e for e in doc["maps"] if any(any(row) for row in e[2])]
    entry = nonzero[len(nonzero) // 2]
    saved = entry[2]
    entry[2] = [[-x % 3 for x in row] for row in entry[2]]
    negated = write_json(tmp_path / "negated.json", doc)
    entry[2] = saved
    m, _ = cli.load_module(str(intact))
    vertices = [m.index_of(d.point) for d in strip_module.dgm(m).points]
    v = min(vertices, key=lambda v: v[0] - v[1])
    rim = next((v[0], j) for j in range(v[1], -1, -1) if not m.dim_at((v[0], j)))
    above = (rim[0], rim[1] + 1)
    doc["dims"].append([*rim, 1])
    doc["maps"].append([list(rim), list(above), [[1] * m.dim_at(above)]])
    rimmed = write_json(tmp_path / "rimmed.json", doc)
    walked = []
    block = strip_module._block
    monkeypatch.setattr(strip_module, "_block", lambda v, m: walked.append(v) or block(v, m))
    verdicts = []
    for dump in (str(intact), negated, rimmed):
        walked.clear()
        code, full = run_json(capsys, "check", dump, "--module", "--suite", "all")
        assert list(full["suites"]) == ["exactness", "continuity", "decomposition", "yoneda"]
        assert code == (0 if full["ok"] else 1)
        verdicts.append(full["ok"])
        # decomposition and yoneda walk each block at most once between
        # them, every block on the intact dump; on the rimmed one both fail
        # at the one block walked
        assert len(walked) == len(set(walked))
        if dump == str(intact):
            assert sorted(walked) == sorted(vertices)
        if dump == rimmed:
            assert walked == [v]
            assert full["suites"]["decomposition"]["counterexample"].startswith(
                "('too few sections'")
            assert full["suites"]["yoneda"]["counterexample"] == repr(("yoneda mismatch at", v))
        for name, result in full["suites"].items():
            code, one = run_json(capsys, "check", dump, "--module", "--suite", name)
            assert one == {"suites": {name: result}, "ok": result["ok"]}
            assert code == (0 if result["ok"] else 1)
    assert verdicts == [True, False, False]


def test_check_computes_the_diagram_once(capsys, tmp_path, monkeypatch):
    # the decomposition and Yoneda suites of one check read one diagram,
    # on an intact dump and on one whose decomposition check fails at a
    # square; each checker called with a module alone computes its own
    from riscpl import strip_module

    code, hood = run(capsys, "gen", "--preset", "hood")
    path = write_json(tmp_path / "hood.json", json.loads(hood))
    intact = tmp_path / "hood3.json"
    assert run(capsys, "dgm", path, "--field", "3", "--dump-module", str(intact))[0] == 0
    doc = json.loads(intact.read_text())
    doc["maps"][0][2][0][0] = (doc["maps"][0][2][0][0] + 1) % 3
    broken = write_json(tmp_path / "broken3.json", doc)
    calls = []
    diagram = strip_module.dgm
    for home in (strip_module, cli):
        monkeypatch.setattr(home, "dgm", lambda m: calls.append(m) or diagram(m), raising=False)
    for dump, ok in ((str(intact), True), (broken, False)):
        calls.clear()
        code, report = run_json(capsys, "check", dump, "--module", "--suite", "all")
        assert report["ok"] is ok and len(calls) == 1
    m, _ = cli.load_module(str(intact))
    calls.clear()
    assert strip_module.decomposition_check(m) is None and strip_module.yoneda_check(m) is None
    assert len(calls) == 2


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


# One broken circle dump per rule of the module format, each of which must
# be refused with one error line: "ys" repeats "xs"; the coordinates are
# strictly increasing; every k and index is a JSON integer; every dims entry
# and map end is a sample; no sample has two dims entries and no dimension is
# negative; every map key is a covering pair given once; every map is an
# integer matrix of the shape of its ends' dimensions; "xs", "ys", "dims"
# and "maps" are lists.  Where the error must name the broken entry or
# field, or give a fixed message, that text is returned.
def break_dump(doc, case):
    first_map = doc["maps"][0]
    if case.startswith("not-a-list"):
        # an object or a string would iterate as empty
        *_, key, kind = case.split("-")
        value = {"object": {}, "string": ""}[kind]
        if key == "xs":
            doc["ys"], doc["dims"], doc["maps"] = value, [], []
        doc[key] = value
        return key
    if case == "ys-shortened":
        doc["ys"] = doc["ys"][:-4]
    elif case in ("xs-reversed", "xs-duplicate"):
        xs = doc["xs"][::-1] if case == "xs-reversed" else doc["xs"][:1] + doc["xs"]
        doc["xs"] = doc["ys"] = xs
    elif case == "k-float":
        for c in doc["xs"] + doc["ys"]:
            c["k"] = 1.5
    elif case.startswith("dims-index"):
        doc["dims"][0][0] = {"float": 1.5, "bool": True, "negative": -1,
                             "beyond": 1000, "huge": 2 ** 70}[case.split("-")[-1]]
        if case == "dims-index-huge":
            return f"{doc['dims'][0][:2]} is not a sample of the grid"
    elif case in ("dims-entry-short", "dims-entry-long"):
        doc["dims"][0] = doc["dims"][0][:2] if case.endswith("short") else doc["dims"][0] + [1]
    elif case == "dims-negative":
        doc["dims"][0][2] = -1
        return doc["dims"][0]
    elif case.startswith("dims-huge"):
        # beyond int64, beyond memory, and one above the bound; the maps at
        # the sample go, so that no shape check refuses the dump first
        i, j, _ = doc["dims"][0]
        kind = case.split("-")[-1]
        doc["dims"][0][2] = {"70": 2 ** 70, "40": 2 ** 40, "bound": cli.MAX_DIM + 1}[kind]
        doc["maps"] = [m for m in doc["maps"] if [i, j] not in m[:2]]
        return doc["dims"][0]
    elif case == "dims-repeated":
        doc["dims"].append(doc["dims"][0])
        return doc["dims"][0]
    elif case == "map-end-outside":
        first_map[1] = [0, 0]
    elif case == "map-key-short":
        first_map[0] = [5]
    elif case == "map-not-covering":
        first_map[0], first_map[1] = first_map[1], first_map[0]
    elif case == "map-shape":
        first_map[2].append(first_map[2][0])
    elif case == "map-entry-float":
        first_map[2][0][0] += 0.5
    elif case in ("map-entry-bool", "map-entry-string"):
        first_map[2][0][0] = True if case.endswith("bool") else "1"
    elif case == "map-row-ragged":
        arr = next(arr for _, _, arr in doc["maps"] if len(arr) > 1)
        arr[0].append(0)
    elif case == "map-two-items":
        del first_map[2]
    elif case == "map-repeated":
        a, b, arr = first_map
        doc["maps"].append([a, b, [[1 - x for x in row] for row in arr]])
        return [a, b]


@pytest.fixture(scope="module")
def circle_dump(tmp_path_factory):
    """The text of the circle's module dump, written once per module."""
    tmp = tmp_path_factory.mktemp("circle")
    dump = tmp / "module.json"
    assert main(["gen", "--preset", "circle", "--out", str(tmp / "circle.json")]) == 0
    assert main(["dgm", str(tmp / "circle.json"), "--dump-module", str(dump),
                 "--out", str(tmp / "dgm.json")]) == 0
    return dump.read_text()


@pytest.mark.parametrize("case", [
    "ys-shortened", "xs-reversed", "xs-duplicate", "k-float", "dims-index-float",
    "dims-index-bool", "dims-index-negative", "dims-index-beyond", "dims-negative",
    "dims-repeated", "dims-huge-70", "dims-huge-40", "dims-huge-bound",
    "map-end-outside", "map-key-short", "map-not-covering", "map-repeated", "map-shape",
    "map-entry-float", "dims-index-huge", "dims-entry-short", "dims-entry-long",
    "map-entry-bool", "map-entry-string", "map-row-ragged", "map-two-items",
    "not-a-list-xs-object", "not-a-list-xs-string", "not-a-list-dims-object",
    "not-a-list-dims-string", "not-a-list-maps-object", "not-a-list-maps-string"])
def test_check_rejects_broken_module_dump(capsys, tmp_path, circle_dump, case):
    doc = json.loads(circle_dump)
    named = break_dump(doc, case)
    err = assert_module_error(capsys, write_json(tmp_path / "broken.json", doc))
    assert named is None or str(named) in err


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_module_raises_only_value_error(tmp_path, circle_dump, data):
    # the circle dump with arbitrary JSON put in at a few places, at any depth
    doc = json.loads(circle_dump)
    for _ in range(data.draw(st.integers(1, 3))):
        node, key = doc, data.draw(st.sampled_from(["field", "xs", "ys", "dims", "maps"]))
        while isinstance(node[key], (list, dict)) and node[key] and data.draw(st.booleans()):
            node = node[key]
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                            else range(len(node))))
        node[key] = data.draw(_json)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        m, field = cli.load_module(str(path))
    except ValueError:
        return
    assert set(m.dims) <= set(m.samples()) and field == m.p


def test_module_dump_entries_are_read_modulo_the_field(capsys, tmp_path, circle_dump):
    # -1 and 2^70 + 1 are 1 over GF(2), and 2^70 is 0: the maps read back
    # unchanged, however far beyond int64 an entry lies
    doc = json.loads(circle_dump)
    for n, (_, _, arr) in enumerate(doc["maps"]):
        for row in arr:
            row[:] = [x + (2 ** 70 if n % 2 else -2) for x in row]
    intact, _ = cli.load_module(write_json(tmp_path / "intact.json", json.loads(circle_dump)))
    path = write_json(tmp_path / "wide.json", doc)
    wide, _ = cli.load_module(path)
    assert sorted(wide.maps) == sorted(intact.maps)
    assert all(wide.maps[key] == mat for key, mat in intact.maps.items())
    code, report = run_json(capsys, "check", path, "--module")
    assert code == 0 and report["ok"]


def test_module_dump_ys_equal_to_xs_in_value(capsys, tmp_path, circle_dump):
    # "ys" may write its rationals otherwise than "xs" does
    doc = json.loads(circle_dump)
    doc["ys"] = [dict(c, v=f"{c['v']}/1" if c["v"].lstrip("-").isdigit() else c["v"])
                 for c in doc["xs"]]
    assert doc["ys"] != doc["xs"]
    code, report = run_json(capsys, "check", write_json(tmp_path / "ys.json", doc), "--module")
    assert code == 0 and report["ok"]


S3 = {"vertices": [{"id": v, "value": str(x)} for v, x in zip(range(1, 6), (1, 1, 2, 2, 3))],
      "simplices": [[v for v in range(1, 6) if v != u] for u in range(1, 6)]}


@pytest.mark.parametrize("case,field", [
    ("hood", 2), ("hood", 3), ("hood", 5), ("circle", 2), ("cone", 2), ("random-0", 2),
    ("random-1", 3), ("random-2", 2), ("s3", 2), ("no-vertices", 2)])
def test_module_dump_is_indented_json(capsys, tmp_path, case, field):
    # the dump, written from per-entry templates, is byte for byte what
    # json.dumps(..., indent=2) writes
    from riscpl.risc_builder import evaluate

    path = str(tmp_path / "complex.json")
    if case == "s3":
        write_json(tmp_path / "complex.json", S3)
    elif case == "no-vertices":
        write_json(tmp_path / "complex.json", {"field": 2, "vertices": [], "simplices": []})
    else:
        preset, _, seed = case.partition("-")
        assert main(["gen", "--preset", preset, "--seed", seed or "0", "--out", path]) == 0
    dump = tmp_path / "module.json"
    assert main(["dgm", path, "--field", str(field), "--dump-module", str(dump),
                 "--out", str(tmp_path / "dgm.json")]) == 0
    k, _ = load_complex(path)
    doc = cli.module_json(evaluate(k, p=field).module, field)
    assert dump.read_text() == json.dumps(doc, indent=2) + "\n"
    assert (doc["dims"] == doc["maps"] == []) == (case == "no-vertices")


def hood_stability_pair(capsys, tmp_path):
    """The hood preset with the raised flattened hood as second function,
    at sup distance 1; returns the file's path."""
    code, hood = run(capsys, "gen", "--preset", "hood")
    doc = json.loads(hood)
    raised = {1: 1, 2: 2, 3: 1, 4: 1, 5: 3}
    for v in doc["vertices"]:
        v["value"] = [v["value"], str(raised[int(v["id"])])]
    return write_json(tmp_path / "pair.json", doc)


@pytest.mark.parametrize("argv", [["dgm"], ["check", "--module"], ["plot"]],
                         ids=["complex", "module", "diagram"])
def test_rejects_files_nested_too_deeply(capsys, tmp_path, argv):
    # json decodes past the recursion limit into a RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert "nested too deeply" in assert_cli_error(capsys, argv[0], str(path), *argv[1:])


def test_rejects_exponents_beyond_the_integer_bound(capsys, tmp_path, monkeypatch):
    path = write_json(tmp_path / "huge.json", {
        "vertices": [{"id": 1, "value": "1e5000"}], "simplices": [[1]]})
    assert "exponent" in assert_cli_error(capsys, "dgm", path)
    pair = hood_stability_pair(capsys, tmp_path)
    assert "exponent" in assert_cli_error(capsys, "interleave", pair, "--delta", "1e5000")
    # a numerator or denominator of more than 4,300 digits could not be
    # written back; one of 4,300 digits can
    path = write_json(tmp_path / "long.json", {
        "vertices": [{"id": 1, "value": "1e4300"}, {"id": 2, "value": "0"}],
        "simplices": [[1, 2]]})
    assert "'1e4300'" in assert_cli_error(capsys, "dgm", path)
    for x in ("12e4299", "1e-4300"):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            cli.parse_rational(x)
    assert len(str(cli.parse_rational("1e4299"))) == 4300
    assert len(str(cli.parse_rational("1e-4299").denominator)) == 4300
    # the bound is on the reduced number: 2 * 10^4299 has 4,300 digits
    assert cli.parse_rational("0.5e-4299").denominator == 2 * 10 ** 4299
    # the exponent is bounded before any number is built, a zero one too
    monkeypatch.setattr(cli, "Fraction", lambda x: pytest.fail(f"built {x}"))
    for x in ("1e999999999", "-2.5E-1_000_000", "0e999999999", "0e-999999999"):
        with pytest.raises(ValueError, match="exponent"):
            cli.parse_rational(x)


def test_zeros_that_do_not_change_a_value_do_not_count_as_digits(capsys, tmp_path):
    # leading zeros of an integer part, numerator or denominator and
    # trailing zeros of decimals are dropped before the digit bound
    assert cli.parse_rational("1." + "0" * 5000) == 1
    assert cli.parse_rational("0" * 5000 + "1") == 1
    assert cli.parse_rational("3/" + "0" * 4400 + "4") == Fraction(3, 4)
    # the digits that are left still count
    for x in ("1" + "0" * 5000 + ".0", "0." + "0" * 5000 + "1"):
        path = write_json(tmp_path / "long.json", {
            "vertices": [{"id": 1, "value": x}, {"id": 2, "value": "0"}],
            "simplices": [[1, 2]]})
        assert "has more than 4300 digits" in assert_cli_error(capsys, "dgm", path)


def test_leading_zeros_of_an_exponent_do_not_count(capsys, tmp_path):
    # they are dropped before the exponent bound and before Fraction
    assert cli.parse_rational("1e" + "0" * 5000 + "5") == 100000
    assert cli.parse_rational("2.5e" + "0" * 4400 + "1") == 25
    assert cli.parse_rational("3E-" + "0" * 5000 + "2") == Fraction(3, 100)
    path = write_json(tmp_path / "zeros.json", {
        "vertices": [{"id": 1, "value": "1e+" + "0" * 5000 + "1"}, {"id": 2, "value": "0"}],
        "simplices": [[1, 2]]})
    code, _ = run_json(capsys, "dgm", path)
    assert code == 0
    # the exponent that is left is still bounded
    with pytest.raises(ValueError, match="exponent"):
        cli.parse_rational("1e" + "0" * 5000 + "4301")


def test_interleave_hood(capsys, tmp_path):
    path = hood_stability_pair(capsys, tmp_path)
    code, report = run_json(capsys, "interleave", path, "--delta", "1")
    assert code == 0
    assert report == {"delta": "1", "ok": True, "witness": report["witness"]}
    assert report["witness"] is not None


def test_interleave_reports_the_failing_triangle(capsys, tmp_path, monkeypatch):
    # a forward transformation off by one at the hood pair's witness breaks
    # the triangle identity of the first function there
    at = Transformation.at

    def mutated(self, key):
        out = at(self, key)
        if key != (63, 37) or self.ev_f.func != 0:
            return out
        return Mat(out.data + 1, out.p)

    monkeypatch.setattr(Transformation, "at", mutated)
    path = hood_stability_pair(capsys, tmp_path)
    code, report = run_json(capsys, "interleave", path, "--delta", "1")
    assert code == 1
    assert report["ok"] is False
    assert report["counterexample"] == {
        "sample": [63, 37], "function": 0, "lhs": [[0]], "rhs": [[1]]}


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


def test_interleave_reads_only_vertices_of_the_complex(capsys, tmp_path):
    # vertex 3 lies in no simplex, as dgm drops it from the space; its
    # values differ by 50, but f = g on the complex
    path = write_json(tmp_path / "unused.json", {
        "vertices": [{"id": 1, "value": ["0", "0"]},
                     {"id": 2, "value": ["1", "1"]},
                     {"id": 3, "value": ["0", "50"]}],
        "simplices": [[1, 2]],
    })
    for delta in ("auto", "0"):
        code, report = run_json(capsys, "interleave", path, "--delta", delta)
        assert code == 0
        assert report["ok"] and report["delta"] == "0"


def test_grid_lines_come_only_from_vertices_of_the_complex(capsys, tmp_path):
    # vertex 6 at (7, 7) lies in no simplex, so it adds no grid line: the
    # hood stability pair keeps its witness, and the hood dump its
    # coordinates, with and without it
    pair = json.loads(open(hood_stability_pair(capsys, tmp_path)).read())
    code, hood = run(capsys, "gen", "--preset", "hood")
    hood = json.loads(hood)
    xs = []
    for lone in (False, True):
        if lone:
            pair["vertices"].append({"id": 6, "value": ["7", "7"]})
            hood["vertices"].append({"id": 6, "value": "7"})
        path = write_json(tmp_path / f"pair-{lone}.json", pair)
        code, report = run_json(capsys, "interleave", path)
        assert code == 0
        assert report == {"delta": "1", "ok": True, "witness": [63, 37]}
        path = write_json(tmp_path / f"hood-{lone}.json", hood)
        dump = tmp_path / f"hood-{lone}.dump.json"
        assert run(capsys, "dgm", path, "--dump-module", str(dump))[0] == 0
        xs.append(json.loads(dump.read_text())["xs"])
    assert xs[0] == xs[1]


def test_no_coordinate_table_outlives_its_call(capsys, tmp_path):
    # a table's maps fill on its containers, not on the table, so it is
    # freed when its call returns, before any cycle collection runs
    import gc

    from riscpl.exact_geometry import CoordTable

    hood, pair = str(tmp_path / "hood.json"), str(tmp_path / "pair.json")
    dump = str(tmp_path / "dump.json")
    assert main(["gen", "--preset", "hood", "--out", hood]) == 0
    assert main(["gen", "--preset", "random", "--funcs", "2", "--seed", "1", "--out", pair]) == 0
    assert main(["dgm", hood, "--dump-module", dump]) == 0
    capsys.readouterr()
    def tables():
        return [o for o in gc.get_objects() if isinstance(o, CoordTable)]

    for argv in (["dgm", hood], ["check", dump, "--module"], ["interleave", pair]):
        gc.collect()
        before = tables()  # held by other callers, and kept alive here
        gc.disable()
        try:
            assert main(argv) == 0
            made = [t for t in tables() if all(t is not b for b in before)]
        finally:
            gc.enable()
        assert made == [], argv
        capsys.readouterr()


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


def test_plot_draws_every_diagonal_translate_that_meets_it(capsys, tmp_path):
    # the S^4 diagram reaches tile 4 and widens the drawing past the
    # translates that the default view meets
    maximal, values = HIGH_DIMENSIONAL["S4"]
    path = write_json(tmp_path / "s4.json", {
        "vertices": [{"id": v, "value": str(x)} for v, x in values.items()],
        "simplices": [sorted(s) for s in maximal],
    })
    code, dgm_doc = run(capsys, "dgm", path)
    dpath = tmp_path / "dgm.json"
    dpath.write_text(dgm_doc)
    code, svg = run(capsys, "plot", str(dpath))
    assert code == 0
    # the drawing spans [lo, hi] on both axes: the default view and every
    # point with a margin of 1/2
    ends = [c for x, y, _ in cli.load_diagram(dpath) for c in (x, y)]
    lo = min([-3 * math.pi / 2 - 0.4] + [c - 0.5 for c in ends])
    hi = max([3 * math.pi / 2 + 0.4] + [c + 0.5 for c in ends])
    # y = x + 2m*pi meets the strip -pi <= x + y <= pi for x in
    # [(-pi - 2m*pi)/2, (pi - 2m*pi)/2], which must meet [lo, hi]
    meets = [m for m in range(-20, 21)
             if max(lo, -math.pi / 2 - m * math.pi) < min(hi, math.pi / 2 - m * math.pi)]
    assert len(meets) > 7
    diagonals = re.findall(r'<line x1="([-\d.]+)" y1="([-\d.]+)"[^>]*stroke-dasharray', svg)
    # one line each: x1 + y1 differs between translates
    assert len({float(x) + float(y) for x, y in diagonals}) == len(diagonals) == len(meets)


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"field": 2},
    {"points": 5},
    {"points": [5]},
    {"points": [{"x": 1}]},
    {"points": [{"x": {"k": 0, "v": "1"}, "y": {"k": 0, "v": "0"}}]},
    {"points": [{"x": {"k": 0, "v": "1"}, "y": {"k": 0, "v": "0"},
                 "multiplicity": "2"}]},
    # k*pi does not fit in a float
    {"points": [{"x": {"k": 10 ** 400, "v": "0"}, "y": {"k": 0, "v": "0"},
                 "multiplicity": 1}]},
    # the diagonal translates of the drawing lie closer than a pixel
    {"points": [{"x": {"k": 10 ** 4, "v": "0"}, "y": {"k": -10 ** 4, "v": "0"},
                 "multiplicity": 1}]},
])
def test_plot_rejects_malformed_diagram(capsys, tmp_path, doc):
    assert_cli_error(capsys, "plot", write_json(tmp_path / "bad.json", doc))


def test_plot_draws_offsets_too_large_for_a_float(capsys, tmp_path):
    path = write_json(tmp_path / "big.json", {
        "vertices": [{"id": 1, "value": "0"}, {"id": 2, "value": "1e400"}],
        "simplices": [[1, 2]],
    })
    code, dgm_doc = run(capsys, "dgm", path)
    assert code == 0
    points = json.loads(dgm_doc)["points"]
    assert any(len(pt[c]["v"]) > 400 for pt in points for c in ("x", "y"))
    dpath = tmp_path / "dgm.json"
    dpath.write_text(dgm_doc)
    code, svg = run(capsys, "plot", str(dpath))
    assert code == 0
    assert svg.count("dgm-point") == len(points)


# Bare Infinity, -Infinity and NaN tokens decode to floats.  An infinite
# float is a legal Coord offset, so every input path must refuse them.
NON_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("x", NON_FINITE, ids=repr)
def test_rejects_non_finite_tokens(capsys, tmp_path, circle_dump, x):
    path = write_json(tmp_path / "complex.json", {
        "vertices": [{"id": 1, "value": x}, {"id": 2, "value": "0"}],
        "simplices": [[1, 2]]})
    assert_input_error(capsys, path)
    for case in ("v", "k", "dims", "map"):
        doc = json.loads(circle_dump)
        if case in ("v", "k"):
            doc["xs"][1][case] = x
            doc["ys"] = doc["xs"]
        elif case == "dims":
            doc["dims"][0][2] = x
        else:
            doc["maps"][0][2][0][0] = x
        assert_module_error(capsys, write_json(tmp_path / f"{case}.json", doc))
    for case in ("v", "k"):
        point = {"x": {"k": 0, "v": "1"}, "y": {"k": 0, "v": "0"}, "multiplicity": 1}
        point["x"][case] = x
        assert_cli_error(capsys, "plot", write_json(tmp_path / "dgm.json", {"points": [point]}))


@pytest.mark.parametrize("delta", ["inf", "-inf", "nan", "Infinity", "NaN"])
def test_interleave_rejects_non_finite_delta(capsys, tmp_path, delta):
    pair = hood_stability_pair(capsys, tmp_path)
    assert_cli_error(capsys, "interleave", pair, f"--delta={delta}")


def test_outputs_at_infinite_ends():
    # the interior diagram points on a small coordinate grid whose classical
    # pair or levelset bar has an infinite end, as written by the CLI, with
    # the digest pinned when the test was added
    offsets = (INF, Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
               Fraction(-2), Fraction(3))
    coords = [Coord(k, v) for k in range(-3, 4) for v in offsets]
    lines = []
    for x in coords:
        for y in coords:
            u = StripPoint(x, y)
            if strip_location(u) != "interior" or not in_diag_downset(u):
                continue
            _, _, pair = classify_region(u)
            deg, bar = beta_levelset(u)
            ends = list(pair) + ([bar.lo, bar.hi] if bar else [])
            if all(e not in (INF, -INF) for e in ends):
                continue
            lines.append(" ".join([repr(u), str(pair[0]), str(pair[1]),
                                   repr(bar), repr(interval_json(deg, bar)) if bar else "None"]))
    assert len(lines) == 81
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "661f244596ee47aa3ca0603cccced7711401135001f56cb60e7372702a546819")


@pytest.mark.parametrize("funcs", ["0", "-1"])
def test_gen_rejects_funcs_below_one(capsys, funcs):
    assert "--funcs" in assert_cli_error(capsys, "gen", "--preset", "random", "--funcs", funcs)


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
