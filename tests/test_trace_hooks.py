"""The benchmark's per-layer hooks still see the pipeline.

perfbench/tracer.py wraps public functions by name from outside and reads
sizes off their positional arguments.  A signature change that hides a
call from it or breaks its size counter shows up here.
"""

import json
import os
import sys

import pytest

from riscpl.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from tracer import TRACED, Tracer  # noqa: E402


@pytest.fixture
def tracer(monkeypatch):
    """A tracer installed for one test; monkeypatch puts every attribute it
    wraps back afterwards."""
    mods = [m for n, m in sys.modules.items() if n.startswith("riscpl.") and m is not None]
    for layer, attrs in TRACED.items():
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules["riscpl." + layer], cls_name)
                monkeypatch.setattr(cls, meth, vars(cls)[meth])
                continue
            for mod in mods:
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, getattr(mod, attr))
    tr = Tracer()
    tr.install()
    return tr


def test_plc_hooks_on_dgm_hood(tracer, tmp_path):
    hood = str(tmp_path / "hood.json")
    assert main(["gen", "--preset", "hood", "--out", hood]) == 0
    assert main(["dgm", hood, "--out", str(tmp_path / "dgm.json")]) == 0
    m = tracer.metrics()
    for attr in TRACED["plc"]:
        assert m[f"plc.{attr}.calls"] > 0, attr
    # the size hook reads len(a) - len(b): the simplex count of A minus B
    assert m["plc.relative_cohomology.max_cells"] == 631
    # cache hits and misses with the degree bound at the split complex's
    # dimension: points of the tile one above it are zero without a lookup;
    # one open model per vertex set, keyed by its value-rank ranges, looked
    # up only for a pair not yet kept under its four value ranks
    assert m["risc_builder.model_hit_ratio"] == 84 / 110
    assert m["risc_builder.basis_hit_ratio"] == 699 / 840
    assert m["risc_builder.connecting_hit_ratio"] == 0


def test_interleave_hooks_on_hood_pair(tracer, tmp_path):
    from riscpl.cli import complex_json

    from test_interleave import hood_stability_pair

    k = hood_stability_pair()
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(complex_json(k.values, [sorted(s) for s in k.simplices])))
    assert main(["interleave", str(pair), "--out", str(tmp_path / "report.json")]) == 0
    m = tracer.metrics()
    for name in ("interleave.Transformation.at", "interleave.interleaving_check",
                 "risc_builder.point_data", "risc_builder.internal_map"):
        assert m[f"{name}.calls"] > 0, name
    # the cohomology work as measured before the coordinate table, less
    # the three internal maps that only triangle identities between empty
    # matrices used and the four distinct ones that the shifts of the
    # transformations up to omega took before they were built at omega; no
    # connecting map is needed on this pair (none was before either); one
    # open model per vertex set of each function
    assert {attr: m[f"plc.{attr}.calls"] for attr in TRACED["plc"]} == {
        "split_all": 1, "open_model": 32, "relative_cohomology": 54,
        "induced_map": 20, "mv_connecting": 0}
    # the model and basis lookups of a transformation are made only where
    # its target is nonzero, and the models only for a pair not yet kept
    # under its four value ranks; the cohomology counts above do not move
    assert m["risc_builder.FunctorEvaluator.model.calls"] == 112
    # the transformation's inclusion branch maps between the two bases that
    # point_data returns and looks neither up again
    assert m["risc_builder.FunctorEvaluator.basis.calls"] == 624
    assert m["plc.relative_cohomology.max_cells"] == 1597
