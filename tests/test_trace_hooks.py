"""The benchmark's per-layer hooks still see the pipeline.

perfbench/tracer.py wraps public functions by name from outside and reads
sizes off their positional arguments.  A signature change that hides a
call from it or breaks its size counter shows up here.
"""

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
    assert m["plc.relative_cohomology.max_cells"] > 0
    # cache hits and misses as measured before the simplex index
    assert m["risc_builder.model_hit_ratio"] == 1737 / 1882
    assert m["risc_builder.basis_hit_ratio"] == 772 / 929
    assert m["risc_builder.connecting_hit_ratio"] == 0
