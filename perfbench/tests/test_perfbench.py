"""The benchmark's own checks: its answer key, its verifier, its inputs and
its span bookkeeping.  None of these run the package under test."""

import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from oracle import extended_persistence  # noqa: E402
from tracer import Tracer  # noqa: E402
from verify import check_diagram, verify_job  # noqa: E402
from workloads import HOOD_SIMPLICES, RP2, WORKLOADS, catalog, make_rounds  # noqa: E402

F = Fraction
CIRCLE = [[1, 2], [2, 3], [3, 4], [4, 1]]
CIRCLE_VALUES = {1: 0, 2: 1, 3: 2, 4: 1}


def circle_job(tmp_path):
    """A dgm/check job on the circle with correct outputs written."""
    values = {str(v): [str(x)] for v, x in CIRCLE_VALUES.items()}
    job = {"name": "circle", "field": 2, "values": values, "maximal": CIRCLE, "hood": False}
    paths = {k: str(tmp_path / f"{k}.json") for k in ("dgm", "check")}
    job["calls"] = [["dgm", "in.json", "--out", paths["dgm"]],
                    ["check", "m.json", "--module", "--out", paths["check"]]]
    dgm = {"field": 2, "points": [
        {"degree": 0, "region": "Ext", "pair": ["0", "2"], "multiplicity": 1},
        {"degree": 1, "region": "Ext", "pair": ["2", "0"], "multiplicity": 1},
    ]}
    suites = {s: {"ok": True} for s in ("exactness", "continuity", "decomposition", "yoneda")}
    (tmp_path / "dgm.json").write_text(json.dumps(dgm))
    (tmp_path / "check.json").write_text(json.dumps({"suites": suites, "ok": True}))
    return job, dgm, suites


def ok_calls(job):
    return [{"cmd": c[0], "s": 0.1, "rc": 0, "error": None} for c in job["calls"]]


def test_oracle_circle_and_hood():
    assert extended_persistence(CIRCLE, CIRCLE_VALUES) == [
        (0, "Ext", (F(0), F(2))), (1, "Ext", (F(2), F(0)))]
    hood = {1: 0, 2: 1, 3: 0, 4: 2, 5: 2}
    assert extended_persistence(HOOD_SIMPLICES, hood) == sorted(
        [(0, "Ext", (F(0), F(2))), (0, "Ord", (F(0), F(1)))], key=repr)


def test_oracle_sees_torsion_of_rp2():
    heights = {v: v for v in range(1, 7)}
    gf2 = extended_persistence(RP2, heights, 2)
    gf3 = extended_persistence(RP2, heights, 3)
    # the essential classes are the cohomology of RP2 over the field
    assert sorted(d[0] for d in gf2 if d[1] == "Ext") == [0, 1, 2]
    assert sorted(d[0] for d in gf3 if d[1] == "Ext") == [0]


def test_verifier_accepts_right_answers(tmp_path):
    job, _, _ = circle_job(tmp_path)
    assert verify_job(job, ok_calls(job)) is None


def test_verifier_rejects_perturbed_diagram(tmp_path):
    job, dgm, _ = circle_job(tmp_path)
    for change in ({"pair": ["0", "1"]}, {"multiplicity": 2}, {"degree": 1},
                   {"region": "Ord"}):
        bad = json.loads(json.dumps(dgm))
        bad["points"][0].update(change)
        assert check_diagram(job, bad) is not None, change
    bad = dict(dgm, points=dgm["points"][:1])
    assert check_diagram(job, bad) is not None
    assert check_diagram(dict(job, field=3), dgm) is not None


def test_verifier_rejects_failed_check_verdict(tmp_path):
    job, _, suites = circle_job(tmp_path)
    suites["yoneda"] = {"ok": False, "counterexample": "x"}
    (tmp_path / "check.json").write_text(json.dumps({"suites": suites, "ok": False}))
    assert "yoneda" in verify_job(job, ok_calls(job))
    del suites["yoneda"]
    (tmp_path / "check.json").write_text(json.dumps({"suites": suites, "ok": True}))
    assert verify_job(job, ok_calls(job)) is not None


def test_verifier_rejects_nonzero_exit_and_exceptions(tmp_path):
    job, _, _ = circle_job(tmp_path)
    calls = ok_calls(job)
    calls[1]["rc"] = 1
    assert "exited with code 1" in verify_job(job, calls)
    calls = ok_calls(job)
    calls[0].update(rc=None, error="Traceback ...\nValueError: boom\n")
    assert "ValueError: boom" in verify_job(job, calls)
    (tmp_path / "dgm.json").unlink()
    assert verify_job(job, ok_calls(job)) is not None


def test_verifier_checks_interleave_reports(tmp_path):
    out = tmp_path / "i.json"
    values = {"1": ["0", "1"], "2": ["1", "1"]}
    job = {"name": "pair", "field": 2, "values": values, "maximal": [[1, 2]], "hood": True,
           "calls": [["interleave", "in.json", "--delta", "auto", "--out", str(out)]]}
    good = {"delta": "1", "ok": True, "witness": [3, 4]}
    for doc, ok in ((good, True), (dict(good, ok=False), False),
                    (dict(good, delta="2"), False), ({"delta": "1", "ok": True}, False)):
        out.write_text(json.dumps(doc))
        assert (verify_job(job, ok_calls(job)) is None) == ok, doc


def test_inputs_follow_the_seed(tmp_path):
    for workload in WORKLOADS:
        texts = {}
        for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
            d = tmp_path / workload / sub
            d.mkdir(parents=True)
            rounds = make_rounds(workload, seed, 3, str(d))
            assert all(sorted(j["type"] for j in jobs) == list(range(len(catalog(workload))))
                       for jobs in rounds)
            texts[sub] = [(d / (j["name"] + ".json")).read_text()
                          for jobs in rounds for j in jobs]
        assert texts["a"] == texts["b"]
        assert texts["a"] != texts["c"]
        assert len(set(texts["a"])) == len(texts["a"])


def test_self_time_and_cache_misses():
    tr = Tracer()
    outer = tr.enter("risc_builder.FunctorEvaluator.basis")
    inner = tr.enter("plc.relative_cohomology")
    tr.exit(inner)
    tr.exit(outer)
    hit = tr.enter("risc_builder.FunctorEvaluator.basis")
    tr.exit(hit)
    m = tr.metrics()
    assert m["risc_builder.FunctorEvaluator.basis.calls"] == 2
    assert m["risc_builder.basis_hit_ratio"] == 0.5
    total = tr.end[0] - tr.start[0]
    child = tr.end[1] - tr.start[1]
    assert abs(tr.self_s["risc_builder.FunctorEvaluator.basis"]
               - (total - child) - (tr.end[2] - tr.start[2])) < 1e-9
    assert list(tr.parent) == [-1, 0, -1]


def test_calibrator_reads_and_stops():
    from calibrate import REFERENCE_S, Calibrator

    with Calibrator() as cal:
        first, second = cal.read(), cal.read()
    assert first > 0 and second > 0 and cal.samples == [first, second]
    assert cal.proc.returncode == 0
    # a job measured at twice the reference time is scaled by half
    assert Calibrator.scale(1.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == 0.5
