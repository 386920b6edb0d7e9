"""Checks of every job's output against answers known without the program.

- dgm: the multiset of (degree, region, pair) equals classical extended
  persistence over the job's own field (oracle.py);
- check: every suite of the report is ok and the exit code is 0;
- interleave: ok at delta equal to the sup distance of the two functions,
  computed here from the input values; the hood pair also has delta 1 and a
  witness.

Each function returns None for a right answer and a one-line reason
otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import List, Optional

from oracle import extended_persistence

SUITES = {"exactness", "continuity", "decomposition", "yoneda"}


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_calls(calls: List[dict]) -> Optional[str]:
    for c in calls:
        if c["error"] is not None:
            return f"{c['cmd']} raised: {c['error'].strip().splitlines()[-1]}"
        if c["rc"] != 0:
            return f"{c['cmd']} exited with code {c['rc']}"
    return None


def check_diagram(job: dict, doc: dict) -> Optional[str]:
    if doc.get("field") != job["field"]:
        return f"diagram over GF({doc.get('field')}), expected GF({job['field']})"
    got = []
    for pt in doc["points"]:
        pair = tuple(Fraction(x) for x in pt["pair"])
        got.extend([(pt["degree"], pt["region"], pair)] * pt["multiplicity"])
    values = {int(v): Fraction(x[0]) for v, x in job["values"].items()}
    want = extended_persistence(job["maximal"], values, job["field"])
    if sorted(got, key=repr) != want:
        return f"diagram {sorted(got, key=repr)} differs from the oracle's {want}"
    return None


def check_report(doc: dict) -> Optional[str]:
    suites = doc.get("suites", {})
    if set(suites) != SUITES:
        return f"check ran suites {sorted(suites)}, expected {sorted(SUITES)}"
    bad = sorted(s for s, r in suites.items() if r.get("ok") is not True)
    if bad or doc.get("ok") is not True:
        return f"check failed suites {bad}"
    return None


def check_interleave(job: dict, doc: dict) -> Optional[str]:
    delta = max(abs(Fraction(g) - Fraction(f)) for f, g in job["values"].values())
    if doc.get("ok") is not True:
        return "interleaving check failed"
    if Fraction(doc["delta"]) != delta:
        return f"delta {doc['delta']} differs from the sup distance {delta}"
    if job["hood"] and (delta != 1 or not doc.get("witness")):
        return "hood pair lacks delta 1 with a witness"
    return None


def verify_job(job: dict, calls: List[dict]) -> Optional[str]:
    """None if every call of the job exited 0 and every output is right."""
    reason = check_calls(calls)
    if reason is not None:
        return reason
    try:
        docs = {c[0]: _load(c[c.index("--out") + 1]) for c in job["calls"]}
    except (OSError, ValueError) as e:
        return f"unreadable output: {e}"
    if "interleave" in docs:
        return check_interleave(job, docs["interleave"])
    return check_diagram(job, docs["dgm"]) or check_report(docs["check"])


def digest(jobs: List[dict]) -> str:
    """sha256 of every output file of the run, in job order."""
    h = hashlib.sha256()
    for job in jobs:
        for path in job["outputs"]:
            h.update(os.path.basename(path).encode() + b"\0")
            try:
                with open(path, "rb") as fh:
                    h.update(fh.read())
            except OSError:
                h.update(b"<missing>")
            h.update(b"\0")
    return h.hexdigest()
