"""Seeded inputs for the two workloads, written as riscpl CLI JSON files.

A workload is a fixed catalog of job types, run in rounds.  A job is one or
two CLI calls on files the generator wrote, plus what the verifier needs to
know the right answer independently of the program.

The combinatorial type of each catalog entry (its simplices, which vertices
share a value, and how the values and their negatives interleave) is drawn
once by the generators with a fixed catalog seed.  Every round runs each
type once, on an instance the run's seed draws: vertex ids, the values
themselves (by a map that keeps the type, where one exists), the listing
order and the job order within the round.  So every round and every seed do
the same work on different inputs, and the benchmark can time each type at
its best over the rounds of a run.  Each round runs in a fresh process and
no input repeats within a round, so a cache that outlives one CLI call
cannot show a gain that a real user would not get.

- corpus: each job runs `dgm --dump-module` and then `check --module --suite
  all`.  One round is a random 1-D and a random 2-D complex with three values
  over GF(2), and one height function with four distinct values on the
  6-vertex real projective plane over GF(2) and over GF(3).
- interleave: the hood stability pair and random pairs of functions on one
  complex, one perturbing the other by at most one step, run through
  `interleave --delta auto`.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Dict, List

# Roughly the seconds one round takes on the seed commit (2-vCPU shared VM,
# see BASELINE.md: 11 to 14 s and 9 to 11 s there, as the machine drifts).
# The round count depends on the run length only, so a faster program
# finishes the same work sooner and every timing is a time for the same work.
ROUND_SECONDS = {"corpus": 11.0, "interleave": 9.5}

# The minimal triangulation of the real projective plane: 6 vertices, 15
# edges, 10 triangles.  H^1 and H^2 are GF(2) but vanish over GF(3).
RP2 = [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 6, 2],
       [2, 3, 5], [3, 4, 6], [4, 5, 2], [5, 6, 3], [6, 2, 4]]

# The height of the RP2 vertices 1..6, as indices into the sorted values
# -b < -a < a < b.  Its diagrams over GF(2) and GF(3) differ.
RP2_PATTERN = [3, 2, 1, 0, 0, 0]

# The hood: a cone over a 4-cycle with a peaked function, against the
# flattened function raised by the half gap, at sup distance 1.
HOOD_SIMPLICES = [[1, 2, 5], [2, 3, 5], [3, 4, 5], [4, 1, 5]]
HOOD_F = {1: 0, 2: 1, 3: 0, 4: 2, 5: 2}
HOOD_G = {1: 1, 2: 2, 3: 1, 4: 1, 5: 3}

# Random pair types in an interleave round, besides the hood.
INTERLEAVE_PAIRS = 5


def round_count(workload: str, seconds: int) -> int:
    return max(2, round(seconds / ROUND_SECONDS[workload]))


def complex_doc(values: Dict[int, tuple], maximal: List[List[int]], field: int) -> dict:
    verts = []
    for vid in sorted(values):
        val = [str(x) for x in values[vid]]
        verts.append({"id": vid, "value": val if len(val) > 1 else val[0]})
    return {"field": field, "vertices": verts, "simplices": [sorted(s) for s in maximal]}


def _magnitudes(rng: random.Random, count: int) -> List[Fraction]:
    """count distinct positive integers up to 12, increasing."""
    return [Fraction(m) for m in sorted(rng.sample(range(1, 13), count))]


def _relabel(rng: random.Random, values: dict, maximal: List[List[int]]):
    """Fresh vertex ids and a shuffled simplex list.  The ids keep their
    relative order and all have three digits, so they sort the same as
    numbers and as text: the program splits edges in that order, and the
    split complex keeps its size."""
    ids = dict(zip(sorted(values), sorted(rng.sample(range(100, 1000), len(values)))))
    maximal = [[ids[v] for v in s] for s in maximal]
    rng.shuffle(maximal)
    return {ids[v]: x for v, x in values.items()}, maximal


# -- catalog types: (simplices, values as small integers)


def _complex_type(rng: random.Random, dim: int, simplices: int) -> dict:
    """Vertex values are signed ranks +-1, +-2, +-3 (three of them)."""
    nverts = rng.randint(4, 6)
    pool = [r * rng.choice((-1, 1)) for r in (1, 2, 3)]
    values = {v: rng.choice(pool) for v in range(nverts)}
    maximal = [sorted(rng.sample(range(nverts), rng.randint(2, dim + 1)))
               for _ in range(simplices)]
    used = {v for s in maximal for v in s}
    return {"kind": "complex", "values": {v: x for v, x in values.items() if v in used},
            "maximal": maximal, "field": 2}


def _pair_type(rng: random.Random) -> dict:
    """A base function and a perturbation of it by at most one, as in the
    random pairs of the test suite."""
    nverts = rng.randint(4, 7)
    pool = rng.sample(range(-2, 3), 3)
    values = {}
    for v in range(nverts):
        f = rng.choice(pool)
        values[v] = (f, f + rng.choice((-1, 0, 1)))
    maximal = [sorted(rng.sample(range(nverts), rng.randint(2, 3)))
               for _ in range(rng.randint(3, 5))]
    used = {v for s in maximal for v in s}
    return {"kind": "pair", "values": {v: x for v, x in values.items() if v in used},
            "maximal": maximal, "field": 2}


def catalog(workload: str) -> List[dict]:
    """The job types of one round, the same for every seed."""
    rng = random.Random(f"{workload}:catalog")
    if workload == "corpus":
        # the sizes keep a round near ROUND_SECONDS: the RP2 jobs take most of it
        return [_complex_type(rng, 1, 5), _complex_type(rng, 2, 3),
                {"kind": "rp2", "field": 2}, {"kind": "rp2", "field": 3}]
    return [{"kind": "hood"}] + [_pair_type(rng) for _ in range(INTERLEAVE_PAIRS)]


# -- instances: the seed's draw on top of a catalog type


def _instance(rng: random.Random, kind: dict) -> dict:
    if kind["kind"] == "complex":
        mags = _magnitudes(rng, 3)
        values = {v: (mags[abs(x) - 1] * (1 if x > 0 else -1),)
                  for v, x in kind["values"].items()}
        maximal = kind["maximal"]
    elif kind["kind"] == "rp2":
        a, b = _magnitudes(rng, 2)
        levels = [-b, -a, a, b]
        values = {v + 1: (levels[k],) for v, k in enumerate(RP2_PATTERN)}
        maximal = RP2
    elif kind["kind"] == "hood":
        # Values are fixed: the verifier expects delta 1 with a witness.
        values = {v: (Fraction(HOOD_F[v]), Fraction(HOOD_G[v])) for v in HOOD_F}
        maximal = HOOD_SIMPLICES
    else:
        # Values are the catalog's: scaling, shifting or negating them changes
        # which split levels coincide, and so the work.
        values = {v: (Fraction(f), Fraction(g)) for v, (f, g) in kind["values"].items()}
        maximal = kind["maximal"]
    values, maximal = _relabel(rng, values, maximal)
    return {"values": values, "maximal": maximal, "field": kind.get("field", 2),
            "hood": kind["kind"] == "hood"}


WORKLOADS = ("corpus", "interleave")


def make_rounds(workload: str, seed: int, rounds: int, workdir: str) -> List[List[dict]]:
    """Write the inputs of one run into workdir and return its job lists,
    one per round.

    Each job has a name, its catalog type, its CLI calls (argv lists with
    paths relative to the checkout), its output files, and the facts the
    verifier needs."""
    rng = random.Random(f"{workload}:{seed}")
    kinds = catalog(workload)
    out = []
    for r in range(rounds):
        specs = [(t, _instance(rng, kind)) for t, kind in enumerate(kinds)]
        rng.shuffle(specs)
        jobs = []
        for t, spec in specs:
            name = f"{workload}-r{r}-t{t}"
            src = os.path.join(workdir, name + ".json")
            with open(src, "w") as fh:
                json.dump(complex_doc(spec["values"], spec["maximal"], spec["field"]), fh,
                          indent=2)
            paths = {k: os.path.join(workdir, f"{name}.{k}.json")
                     for k in ("dgm", "module", "check", "interleave")}
            if workload == "interleave":
                calls = [["interleave", src, "--delta", "auto", "--out", paths["interleave"]]]
                outputs = [paths["interleave"]]
            else:
                calls = [
                    ["dgm", src, "--dump-module", paths["module"], "--out", paths["dgm"]],
                    ["check", paths["module"], "--module", "--suite", "all",
                     "--out", paths["check"]],
                ]
                outputs = [paths["dgm"], paths["module"], paths["check"]]
            jobs.append({
                "name": name,
                "type": t,
                "calls": calls,
                "outputs": outputs,
                "field": spec["field"],
                "values": {str(v): [str(x) for x in val] for v, val in spec["values"].items()},
                "maximal": spec["maximal"],
                "hood": spec["hood"],
            })
        out.append(jobs)
    return out
