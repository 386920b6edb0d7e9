"""Byte-level pins of the command line outputs on the presets.

A change to the exact pipeline that alters a module dump, a barcode or a
plot, over GF(2) or GF(3), shows up here.  The real projective plane adds a
case with torsion, where the two fields give different diagrams and every
orientation sign counts.  The per-sample matrices of the stability
transformation and of the morphisms induced by simplicial maps are pinned
the same way; an orientation-reversing fold makes the pullback's signs
count over GF(3).
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from riscpl.cli import complex_json, main
from riscpl.interleave import (
    build_transformation,
    distance_pair,
    induced_morphism,
    joint_context,
    precomposition_check,
)

from oracle_ext_persistence import extended_persistence

GOLDEN = {
    ("hood", 2): (
        "7113e04180f7a446fe8ef1b82caa283ec8e38bafabd736e1ec650af99a26e245",
        "06758f3cb7fb3cbd7dd216579aa2bed126904bc978a207d2ef9077f07975a173",
        "ab7dc7ae985a6d57f976c75352c3df2a1525f26ce8b79936c1762cca8f8edb37",
    ),
    ("hood", 3): (
        "8b22ed1cddfd75935f5f6dae04e92d5fe7bdde5aec6f83bfe818f49019f424c3",
        "f138ef4b5adebdefb7cb5f60a73d5f094361e06766d965eb2625c914e1292090",
        "ab7dc7ae985a6d57f976c75352c3df2a1525f26ce8b79936c1762cca8f8edb37",
    ),
    ("circle", 2): (
        "125b9a4d5ef413b7aa75d743f521d948a42440093bbf5a6c867dcc364ba45bb9",
        "7f13c28aea775bb7a775dbe88ab6406d959fe6d40eeceabc9963bb402e973228",
        "08b4a63a4dcb4f685d9cbf2a50e7052422af81675e8fac4a086f2caef7611d2e",
    ),
    ("circle", 3): (
        "806b8b90543fb80b778ff9ba284b67b05dfdec51c444f28eccc72f364a4c7d27",
        "57b883535b8846630fd5c6346f5cc99d6e15c31964796333bf782b66d46a1a58",
        "08b4a63a4dcb4f685d9cbf2a50e7052422af81675e8fac4a086f2caef7611d2e",
    ),
    ("cone", 2): (
        "8cd811c72c49534e41cd33ac19359a4c4bf2d774ee3e13e7f225a1af4258554b",
        "a6060456365c5c159bac7581efda513f66c5e405808c8bd0e15200282bda1f86",
        "e0605239adb5e2b423cc12187a815761f4344dbccd866b15886259d242a44a71",
    ),
    ("cone", 3): (
        "e93f930eb32bafaee3d75d71e31a56ef31399c29d39273dc13167079e9c9fc16",
        "2df0d0c5874a7d032a198108a77f43b37688bfefddc125001f6ba07dec480d6e",
        "e0605239adb5e2b423cc12187a815761f4344dbccd866b15886259d242a44a71",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset,field", sorted(GOLDEN))
def test_preset_outputs_are_pinned(tmp_path, preset, field):
    cx, module, dgm, bars, svg = (
        tmp_path / name
        for name in ("complex.json", "module.json", "dgm.json", "bars.json", "plot.svg")
    )
    f = str(field)
    assert main(["gen", "--preset", preset, "--out", str(cx)]) == 0
    assert main(["dgm", str(cx), "--field", f, "--dump-module", str(module),
                 "--out", str(dgm)]) == 0
    assert main(["barcode", str(cx), "--field", f, "--out", str(bars)]) == 0
    assert main(["plot", str(dgm), "--out", str(svg)]) == 0
    assert (sha256(module), sha256(bars), sha256(svg)) == GOLDEN[(preset, field)]


# The minimal triangulation of the real projective plane with a height of
# four values -2 < -1 < 1 < 2 (vertex 1 highest, vertices 4 to 6 lowest).
RP2 = [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 6, 2],
       [2, 3, 5], [3, 4, 6], [4, 5, 2], [5, 6, 3], [6, 2, 4]]
RP2_HEIGHT = {1: 2, 2: 1, 3: -1, 4: -2, 5: -2, 6: -2}
RP2_MODULE = {
    2: "2aa3fc6dd6bf326a183447e20d2989656a052fee18a906176a57eb7aa5c89cbc",
    3: "129ce36d2a6a7ccec6f79998bcfe0105423a7473314e40bab94a347e0da11861",
}


def write_rp2(path, field):
    path.write_text(json.dumps({
        "field": field,
        "vertices": [{"id": v, "value": str(x)} for v, x in RP2_HEIGHT.items()],
        "simplices": RP2,
    }))


@pytest.mark.parametrize("field", sorted(RP2_MODULE))
def test_rp2_torsion_module_is_pinned_and_matches_oracle(tmp_path, field):
    cx, module, dgm = (tmp_path / name for name in ("rp2.json", "module.json", "dgm.json"))
    write_rp2(cx, field)
    assert main(["dgm", str(cx), "--dump-module", str(module), "--out", str(dgm)]) == 0
    assert sha256(module) == RP2_MODULE[field]
    got = Counter()
    for pt in json.loads(dgm.read_text())["points"]:
        got[(pt["degree"], pt["region"], tuple(pt["pair"]))] += pt["multiplicity"]
    want = Counter((n, region, (str(lo), str(hi)))
                   for n, region, (lo, hi) in extended_persistence(RP2, RP2_HEIGHT, field))
    assert got == want


def test_rp2_checkers_over_gf3(tmp_path):
    # every suite passes on the torsion module over GF(3); negating one
    # nonzero structure map, which is the identity over GF(2), breaks it
    cx, module, dgm, report = (tmp_path / name for name in
                               ("rp2.json", "module.json", "dgm.json", "report.json"))
    write_rp2(cx, 3)
    check = ["check", str(module), "--module", "--suite", "all", "--out", str(report)]
    assert main(["dgm", str(cx), "--dump-module", str(module), "--out", str(dgm)]) == 0
    assert main(check) == 0
    assert json.loads(report.read_text())["ok"]
    doc = json.loads(module.read_text())
    entry = next(e for e in doc["maps"] if any(any(row) for row in e[2]))
    entry[2] = [[-x % 3 for x in row] for row in entry[2]]
    module.write_text(json.dumps(doc))
    assert main(check) == 1
    assert not json.loads(report.read_text())["ok"]


# The interleaving morphism: the `interleave --delta auto` report and the
# per-sample matrices of the stability transformation, on the hood pair and
# the random pairs of seeds 5 and 21, over GF(2) and GF(3).
INTERLEAVE_GOLDEN = {
    ("hood", 2): (
        "41096f9909dbc09342d680395a6badbe0e18c6933ef1b414d4a67a4b8e0675b6",
        "ae8cbf2db380f5e3c0a32191fefaf7f8b041fb64f69d7d77d3703f239e6de75e",
    ),
    ("hood", 3): (
        "41096f9909dbc09342d680395a6badbe0e18c6933ef1b414d4a67a4b8e0675b6",
        "2d59121e1582d351ee175028c6a34fe0b6ecc21f9451b60a2bc4432d1e8b83df",
    ),
    (5, 2): (
        "ca31e10c09781c00ad7c2da251f16ecd63667daca12777cf3d189b8b0d39cdb5",
        "08ea5ffbd110990239f88341c21aa277572d89c1e3ab4590a1463bde21772bbd",
    ),
    (5, 3): (
        "ca31e10c09781c00ad7c2da251f16ecd63667daca12777cf3d189b8b0d39cdb5",
        "32a5eba9e75b255b5dc6d4cabbc21f25992bee878e426be5cf9dbc2a0661f0be",
    ),
    (21, 2): (
        "6fa8109df3ef673cbb57caa9cdc4987d48bdd13d6949eb1c21a716c98bcaa408",
        "f4c5f8b306795e6cb8f7e1d3b9287a1ce3ed221b202e1da4dbc4df241f06243b",
    ),
    (21, 3): (
        "6fa8109df3ef673cbb57caa9cdc4987d48bdd13d6949eb1c21a716c98bcaa408",
        "49c4da1ee81cd9166a8c867fc283c97d319b694f733ae2e248d516d37b03415c",
    ),
}


def interleave_pair(case):
    from test_interleave import hood_stability_pair, random_pair

    if case == "hood":
        return hood_stability_pair()
    return random_pair(random.Random(case))


def transformation_dump(k, field) -> bytes:
    """Canonical bytes of build_transformation's per-sample matrices."""
    a = distance_pair(k)
    ctx = joint_context(k, [0, 1], shifts=[a.a1, a.a2], p=field)
    return morphism_dump(build_transformation(ctx))


def morphism_dump(md) -> bytes:
    """Canonical bytes of a morphism's per-sample matrices."""
    rows = [[list(idx), m.rows, m.cols, m.data.tolist()]
            for idx, m in sorted(md.per_sample.items())]
    return json.dumps(rows, separators=(",", ":")).encode()


def interleave_digests(tmp_path, case, field):
    k = interleave_pair(case)
    cx, report = tmp_path / "pair.json", tmp_path / "report.json"
    cx.write_text(json.dumps(complex_json(k.values, [sorted(s) for s in k.simplices], field)))
    assert main(["interleave", str(cx), "--delta", "auto", "--out", str(report)]) == 0
    return (sha256(report),
            hashlib.sha256(transformation_dump(k, field)).hexdigest(),
            json.loads(report.read_text()))


@pytest.mark.parametrize("case,field", sorted(INTERLEAVE_GOLDEN, key=str))
def test_interleaving_morphism_is_pinned(tmp_path, case, field):
    got_report, got_morphism, report = interleave_digests(tmp_path, case, field)
    assert (got_report, got_morphism) == INTERLEAVE_GOLDEN[(case, field)]
    if case == "hood":
        assert report["ok"] and report["delta"] == "1" and "witness" in report


# The contravariant morphisms induced by simplicial maps: per-sample
# matrices of `induced_morphism` over GF(2) and GF(3) for the triangle fold
# (which reverses the orientation of the edge 2-3, so the pullback sign
# shows over GF(3)), the edge collapse and the cone retract.
PULLBACK_GOLDEN = {
    ("fold", 2): "1aee10b8ef08d447c5166c5f3b7f15b45d6556ff9fa12edf218e58dab0fc871e",
    ("fold", 3): "72474d821b72b1bffb736902734a1276d5dfe2aea30fb52da63ff3c5f6193ef2",
    ("collapse", 2): "dc670b89f0652e7ef4aac6dc9024a089cee0c8e704965ef12da5e1d0c4409d87",
    ("collapse", 3): "dc670b89f0652e7ef4aac6dc9024a089cee0c8e704965ef12da5e1d0c4409d87",
    ("retract", 2): "11ab66ad185955035b53bb53921338086a41af9b199a420560c399817ba45f58",
    ("retract", 3): "11ab66ad185955035b53bb53921338086a41af9b199a420560c399817ba45f58",
}


def pullback_case(case):
    from test_interleave import complex_of

    from test_oracles import HOOD_F, HOOD_SIMPLICES

    if case == "fold":
        return (complex_of({1: (0,), 2: (1,)}, [{1, 2}]),
                complex_of({1: (0,), 2: (1,), 3: (0,)}, [{1, 2, 3}]),
                {1: 1, 2: 2, 3: 1})
    if case == "collapse":
        return (complex_of({1: (0,)}, [{1}]),
                complex_of({1: (0,), 2: (0,)}, [{1, 2}]),
                {1: 1, 2: 1})
    return (complex_of({1: (0,), 2: (1,), 5: (2,)}, [{1, 2, 5}]),
            complex_of({v: (HOOD_F[v],) for v in HOOD_F}, HOOD_SIMPLICES),
            {1: 1, 2: 2, 3: 1, 4: 5, 5: 5})


@pytest.mark.parametrize("case,field", [(c, f) for c in ("fold", "collapse", "retract")
                                        for f in (2, 3)])
def test_induced_morphism_is_pinned(case, field):
    ky, kx, phi = pullback_case(case)
    md = induced_morphism(ky, kx, phi, p=field)
    assert hashlib.sha256(morphism_dump(md)).hexdigest() == PULLBACK_GOLDEN[(case, field)]


def test_precomposition_with_fold_over_gf3():
    # both functions pulled back along the orientation-reversing fold
    from test_interleave import complex_of

    ky = complex_of({1: (0, 0), 2: (1, 2)}, [{1, 2}], nfuncs=2)
    kx = complex_of({1: (0, 0), 2: (1, 2), 3: (0, 0)}, [{1, 2, 3}], nfuncs=2)
    assert precomposition_check(ky, kx, {1: 1, 2: 2, 3: 1}, p=3) is None
