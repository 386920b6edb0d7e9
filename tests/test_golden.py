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


# The diagram and barcode tables: the `dgm` JSON, `dgm --format csv` and
# `barcode --format csv` outputs on the presets and on the projective plane
# over GF(2) and GF(3).  The point order of a diagram shows up here.
TABLE_GOLDEN = {
    ("circle", 2): (
        "55775d4499d76dfc1db18c85a271e1927d17a5e93ab5ed560aaa6452aebbcb64",
        "808ad1216d895fb3073bbbaa9b285c3185014127f48fb9c74bb732175f21fcd6",
        "095b2ac44c1e4c1a88ccbaeb44537714165aa5ca8cfa01f4bfdd814454a477fe",
    ),
    ("circle", 3): (
        "abf6595401b29aaca5d5b3a627ce0c278f532d5b13e09b0bad9953ceb2661e0c",
        "808ad1216d895fb3073bbbaa9b285c3185014127f48fb9c74bb732175f21fcd6",
        "095b2ac44c1e4c1a88ccbaeb44537714165aa5ca8cfa01f4bfdd814454a477fe",
    ),
    ("cone", 2): (
        "d73f83fd72e0f57945babddf30bf72b36ab4dac9af067b81d1c55aa5c45309cb",
        "aa6d34b8fe861d657821014f07b8345469d020d50279983a50649b631eb827db",
        "978fce8c965dfb5e97963c6f48c89eab4cc376061fb978fd3ccbf11286bef97e",
    ),
    ("cone", 3): (
        "c3b1ac846da5e6adec30c38a3b55efd55fffb5d76ca4d747e9264a0602684485",
        "aa6d34b8fe861d657821014f07b8345469d020d50279983a50649b631eb827db",
        "978fce8c965dfb5e97963c6f48c89eab4cc376061fb978fd3ccbf11286bef97e",
    ),
    ("hood", 2): (
        "dd5c822c897bc499b1ee44f9efe6b2a0eee35f2a27cad4c77f102c1271a3879d",
        "e0b44e3d905a16d5d3950a88fc8eb95752b5d0bdbf6d76c4b581f9fcb856d513",
        "8c2b47b945ddc3a5a18f9bb1bd9d57fc47a06a01d3687363becf0f9b156ca30c",
    ),
    ("hood", 3): (
        "40e0bffa9020e4923246be241c564b0805e82ebba439329317e86cad273f6215",
        "e0b44e3d905a16d5d3950a88fc8eb95752b5d0bdbf6d76c4b581f9fcb856d513",
        "8c2b47b945ddc3a5a18f9bb1bd9d57fc47a06a01d3687363becf0f9b156ca30c",
    ),
    ("rp2", 2): (
        "d33ed784df1dedfd4c3bb788ae0be361f480dae154fb953c290e0efc2391d6c2",
        "f74c7e2b6d64f67e4c9b451e16408fd20e53388be45bc934b8022d00619b4744",
        "6d56cb4047be3326350c1dc38e9ceaed6cc5251ae7113238fee16f3d644e4fc3",
    ),
    ("rp2", 3): (
        "1729f6a6064ee663d57ae2804931f8340e937b8f881c00f2a3a9dc389a7575d2",
        "e184c4e2202f7d3463dce85fea8272d14b11c12b52f929200dba64131acffa11",
        "56e1aaaa76fbbe686853dd2769d7194297f076b7c85a2daf1b3a99c2bbc0f7c2",
    ),
}


@pytest.mark.parametrize("preset,field", sorted(TABLE_GOLDEN))
def test_diagram_and_barcode_tables_are_pinned(tmp_path, preset, field):
    cx, dgm, dgm_csv, bars_csv = (
        tmp_path / name for name in ("complex.json", "dgm.json", "dgm.csv", "bars.csv"))
    if preset == "rp2":
        write_rp2(cx, field)
    else:
        assert main(["gen", "--preset", preset, "--out", str(cx)]) == 0
    f = str(field)
    assert main(["dgm", str(cx), "--field", f, "--out", str(dgm)]) == 0
    assert main(["dgm", str(cx), "--field", f, "--format", "csv", "--out", str(dgm_csv)]) == 0
    assert main(["barcode", str(cx), "--field", f, "--format", "csv",
                 "--out", str(bars_csv)]) == 0
    assert (sha256(dgm), sha256(dgm_csv), sha256(bars_csv)) == TABLE_GOLDEN[(preset, field)]


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
    assert sha256(report) == RP2_CHECK_REPORT


# The checkers' first counterexamples: the `check --module --suite all`
# report on preset dumps with one nonzero structure map zeroed or negated.
# A counterexample is printed with repr, so a change in sample order or in
# the type of an index shows up here.
CHECK_GOLDEN = {
    ("hood", 2, "zero", "first"):
        "c22e43ab2b2484d1367cf9b3d3bd023c242d56cfbd297bdd5589937ad31c174d",
    ("hood", 3, "negate", "middle"):
        "4e5c86e996ca5b47b1c7b5366a421340f8b543ce82a5c427271abcde474b6953",
    ("cone", 3, "negate", "middle"):
        "467a70830f31a6b47243be296f8e428cf3f72b931432fa1f8c049a21c3c2ceee",
    ("circle", 2, "zero", "middle"):
        "377c62f6e3822aa73fd55f86cad5b03d29647bc1791a53d6b8847c16d8fd9cd5",
}
RP2_CHECK_REPORT = "5d6e3447e1d15bd07a32f254a7381175602386288a012dbd7cbc1e0eeb0bd7a4"


@pytest.mark.parametrize("preset,field,edit,which", sorted(CHECK_GOLDEN))
def test_checker_counterexamples_are_pinned(tmp_path, preset, field, edit, which):
    cx, module, dgm, report = (tmp_path / name for name in
                               ("complex.json", "module.json", "dgm.json", "report.json"))
    assert main(["gen", "--preset", preset, "--out", str(cx)]) == 0
    assert main(["dgm", str(cx), "--field", str(field), "--dump-module", str(module),
                 "--out", str(dgm)]) == 0
    doc = json.loads(module.read_text())
    nonzero = [e for e in doc["maps"] if any(any(row) for row in e[2])]
    entry = nonzero[0] if which == "first" else nonzero[len(nonzero) // 2]
    if edit == "zero":
        entry[2] = [[0] * len(row) for row in entry[2]]
    else:
        entry[2] = [[-x % field for x in row] for row in entry[2]]
    module.write_text(json.dumps(doc))
    assert main(["check", str(module), "--module", "--suite", "all",
                 "--out", str(report)]) == 1
    assert sha256(report) == CHECK_GOLDEN[(preset, field, edit, which)]


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

    ky = complex_of({1: (0, 0), 2: (1, 2)}, [{1, 2}])
    kx = complex_of({1: (0, 0), 2: (1, 2), 3: (0, 0)}, [{1, 2, 3}])
    assert precomposition_check(ky, kx, {1: 1, 2: 2, 3: 1}, p=3) is None
