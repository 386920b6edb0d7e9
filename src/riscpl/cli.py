"""Command line surface: ingestion, export, plotting and check suites.

Complexes and diagrams travel as JSON with exact rationals written as
integer or "p/q" strings; floats are rejected on input.  All file writes
are atomic (temp file plus rename) and byte-deterministic for fixed input
and flags.  The SVG plot renders the arctan chart of the strip with floats,
purely for display.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple

from .exact_geometry import Coord, CoordTable, INF
from .field_linalg import Mat, check_prime
from .interleave import interleaving_check
from .plc import PLComplex
from .risc_builder import DEFAULT_CAP, barcode, evaluate
from .strip_module import (
    GridModule,
    cohomological_check,
    decomposition_check,
    dgm,
    seq_continuity_check,
    yoneda_check,
)

# numpy comes after the package modules: imported before exact_geometry, it
# raised the peak resident memory of every command by about 0.1 MB
import numpy as np

PI = math.pi


# ---------------------------------------------------------------------------
# exact value serialization


def parse_int(x, what: str) -> int:
    """A JSON integer: not a boolean or a float."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


# The 4,300 digits up to which a JSON integer decodes and an integer is
# written back: the bound on a value string's decimal exponent and on its
# digit runs once the zeros that do not change its value are dropped, both
# checked before the number is built (so it has at most about 8,600
# digits), and on the digits of the built numerator and denominator.
MAX_DIGITS = 4300
DIGIT_BOUND = 10 ** MAX_DIGITS

# The largest dimension of a sample in a module dump: the checkers build
# d x d matrices, and the int64 identity at this bound takes 128 MB.
MAX_DIM = 2 ** 12

# sign, integer part or numerator, denominator, decimals, exponent mark, exponent digits
RATIONAL = re.compile(r"\s*([-+]?)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:([eE][-+]?)0*(\d+))?)\s*")


def parse_rational(x) -> Fraction:
    """Exact rational from a JSON value: integers and 'p/q' strings only."""
    if isinstance(x, bool) or isinstance(x, float):
        raise ValueError(f"values must be integers or 'p/q' strings, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        _, e, exp = x.lower().partition("e")
        try:
            huge = bool(e) and int(exp.strip().lstrip("+-").lstrip("0") or "0") > MAX_DIGITS
        except ValueError:
            huge = False  # not an exponent, which Fraction rejects below
        if huge:
            raise ValueError(f"the exponent of {x!r} exceeds {MAX_DIGITS}")
        short, m = x, RATIONAL.fullmatch(x)
        if m and (m[2] or m[4]):
            # drop the zeros that do not change the value
            sign, num, den, dec, e, exp = m.groups()
            num, dec = num.lstrip("0") or "0", (dec or "").rstrip("0")
            den = den and (den.lstrip("0") or "0")
            if max(len(num), len(den or dec)) > MAX_DIGITS:
                raise ValueError(f"{x!r} has more than {MAX_DIGITS} digits")
            exp = e + exp if e else ""
            short = sign + num + (f"/{den}" if den else (f".{dec}" if dec else "") + exp)
        try:
            r = Fraction(short)
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"not an exact rational: {x!r}") from e
        if max(abs(r.numerator), r.denominator) >= DIGIT_BOUND:
            raise ValueError(f"{x!r} has more than {MAX_DIGITS} digits")
        return r
    raise ValueError(f"values must be integers or 'p/q' strings, got {x!r}")


def coord_json(c: Coord) -> dict:
    return {"k": c.k, "v": str(c.v)}


def coord_parse(d: dict) -> Coord:
    v = INF if d["v"] == "inf" else parse_rational(d["v"])
    return Coord(parse_int(d["k"], "a coordinate's k"), v)


# ---------------------------------------------------------------------------
# file formats


def _is_vertex_id(x) -> bool:
    return isinstance(x, (int, str)) and not isinstance(x, bool)


def parse_field(data: dict) -> int:
    """The field characteristic of a file: a JSON integer (not a boolean or
    a float) that is a prime below 2^16; GF(2) when absent."""
    p = parse_int(data.get("field", 2), "the field")
    check_prime(p)
    return p


def field_of(args, field: int) -> int:
    """The --field flag when given, checked to be a prime, else the
    file's field."""
    if args.field is None:
        return field
    check_prime(args.field)
    return args.field


def read_object(path, what: str) -> dict:
    """The JSON object of a file, which must not nest too deeply to decode."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except RecursionError as e:
        raise ValueError(f"a {what} file is nested too deeply") from e
    if not isinstance(data, dict):
        raise ValueError(f"a {what} file must hold a JSON object")
    return data


def load_complex(path, cap: Optional[int] = None) -> Tuple[PLComplex, int]:
    data = read_object(path, "complex")
    field = parse_field(data)
    vertices = data.get("vertices", [])
    if not isinstance(vertices, list) or not all(
            isinstance(e, dict) and "id" in e and "value" in e for e in vertices):
        raise ValueError("vertices must be a list of objects with an id and a value")
    values = {}
    for entry in vertices:
        vid = entry["id"]
        if not _is_vertex_id(vid):
            raise ValueError(f"vertex ids must be integers or strings, got {vid!r}")
        if vid in values:
            raise ValueError(f"duplicate vertex id {vid!r}")
        val = entry["value"]
        if not isinstance(val, list):
            val = [val]
        if not val:
            raise ValueError(f"vertex {vid!r} has an empty value list")
        values[vid] = tuple(parse_rational(x) for x in val)
    simplices = data.get("simplices", [])
    if not isinstance(simplices, list) or not all(
            isinstance(s, list) and all(map(_is_vertex_id, s)) for s in simplices):
        raise ValueError("simplices must be a list of vertex id lists")
    return PLComplex.from_maximal(values, simplices, cap), field


def complex_json(values: Dict, simplices: List[List], field: int = 2) -> dict:
    verts = []
    for vid in sorted(values):
        val = values[vid]
        val = list(val) if isinstance(val, (tuple, list)) else [val]
        out = [str(Fraction(x)) for x in val]
        verts.append({"id": vid, "value": out if len(out) > 1 else out[0]})
    return {
        "field": field,
        "vertices": verts,
        "simplices": [sorted(s) for s in simplices],
    }


def interval_json(deg: int, interval) -> dict:
    """A levelset bar: its degree and its two typed endpoints."""
    return {
        "degree": deg,
        "lo": str(interval.lo),
        "lo_closed": interval.lo_closed,
        "hi": str(interval.hi),
        "hi_closed": interval.hi_closed,
    }


def diagram_json(r, field: int) -> dict:
    points = []
    for d in r.diagram.points:
        deg, interval = d.interval
        points.append({
            "x": coord_json(d.point.x),
            "y": coord_json(d.point.y),
            "multiplicity": d.multiplicity,
            "degree": d.degree,
            "region": d.region,
            "pair": [str(d.pair[0]), str(d.pair[1])],
            "levelset": None if interval is None else interval_json(deg, interval),
        })
    return {"field": field, "points": points}


def csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def diagram_csv(doc: dict) -> str:
    rows = [[
        "degree", "region", "pair_lo", "pair_hi",
        "ls_lo", "ls_lo_closed", "ls_hi", "ls_hi_closed",
        "multiplicity", "x_k", "x_v", "y_k", "y_v",
    ]]
    for pt in doc["points"]:
        ls = pt["levelset"] or {}
        rows.append([
            pt["degree"], pt["region"], pt["pair"][0], pt["pair"][1],
            ls.get("lo", ""), ls.get("lo_closed", ""),
            ls.get("hi", ""), ls.get("hi_closed", ""),
            pt["multiplicity"],
            pt["x"]["k"], pt["x"]["v"], pt["y"]["k"], pt["y"]["v"],
        ])
    return csv_text(rows)


def barcode_json(r, field: int) -> dict:
    bars = [{**interval_json(deg, interval), "multiplicity": mult}
            for deg, interval, mult in barcode(r)]
    return {"field": field, "bars": bars}


def barcode_csv(doc: dict) -> str:
    cols = ("degree", "lo", "lo_closed", "hi", "hi_closed", "multiplicity")
    return csv_text([cols] + [[b[c] for c in cols] for b in doc["bars"]])


def module_json(m: GridModule, field: int) -> dict:
    xs = [coord_json(c) for c in m.table.grid]
    return {
        "field": field,
        "xs": xs,
        "ys": xs,
        "dims": [[i, j, d] for (i, j), d in sorted(m.dims.items()) if d],
        "maps": [
            [list(a), list(b), mm.data.tolist()]
            for (a, b), mm in sorted(m.maps.items())
            if mm.rows and mm.cols
        ],
    }


# A coordinate, a dims entry and a map entry of a module dump as
# json.dumps(..., indent=2) lays them out, with a map's rows joined by ROW and
# a row's entries by ENTRY.
COORD = '    {\n      "k": %s,\n      "v": %s\n    }'
DIMS_ENTRY = "    [\n      %s,\n      %s,\n      %s\n    ]"
MAP_ENTRY = ("    [\n      [\n        %s,\n        %s\n      ],\n      [\n        %s,\n"
             "        %s\n      ],\n      [\n        [\n          %s\n        ]\n      ]\n    ]")
ROW, ENTRY = "\n        ],\n        [\n          ", ",\n          "


def module_text(doc: dict) -> str:
    """json.dumps(doc, indent=2) + "\\n" for a module_json document."""
    xs, ys = ([COORD % (c["k"], json.dumps(c["v"])) for c in doc[key]] for key in ("xs", "ys"))
    dims = [DIMS_ENTRY % tuple(e) for e in doc["dims"]]
    maps = [MAP_ENTRY % (*a, *b, ROW.join([ENTRY.join(map(str, row)) for row in arr]))
            for a, b, arr in doc["maps"]]
    xs, ys, dims, maps = (",\n".join(body).join(("[\n", "\n  ]")) if body else "[]"
                          for body in (xs, ys, dims, maps))
    return (f'{{\n  "field": {doc["field"]},\n  "xs": {xs},\n  "ys": {ys},\n  "dims": {dims},'
            f'\n  "maps": {maps}\n}}\n')


def _refuse(bad: np.ndarray, message: Callable[[int], str]):
    """Raise message(k) for the first k at which bad holds."""
    if bad.any():
        raise ValueError(message(int(np.argmax(bad))))


def _lists(items: list, length: int, what: str):
    """Refuse items unless each is a list of the given length."""
    if set(map(type, items)) - {list} or set(map(len, items)) - {length}:
        bad = next(x for x in items if type(x) is not list or len(x) != length)
        raise ValueError(f"{what}, got {bad!r}")


def _ints(values: list, what: str, p: int = 0) -> np.ndarray:
    """JSON integers as an int64 array, refused as by parse_int.  One beyond
    int64 is read modulo p, or else clipped: it names no sample or shape."""
    if set(map(type, values)) - {int}:
        parse_int(next(x for x in values if type(x) is not int), what)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        wide = np.array(values, dtype=object)
        return (wide % p if p else wide.clip(-1, 2 ** 62)).astype(np.int64)


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Which keys repeat an earlier one."""
    return ~np.isin(np.arange(len(keys)), np.unique(keys, return_index=True)[1])


def load_module(path) -> Tuple[GridModule, int]:
    """A module dump, checked against the format: "xs", "ys", "dims" and
    "maps" are lists; "ys" repeats the strictly increasing "xs", every dims
    entry and map end is a sample, no sample has two dims entries, every
    dimension is in [0, MAX_DIM], every map key is a covering pair given
    once, and every map is an integer matrix of the shape of its ends'
    dimensions, read modulo the field.  The checks fill no table row."""
    data = read_object(path, "module")
    field = parse_field(data)
    try:
        for key in ("xs", "ys", "dims", "maps"):
            if type(data[key]) is not list:
                raise ValueError(f"the module's {key} must be a list, got {data[key]!r}")
        xs = tuple(map(coord_parse, data["xs"]))
        if repr(data["ys"]) != repr(data["xs"]) and tuple(map(coord_parse, data["ys"])) != xs:
            raise ValueError("the module's ys must equal its xs")
        table, n = CoordTable(xs), len(xs)

        def samples(idx) -> np.ndarray:
            """The samples that pairs of integers name, as i * (n + 1) + j."""
            _lists(idx, 2, "a grid index must be a pair of integers")
            i, j = _ints(list(chain.from_iterable(idx)), "a grid index").reshape(-1, 2).T
            met, of = np.unique(np.where((i >= 0) & (i < n), i, n), return_inverse=True)
            runs = np.array([table.runs[r] if r < n else (0, 0) for r in met.tolist()],
                            dtype=np.int64).reshape(-1, 2)
            start, stop = runs[of].T
            _refuse((j < start) | (j >= stop), lambda k: f"{idx[k]} is not a sample of the grid")
            return i * (n + 1) + j

        dims, maps = data["dims"], data["maps"]
        _lists(dims, 3, "a dims entry must be a list of three integers")
        at, dim = samples([e[:2] for e in dims]), _ints([e[2] for e in dims], "a dimension")
        _refuse(_repeats(at),
                lambda k: f"the dims entry {dims[k]} repeats the sample {dims[k][:2]}")
        _refuse(dim < 0, lambda k: f"the dims entry {dims[k]} has a negative dimension")
        _refuse(dim > MAX_DIM, lambda k: f"the dims entry {dims[k]} has a dimension over {MAX_DIM}")
        # the dimension at packed samples q, 0 where dims has no entry
        order = np.argsort(at)
        known, known_dim = np.append(at[order], -1), np.append(dim[order], 0)

        def dim_at(q: np.ndarray) -> np.ndarray:
            place = np.searchsorted(known[:-1], q)
            return np.where(known[place] == q, known_dim[place], 0)

        _lists(maps, 3, "a map must be a list of two grid indices and a matrix")
        a, b, arrs = zip(*maps) if maps else ((), (), ())
        lo, hi = samples(a + b).reshape(2, -1)
        up = hi == lo + 1  # hi is (i, j + 1), or else it must be (i - 1, j)
        _refuse(~up & (hi != lo - n - 1),
                lambda k: f"the map key {[a[k], b[k]]} is not a covering pair")
        _refuse(_repeats(lo * 2 + up), lambda k: f"the map key {[a[k], b[k]]} is repeated")
        rows = list(chain.from_iterable(arrs))
        nrows, ncols = np.fromiter(map(len, arrs), np.int64, len(arrs)), dim_at(hi)
        lens = np.fromiter(map(len, rows), np.int64, len(rows))
        bad = (nrows != dim_at(lo)) | (nrows == 0)
        bad[np.repeat(np.arange(len(arrs)), nrows)[lens != np.repeat(ncols, nrows)]] = True
        _refuse(bad, lambda k: f"the map at {[a[k], b[k]]} has shape {np.shape(arrs[k])}, "
                               f"not that of its ends' dimensions")
        entries = _ints(list(chain.from_iterable(rows)), "a map entry", field) % field
        mats = [Mat._reduced(entries[e - r * c:e].reshape(r, c), field) for e, r, c in
                zip(np.cumsum(nrows * ncols).tolist(), nrows.tolist(), ncols.tolist())]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed module file: {type(e).__name__}: {e}") from e
    maps = dict(zip([(tuple(x), tuple(y)) for x, y in zip(a, b)], mats))
    return GridModule(table, {(i, j): d for i, j, d in dims}, maps, field), field


# ---------------------------------------------------------------------------
# output plumbing


def emit(text: str, out: Optional[str]):
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    tmp = out + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, out)


def emit_json(doc: dict, out: Optional[str], text: Optional[Callable[[dict], str]] = None):
    """Write json.dumps(doc, indent=2) + "\\n", or text(doc) that equals it."""
    emit(json.dumps(doc, indent=2) + "\n" if text is None else text(doc), out)


# ---------------------------------------------------------------------------
# commands


def cmd_evaluate(args) -> int:
    """dgm and barcode: write the command's document as JSON or CSV."""
    k, field = load_complex(args.input, args.cap)
    p = field_of(args, field)
    r = evaluate(k, func=args.func, p=p, cap=args.cap)
    if args.dump_module:
        emit_json(module_json(r.module, p), args.dump_module, module_text)
    doc = args.to_json(r, p)
    if args.format == "csv":
        emit(args.to_csv(doc), args.out)
    else:
        emit_json(doc, args.out)
    return 0


# The check suites in report order, each a checker that returns None or its
# first counterexample; one call computes the diagram once, for the block
# suites, and decomposition hands yoneda its block walks.  An entry looks its
# checker up by name when called, so a wrapper later put in place of that
# name on this module sees the call.
SUITES = {
    "exactness": lambda m, walks, diagram: cohomological_check(m),
    "continuity": lambda m, walks, diagram: seq_continuity_check(m),
    "decomposition": lambda m, walks, diagram: decomposition_check(
        m, walks=walks, diagram=diagram()),
    "yoneda": lambda m, walks, diagram: yoneda_check(m, walks, diagram()),
}


def cmd_check(args) -> int:
    if args.module:
        if args.func is not None or args.cap is not None:
            raise ValueError("--func and --cap do not apply to a module dump")
        module, field = load_module(args.input)
        if field_of(args, field) != field:
            raise ValueError(f"--field {args.field} differs from the module's field {field}")
    else:
        func = 0 if args.func is None else args.func
        cap = DEFAULT_CAP if args.cap is None else args.cap
        k, field = load_complex(args.input, cap)
        module = evaluate(k, func=func, p=field_of(args, field), cap=cap).module
    report, walks, diagram = {"suites": {}}, {}, cache(lambda: dgm(module))
    for suite in (SUITES if args.suite == "all" else (args.suite,)):
        bad = SUITES[suite](module, walks, diagram)
        result = report["suites"][suite] = {"ok": bad is None}
        if bad is not None:
            result["counterexample"] = repr(bad)
    report["ok"] = all(r["ok"] for r in report["suites"].values())
    emit_json(report, args.out)
    return 0 if report["ok"] else 1


def cmd_interleave(args) -> int:
    k, field = load_complex(args.input, args.cap)
    if k.nfuncs < 2:
        raise ValueError("interleave needs two value sets per vertex")
    delta = None if args.delta == "auto" else parse_rational(args.delta)
    result = interleaving_check(k, args.f, args.g, delta,
                                p=field_of(args, field), cap=args.cap)
    doc = {"delta": str(result["delta"]), "ok": result["ok"]}
    if "witness" in result and result["witness"] is not None:
        doc["witness"] = list(result["witness"])
    if "counterexample" in result:
        ce = result["counterexample"]
        doc["counterexample"] = {
            "sample": list(ce["sample"]),
            "function": ce["function"],
            "lhs": ce["lhs"].data.tolist(),
            "rhs": ce["rhs"].data.tolist(),
        }
    emit_json(doc, args.out)
    return 0 if doc["ok"] else 1


# ---------------------------------------------------------------------------
# plotting (floats, display only)


REGION_COLORS = {"Ord": "#bcd8f0", "Rel": "#f0c8b4", "Ext": "#c4e0c0"}


def _t_float(x: float, y: float, n: int) -> Tuple[float, float]:
    """T^n of a point, for n >= 0."""
    for _ in range(n):
        x, y = -PI - y, PI - x
    return x, y


def _float_region(x: float, y: float) -> Optional[str]:
    if not (-PI < x + y < PI):
        return None
    # the down-set of the embedded diagonal
    if y > min(x, PI / 2) or min(x, PI / 2) <= -PI / 2:
        return None
    # T adds 2*pi to y - x, so T^tile lands in -2*pi < y - x <= 0, the
    # fundamental domain; the degree is that power or the next one
    tile = math.floor((x - y) / (2 * PI))
    for n in (tile, tile + 1):
        qx, qy = _t_float(x, y, n)
        if qx > -PI / 2 and qy >= -PI / 2:
            birth_rel = qx < PI / 2
            death_abs = qy < PI / 2
            if birth_rel and death_abs:
                return "Ext"
            if birth_rel:
                return "Rel"
            return "Ord"
    return None


# the side of the square SVG and the rows and columns of its region shading
SVG_SIZE = 640
SHADING_STEPS = 120


def load_diagram(path) -> List[Tuple[float, float, int]]:
    """The points of a diagram file as (x, y, multiplicity), with x and y
    as floats for display."""
    data = read_object(path, "diagram")
    try:
        points = data["points"]
        if not isinstance(points, list) or not all(isinstance(p, dict) for p in points):
            raise ValueError("a diagram file's points must be a list of objects")
        return [(coord_parse(p["x"]).to_float(), coord_parse(p["y"]).to_float(),
                 parse_int(p["multiplicity"], "a multiplicity")) for p in points]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed diagram file: {type(e).__name__}: {e}") from e
    except OverflowError as e:
        raise ValueError(f"a diagram coordinate is too large to plot: {e}") from e


def plot_svg(pts: List[Tuple[float, float, int]]) -> str:
    lo, hi = -3 * PI / 2 - 0.4, 3 * PI / 2 + 0.4
    for x, y, _ in pts:
        lo = min(lo, x - 0.5, y - 0.5)
        hi = max(hi, x + 0.5, y + 0.5)
    margin = 36
    span = hi - lo
    scale = (SVG_SIZE - 2 * margin) / span
    if 2 * PI * scale < 1:
        raise ValueError("a diagram too wide to plot: its diagonals lie closer than a pixel")

    def sx(x):
        return margin + (x - lo) * scale

    def sy(y):
        return SVG_SIZE - margin - (y - lo) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    # region shading by sampled cells, merged into horizontal runs
    step = span / SHADING_STEPS
    for row in range(SHADING_STEPS):
        y = lo + (row + 0.5) * step
        run_start, run_region = None, None
        for col in range(SHADING_STEPS + 1):
            x = lo + (col + 0.5) * step
            region = _float_region(x, y) if col < SHADING_STEPS else None
            if region != run_region:
                if run_region is not None:
                    x0, x1 = sx(lo + run_start * step), sx(lo + col * step)
                    y0 = sy(y + step / 2)
                    parts.append(
                        f'<rect x="{x0:.2f}" y="{y0:.2f}" '
                        f'width="{x1 - x0:.2f}" height="{step * scale:.2f}" '
                        f'fill="{REGION_COLORS[run_region]}"/>'
                    )
                run_start, run_region = col, region
    # strip boundary: x + y = +-pi
    for c in (-PI, PI):
        x0, x1 = max(lo, c - hi), min(hi, c - lo)
        parts.append(
            f'<line x1="{sx(x0):.2f}" y1="{sy(c - x0):.2f}" '
            f'x2="{sx(x1):.2f}" y2="{sy(c - x1):.2f}" '
            f'stroke="black" stroke-width="1.5"/>'
        )
    # the embedded diagonal and its glide-reflection translates y = x + 2m*pi
    # whose part in the strip meets the drawing's x-range [lo, hi]:
    # -1/2 - hi/pi < m < 1/2 - lo/pi
    for m in range(math.floor(-0.5 - hi / PI), math.ceil(0.5 - lo / PI) + 1):
        c = 2 * m * PI
        x0 = max(lo, (-PI - c) / 2)
        x1 = min(hi, (PI - c) / 2)
        if x0 >= x1:
            continue
        parts.append(
            f'<line x1="{sx(x0):.2f}" y1="{sy(x0 + c):.2f}" '
            f'x2="{sx(x1):.2f}" y2="{sy(x1 + c):.2f}" '
            f'stroke="#666" stroke-width="1" stroke-dasharray="5,3"/>'
        )
    # diagram points
    for x, y, mult in pts:
        parts.append(
            f'<circle class="dgm-point" cx="{sx(x):.2f}" cy="{sy(y):.2f}" '
            f'r="5" fill="#b22" stroke="black"/>'
        )
        if mult > 1:
            parts.append(
                f'<text x="{sx(x) + 7:.2f}" y="{sy(y) - 7:.2f}" '
                f'font-size="12">{mult}</text>'
            )
    # legend
    for i, (name, color) in enumerate(sorted(REGION_COLORS.items())):
        ly = margin + 18 * i
        parts.append(
            f'<rect x="{SVG_SIZE - margin - 70}" y="{ly}" width="12" height="12" '
            f'fill="{color}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{SVG_SIZE - margin - 52}" y="{ly + 10}" '
            f'font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    emit(plot_svg(load_diagram(args.input)), args.out)
    return 0


# ---------------------------------------------------------------------------
# instance generation


C4_CONE = [[1, 2, 5], [2, 3, 5], [3, 4, 5], [4, 1, 5]]


def gen_complex(preset: str, seed: int, funcs: int) -> dict:
    if funcs < 1:
        raise ValueError(f"--funcs must be at least 1, got {funcs}")
    if preset == "hood":
        return complex_json({1: 0, 2: 1, 3: 0, 4: 2, 5: 2}, C4_CONE)
    if preset == "flattened-hood":
        return complex_json({1: 0, 2: 1, 3: 0, 4: 0, 5: 2}, C4_CONE)
    if preset == "circle":
        return complex_json({1: 0, 2: 1, 3: 2, 4: 1},
                            [[1, 2], [2, 3], [3, 4], [4, 1]])
    if preset == "cone":
        return complex_json({1: 0, 2: 1, 3: 2, 4: 1, 5: 2}, C4_CONE)
    if preset == "random":
        rng = random.Random(seed)
        nverts = rng.randint(4, 8)
        pool = rng.sample(range(-3, 4), 4)
        values = {
            v: tuple(Fraction(rng.choice(pool)) for _ in range(funcs))
            for v in range(nverts)
        }
        maximal = [
            sorted(rng.sample(range(nverts), rng.randint(2, 3)))
            for _ in range(rng.randint(3, 6))
        ]
        return complex_json(values, maximal)
    raise ValueError(f"unknown preset {preset!r}")


def cmd_gen(args) -> int:
    emit_json(gen_complex(args.preset, args.seed, args.funcs), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument surface


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riscpl",
        description="Exact relative interlevel set cohomology of PL functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_format=True):
        p.add_argument("input", help="complex file (JSON)")
        p.add_argument("--field", type=int, default=None,
                       help="prime field characteristic (overrides the file)")
        p.add_argument("--func", type=int, default=0,
                       help="index of the vertex value to use")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="post-split simplex count limit")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if with_format:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("dgm", help="compute the diagram")
    add_common(p)
    p.add_argument("--dump-module", default=None,
                   help="also write the full grid module to this path")
    p.set_defaults(func_cmd=cmd_evaluate, to_json=diagram_json, to_csv=diagram_csv)

    p = sub.add_parser("barcode", help="compute the levelset barcode")
    add_common(p)
    p.set_defaults(func_cmd=cmd_evaluate, to_json=barcode_json, to_csv=barcode_csv,
                   dump_module=None)

    p = sub.add_parser("check", help="run invariant suites")
    add_common(p, with_format=False)
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    p.add_argument("--module", action="store_true",
                   help="treat the input as a grid module dump")
    # None marks a flag not given: a module dump takes neither
    p.set_defaults(func_cmd=cmd_check, func=None, cap=None)

    p = sub.add_parser("interleave", help="verify the interleaving of two functions")
    p.add_argument("input", help="complex file with two values per vertex")
    p.add_argument("--delta", default="auto",
                   help="interleaving parameter, 'auto' for the sup distance")
    p.add_argument("--f", type=int, default=0)
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--field", type=int, default=None)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func_cmd=cmd_interleave)

    p = sub.add_parser("plot", help="render a diagram file as SVG")
    p.add_argument("input", help="diagram file (JSON)")
    p.add_argument("--out", default=None)
    p.set_defaults(func_cmd=cmd_plot)

    p = sub.add_parser("gen", help="emit a preset or random complex file")
    p.add_argument("--preset", required=True,
                   choices=("hood", "flattened-hood", "circle", "cone", "random"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--funcs", type=int, default=1,
                   help="number of value sets per vertex (random preset)")
    p.add_argument("--out", default=None)
    p.set_defaults(func_cmd=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func_cmd(args)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
