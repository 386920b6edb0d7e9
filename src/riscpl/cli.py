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
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exact_geometry import Coord, INF, NEG_INF
from .field_linalg import Mat, check_prime
from .interleave import interleaving_check
from .plc import PLComplex, check_funcs
from .risc_builder import DEFAULT_CAP, barcode, evaluate
from .strip_module import (
    GridModule,
    cohomological_check,
    decomposition_check,
    dgm,
    nat_space_dim,
    seq_continuity_check,
)

PI = math.pi


# ---------------------------------------------------------------------------
# exact value serialization


def parse_rational(x) -> Fraction:
    """Exact rational from a JSON value: integers and 'p/q' strings only."""
    if isinstance(x, bool) or isinstance(x, float):
        raise ValueError(f"values must be integers or 'p/q' strings, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"not an exact rational: {x!r}") from e
    raise ValueError(f"values must be integers or 'p/q' strings, got {x!r}")


def rational_str(v) -> str:
    return str(v)


def endpoint_json(v):
    if v is INF:
        return "inf"
    if v is NEG_INF:
        return "-inf"
    return rational_str(v)


def coord_json(c: Coord) -> dict:
    return {"k": c.k, "v": "inf" if c.v is INF else rational_str(c.v)}


def coord_parse(d: dict) -> Coord:
    return Coord(int(d["k"]), INF if d["v"] == "inf" else parse_rational(d["v"]))


# ---------------------------------------------------------------------------
# file formats


def _is_vertex_id(x) -> bool:
    return isinstance(x, (int, str)) and not isinstance(x, bool)


def parse_field(data: dict) -> int:
    """The field characteristic of a file: a JSON integer (not a boolean or
    a float) that is a prime below 2^16; GF(2) when absent."""
    p = data.get("field", 2)
    if isinstance(p, bool) or not isinstance(p, int):
        raise ValueError(f"the field must be a prime integer, got {p!r}")
    check_prime(p)
    return p


def field_of(args, field: int) -> int:
    """The --field flag when given, checked to be a prime, else the
    file's field."""
    if args.field is None:
        return field
    check_prime(args.field)
    return args.field


def load_complex(path) -> Tuple[PLComplex, int]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a complex file must hold a JSON object")
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
    arities = {len(v) for v in values.values()}
    if len(arities) > 1:
        raise ValueError("all vertices must carry the same number of values")
    simplices = data.get("simplices", [])
    if not isinstance(simplices, list) or not all(
            isinstance(s, list) and all(map(_is_vertex_id, s)) for s in simplices):
        raise ValueError("simplices must be a list of vertex id lists")
    k = PLComplex.from_maximal(values, simplices)
    return k, field


def complex_json(values: Dict, simplices: List[List], field: int = 2) -> dict:
    verts = []
    for vid in sorted(values):
        val = values[vid]
        val = list(val) if isinstance(val, (tuple, list)) else [val]
        out = [rational_str(Fraction(x)) for x in val]
        verts.append({"id": vid, "value": out if len(out) > 1 else out[0]})
    return {
        "field": field,
        "vertices": verts,
        "simplices": [sorted(s) for s in simplices],
    }


def diagram_json(r, field: int) -> dict:
    points = []
    for d in sorted(r.diagram.points, key=lambda d: (d.point.x, d.point.y)):
        deg, interval = d.interval
        levelset = None
        if interval is not None:
            levelset = {
                "degree": deg,
                "lo": endpoint_json(interval.lo),
                "lo_closed": interval.lo_closed,
                "hi": endpoint_json(interval.hi),
                "hi_closed": interval.hi_closed,
            }
        points.append({
            "x": coord_json(d.point.x),
            "y": coord_json(d.point.y),
            "multiplicity": d.multiplicity,
            "degree": d.degree,
            "region": d.region,
            "pair": [endpoint_json(d.pair[0]), endpoint_json(d.pair[1])],
            "levelset": levelset,
        })
    return {"field": field, "points": points}


def diagram_csv(doc: dict) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow([
        "degree", "region", "pair_lo", "pair_hi",
        "ls_lo", "ls_lo_closed", "ls_hi", "ls_hi_closed",
        "multiplicity", "x_k", "x_v", "y_k", "y_v",
    ])
    for pt in doc["points"]:
        ls = pt["levelset"] or {}
        w.writerow([
            pt["degree"], pt["region"], pt["pair"][0], pt["pair"][1],
            ls.get("lo", ""), ls.get("lo_closed", ""),
            ls.get("hi", ""), ls.get("hi_closed", ""),
            pt["multiplicity"],
            pt["x"]["k"], pt["x"]["v"], pt["y"]["k"], pt["y"]["v"],
        ])
    return out.getvalue()


def barcode_json(r, field: int) -> dict:
    bars = []
    for deg, interval, mult in barcode(r):
        bars.append({
            "degree": deg,
            "lo": endpoint_json(interval.lo),
            "lo_closed": interval.lo_closed,
            "hi": endpoint_json(interval.hi),
            "hi_closed": interval.hi_closed,
            "multiplicity": mult,
        })
    return {"field": field, "bars": bars}


def barcode_csv(doc: dict) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["degree", "lo", "lo_closed", "hi", "hi_closed", "multiplicity"])
    for b in doc["bars"]:
        w.writerow([b["degree"], b["lo"], b["lo_closed"],
                    b["hi"], b["hi_closed"], b["multiplicity"]])
    return out.getvalue()


def module_json(m: GridModule, field: int) -> dict:
    return {
        "field": field,
        "xs": [coord_json(c) for c in m.xs],
        "ys": [coord_json(c) for c in m.ys],
        "dims": [[i, j, d] for (i, j), d in sorted(m.dims.items()) if d],
        "maps": [
            [list(a), list(b), mm.data.tolist()]
            for (a, b), mm in sorted(m.maps.items())
            if mm.rows and mm.cols
        ],
    }


def load_module(path) -> Tuple[GridModule, int]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a module file must hold a JSON object")
    field = parse_field(data)
    try:
        xs = tuple(coord_parse(c) for c in data["xs"])
        ys = tuple(coord_parse(c) for c in data["ys"])
        dims = {(int(i), int(j)): int(d) for i, j, d in data["dims"]}
        maps = {}
        for a, b, arr in data["maps"]:
            maps[(tuple(a), tuple(b))] = Mat(arr, field)
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed module file: {type(e).__name__}: {e}") from e
    return GridModule(xs, ys, dims, maps, field), field


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


def emit_json(doc: dict, out: Optional[str]):
    emit(json.dumps(doc, indent=2) + "\n", out)


# ---------------------------------------------------------------------------
# commands


def cmd_dgm(args) -> int:
    k, field = load_complex(args.input)
    check_funcs(k, args.func)
    p = field_of(args, field)
    r = evaluate(k, func=args.func, p=p, cap=args.cap)
    if args.dump_module:
        emit_json(module_json(r.module, p), args.dump_module)
    doc = diagram_json(r, p)
    if args.format == "csv":
        emit(diagram_csv(doc), args.out)
    else:
        emit_json(doc, args.out)
    return 0


def cmd_barcode(args) -> int:
    k, field = load_complex(args.input)
    check_funcs(k, args.func)
    p = field_of(args, field)
    r = evaluate(k, func=args.func, p=p, cap=args.cap)
    doc = barcode_json(r, p)
    if args.format == "csv":
        emit(barcode_csv(doc), args.out)
    else:
        emit_json(doc, args.out)
    return 0


SUITES = ("exactness", "continuity", "decomposition", "yoneda")


def run_suite(module: GridModule, suite: str) -> dict:
    if suite == "exactness":
        bad = cohomological_check(module)
    elif suite == "continuity":
        bad = seq_continuity_check(module)
    elif suite == "decomposition":
        bad = decomposition_check(module)
    elif suite == "yoneda":
        bad = None
        for d in dgm(module).points:
            idx = module.index_of(d.point)
            if nat_space_dim(idx, module) != module.dim_at(idx):
                bad = ("yoneda mismatch at", idx)
                break
    else:
        raise ValueError(f"unknown suite {suite!r}")
    result = {"ok": bad is None}
    if bad is not None:
        result["counterexample"] = repr(bad)
    return result


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
        k, field = load_complex(args.input)
        check_funcs(k, func)
        module = evaluate(k, func=func, p=field_of(args, field), cap=cap).module
    suites = SUITES if args.suite == "all" else (args.suite,)
    report = {"suites": {}, "ok": True}
    for suite in suites:
        result = run_suite(module, suite)
        report["suites"][suite] = result
        report["ok"] = report["ok"] and result["ok"]
    emit_json(report, args.out)
    return 0 if report["ok"] else 1


def cmd_interleave(args) -> int:
    k, field = load_complex(args.input)
    if k.nfuncs < 2:
        raise ValueError("interleave needs two value sets per vertex")
    check_funcs(k, args.f, args.g)
    delta = None if args.delta == "auto" else parse_rational(args.delta)
    result = interleaving_check(k, args.f, args.g, delta,
                                p=field_of(args, field), cap=args.cap)
    doc = {"delta": rational_str(result["delta"]), "ok": result["ok"]}
    if "witness" in result and result["witness"] is not None:
        doc["witness"] = list(result["witness"])
    if "counterexample" in result:
        ce = result["counterexample"]
        doc["counterexample"] = {
            "sample": list(ce["sample"]),
            "lhs": ce["lhs"].data.tolist(),
            "rhs": ce["rhs"].data.tolist(),
        }
    emit_json(doc, args.out)
    return 0 if doc["ok"] else 1


# ---------------------------------------------------------------------------
# plotting (floats, display only)


REGION_COLORS = {"Ord": "#bcd8f0", "Rel": "#f0c8b4", "Ext": "#c4e0c0"}


def _t_float(x: float, y: float, n: int) -> Tuple[float, float]:
    for _ in range(abs(n)):
        if n > 0:
            x, y = -PI - y, PI - x
        else:
            x, y = PI - y, -PI - x
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


def plot_svg(doc: dict, size: int = 640, shading_steps: int = 120) -> str:
    pts = [(coord_parse(p["x"]).to_float(), coord_parse(p["y"]).to_float(),
            p["multiplicity"]) for p in doc.get("points", [])]
    lo, hi = -3 * PI / 2 - 0.4, 3 * PI / 2 + 0.4
    for x, y, _ in pts:
        lo = min(lo, x - 0.5, y - 0.5)
        hi = max(hi, x + 0.5, y + 0.5)
    margin = 36
    span = hi - lo
    scale = (size - 2 * margin) / span

    def sx(x):
        return margin + (x - lo) * scale

    def sy(y):
        return size - margin - (y - lo) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    # region shading by sampled cells, merged into horizontal runs
    step = span / shading_steps
    for row in range(shading_steps):
        y = lo + (row + 0.5) * step
        run_start, run_region = None, None
        for col in range(shading_steps + 1):
            x = lo + (col + 0.5) * step
            region = _float_region(x, y) if col < shading_steps else None
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
    # the embedded diagonal and its glide-reflection translates: y = x + 2m*pi
    for m in range(-3, 4):
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
            f'<rect x="{size - margin - 70}" y="{ly}" width="12" height="12" '
            f'fill="{color}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{size - margin - 52}" y="{ly + 10}" '
            f'font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    with open(args.input) as fh:
        doc = json.load(fh)
    emit(plot_svg(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# instance generation


C4_CONE = [[1, 2, 5], [2, 3, 5], [3, 4, 5], [4, 1, 5]]


def gen_complex(preset: str, seed: int, funcs: int) -> dict:
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
    p.set_defaults(func_cmd=cmd_dgm)

    p = sub.add_parser("barcode", help="compute the levelset barcode")
    add_common(p)
    p.set_defaults(func_cmd=cmd_barcode)

    p = sub.add_parser("check", help="run invariant suites")
    add_common(p, with_format=False)
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
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
