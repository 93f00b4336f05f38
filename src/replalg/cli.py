"""Command-line interface: quiver file ingestion, dispatch, report emission.

Commands
--------
repdim     certify gl.dim End(M) <= 3 for the canonical generator-cogenerator M
domdim     certify dom.dim A^(m) >= m (and the stronger bound >= t-1)
bounds     the gl.dim sandwich m + gl.dim A <= gl.dim A^(m) <= (m+1) gl.dim A + m
lemma24    length-<=2 add(M) resolutions with Hom-exactness for inventory targets
extcheck   Ext^1 = stable-Hom identity and the factoring-vanishing suite
example34  the golden duplicated-Kronecker instance
inventory  the summands of M with dimension vectors and Loewy layers

Exit code 0 when every certificate passes, 1 when any fails, 2 on errors.
JSON reports are byte-deterministic for fixed flags and seed; wall-clock
timing is only included with --timing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .errors import ParseError, ReplalgError
from .quiver import Quiver, kronecker
from .replicated import GeneratorBundle, auslander_generator, default_cap, loewy_layers, minimal_cogenerator
from .verify import (
    Certificate,
    verify_example_3_4,
    verify_ext_stablehom,
    verify_gl_dim_bounds,
    verify_lemma_2_4,
    lemma_2_4_inventory,
    verify_theorem_3_3,
    verify_theorem_3_5,
)

SCHEMA_VERSION = 1


def parse_quiver(text: str) -> Quiver:
    """Parse the JSON quiver format; errors carry line/column when syntactic."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from e
    if not isinstance(data, dict):
        raise ParseError("quiver file must be a JSON object")
    vertices = data.get("vertices")
    arrows = data.get("arrows", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError('"vertices" must be a list of strings')
    if not vertices:
        raise ParseError('"vertices" must name at least one vertex')
    if not isinstance(arrows, list):
        raise ParseError('"arrows" must be a list')
    triples = []
    for a in arrows:
        if not isinstance(a, dict) or not {"name", "from", "to"} <= set(a):
            raise ParseError('each arrow needs "name", "from" and "to"')
        if not all(isinstance(a[k], str) for k in ("name", "from", "to")):
            raise ParseError('arrow "name", "from" and "to" must be strings')
        triples.append((a["name"], a["from"], a["to"]))
    return Quiver(vertices, triples)


def serialize_quiver(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"name": a.name, "from": a.source, "to": a.target} for a in q.arrows],
    }


def _inventory_rows(bundle: GeneratorBundle) -> list[dict]:
    return [
        {"label": s.label, "dims": list(s.dims), "pd": s.pd.to_json()}
        for s in bundle.summands
    ]


def build_report(q: Quiver, m: int, certs: list[Certificate], seed: int,
                 bundle: Optional[GeneratorBundle] = None,
                 elapsed_ms: Optional[int] = None) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "instance": {**serialize_quiver(q), "m": m},
        "results": [c.to_dict() for c in certs],
        "inventory": _inventory_rows(bundle) if bundle is not None else [],
        "seed": seed,
        "elapsed_ms": elapsed_ms,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: dict, loewy: Optional[list[tuple[str, list[str]]]] = None) -> str:
    lines = []
    inst = report["instance"]
    arrows = ",".join(f"{a['name']}:{a['from']}->{a['to']}" for a in inst["arrows"]) or "-"
    lines.append(
        f"instance: vertices={','.join(inst['vertices'])}  arrows={arrows}  "
        f"m={inst['m']}  seed={report['seed']}"
    )
    for res in report["results"]:
        lines.append(f"claim: {res['claim']}")
        for key in res["values"]:
            lines.append(f"  {key} = {res['values'][key]}")
        if "witnesses" in res:
            for key, val in res["witnesses"].items():
                lines.append(f"  [{key}] {val}")
        lines.append(f"  verdict: {'PASS' if res['verdict'] == 'pass' else 'FAIL'}")
    if report["inventory"]:
        lines.append("inventory:")
        width = max(len(row["label"]) for row in report["inventory"]) + 2
        for row in report["inventory"]:
            dims = "(" + ",".join(str(d) for d in row["dims"]) + ")"
            lines.append(f"  {row['label']:<{width}} dims={dims:<18} pd={row['pd']}")
    if loewy:
        lines.append("loewy layers:")
        width = max(len(lab) for lab, _ in loewy) + 2
        for lab, layers in loewy:
            lines.append(f"  {lab:<{width}} {' / '.join(layers)}")
    if report.get("elapsed_ms") is not None:
        lines.append(f"elapsed_ms: {report['elapsed_ms']}")
    return "\n".join(lines) + "\n"


def _load_quiver(args) -> Quiver:
    if args.quiver is None:
        raise ParseError("--quiver is required for this command")
    with open(args.quiver, "r", encoding="utf-8") as fh:
        return parse_quiver(fh.read())


def _cap(args, m: int) -> int:
    return args.cap if args.cap is not None else default_cap(m)


def run(args) -> tuple[dict, Optional[list], int]:
    """Dispatch one parsed command; returns (report, loewy table, exit code)."""
    started = time.monotonic()
    loewy = None
    if args.command == "example34":
        cert, bundle, _ = verify_example_3_4(cap=args.cap)
        q, m = kronecker(), 1
        certs, report_bundle = [cert], bundle
    elif args.command == "repdim":
        q, m = _load_quiver(args), args.m
        cert, bundle = verify_theorem_3_3(q, m, cap=_cap(args, m))
        certs, report_bundle = [cert], bundle
    elif args.command == "domdim":
        q, m = _load_quiver(args), args.m
        certs, report_bundle = [verify_theorem_3_5(q, m, cap=_cap(args, m))], None
    elif args.command == "bounds":
        q, m = _load_quiver(args), args.m
        certs, report_bundle = [verify_gl_dim_bounds(q, m, cap=_cap(args, m))], None
    elif args.command == "lemma24":
        q, m = _load_quiver(args), args.m
        make = auslander_generator if args.generator == "auslander" else minimal_cogenerator
        bundle = make(q, m, cap=_cap(args, m))
        targets = lemma_2_4_inventory(bundle)
        if args.target != "all-inventory":
            picked = [(lab, x) for lab, x in targets if lab == args.target]
            if not picked:
                picked = [(s.label, s.module) for s in bundle.summands if s.label == args.target]
            if not picked:
                raise ParseError(f"unknown lemma24 target {args.target!r}")
            targets = picked
        certs = [verify_lemma_2_4(bundle, x, lab) for lab, x in targets]
        report_bundle = bundle
    elif args.command == "extcheck":
        q, m = _load_quiver(args), args.m
        certs = [verify_ext_stablehom(q, m, samples=args.samples, seed=args.seed)]
        report_bundle = None
    elif args.command == "inventory":
        q, m = _load_quiver(args), args.m
        bundle = auslander_generator(q, m, cap=_cap(args, m))
        certs, report_bundle = [], bundle
        loewy = [(s.label, loewy_layers(bundle.replicated, s.module)) for s in bundle.summands]
    else:  # pragma: no cover
        raise ValueError(f"unknown command {args.command}")
    elapsed = int((time.monotonic() - started) * 1000)
    report = build_report(
        q, m, certs, args.seed,
        bundle=report_bundle,
        elapsed_ms=elapsed if args.timing else None,
    )
    code = 0 if all(c.verdict for c in certs) else 1
    return report, loewy, code


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replalg",
        description="exact homological certificates for m-replicated path algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "repdim": "certify gl.dim End(M) <= 3",
        "domdim": "certify dom.dim A^(m) >= m",
        "bounds": "certify the gl.dim sandwich",
        "lemma24": "length-<=2 add(M) resolutions with Hom-exactness",
        "extcheck": "Ext^1 = stable-Hom identity suite",
        "example34": "golden duplicated-Kronecker instance",
        "inventory": "print the summands of M",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--quiver", help="path to a JSON quiver file")
        p.add_argument("--m", type=int, default=1, help="number of replications (default 1)")
        if name != "extcheck":
            p.add_argument("--cap", type=int, default=None,
                           help="resolution length cap (default 4m+4)")
        p.add_argument("--seed", type=int, default=0, help="seed for extcheck --samples (echoed in every report)")
        p.add_argument("--report", choices=["json", "text"], default="text")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock time (breaks byte-determinism)")
        if name == "lemma24":
            p.add_argument("--target", default="all-inventory",
                           help="inventory label or 'all-inventory'")
            p.add_argument("--generator", choices=["auslander", "minimal"],
                           default="auslander")
        if name == "extcheck":
            p.add_argument("--samples", type=int, default=0,
                           help="sample this many pairs (0 = all built pairs)")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        report, loewy, code = run(args)
        text = render_json(report) if args.report == "json" else render_text(report, loewy)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ReplalgError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
