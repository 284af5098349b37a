"""Command-line front end.

Subcommands: generate, info, strata, angles, curvature, verify, subdivide,
hull, sequence.  Exit codes: 0 on success/pass, 1 on a failed theorem check,
2 on usage or input errors.

All randomized commands honor --seed; with the same seed and any --threads
value the emitted report is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from simcurv import generators, io, sequences
from simcurv.curvature import (
    HypothesisError,
    TheoremReport,
    curvature_table,
    gauss_bonnet_check,
    sommerville_check,
    subdivision_relation_check,
    vanishing_check,
)
from simcurv.geometry import (
    AngleCache,
    AngleConfig,
    GeometryError,
    convex_hull_boundary,
    top_angle_pairs,
)
from simcurv.io import FileFormatError, format_fraction, json_ready
from simcurv.stratification import stratified_euler_characteristic, stratify
from simcurv.subdivision import (
    SubdivisionPair,
    barycentric_subdivide,
    compute_carriers,
    stellar_subdivide,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class _CliError(Exception):
    pass


def _open_input(path: str):
    return sys.stdin if path == "-" else open(path, "r", encoding="utf-8")


def _read_complex(path: str):
    try:
        with _open_input(path) as stream:
            return io.load_complex(stream)
    except FileNotFoundError as exc:
        raise _CliError(f"{path}: no such file") from exc
    except (json.JSONDecodeError, FileFormatError, GeometryError, ValueError) as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _angle_config(args) -> AngleConfig:
    z = args.z_threshold
    if not (math.isfinite(z) and z > 0):
        raise _CliError(f"--z-threshold must be a positive finite number, got {z}")
    return AngleConfig(samples=args.samples, seed=args.seed, threads=args.threads)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--z-threshold", type=float, default=4.0)
    parser.add_argument("--format", choices=["table", "json"], default="table")


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _emit_report(report: TheoremReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(json_ready(report.to_dict()), indent=2))
        return
    s = report.summary
    print(f"check: {report.name}")
    for key, value in s.items():
        if isinstance(value, Fraction):
            value = format_fraction(value)
        print(f"  {key}: {value}")
    print(f"  verdict: {'pass' if report.passed else 'FAIL'} (z = {report.z_threshold})")
    if report.rows:
        headers = sorted({k for row in report.rows for k in row})
        table = [
            [_cell(row.get(h, "")) for h in headers]
            for row in report.rows
        ]
        _print_table(headers, table)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, Fraction):
        return format_fraction(value)
    return str(value)


# -- subcommands -------------------------------------------------------------


def _cmd_sequence(args) -> int:
    if args.up_to < 0:
        raise _CliError(f"--up-to must be at least 0, got {args.up_to}")
    for n in range(args.up_to + 1):
        print(f"a_{n} = {format_fraction(sequences.angle_defect_term(n))}")
    if args.check:
        ok = sequences.verify_recursion(max(args.up_to, 1))
        print(f"recursion check up to {max(args.up_to, 1)}: {'pass' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_generate(args) -> int:
    kind = args.kind
    if kind == "simplex-boundary":
        embedded = generators.boundary_of_simplex(_dim_arg(args))
    elif kind == "solid-simplex":
        embedded = generators.solid_simplex(_dim_arg(args))
    elif kind == "cross-polytope":
        embedded = generators.cross_polytope(_dim_arg(args))
    elif kind == "triple-book":
        embedded = generators.triple_book()
    elif kind == "random-simplex":
        embedded = generators.random_simplex(_dim_arg(args), seed=args.seed)
    elif kind == "cone":
        base, _ = _read_complex(_file_arg(args, 0))
        embedded, _ = generators.embedded_cone(base)
    elif kind == "suspension":
        base, _ = _read_complex(_file_arg(args, 0))
        embedded, _ = generators.embedded_suspension(base)
    elif kind == "join":
        left, _ = _read_complex(_file_arg(args, 0))
        right, _ = _read_complex(_file_arg(args, 1))
        embedded, _ = generators.embedded_join(left, right)
    else:  # pragma: no cover - argparse restricts choices
        raise _CliError(f"unknown generator {kind}")
    io.dump_complex(embedded, sys.stdout)
    return EXIT_OK


def _dim_arg(args) -> int:
    if not args.args:
        raise _CliError(f"generator '{args.kind}' needs a dimension argument")
    try:
        return int(args.args[0])
    except ValueError as exc:
        raise _CliError(f"bad dimension {args.args[0]!r}") from exc


def _file_arg(args, position: int) -> str:
    if len(args.args) <= position:
        raise _CliError(f"generator '{args.kind}' needs a complex file argument")
    return args.args[position]


def _cmd_info(args) -> int:
    embedded, _ = _read_complex(args.complex)
    complex = embedded.complex
    payload = {
        "dimension": complex.dim,
        "ambient_dim": embedded.ambient_dim,
        "f_vector": list(complex.f_vector()),
        "euler_characteristic": complex.euler_characteristic(),
        "two_pseudomanifold": complex.is_two_pseudomanifold(),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _cmd_strata(args) -> int:
    embedded, file_overrides = _read_complex(args.complex)
    overrides = dict(file_overrides)
    if args.overrides:
        try:
            with open(args.overrides, "r", encoding="utf-8") as stream:
                overrides.update(io.overrides_from_payload(json.load(stream)))
        except (OSError, json.JSONDecodeError, FileFormatError) as exc:
            raise _CliError(f"{args.overrides}: {exc}") from exc
    try:
        assignment = stratify(embedded.complex, overrides)
    except KeyError as exc:
        raise _CliError(str(exc)) from exc
    chi_s = stratified_euler_characteristic(embedded.complex, assignment)
    rows = [
        {
            "simplex": list(s),
            "r": assignment.r(s),
            "rank": assignment.rank(s),
            "tier": assignment.tier(s),
        }
        for s in embedded.complex.simplices()
    ]
    if args.format == "json":
        print(
            json.dumps(
                json_ready(
                    {
                        "stratified_euler_characteristic": chi_s,
                        "warnings": assignment.warnings,
                        "rows": rows,
                    }
                ),
                indent=2,
            )
        )
    else:
        _print_table(
            ["simplex", "r", "rank", "tier"],
            [[_cell(r["simplex"]), str(r["r"]), _cell(r["rank"]), r["tier"]] for r in rows],
        )
        for warning in assignment.warnings:
            print(f"warning: {warning}")
        print(f"stratified_euler_characteristic: {format_fraction(chi_s)}")
    return EXIT_OK


def _cmd_angles(args) -> int:
    embedded, _ = _read_complex(args.complex)
    cache = AngleCache(embedded, _angle_config(args))
    pairs = top_angle_pairs(embedded.complex)
    cache.fill(pairs)
    rows = []
    for eta, sigma in pairs:
        a = cache.angle(eta, sigma)
        rows.append(
            {
                "face": list(eta),
                "top": list(sigma),
                "alpha": a.value,
                "std_error": a.std_error,
                "method": a.method,
            }
        )
    if args.format == "json":
        print(json.dumps(json_ready(rows), indent=2))
    else:
        _print_table(
            ["face", "top", "alpha", "std_error", "method"],
            [
                [_cell(r["face"]), _cell(r["top"]), _cell(r["alpha"]), _cell(r["std_error"]), r["method"]]
                for r in rows
            ],
        )
    return EXIT_OK


def _cmd_curvature(args) -> int:
    embedded, overrides = _read_complex(args.complex)
    assignment = stratify(embedded.complex, overrides)
    rows = [
        {"simplex": list(s), "value": cv.value, "std_error": cv.std_error, "exact": cv.exact}
        for s, cv in curvature_table(embedded, args.kind, assignment, _angle_config(args))
    ]
    if args.format == "json":
        print(json.dumps(json_ready({"kind": args.kind, "rows": rows}), indent=2))
    else:
        _print_table(list(rows[0]), [[_cell(v) for v in r.values()] for r in rows])
    return EXIT_OK


def _cmd_hull(args) -> int:
    try:
        with _open_input(args.points) as stream:
            points = io.load_points(stream)
    except FileNotFoundError as exc:
        raise _CliError(f"{args.points}: no such file") from exc
    except (json.JSONDecodeError, KeyError, FileFormatError, ValueError) as exc:
        raise _CliError(f"{args.points}: {exc}") from exc
    embedded = convex_hull_boundary(points)
    io.dump_complex(embedded, sys.stdout)
    return EXIT_OK


def _cmd_subdivide(args) -> int:
    embedded, _ = _read_complex(args.complex)
    if args.barycentric == (args.stellar is not None):
        raise _CliError("choose exactly one of --stellar or --barycentric")
    if args.barycentric:
        pair = barycentric_subdivide(embedded)
    else:
        try:
            simplex = io._vertex_ids(json.loads(args.stellar), "value")
        except ValueError as exc:
            raise _CliError(f"--stellar {args.stellar}: {exc}") from exc
        try:
            pair = stellar_subdivide(embedded, simplex)
        except KeyError as exc:
            raise _CliError(str(exc)) from exc
    io.dump_complex(pair.refined, sys.stdout)
    if args.carrier_out:
        with open(args.carrier_out, "w", encoding="utf-8") as stream:
            json.dump(io.carrier_to_list(pair), stream, indent=2)
            stream.write("\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _angle_config(args)
    z = args.z_threshold
    if args.check == "gauss-bonnet":
        embedded, overrides = _read_complex(args.complex)
        assignment = stratify(embedded.complex, overrides)
        report = gauss_bonnet_check(embedded, assignment, cfg, z=z)
    elif args.check == "vanishing":
        embedded, overrides = _read_complex(args.complex)
        assignment = stratify(embedded.complex, overrides)
        try:
            report = vanishing_check(embedded, assignment, cfg, z=z)
        except HypothesisError as exc:
            print(f"hypothesis failure: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
    elif args.check == "sommerville":
        embedded, _ = _read_complex(args.complex)
        report = sommerville_check(embedded, cfg, z=z)
    else:  # subdivision
        if not args.base:
            raise _CliError("verify subdivision requires --base")
        refined, _ = _read_complex(args.complex)
        base, _ = _read_complex(args.base)
        if args.carrier:
            try:
                with open(args.carrier, "r", encoding="utf-8") as stream:
                    carrier = io.carrier_from_payload(json.load(stream))
            except (OSError, json.JSONDecodeError, FileFormatError) as exc:
                raise _CliError(f"{args.carrier}: {exc}") from exc
            pair = SubdivisionPair(base, refined, carrier)
        else:
            pair = SubdivisionPair(base, refined, compute_carriers(base, refined))
        report = subdivision_relation_check(pair, cfg=cfg, z=z)
    _emit_report(report, args.format)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simcurv",
        description="Angle-defect curvatures of embedded simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sequence", help="print the angle defect weight sequence")
    p.add_argument("--up-to", type=int, required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("generate", help="emit a corpus complex as JSON")
    p.add_argument(
        "kind",
        choices=[
            "simplex-boundary",
            "solid-simplex",
            "cross-polytope",
            "triple-book",
            "random-simplex",
            "cone",
            "suspension",
            "join",
        ],
    )
    p.add_argument("args", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("info", help="f-vector, Euler characteristic, pseudomanifold status")
    p.add_argument("complex")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("strata", help="stratum index, rank, and tier per simplex")
    p.add_argument("complex")
    p.add_argument("--overrides")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_strata)

    p = sub.add_parser("angles", help="solid angles along all top-simplex faces")
    p.add_argument("complex")
    _add_run_options(p)
    p.set_defaults(func=_cmd_angles)

    p = sub.add_parser("curvature", help="per-simplex curvature values")
    p.add_argument("complex")
    p.add_argument(
        "--kind", choices=["defect", "stratified", "ascending"], default="ascending"
    )
    _add_run_options(p)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("verify", help="run a theorem check")
    p.add_argument(
        "check", choices=["gauss-bonnet", "vanishing", "subdivision", "sommerville"]
    )
    p.add_argument("complex")
    p.add_argument("--base", help="base complex (verify subdivision)")
    p.add_argument("--carrier", help="carrier sidecar (verify subdivision)")
    _add_run_options(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("subdivide", help="stellar or barycentric subdivision")
    p.add_argument("complex")
    p.add_argument("--stellar", help="JSON list of vertex ids to star")
    p.add_argument("--barycentric", action="store_true")
    p.add_argument("--carrier-out", help="write the carrier sidecar here")
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("hull", help="brute-force convex hull boundary of a point set")
    p.add_argument("points")
    p.set_defaults(func=_cmd_hull)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (GeometryError, FileFormatError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
