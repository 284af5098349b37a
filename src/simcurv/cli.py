"""Command-line front end.

Subcommands: generate, info, strata, angles, curvature, verify, subdivide,
hull, sequence.  Exit codes: 0 on success/pass, 1 on a failed theorem check,
2 on usage or input errors, 141 when stdout is closed early (``| head``).

All randomized commands honor --seed; with the same seed and any --threads
value the emitted report is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from simcurv import generators, io, sequences
from simcurv.curvature import (
    DEFAULT_Z,
    _KINDS,
    HypothesisError,
    TheoremReport,
    _row,
    curvature_table,
    gauss_bonnet_check,
    sommerville_check,
    subdivision_relation_check,
    vanishing_check,
)
from simcurv.geometry import (
    AngleCache,
    AngleConfig,
    convex_hull_boundary,
    top_angle_pairs,
)
from simcurv.io import format_fraction
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
_EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a process SIGPIPE ended


class _CliError(Exception):
    pass


def _message(exc: Exception) -> str:
    """The text of ``exc``; a KeyError's str() would be the repr of it."""
    return exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)


def _open_input(path: str):
    return sys.stdin if path == "-" else open(path, "r", encoding="utf-8")


def _load_input(path: str, load):
    """``load`` applied to the input ``path`` ("-" is stdin); a file that
    cannot be opened or parsed is an input error naming the path."""
    try:
        with _open_input(path) as stream:
            return load(stream)
    except FileNotFoundError as exc:
        raise _CliError(f"{path}: no such file") from exc
    except OSError as exc:  # a directory, no read permission, ...
        raise _CliError(f"{path}: {exc.strerror or exc}") from exc
    except (KeyError, ValueError) as exc:  # malformed JSON, content or geometry
        raise _CliError(f"{path}: {_message(exc)}") from exc


def _read_complex(path: str):
    return _load_input(path, io.load_complex)


def _read_sidecar(path: str, parse):
    """``parse`` applied to the JSON in the sidecar file ``path``."""
    return _load_input(path, lambda stream: parse(json.load(stream)))


def _read_stratified(path: str):
    """The embedded complex in ``path``, stratified with its rank overrides."""
    embedded, overrides = _read_complex(path)
    return embedded, stratify(embedded.complex, overrides)


def _angle_config(args) -> AngleConfig:
    return AngleConfig(samples=args.samples, seed=args.seed, threads=args.threads)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=AngleConfig.samples)
    parser.add_argument("--seed", type=int, default=AngleConfig.seed)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--format", choices=["table", "json"], default="table")


def _emit_rows(fmt: str, rows: list[dict], payload=None, footer=()) -> None:
    """Print ``payload`` (default: the rows) as JSON, or the rows as a table
    with the footer lines under it."""
    if fmt == "json":
        print(json.dumps(rows if payload is None else payload, indent=2, default=io.json_default))
        return
    _print_table(list(rows[0]), [[_cell(v) for v in row.values()] for row in rows])
    for line in footer:
        print(line)


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
        print(json.dumps(report.to_dict(), indent=2, default=io.json_default))
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
    io.dump_complex(_GENERATORS[args.kind](args), sys.stdout)
    return EXIT_OK


def _dim_arg(args) -> int:
    if not args.args:
        raise _CliError(f"generator '{args.kind}' needs a dimension argument")
    try:
        return int(args.args[0])
    except ValueError as exc:
        raise _CliError(f"bad dimension {args.args[0]!r}") from exc


def _file_complex(args, position: int):
    """The embedded complex in the generator's file argument ``position``."""
    if len(args.args) <= position:
        raise _CliError(f"generator '{args.kind}' needs a complex file argument")
    return _read_complex(args.args[position])[0]


# The corpus generators: the parser's choices and their dispatch.
_GENERATORS = {
    "simplex-boundary": lambda args: generators.boundary_of_simplex(_dim_arg(args)),
    "solid-simplex": lambda args: generators.solid_simplex(_dim_arg(args)),
    "cross-polytope": lambda args: generators.cross_polytope(_dim_arg(args)),
    "triple-book": lambda args: generators.triple_book(),
    "random-simplex": lambda args: generators.random_simplex(_dim_arg(args), seed=args.seed),
    "cone": lambda args: generators.embedded_cone(_file_complex(args, 0))[0],
    "suspension": lambda args: generators.embedded_suspension(_file_complex(args, 0))[0],
    "join": lambda args: generators.embedded_join(
        _file_complex(args, 0), _file_complex(args, 1)
    )[0],
}


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
    embedded, overrides = _read_complex(args.complex)
    if args.overrides:
        overrides = {**overrides, **_read_sidecar(args.overrides, io.overrides_from_payload)}
    assignment = stratify(embedded.complex, overrides)
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
    payload = {
        "stratified_euler_characteristic": chi_s,
        "warnings": assignment.warnings,
        "rows": rows,
    }
    footer = [f"warning: {warning}" for warning in assignment.warnings]
    footer.append(f"stratified_euler_characteristic: {format_fraction(chi_s)}")
    _emit_rows(args.format, rows, payload, footer)
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
    _emit_rows(args.format, rows)
    return EXIT_OK


def _cmd_curvature(args) -> int:
    embedded, assignment = _read_stratified(args.complex)
    table = curvature_table(embedded, args.kind, assignment, _angle_config(args))
    rows = [_row(s, cv) for s, cv in table]
    _emit_rows(args.format, rows, {"kind": args.kind, "rows": rows})
    return EXIT_OK


def _cmd_hull(args) -> int:
    embedded = convex_hull_boundary(_load_input(args.points, io.load_points))
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
        pair = stellar_subdivide(embedded, simplex)
    if args.carrier_out:  # written first, so a bad path prints nothing
        try:
            with open(args.carrier_out, "w", encoding="utf-8") as stream:
                json.dump(io.carrier_to_list(pair), stream, indent=2)
                stream.write("\n")
        except OSError as exc:
            raise _CliError(f"{args.carrier_out}: {exc.strerror or exc}") from exc
    io.dump_complex(pair.refined, sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    z = args.z_threshold
    if not (math.isfinite(z) and z > 0):
        raise _CliError(f"--z-threshold must be a positive finite number, got {z}")
    if args.check != "subdivision":
        for flag in ("base", "carrier"):
            if getattr(args, flag) is not None:
                raise _CliError(f"--{flag} is an option of verify subdivision only")
    cfg = _angle_config(args)
    if args.check == "gauss-bonnet":
        embedded, assignment = _read_stratified(args.complex)
        report = gauss_bonnet_check(embedded, assignment, cfg, z=z)
    elif args.check == "vanishing":
        embedded, assignment = _read_stratified(args.complex)
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
        refined, refined_assignment = _read_stratified(args.complex)
        base, base_assignment = _read_stratified(args.base)
        if args.carrier:
            carrier = _read_sidecar(args.carrier, io.carrier_from_payload)
        else:
            carrier = compute_carriers(base, refined)
        pair = SubdivisionPair(base, refined, carrier)
        report = subdivision_relation_check(pair, base_assignment, refined_assignment, cfg, z=z)
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
    p.add_argument("kind", choices=list(_GENERATORS))
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
    p.add_argument("--kind", choices=_KINDS, default="ascending")
    _add_run_options(p)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("verify", help="run a theorem check")
    p.add_argument(
        "check", choices=["gauss-bonnet", "vanishing", "subdivision", "sommerville"]
    )
    p.add_argument("complex")
    p.add_argument("--base", help="base complex (verify subdivision)")
    p.add_argument("--carrier", help="carrier sidecar (verify subdivision)")
    p.add_argument("--z-threshold", type=float, default=DEFAULT_Z)
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
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the interpreter's last flush of stdout reaches nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_CLOSED_STDOUT
    except (_CliError, ValueError, KeyError) as exc:  # GeometryError, FileFormatError included
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
