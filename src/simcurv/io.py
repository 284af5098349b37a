"""File formats: complexes, point sets, stratum overrides, carrier sidecars.

One canonical JSON format for embedded complexes:

    {
      "version": 1,
      "ambient_dim": d,
      "vertices": [[x, ...], ...],          # row index == vertex id
      "maximal_simplices": [[i, ...], ...],
      "rank_overrides": [{"simplex": [...], "r": k}, ...]   # optional
    }

Coordinates may be JSON numbers or exact "p/q" strings.  Exact rationals in
reports are always serialized as "p/q" strings.

A carrier sidecar lists {"simplex": [...], "carrier": [...]} entries: one per
refined vertex as written, any others (older sidecars had every simplex) as
read, each checked by ``SubdivisionPair``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import IO, Any

import numpy as np

from simcurv.complexes import Simplex, SimplicialComplex, as_simplex
from simcurv.geometry import EmbeddedComplex
from simcurv.subdivision import SubdivisionPair

FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """Malformed or out-of-range content in an input file."""


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def parse_number(entry: Any) -> float:
    if isinstance(entry, bool) or not isinstance(entry, (str, int, float)):
        raise FileFormatError(f"expected a number or 'p/q' string, got {entry!r}")
    try:
        return float(Fraction(entry)) if isinstance(entry, str) else float(entry)
    except (ZeroDivisionError, OverflowError) as exc:  # "1/0", "1e400", 10**400
        raise FileFormatError(f"{entry!r} is not a finite number") from exc


def _is_integer(entry: Any) -> bool:
    # int() would truncate 1.7, true and "1" to 1, so only JSON integers pass
    return isinstance(entry, int) and not isinstance(entry, bool)


def _integer(entry: Any, what: str) -> int:
    if not _is_integer(entry):
        raise FileFormatError(f"{what} must be an integer, got {entry!r}")
    return entry


def _list(entry: Any, what: str) -> list:
    # iterating a number or taking its len() would raise TypeError, which is
    # no input error
    if not isinstance(entry, list):
        raise FileFormatError(f"{what} must be a list, got {entry!r}")
    return entry


def _vertex_ids(entry: Any, what: str) -> Simplex:
    if not isinstance(entry, list) or not all(_is_integer(v) for v in entry):
        raise FileFormatError(f"{what} {entry!r} must be a list of integer vertex ids")
    return as_simplex(entry)


def _finite_row(i: int, row: Any) -> np.ndarray:
    point = np.array([parse_number(x) for x in _list(row, f"vertex {i}")])
    if not np.isfinite(point).all():
        raise FileFormatError(f"vertex {i} has a non-finite coordinate: {list(row)!r}")
    return point


def complex_to_dict(embedded: EmbeddedComplex) -> dict:
    order = sorted(embedded.complex.vertices())
    position = {v: i for i, v in enumerate(order)}
    return {
        "version": FORMAT_VERSION,
        "ambient_dim": embedded.ambient_dim,
        "vertices": [[float(x) for x in embedded.coordinates[v]] for v in order],
        "maximal_simplices": sorted(
            sorted(position[v] for v in m) for m in embedded.complex.maximal
        ),
    }


def complex_from_dict(payload: dict) -> EmbeddedComplex:
    try:
        version = payload["version"]
        ambient = _integer(payload["ambient_dim"], "ambient_dim")
        vertices = payload["vertices"]
        maximal = payload["maximal_simplices"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"missing complex field: {exc}") from exc
    if version != FORMAT_VERSION:
        raise FileFormatError(f"unsupported format version {version}")
    coords = {}
    for i, row in enumerate(_list(vertices, "vertices")):
        if len(_list(row, f"vertex {i}")) != ambient:
            raise FileFormatError(
                f"vertex {i} has {len(row)} coordinates, expected {ambient}"
            )
        coords[i] = _finite_row(i, row)
    for m in _list(maximal, "maximal_simplices"):
        for v in _vertex_ids(m, "maximal simplex"):
            if not 0 <= v < len(vertices):
                raise FileFormatError(f"simplex {m} references unknown vertex {v}")
    complex = SimplicialComplex(maximal)
    return EmbeddedComplex(complex, coords, ambient)


def overrides_from_payload(payload: Any) -> dict[Simplex, int]:
    overrides = {}
    for entry in _list(payload, "rank overrides"):
        try:
            simplex = _vertex_ids(entry["simplex"], "override simplex")
            r = _integer(entry["r"], "override rank r")
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"bad override entry {entry!r}") from exc
        if simplex in overrides:
            raise FileFormatError(f"more than one rank override for simplex {list(simplex)}")
        overrides[simplex] = r
    return overrides


def load_complex(stream: IO[str]) -> tuple[EmbeddedComplex, dict[Simplex, int]]:
    payload = json.load(stream)
    embedded = complex_from_dict(payload)
    overrides = overrides_from_payload(payload.get("rank_overrides", []))
    return embedded, overrides


def dump_complex(embedded: EmbeddedComplex, stream: IO[str]) -> None:
    json.dump(complex_to_dict(embedded), stream, indent=2)
    stream.write("\n")


def load_points(stream: IO[str]) -> np.ndarray:
    payload = json.load(stream)
    if isinstance(payload, dict) and "points" not in payload:
        raise FileFormatError("missing point set field: 'points'")
    rows = payload["points"] if isinstance(payload, dict) else payload
    points = [_finite_row(i, row) for i, row in enumerate(_list(rows, "points"))]
    for i, point in enumerate(points):
        if len(point) != len(points[0]):
            raise FileFormatError(
                f"vertex {i} has {len(point)} coordinates, expected {len(points[0])}"
            )
    return np.array(points)


def carrier_to_list(pair: SubdivisionPair) -> list[dict]:
    return [
        {"simplex": list(tau), "carrier": list(pair.carrier[tau])}
        for tau in pair.refined.complex.simplices(0)
    ]


def carrier_from_payload(payload: Any) -> dict[Simplex, Simplex]:
    carrier = {}
    for entry in _list(payload, "carrier sidecar"):
        try:
            simplex = _vertex_ids(entry["simplex"], "carrier entry simplex")
            zeta = _vertex_ids(entry["carrier"], "carrier")
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"bad carrier entry {entry!r}") from exc
        if simplex in carrier:
            raise FileFormatError(f"more than one carrier entry for simplex {list(simplex)}")
        carrier[simplex] = zeta
    return carrier


def json_default(value: Any) -> Any:
    """The JSON value of a report scalar that ``json`` cannot write itself:
    an exact rational as a "p/q" string, a numpy scalar as a Python number.
    ``json.dumps(report, default=json_default)`` writes what
    ``json.dumps(json_ready(report))`` writes, without the copy."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_ready(value: Any) -> Any:
    """Recursively convert report values into JSON-serializable types."""
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, (Fraction, np.floating, np.integer)):
        return json_default(value)
    return value
