import io
import json
from fractions import Fraction

import numpy as np
import pytest

from simcurv import io as cio
from simcurv.generators import boundary_of_simplex


def payload():
    return cio.complex_to_dict(boundary_of_simplex(2))


def test_version_gate():
    bad = payload()
    bad["version"] = 9
    with pytest.raises(cio.FileFormatError):
        cio.complex_from_dict(bad)


def test_coordinate_length_gate():
    bad = payload()
    bad["vertices"][0] = [1.0]
    with pytest.raises(cio.FileFormatError):
        cio.complex_from_dict(bad)


def test_simplex_index_gate():
    bad = payload()
    bad["maximal_simplices"][0] = [0, 99]
    with pytest.raises(cio.FileFormatError):
        cio.complex_from_dict(bad)


def test_fraction_coordinates_parse_exactly():
    doc = payload()
    doc["vertices"][0] = ["1/2", "-3/4"]
    embedded = cio.complex_from_dict(doc)
    assert embedded.coordinates[0][0] == 0.5
    assert embedded.coordinates[0][1] == -0.75


def test_fraction_formatting_roundtrip():
    assert cio.format_fraction(Fraction(-1, 60)) == "-1/60"
    assert cio.format_fraction(Fraction(5)) == "5"
    assert cio.parse_number("-1/60") == -1.0 / 60.0
    with pytest.raises(cio.FileFormatError):
        cio.parse_number(None)
    # each escaped as ZeroDivisionError or OverflowError
    for entry in ("1/0", "1e400", 10**400):
        with pytest.raises(cio.FileFormatError, match=f"{entry!r} is not a finite number"):
            cio.parse_number(entry)


def test_json_ready_handles_nested_fractions():
    doc = cio.json_ready({"a": Fraction(3, 2), "b": [Fraction(1), {"c": Fraction(0)}]})
    assert json.loads(json.dumps(doc)) == {"a": "3/2", "b": ["1", {"c": "0"}]}


def test_json_default_writes_what_json_ready_writes():
    report = {
        "rank": Fraction(3, 2),
        "whole": Fraction(4),
        "value": np.float64(0.1),
        "single": np.float32(1 / 3),
        "count": np.int64(7),
        "simplex": (0, 1, 2),
        "rows": [[Fraction(-1, 60), np.float64(-2.5e-17), (np.int64(3), "x")], {"nested": [None, True]}],
        "plain": [1.5, 2, "s"],
    }
    text = json.dumps(report, indent=2, default=cio.json_default)
    assert text == json.dumps(cio.json_ready(report), indent=2)
    assert '"rank": "3/2"' in text and '"count": 7' in text
    with pytest.raises(TypeError, match="complex is not JSON serializable"):
        json.dumps({"z": 1j}, default=cio.json_default)


def test_override_payload_validation():
    assert cio.overrides_from_payload([{"simplex": [2, 0], "r": 3}]) == {(0, 2): 3}
    with pytest.raises(cio.FileFormatError):
        cio.overrides_from_payload([{"simplex": [0]}])


def test_duplicate_rank_overrides_rejected():
    # the last entry used to win silently
    entries = [{"simplex": [0, 1], "r": 3}, {"simplex": [1, 0], "r": 5}]
    with pytest.raises(cio.FileFormatError, match=r"more than one rank override for simplex \[0, 1\]"):
        cio.overrides_from_payload(entries)


def test_carrier_payload_validation():
    parsed = cio.carrier_from_payload([{"simplex": [1, 0], "carrier": [0, 1, 2]}])
    assert parsed == {(0, 1): (0, 1, 2)}
    with pytest.raises(cio.FileFormatError):
        cio.carrier_from_payload([{"simplex": [0, 1]}])


def test_duplicate_carrier_entries_rejected():
    # the second entry used to overwrite the first
    entries = [{"simplex": [0, 4], "carrier": [0, 1, 2]}, {"simplex": [4, 0], "carrier": [0, 1]}]
    with pytest.raises(cio.FileFormatError, match=r"more than one carrier entry for simplex \[0, 4\]"):
        cio.carrier_from_payload(entries)


@pytest.mark.parametrize("bad_value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coordinates_rejected(bad_value):
    doc = payload()
    doc["vertices"][1] = [0.0, bad_value]
    with pytest.raises(cio.FileFormatError, match="vertex 1 has a non-finite coordinate"):
        cio.complex_from_dict(doc)
    points = io.StringIO(json.dumps({"points": [[0.0, 0.0], [1.0, 0.0], [bad_value, 1.0]]}))
    with pytest.raises(cio.FileFormatError, match="vertex 2 has a non-finite coordinate"):
        cio.load_points(points)


@pytest.mark.parametrize("bad_id", [1.7, 1.0, True, "1"])
def test_non_integer_vertex_ids_rejected(bad_id):
    doc = payload()
    doc["maximal_simplices"] = [[0, bad_id, 2]]
    with pytest.raises(cio.FileFormatError, match=r"maximal simplex \[0, .*, 2\] must be a list of integer"):
        cio.complex_from_dict(doc)


@pytest.mark.parametrize("bad_r", [1.7, True, "1"])
def test_non_integer_override_rank_rejected(bad_r):
    entry = {"simplex": [0, 1], "r": bad_r}
    with pytest.raises(cio.FileFormatError, match="bad override entry") as info:
        cio.overrides_from_payload([entry])
    assert repr(entry) in str(info.value)
    with pytest.raises(cio.FileFormatError, match="bad override entry"):
        cio.overrides_from_payload([{"simplex": [0, 1.5], "r": 1}])


def test_non_integer_ambient_dim_and_carrier_ids_rejected():
    doc = payload()
    doc["ambient_dim"] = 2.5
    with pytest.raises(cio.FileFormatError, match="ambient_dim must be an integer"):
        cio.complex_from_dict(doc)
    with pytest.raises(cio.FileFormatError, match="bad carrier entry"):
        cio.carrier_from_payload([{"simplex": [0, 1], "carrier": [0, 1.2, 2]}])
