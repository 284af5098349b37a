import io as stdio
import json
import sys

import numpy as np
import pytest

from simcurv import io as cio
from simcurv.cli import main
from simcurv.generators import boundary_of_simplex, cross_polytope, triple_book


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr(sys, "stdin", stdio.StringIO(text))
    return run_cli(capsys, *argv)


def test_sequence_output(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--up-to", "4", "--check")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:5] == ["a_0 = 1", "a_1 = 0", "a_2 = -1/2", "a_3 = 0", "a_4 = 1"]
    assert lines[5].endswith("pass")


def test_generate_info_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "generate", "simplex-boundary", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == 1
    path = tmp_path / "dD3.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "info", str(path), "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert info["f_vector"] == [4, 6, 4]
    assert info["euler_characteristic"] == 2
    assert info["two_pseudomanifold"] is True


@pytest.mark.parametrize(
    "embedded_factory",
    [
        lambda: boundary_of_simplex(3),
        lambda: boundary_of_simplex(4),
        lambda: cross_polytope(3),
        lambda: triple_book(),
    ],
)
def test_json_roundtrip_identity(embedded_factory):
    embedded = embedded_factory()
    payload = cio.complex_to_dict(embedded)
    again = cio.complex_from_dict(json.loads(json.dumps(payload)))
    assert again.complex == embedded.complex
    for v in embedded.complex.vertices():
        assert np.allclose(again.coordinates[v], embedded.coordinates[v])
    assert cio.complex_to_dict(again) == payload


def test_generate_join_cone_suspension(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "generate", "simplex-boundary", "2")
    assert code == 0
    circle = tmp_path / "circle.json"
    circle.write_text(out)

    code, out, _ = run_cli(capsys, "generate", "join", str(circle), str(circle))
    assert code == 0
    payload = json.loads(out)
    joined = cio.complex_from_dict(payload)
    assert joined.complex.f_vector() == (6, 15, 18, 9)

    code, out, _ = run_cli(capsys, "generate", "cone", str(circle))
    assert code == 0
    cone = cio.complex_from_dict(json.loads(out))
    assert cone.complex.f_vector() == (4, 6, 3)

    code, out, _ = run_cli(capsys, "generate", "suspension", str(circle))
    assert code == 0
    susp = cio.complex_from_dict(json.loads(out))
    assert susp.complex.f_vector() == (5, 9, 6)
    assert susp.complex.euler_characteristic() == 2

    code, _, err = run_cli(capsys, "generate", "join", str(circle))
    assert code == 2  # missing second factor


def test_strata_command(capsys, tmp_path):
    path = tmp_path / "book.json"
    with path.open("w") as handle:
        cio.dump_complex(triple_book(), handle)
    code, out, _ = run_cli(capsys, "strata", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stratified_euler_characteristic"] == "0"
    shared = [r for r in payload["rows"] if r["simplex"] == [0, 1, 2]][0]
    assert shared["r"] == 3 and shared["rank"] == "3/2"


def test_strata_overrides(capsys, tmp_path):
    path = tmp_path / "book.json"
    with path.open("w") as handle:
        cio.dump_complex(triple_book(), handle)
    over = tmp_path / "over.json"
    over.write_text(json.dumps([{"simplex": [0, 3], "r": 4}]))
    code, out, _ = run_cli(
        capsys, "strata", str(path), "--overrides", str(over), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    row = [r for r in payload["rows"] if r["simplex"] == [0, 3]][0]
    assert row["r"] == 4 and row["tier"] == "override"


def test_angles_command(capsys, tmp_path):
    path = tmp_path / "dD3.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(3), handle)
    code, out, _ = run_cli(
        capsys, "angles", str(path), "--samples", "2000", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert all(0.0 <= r["alpha"] <= 1.0 for r in rows)
    assert any(r["method"] == "exact" for r in rows)


def test_curvature_command(capsys, tmp_path):
    path = tmp_path / "dD3.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(3), handle)
    code, out, _ = run_cli(
        capsys, "curvature", str(path), "--kind", "stratified", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    assert all(abs(r["value"] - 0.5) < 1e-9 for r in rows)


def test_curvature_defect_kind(capsys, tmp_path):
    path = tmp_path / "dD3.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(3), handle)
    code, out, _ = run_cli(
        capsys, "curvature", str(path), "--kind", "defect", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    by_dim = {}
    for row in rows:
        by_dim.setdefault(len(row["simplex"]), []).append(row)
    assert all(abs(r["value"] - 0.5) < 1e-9 for r in by_dim[1])
    assert all(r["value"] == 0.0 and r["exact"] for r in by_dim[2])
    assert all(r["value"] == 0.0 and r["exact"] for r in by_dim[3])


def test_rank_overrides_embedded_in_complex_file(capsys, tmp_path):
    payload = cio.complex_to_dict(triple_book())
    payload["rank_overrides"] = [{"simplex": [0, 3], "r": 6}]
    path = tmp_path / "book.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "strata", str(path), "--format", "json")
    assert code == 0
    row = [r for r in json.loads(out)["rows"] if r["simplex"] == [0, 3]][0]
    assert row["r"] == 6 and row["tier"] == "override"


def test_verify_pipeline_from_stdin(capsys, monkeypatch, tmp_path):
    code, out, _ = run_cli(capsys, "generate", "simplex-boundary", "4")
    assert code == 0
    code, out2, _ = run_cli_stdin(
        capsys,
        monkeypatch,
        out,
        "verify",
        "gauss-bonnet",
        "-",
        "--samples",
        "20000",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out2)
    assert payload["passed"] is True
    assert payload["summary"]["rhs"] == "0"


def test_verify_vanishing_failure_exit_code(capsys, tmp_path):
    path = tmp_path / "book.json"
    with path.open("w") as handle:
        cio.dump_complex(triple_book(), handle)
    code, _, err = run_cli(
        capsys, "verify", "vanishing", str(path), "--samples", "2000"
    )
    assert code == 1
    assert "hypothesis" in err


def test_verify_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify", "vanishing", "missing.json")
    assert code == 2
    assert "missing.json" in err


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "info", str(path))
    assert code == 2


def test_subdivide_and_verify_subdivision(capsys, tmp_path):
    base_path = tmp_path / "dD3.json"
    with base_path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(3), handle)
    carrier_path = tmp_path / "carrier.json"
    code, out, _ = run_cli(
        capsys,
        "subdivide",
        str(base_path),
        "--stellar",
        "[0, 1, 2]",
        "--carrier-out",
        str(carrier_path),
    )
    assert code == 0
    refined_path = tmp_path / "refined.json"
    refined_path.write_text(out)
    assert json.loads(carrier_path.read_text())
    code, out, _ = run_cli(
        capsys,
        "verify",
        "subdivision",
        str(refined_path),
        "--base",
        str(base_path),
        "--carrier",
        str(carrier_path),
        "--samples",
        "2000",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_subdivide_requires_exactly_one_mode(capsys, tmp_path):
    path = tmp_path / "dD3.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(3), handle)
    code, _, err = run_cli(capsys, "subdivide", str(path))
    assert code == 2


def test_hull_command(capsys, tmp_path):
    points = {"points": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]}
    path = tmp_path / "octa.json"
    path.write_text(json.dumps(points))
    code, out, _ = run_cli(capsys, "hull", str(path))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["maximal_simplices"]) == 8


def test_hull_of_shipped_seven_point_file(capsys):
    # the packaged point file (exact p/q strings) feeds straight into hull
    from importlib import resources

    path = resources.files("simcurv.data").joinpath("seven_point_configuration.json")
    code, out, _ = run_cli(capsys, "hull", str(path))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 7
    hull = cio.complex_from_dict(payload)
    assert hull.complex.euler_characteristic() == 2


def test_verify_sommerville_rejects_even_dimension(capsys, tmp_path):
    path = tmp_path / "dD3.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(3), handle)
    code, _, err = run_cli(capsys, "verify", "sommerville", str(path))
    assert code == 2
    assert "odd" in err


def test_verify_sommerville_on_random_simplex(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "generate", "random-simplex", "3", "--seed", "4")
    assert code == 0
    code, out2, _ = run_cli_stdin(
        capsys,
        monkeypatch,
        out,
        "verify",
        "sommerville",
        "-",
        "--samples",
        "50000",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out2)
    assert payload["passed"] is True
    assert payload["summary"]["pairs"] == 4


def test_seed_and_thread_determinism(capsys, tmp_path):
    path = tmp_path / "dD4.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(4), handle)
    outputs = []
    for threads in ("1", "3"):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "gauss-bonnet",
            str(path),
            "--samples",
            "20000",
            "--seed",
            "9",
            "--threads",
            threads,
            "--format",
            "json",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("bad_value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_vertex_exits_2_naming_the_vertex(capsys, tmp_path, bad_value):
    payload = cio.complex_to_dict(boundary_of_simplex(3))
    payload["vertices"][2][1] = bad_value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    for argv in (["info", str(path)], ["verify", "gauss-bonnet", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "vertex 2 has a non-finite coordinate" in err
        assert "SVD" not in err


def test_non_finite_hull_point_exits_2_naming_the_vertex(capsys, tmp_path):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1], [float("nan"), 1]]}))
    code, out, err = run_cli(capsys, "hull", str(path))
    assert code == 2
    assert out == ""
    assert "vertex 3 has a non-finite coordinate" in err


@pytest.fixture
def sphere3_file(tmp_path):
    path = tmp_path / "dD4.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(4), handle)
    return str(path)


def test_bad_thread_env_exits_2_naming_the_variable(capsys, monkeypatch, sphere3_file):
    monkeypatch.setenv("ASC_CURV_THREADS", "abc")
    code, out, err = run_cli(capsys, "verify", "gauss-bonnet", sphere3_file, "--samples", "1000")
    assert code == 2
    assert out == ""
    assert "ASC_CURV_THREADS" in err and "'abc'" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_non_positive_threads_exit_2(capsys, sphere3_file, threads):
    code, out, err = run_cli(
        capsys, "verify", "gauss-bonnet", sphere3_file, "--samples", "1000", "--threads", threads
    )
    assert code == 2
    assert out == ""
    assert f"threads must be at least 1, got {threads}" in err
