import errno
import io as stdio
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simcurv import io as cio
from simcurv.cli import _angle_config, build_parser, main
from simcurv.curvature import DEFAULT_Z
from simcurv.generators import boundary_of_simplex, cross_polytope, triple_book
from simcurv.geometry import AngleConfig
from simcurv.subdivision import SubdivisionPair, barycentric_subdivide, stellar_subdivide


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


def test_duplicate_rank_overrides_exit_2(capsys, tmp_path):
    path = tmp_path / "book.json"
    payload = cio.complex_to_dict(triple_book())
    duplicate = [{"simplex": [0, 3], "r": 4}, {"simplex": [3, 0], "r": 6}]
    over = tmp_path / "over.json"
    over.write_text(json.dumps(duplicate))
    for overrides, argv in ((duplicate, ()), ([], ("--overrides", str(over)))):
        payload["rank_overrides"] = overrides
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "strata", str(path), *argv)
        assert code == 2
        assert out == ""
        assert "more than one rank override for simplex [0, 3]" in err
    # an --overrides entry still replaces the file's own override of a simplex
    payload["rank_overrides"] = [{"simplex": [0, 3], "r": 6}]
    path.write_text(json.dumps(payload))
    over.write_text(json.dumps([{"simplex": [0, 3], "r": 4}]))
    code, out, _ = run_cli(capsys, "strata", str(path), "--overrides", str(over), "--format", "json")
    assert code == 0
    row = [r for r in json.loads(out)["rows"] if r["simplex"] == [0, 3]][0]
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["0"], "n must be at least 1"),
        (["-1"], "n must be at least 1"),
        (["1", "--seed", "-1"], None),
        (["3", "--seed", "-1"], None),
    ],
)
def test_random_simplex_input_exits_2_or_succeeds(capsys, argv, message):
    # 0 and -1 used to end in numpy's "zero-size array" and "negative
    # dimensions" errors, a negative seed in "expected non-negative integer"
    code, out, err = run_cli(capsys, "generate", "random-simplex", *argv)
    if message is None:
        assert code == 0 and err == ""
        assert cio.complex_from_dict(json.loads(out)).complex.dim == int(argv[0])
    else:
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_random_simplex_masks_a_negative_seed_to_64_bits(capsys):
    _, negative, _ = run_cli(capsys, "generate", "random-simplex", "3", "--seed", "-1")
    _, masked, _ = run_cli(capsys, "generate", "random-simplex", "3", "--seed", str(2**64 - 1))
    assert negative == masked


def test_seed_and_thread_determinism(capsys, tmp_path):
    path = tmp_path / "dD4.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(4), handle)
    commands = [
        ["verify", "gauss-bonnet", str(path)],
        ["verify", "vanishing", str(path)],
        ["verify", "sommerville", str(path)],
        ["curvature", str(path), "--kind", "defect"],
        ["curvature", str(path), "--kind", "stratified"],
        ["curvature", str(path), "--kind", "ascending"],
        ["angles", str(path)],
    ]
    for command in commands:
        outputs = []
        for threads in ("1", "3"):
            code, out, _ = run_cli(
                capsys,
                *command,
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
        assert outputs[0] == outputs[1], command


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


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"vertices": 5}, "missing point set field: 'points'"),
        ([[1], [2]], "points must lie in R^d with d >= 2, got d = 1"),
        ([[], []], "points must lie in R^d with d >= 2, got d = 0"),
        ({"points": [[0, 0], [1, 0, 0], [0, 1]]}, "vertex 1 has 3 coordinates, expected 2"),
    ],
    ids=["no_points_field", "line", "point", "ragged"],
)
def test_bad_hull_input_exits_2_with_one_error_line(capsys, tmp_path, payload, message):
    path = tmp_path / "points.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "hull", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def _sidecar_command(tmp_path, option, sidecar):
    """A command that reads ``sidecar`` as its ``option`` file."""
    path = tmp_path / "s2.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(3), handle)
    if option == "--overrides":
        return ["strata", str(path), "--overrides", str(sidecar)]
    return ["verify", "subdivision", str(path), "--base", str(path), "--carrier", str(sidecar)]


@pytest.mark.parametrize("option", ["--overrides", "--carrier"])
def test_missing_sidecar_exits_2_naming_no_such_file(capsys, tmp_path, option):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(capsys, *_sidecar_command(tmp_path, option, missing))
    assert code == 2
    assert out == ""
    assert err == f"error: {missing}: no such file\n"


@pytest.mark.parametrize("option", ["--overrides", "--carrier"])
def test_directory_sidecar_exits_2(capsys, tmp_path, option):
    directory = tmp_path / "sidecar"
    directory.mkdir()
    code, out, err = run_cli(capsys, *_sidecar_command(tmp_path, option, directory))
    assert code == 2
    assert out == ""
    assert err == f"error: {directory}: {os.strerror(errno.EISDIR)}\n"


@pytest.fixture
def sphere3_file(tmp_path):
    path = tmp_path / "dD4.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(4), handle)
    return str(path)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_non_positive_threads_exit_2(capsys, sphere3_file, threads):
    code, out, err = run_cli(
        capsys, "verify", "gauss-bonnet", sphere3_file, "--samples", "1000", "--threads", threads
    )
    assert code == 2
    assert out == ""
    assert f"threads must be at least 1, got {threads}" in err


@pytest.mark.parametrize("z", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize(
    "command", [["verify", "vanishing"], ["verify", "sommerville"], ["verify", "gauss-bonnet"]]
)
def test_bad_z_threshold_exits_2(capsys, sphere3_file, command, z):
    # -1, 0 and nan used to fail every Monte Carlo row (exit 1); inf passed every one
    code, out, err = run_cli(
        capsys, *command, sphere3_file, "--samples", "1000", "--z-threshold", z
    )
    assert code == 2
    assert out == ""
    assert f"--z-threshold must be a positive finite number, got {float(z)}" in err


@pytest.mark.parametrize("argv", [["angles", "c.json"], ["curvature", "c.json"], ["verify", "sommerville", "c.json"]])
def test_run_option_defaults_are_the_library_defaults(argv):
    args = build_parser().parse_args(argv)
    assert _angle_config(args) == AngleConfig()
    if argv[0] == "verify":
        assert args.z_threshold == DEFAULT_Z


@pytest.mark.parametrize("command", ["angles", "curvature"])
def test_z_threshold_is_a_verify_option_only(capsys, sphere3_file, command):
    # neither command decides a verdict, so neither takes a threshold
    with pytest.raises(SystemExit) as exit_info:
        main([command, sphere3_file, "--samples", "1000", "--z-threshold", "4"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --z-threshold 4" in captured.err


@pytest.mark.parametrize("option", ["--base", "--carrier"])
@pytest.mark.parametrize("check", ["gauss-bonnet", "vanishing", "sommerville"])
def test_base_and_carrier_are_verify_subdivision_options_only(
    capsys, tmp_path, sphere3_file, check, option
):
    # the file is never read, so a missing one shows the option was refused
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(
        capsys, "verify", check, sphere3_file, "--samples", "1000", option, str(missing)
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {option} is an option of verify subdivision only\n"


@pytest.mark.parametrize("bad_id", [1.7, True, "1"])
def test_non_integer_vertex_id_exits_2(capsys, tmp_path, bad_id):
    # int() used to read [0, 1.7, 2] as the triangle [0, 1, 2]
    payload = {
        "version": 1,
        "ambient_dim": 2,
        "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "maximal_simplices": [[0, bad_id, 2]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 2
    assert out == ""
    assert "must be a list of integer vertex ids" in err


@pytest.mark.parametrize("bad_r", [1.7, True, "1"])
def test_non_integer_override_rank_exits_2(capsys, tmp_path, bad_r):
    path = tmp_path / "book.json"
    with path.open("w") as handle:
        cio.dump_complex(triple_book(), handle)
    over = tmp_path / "over.json"
    over.write_text(json.dumps([{"simplex": [0, 3], "r": bad_r}]))
    code, out, err = run_cli(capsys, "strata", str(path), "--overrides", str(over))
    assert code == 2
    assert out == ""
    assert "bad override entry" in err
    payload = cio.complex_to_dict(triple_book())
    payload["rank_overrides"] = [{"simplex": [0, 3], "r": bad_r}]
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "strata", str(path))
    assert code == 2
    assert "bad override entry" in err


def test_sequence_rejects_negative_up_to(capsys):
    code, out, err = run_cli(capsys, "sequence", "--up-to", "-3")
    assert code == 2
    assert out == ""
    assert "--up-to must be at least 0, got -3" in err


@pytest.mark.parametrize("value", ["5", "null", "[0.7, 1]"])
def test_subdivide_rejects_non_vertex_list_stellar(capsys, tmp_path, value):
    # [0.7, 1] used to be truncated to the edge [0, 1]
    path = tmp_path / "dD3.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(3), handle)
    code, out, err = run_cli(capsys, "subdivide", str(path), "--stellar", value)
    assert code == 2
    assert out == ""
    assert f"--stellar {value}:" in err and "integer vertex ids" in err


def _barycentric_sidecar(capsys, tmp_path):
    """Write boundary_of_simplex(3), its barycentric subdivision and the
    carrier sidecar; return the three paths and the sidecar's entries."""
    base_path = tmp_path / "dD3.json"
    with base_path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(3), handle)
    carrier_path = tmp_path / "carrier.json"
    code, out, _ = run_cli(
        capsys, "subdivide", str(base_path), "--barycentric", "--carrier-out", str(carrier_path)
    )
    assert code == 0
    refined_path = tmp_path / "refined.json"
    refined_path.write_text(out)
    return base_path, refined_path, carrier_path, json.loads(carrier_path.read_text())


def _verify_subdivision(capsys, base_path, refined_path, carrier_path):
    return run_cli(
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
    )


def test_verify_subdivision_rejects_carrier_outside_base(capsys, tmp_path):
    # a_1 = 0, so the carrier of an edge never enters a form; it must still
    # be a simplex of the base
    base_path, refined_path, carrier_path, entries = _barycentric_sidecar(capsys, tmp_path)
    entries.append({"simplex": [0, 4], "carrier": [0, 9]})
    carrier_path.write_text(json.dumps(entries))
    code, out, err = _verify_subdivision(capsys, base_path, refined_path, carrier_path)
    assert code == 2
    assert out == ""
    assert "carrier [0, 9] of [0, 4] is not a simplex of the base complex" in err


def test_verify_subdivision_rejects_wrong_base_carrier(capsys, tmp_path):
    # [0, 2] is a base simplex, but not the carrier of the edge from vertex 0
    # to the midpoint 4 of [0, 1]
    base_path, refined_path, carrier_path, entries = _barycentric_sidecar(capsys, tmp_path)
    assert _verify_subdivision(capsys, base_path, refined_path, carrier_path)[0] == 0
    entries.append({"simplex": [0, 4], "carrier": [0, 2]})
    carrier_path.write_text(json.dumps(entries))
    code, out, err = _verify_subdivision(capsys, base_path, refined_path, carrier_path)
    assert code == 2
    assert out == ""
    assert "carrier [0, 2] of [0, 4] is not [0, 1], the union of its vertices' carriers" in err


def test_verify_subdivision_rejects_duplicate_carrier_entries(capsys, tmp_path):
    base_path, refined_path, carrier_path, entries = _barycentric_sidecar(capsys, tmp_path)
    carrier_path.write_text(json.dumps([{"simplex": [4], "carrier": [0, 1, 2]}, *entries]))
    code, out, err = _verify_subdivision(capsys, base_path, refined_path, carrier_path)
    assert code == 2
    assert out == ""
    assert "more than one carrier entry for simplex [4]" in err


def test_carrier_out_writes_one_entry_per_refined_vertex(capsys, tmp_path):
    base = boundary_of_simplex(3)
    entries = _barycentric_sidecar(capsys, tmp_path)[3]
    # refined vertex i is the barycenter of the i-th base simplex
    assert entries == [
        {"simplex": [i], "carrier": list(simplex)}
        for i, simplex in enumerate(base.complex.simplices())
    ]


def _verify_stellar_book(capsys, tmp_path, base_overrides, refined_overrides):
    """``verify subdivision`` on the triple book starred at its spine
    triangle, with the given rank overrides in the base and refined files."""
    base = cio.complex_to_dict(triple_book())
    base_path = tmp_path / "book.json"
    base_path.write_text(json.dumps(base))
    code, out, _ = run_cli(capsys, "subdivide", str(base_path), "--stellar", "[0, 1, 2]")
    assert code == 0
    refined = json.loads(out)
    base["rank_overrides"], refined["rank_overrides"] = base_overrides, refined_overrides
    base_path.write_text(json.dumps(base))
    refined_path = tmp_path / "refined.json"
    refined_path.write_text(json.dumps(refined))
    return run_cli(
        capsys, "verify", "subdivision", str(refined_path), "--base", str(base_path),
        "--samples", "2000", "--format", "json",
    )


def test_verify_subdivision_applies_rank_overrides_of_both_files(capsys, tmp_path):
    code, plain, _ = _verify_stellar_book(capsys, tmp_path, [], [])
    assert code == 0
    override = [{"simplex": [0], "r": 6}]
    for base_overrides, refined_overrides in ((override, []), ([], override)):
        code, out, _ = _verify_stellar_book(capsys, tmp_path, base_overrides, refined_overrides)
        assert code == 1 and out != plain
        row = next(r for r in json.loads(out)["rows"] if r["simplex"] == [0])
        assert not row["pass"]


@pytest.mark.parametrize("side", ["base", "refined"])
def test_verify_subdivision_rejects_override_of_unknown_simplex(capsys, tmp_path, side):
    unknown = [{"simplex": [0, 99], "r": 6}]
    overrides = (unknown, []) if side == "base" else ([], unknown)
    code, out, err = _verify_stellar_book(capsys, tmp_path, *overrides)
    assert code == 2
    assert out == ""
    assert "override references unknown simplex (0, 99)" in err


@pytest.mark.parametrize("target", ["missing/carrier.json", "."], ids=["missing_dir", "directory"])
def test_unwritable_carrier_out_exits_2_printing_nothing(capsys, tmp_path, target):
    path = tmp_path / "dD3.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(3), handle)
    carrier_out = tmp_path / target
    code, out, err = run_cli(
        capsys, "subdivide", str(path), "--barycentric", "--carrier-out", str(carrier_out)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {carrier_out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["info", "strata", "hull"])
def test_directory_input_exits_2(capsys, tmp_path, command):
    code, out, err = run_cli(capsys, command, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["info", "strata", "hull"])
def test_missing_input_exits_2_naming_no_such_file(capsys, tmp_path, command):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(capsys, command, str(missing))
    assert code == 2
    assert out == ""
    assert err == f"error: {missing}: no such file\n"


_TRIANGLE = {
    "version": 1,
    "ambient_dim": 2,
    "vertices": [[0, 0], [1, 0], [0, 1]],
    "maximal_simplices": [[0, 1, 2]],
}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("info", {**_TRIANGLE, "vertices": 5}, "vertices must be a list, got 5"),
        ("info", {**_TRIANGLE, "vertices": [3]}, "vertex 0 must be a list, got 3"),
        ("info", {**_TRIANGLE, "maximal_simplices": 7}, "maximal_simplices must be a list, got 7"),
        ("strata", {**_TRIANGLE, "rank_overrides": 5}, "rank overrides must be a list, got 5"),
        ("hull", {"points": 5}, "points must be a list, got 5"),
        ("hull", {"points": [[0, 0], [1, 0], 5]}, "vertex 2 must be a list, got 5"),
        (
            "info",
            {**_TRIANGLE, "vertices": [[0, 0], [1, False], [0, 1]]},
            "expected a number or 'p/q' string, got False",
        ),
        (
            "hull",
            {"points": [[True, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]},
            "expected a number or 'p/q' string, got True",
        ),
        ("info", {**_TRIANGLE, "vertices": [[0, 0], ["1/0", 0], [0, 1]]}, "'1/0' is not a finite number"),
        ("info", {**_TRIANGLE, "vertices": [[0, 0], [1, 0], [0, "1e400"]]}, "'1e400' is not a finite number"),
        ("hull", {"points": [[0, 0, 0], [1, 0, 0], [0, "1/0", 0], [0, 0, 1]]}, "'1/0' is not a finite number"),
        ("hull", {"points": [["1e400", 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "'1e400' is not a finite number"),
    ],
    ids=[
        "vertices", "vertex_row", "maximal_simplices", "rank_overrides", "points", "point_row",
        "vertex_boolean", "point_boolean", "vertex_zero_denominator", "vertex_overflow",
        "point_zero_denominator", "point_overflow",
    ],
)
def test_malformed_shape_exits_2_with_one_error_line(capsys, tmp_path, command, payload, message):
    # each used to end in a traceback (TypeError, or ZeroDivisionError and
    # OverflowError for "1/0" and "1e400") and exit 1, except the booleans,
    # which were read as the coordinates 0.0 and 1.0 (exit 0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("mode", [["--barycentric"], ["--stellar", "[0, 1, 2]"]])
def test_verify_subdivision_locates_carriers_like_the_sidecar(capsys, tmp_path, mode):
    base_path = tmp_path / "dD3.json"
    with base_path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(3), handle)
    carrier_path = tmp_path / "carrier.json"
    code, out, _ = run_cli(
        capsys, "subdivide", str(base_path), *mode, "--carrier-out", str(carrier_path)
    )
    assert code == 0
    refined_path = tmp_path / "refined.json"
    refined_path.write_text(out)
    # the older sidecar format: one entry per refined simplex
    full_path = tmp_path / "full.json"
    refined = cio.complex_from_dict(json.loads(out))
    vertices = cio.carrier_from_payload(json.loads(carrier_path.read_text()))
    pair = SubdivisionPair(boundary_of_simplex(3), refined, vertices)
    full_path.write_text(
        json.dumps([{"simplex": list(t), "carrier": list(z)} for t, z in pair.carrier.items()])
    )
    command = ["verify", "subdivision", str(refined_path), "--base", str(base_path)]
    for fmt in ("table", "json"):
        options = ["--samples", "2000", "--format", fmt]
        code, located, _ = run_cli(capsys, *command, *options)
        assert code == 0
        for sidecar in (carrier_path, full_path):
            code, given, _ = run_cli(capsys, *command, "--carrier", str(sidecar), *options)
            assert code == 0
            assert located == given


def test_verify_subdivision_refuses_a_chord_through_the_base(capsys, tmp_path):
    # the edge [3, 4] joins a base vertex to the new vertex inside [0, 1, 2]:
    # its carrier would be [0, 1, 2, 3], which is no simplex of the sphere
    sphere = boundary_of_simplex(3)
    base_path = tmp_path / "dD3.json"
    with base_path.open("w") as handle:
        cio.dump_complex(sphere, handle)
    refined = cio.complex_to_dict(stellar_subdivide(sphere, (0, 1, 2)).refined)
    refined["maximal_simplices"].append([3, 4])
    refined_path = tmp_path / "chord.json"
    refined_path.write_text(json.dumps(refined))
    code, out, err = run_cli(
        capsys, "verify", "subdivision", str(refined_path), "--base", str(base_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "carrier [0, 1, 2, 3] of [3, 4] is not a simplex of the base complex" in err


def test_verify_subdivision_refuses_a_partial_refinement(capsys, tmp_path):
    # three of the four triangles of the sphere: every vertex is located, and
    # the check ran and exited 1 as if the theorem had failed
    sphere = boundary_of_simplex(3)
    base_path = tmp_path / "dD3.json"
    with base_path.open("w") as handle:
        cio.dump_complex(sphere, handle)
    part = cio.complex_to_dict(sphere)
    part["maximal_simplices"] = [t for t in part["maximal_simplices"] if t != [1, 2, 3]]
    assert len(part["maximal_simplices"]) == 3
    refined_path = tmp_path / "part.json"
    refined_path.write_text(json.dumps(part))
    code, out, err = run_cli(
        capsys, "verify", "subdivision", str(refined_path), "--base", str(base_path)
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: the refined simplices carried by [1, 2, 3] do not subdivide it: "
        "their Euler characteristic is 0, not 1\n"
    )


@pytest.mark.parametrize("sidecar", ["overrides", "carrier"])
def test_sidecar_that_is_not_a_list_exits_2(capsys, tmp_path, sidecar):
    base_path, refined_path, _, _ = _barycentric_sidecar(capsys, tmp_path)
    bad = tmp_path / "sidecar.json"
    bad.write_text("5")
    if sidecar == "overrides":
        code, out, err = run_cli(capsys, "strata", str(base_path), "--overrides", str(bad))
        message = "rank overrides must be a list, got 5"
    else:
        code, out, err = _verify_subdivision(capsys, base_path, refined_path, bad)
        message = "carrier sidecar must be a list, got 5"
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: {message}\n"



def test_info_and_strata_print_tables_by_default(capsys, sphere3_file):
    code, out, err = run_cli(capsys, "info", sphere3_file)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "dimension: 3",
        "ambient_dim: 4",
        "f_vector: [5, 10, 10, 5]",
        "euler_characteristic: 0",
        "two_pseudomanifold: True",
    ]
    code, out, err = run_cli(capsys, "strata", sphere3_file)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == ["simplex       r  rank  tier", "[0]           2  1     exact"]
    assert lines[-1] == "stratified_euler_characteristic: 0"


@pytest.mark.parametrize(
    "argv, header, row",
    [
        (
            ["angles"],
            "face          top           alpha         std_error      method",
            "[0, 1, 2]     [0, 1, 2, 3]  0.5           0              exact",
        ),
        (
            ["curvature"],
            "simplex       value           std_error     exact",
            "[0, 1]        0               0             True",
        ),
        (
            ["verify", "gauss-bonnet"],
            "exact  simplex       std_error     value",
            "True   [1, 2, 3, 4]  0             0",
        ),
    ],
    ids=["angles", "curvature", "verify-gauss-bonnet"],
)
def test_run_commands_print_one_table_at_any_thread_count(capsys, sphere3_file, argv, header, row):
    outputs = []
    for threads in ("1", "2"):
        code, out, err = run_cli(capsys, *argv, sphere3_file, "--samples", "1000", "--threads", threads)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert header in lines and row in lines
    if argv[0] == "verify":
        assert lines[0] == "check: gauss-bonnet"
        assert "  verdict: pass (z = 4.0)" in lines


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "simplex-boundary"], "generator 'simplex-boundary' takes 1 argument, got 0"),
        (["generate", "simplex-boundary", "3", "4"], "generator 'simplex-boundary' takes 1 argument, got 2"),
        (["generate", "triple-book", "5"], "generator 'triple-book' takes 0 arguments, got 1"),
        (["generate", "simplex-boundary", "x"], "bad dimension 'x'"),
        (["verify", "subdivision", "{complex}"], "verify subdivision requires --base"),
        (
            ["verify", "subdivision", "{refined}", "--base", "{sphere3}"],
            "points of length 3 cannot be located in R^4",
        ),
        (
            ["verify", "subdivision", "{refined}", "--base", "{sphere3}", "--carrier", "{carrier}"],
            "the refined complex has dimension 2 in R^3, the base complex 3 in R^4",
        ),
        (["subdivide", "{complex}", "--stellar", "[0, 9]"], "(0, 9) is not in the complex"),
        (["strata", "{complex}", "--overrides", "{overrides}"], "override references unknown simplex (0, 9)"),
    ],
    ids=[
        "no-dimension",
        "two-dimensions",
        "book-argument",
        "bad-dimension",
        "no-base",
        "base-of-another-dimension",
        "base-of-another-dimension-with-carrier",
        "unknown-stellar",
        "unknown-override",
    ],
)
def test_input_errors_exit_2_with_one_plain_message(capsys, tmp_path, argv, message):
    # a KeyError's message is printed as it is, not as its repr in quotes.
    # Extra generator arguments were ignored; a base of another dimension
    # ended in numpy's "Incompatible dimensions", or with --carrier in a
    # subdivision check that failed and exited 1
    pair = barycentric_subdivide(boundary_of_simplex(3))
    files = {
        name: tmp_path / f"{name}.json"
        for name in ("complex", "refined", "sphere3", "carrier", "overrides")
    }
    for name, embedded in [
        ("complex", pair.base),
        ("refined", pair.refined),
        ("sphere3", boundary_of_simplex(4)),
    ]:
        with files[name].open("w") as handle:
            cio.dump_complex(embedded, handle)
    files["carrier"].write_text(json.dumps(cio.carrier_to_list(pair)))
    files["overrides"].write_text(json.dumps([{"simplex": [0, 9], "r": 3}]))
    argv = [arg.format(**files) for arg in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["angles", "{complex}", "--samples", "1000", "--format", "json"],
        ["generate", "cross-polytope", "8"],
    ],
    ids=["written-at-exit", "written-by-print"],
)
def test_closed_stdout_exits_141_without_a_traceback(tmp_path, argv):
    # the read end is closed before the CLI starts, as `| head -1` may close
    # it before the CLI writes.  With stdout buffered (8 kB), the 4.4 kB of
    # angles stay in the buffer until the end, the 24 kB complex does not
    path = tmp_path / "dD3.json"
    with path.open("w") as handle:
        cio.dump_complex(boundary_of_simplex(3), handle)
    src = Path(cio.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "simcurv", *(arg.format(complex=path) for arg in argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**env, "PYTHONPATH": str(src)},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, "")
