import json

import pytest

from simcurv import sommerville_check
from simcurv import io as cio
from simcurv.cli import main
from simcurv.curvature import DEFAULT_Z, _verdict
from simcurv.generators import boundary_of_simplex, cross_polytope, random_simplex
from simcurv.geometry import AngleCache, AngleConfig, sommerville_residuals


@pytest.mark.parametrize(
    "embedded, seed, expected_pairs",
    [
        (random_simplex(3, seed=1), 1, 4),
        (random_simplex(3, seed=2), 2, 4),
        (random_simplex(5, seed=3), 3, 26),
        (cross_polytope(4), 4, 64),  # 16 tetrahedra, 4 vertices each
    ],
    ids=["3-1", "3-2", "5-3", "cross-polytope-4"],
)
def test_check_rows_match_per_pair_residuals(embedded, seed, expected_pairs):
    cfg = AngleConfig(samples=20_000, seed=seed, threads=2)
    report = sommerville_check(embedded, cfg)
    lazy = AngleCache(embedded, cfg)
    assert report.name == "sommerville"
    assert report.summary["pairs"] == len(report.rows) == expected_pairs
    for row in report.rows:
        res = sommerville_residuals(row["sigma"], row["tau"], embedded, cache=lazy)
        for form in ("alternating", "defect"):
            assert row[f"{form}_residual"] == res[f"{form}_residual"]
            assert row[f"{form}_std_error"] == res[f"{form}_std_error"]
        old_rule = all(
            abs(res[f"{form}_residual"]) <= max(DEFAULT_Z * res[f"{form}_std_error"], 1e-9)
            for form in ("alternating", "defect")
        )
        assert row["pass"] == old_rule
    worst = max(report.rows, key=lambda r: abs(r["alternating_residual"]))
    assert report.summary["worst_residual"] == worst["alternating_residual"]
    assert report.passed == all(r["pass"] for r in report.rows)


@pytest.mark.parametrize("z", [0.25, 1.0, DEFAULT_Z])
def test_a_row_passes_exactly_when_its_alternating_verdict_does(z):
    report = sommerville_check(cross_polytope(4), AngleConfig(samples=2000, seed=5), z=z)
    for row in report.rows:
        assert row["pass"] == _verdict(row["alternating_residual"], row["alternating_std_error"], z)
        # halved residual and halved error: the defect form's verdict is the same
        assert row["pass"] == _verdict(row["defect_residual"], row["defect_std_error"], z)
    if z < 1:
        assert 0 < sum(row["pass"] for row in report.rows) < len(report.rows)


def test_check_fills_every_monte_carlo_angle_in_one_batch(monkeypatch):
    # cross_polytope(4): 16 tetrahedra, each with 4 vertex angles of codimension 3
    added = []
    fill = AngleCache.fill

    def recording_fill(self, pairs):
        before = set(self._values)
        fill(self, pairs)
        new = self._values.keys() - before
        added.append(sum(self._values[pair].method == "monte_carlo" for pair in new))

    monkeypatch.setattr(AngleCache, "fill", recording_fill)
    sommerville_check(cross_polytope(4), AngleConfig(samples=1000, seed=0, threads=2))
    assert [count for count in added if count] == [64]


def test_check_rejects_even_dimension():
    with pytest.raises(ValueError, match="odd"):
        sommerville_check(boundary_of_simplex(3), AngleConfig(samples=1000))


def test_cli_sommerville_fails_at_tiny_z(capsys, tmp_path):
    path = tmp_path / "tet.json"
    path.write_text(json.dumps(cio.complex_to_dict(random_simplex(3, seed=4))))
    code = main(
        [
            "verify",
            "sommerville",
            str(path),
            "--samples",
            "50000",
            "--seed",
            "7",
            "--z-threshold",
            "0.01",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["passed"] is False
    assert payload["z_threshold"] == 0.01
