import numpy as np
import pytest

from simcurv._kernels import count_cone_hits


def reference_count(z: np.ndarray, solve_t: np.ndarray) -> int:
    return int(((z @ solve_t) >= 0).all(axis=1).sum())


@pytest.mark.parametrize("c", range(1, 7))
def test_count_matches_row_reduction(c):
    rng = np.random.Generator(np.random.Philox(c))
    z = rng.standard_normal((5000, c))
    solve_t = rng.standard_normal((c, c))
    assert count_cone_hits(z, solve_t) == reference_count(z, solve_t)


@pytest.mark.parametrize("c", range(1, 7))
def test_count_treats_zero_coefficients_as_inside(c):
    # samples with 0.0 and -0.0 entries under a positive diagonal give exact
    # zero coefficients, which lie on the cone's closed boundary
    rng = np.random.Generator(np.random.Philox(100 + c))
    z = rng.standard_normal((4000, c))
    z[rng.random(z.shape) < 0.2] = 0.0
    z[rng.random(z.shape) < 0.2] = -0.0
    z[:50] = np.abs(z[:50])
    z[:25, 0] = -0.0
    solve_t = np.diag(rng.uniform(0.5, 2.0, c))
    m = z @ solve_t
    assert (m == 0.0).any()
    hits = count_cone_hits(z, solve_t)
    assert hits == reference_count(z, solve_t)
    assert hits >= 50


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 50_000, 262_144])
@pytest.mark.parametrize("c", range(1, 9))
def test_count_matches_row_reduction_at_chunk_edges(rows, c):
    rng = np.random.Generator(np.random.Philox(1000 * c + rows))
    z = rng.standard_normal((rows, c))
    solve_t = rng.standard_normal((c, c))
    assert count_cone_hits(z, solve_t) == reference_count(z, solve_t)
