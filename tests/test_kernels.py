import numpy as np
import pytest

from simcurv._kernels import BLAS_SINGLE_THREAD_MNK, count_chunk_rows, count_cone_hits


def reference_count(z: np.ndarray, solve_t: np.ndarray) -> tuple[int, int]:
    """(sum X, sum X^2) by brute force: X counts, row by row, the 2c images
    +-P^s z that lie in the cone, one (rows, c) product per shift."""
    x = np.zeros(len(z), dtype=np.int64)
    for s in range(solve_t.shape[0]):
        m = np.roll(z, s, axis=1) @ solve_t
        x += (m >= 0).all(1)
        x += (m <= 0).all(1)
    return int(x.sum()), int((x * x).sum())


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
    hits, square_sum = count_cone_hits(z, solve_t)
    assert (hits, square_sum) == reference_count(z, solve_t)
    # a non-negative row is inside the orthant under every shift
    assert hits >= 50 * c


def test_zero_rows_pass_all_2c_tests():
    # a zero row lies on both closed cones for every shift: X = 2c
    for c in range(1, 9):
        rng = np.random.Generator(np.random.Philox(200 + c))
        z = rng.standard_normal((1000, c))
        z[::5] = 0.0
        z[1::5] = -0.0
        solve_t = rng.standard_normal((c, c))
        zeros = 400
        hits, square_sum = count_cone_hits(z, solve_t)
        assert (hits, square_sum) == reference_count(z, solve_t)
        rest_hits, rest_squares = count_cone_hits(z[np.arange(1000) % 5 >= 2], solve_t)
        assert count_cone_hits(z[:0], solve_t) == (0, 0)
        assert hits == rest_hits + zeros * 2 * c
        assert square_sum == rest_squares + zeros * (2 * c) ** 2


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 50_000, 262_144])
@pytest.mark.parametrize("c", range(1, 9))
def test_count_matches_row_reduction_at_chunk_edges(rows, c):
    rng = np.random.Generator(np.random.Philox(1000 * c + rows))
    z = rng.standard_normal((rows, c))
    solve_t = rng.standard_normal((c, c))
    assert count_cone_hits(z, solve_t) == reference_count(z, solve_t)


@pytest.mark.parametrize("c", range(2, 9))
def test_count_matches_row_reduction_at_its_own_chunk_edges(c):
    chunk = count_chunk_rows(c)
    for rows in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        rng = np.random.Generator(np.random.Philox(7000 * c + rows))
        z = rng.standard_normal((rows, c))
        solve_t = rng.standard_normal((c, c))
        assert count_cone_hits(z, solve_t) == reference_count(z, solve_t)


@pytest.mark.parametrize("c", range(1, 9))
def test_chunk_products_stay_under_the_single_thread_cutoff(c):
    # a chunk's c products as one stacked (c^2, c) @ (c, rows) product:
    # m * n * k = rows * c^3
    assert BLAS_SINGLE_THREAD_MNK == 1 << 18
    rows = count_chunk_rows(c)
    assert rows >= 1
    assert rows * c**3 <= 1 << 18 < (rows + 1) * c**3


def test_count_works_past_the_cutoff_and_the_byte_range():
    # at c = 130 no chunk fits the cutoff, and a zero row's X = 260 and its
    # square overflow 8 and 16 bits.  Under the identity solver every shift
    # of a negative row is in -C alone (X = 130), and a row with entries of
    # both signs is in no image (X = 0)
    c = 130
    assert count_chunk_rows(c) == 1
    z = -np.abs(np.random.Generator(np.random.Philox(c)).standard_normal((3, c)))
    z[1] = 0.0
    z[2, 5] = 1.0
    assert count_cone_hits(z, np.eye(c)) == (260 + 130, 260**2 + 130**2)
    assert count_cone_hits(z, np.eye(c)) == reference_count(z, np.eye(c))


def test_half_line_counts_each_nonzero_row_once():
    # at c = 1 the one shift is the identity and a nonzero row lies in
    # exactly one of C and -C; a zero row (0.0 or -0.0) lies on both closed
    # half-lines and is counted twice
    rng = np.random.Generator(np.random.Philox(7))
    z = rng.standard_normal((10_000, 1))
    solve_t = np.array([[0.8]])
    assert count_cone_hits(z, solve_t) == (len(z), len(z))
    assert count_cone_hits(z, -solve_t) == (len(z), len(z))
    z[::7] = 0.0
    z[3::7] = -0.0
    zeros = int(np.count_nonzero(z == 0.0))
    assert zeros > 0
    hits, square_sum = count_cone_hits(z, solve_t)
    assert hits == len(z) + zeros
    assert square_sum == len(z) + 3 * zeros
    assert (hits, square_sum) == reference_count(z, solve_t)
