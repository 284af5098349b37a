"""The Monte Carlo cone-membership count.

One numpy kernel: project sample directions onto the cone's generator
coefficients with a matrix product, then AND the sign tests coefficient by
coefficient.  Each direction z is tested against 2c images of the cone C at
once: P^s z in C and P^s z in -C for the c cyclic shifts P^s of the
coordinates (s = 0 is z itself).  P^s z is isotropic Gaussian like z, so
every test has the cone's Gaussian measure p, and one Gaussian draw yields
2c cone tests; P^s z is in -C exactly when every coefficient is
non-positive.  The coefficients of P^s z are z times ``solve_t`` with its
rows rolled by s, so each shift costs one (c, c) @ (c, rows) product, and
its sign tests go into one (c, c, rows) boolean array for all shifts.  (One
stacked (c^2, c) product instead took 0.6-0.8 ms on 33,334 rows at c = 3
against 0.25 ms for the three separate ones, 2-vCPU VM.)

The images may overlap (a wide cone, or one the shift maps to itself), so
the count returns the sums of the per-direction count X in {0, ..., 2c} and
of X^2, from which the caller takes the sample variance of X.

Each product is formed as ``rolled[s] @ chunk.T``, a (c, rows) array whose
rows are the coefficients, so each sign test runs over contiguous memory
instead of the strided columns of a (rows, c) product.

The count walks its sample block in row chunks of ``count_chunk_rows(c)``.
A whole 2^18-row block is one product large enough that OpenBLAS starts its
own worker threads for it, inside every ``AngleCache.fill`` worker thread
(the worker threads of the fill's process-wide pool); on two CPUs that made
four busy threads fighting over two cores, slowing both the product and the
sampling beside it.  Chunked products stay under
OpenBLAS's single-thread cutoff, so the fill threads are the only
parallelism and no ``OPENBLAS_NUM_THREADS`` setting is needed.
"""

from __future__ import annotations

import numpy as np

# OpenBLAS runs an (m, k) @ (k, n) product on the calling thread while
# m * n * k <= 2^18.
BLAS_SINGLE_THREAD_MNK = 1 << 18


def count_chunk_rows(c: int) -> int:
    """Rows per chunk at codimension c: the most with rows * c^3 <= 2^18
    (9709 rows at c = 3, 512 at c = 8), and at least one.  Even the c
    products of a chunk as one stacked (c^2, c) @ (c, rows) product would
    stay under OpenBLAS's single-thread cutoff, and the chunk's buffers stay
    in L2: at c = 8, 4096-row chunks took 3.7 ms on 12,500 rows against
    1.8 ms for 512-row ones."""
    return max(BLAS_SINGLE_THREAD_MNK // c**3, 1)


def count_cone_hits(samples: np.ndarray, solve_t: np.ndarray) -> tuple[int, int]:
    """(sum of X, sum of X^2) over the sample directions, where X counts the
    cone tests a direction passes: its c cyclic shifts, each tested against
    the cone and its mirror image.

    ``samples`` is a (block, c) array of isotropic Gaussian directions and
    ``solve_t`` the transposed inverse of the (column-)generator matrix, so a
    row z is inside the cone precisely when every generator coefficient of z
    is non-negative, and inside the mirror cone when every coefficient is
    non-positive.  For ``m = np.roll(z, -s) @ solve_t`` a row adds
    ``(m >= 0).all() + (m <= 0).all()`` to X for each shift s: a row whose
    coefficients are all zero (0.0 or -0.0) lies on both closed cones for
    every shift, and has X = 2c.
    """
    c = solve_t.shape[0]
    # rolled[s] is solve_t with its rows rolled by s, transposed
    shifts = (np.arange(c)[None, :] - np.arange(c)[:, None]) % c
    rolled = solve_t[shifts].swapaxes(1, 2).copy()
    rows = min(count_chunk_rows(c), max(samples.shape[0], 1))
    # one set of buffers for all chunks, the coefficients one shift at a
    # time: larger or per-chunk buffers left glibc returning freed pages to
    # the system after each angle, and the page faults on reuse doubled the
    # count's time in the fill threads
    m = np.empty((c, rows))
    inside = np.empty((c, c, rows), dtype=bool)
    mirror = np.empty((c, c, rows), dtype=bool)
    # X <= 2c and X^2 fit these for any c whose solver fits in memory
    x = np.empty(rows, dtype=np.uint16)
    x_mirror = np.empty(rows, dtype=np.uint16)
    hits = square_sum = 0
    for start in range(0, samples.shape[0], rows):
        z_t = samples[start : start + rows].T
        if z_t.shape[1] < rows:
            m, inside, mirror, x, x_mirror = (a[..., : z_t.shape[1]] for a in (m, inside, mirror, x, x_mirror))
        # inside[s, k] and mirror[s, k]: the sign tests of coefficient k of
        # shift s, for every row of the chunk
        for s in range(c):
            np.matmul(rolled[s], z_t, out=m)
            np.greater_equal(m, 0.0, out=inside[s])
            np.less_equal(m, 0.0, out=mirror[s])
        # AND each shift's sign tests into its coefficient 0
        for k in range(1, c):
            inside[:, 0] &= inside[:, k]
            mirror[:, 0] &= mirror[:, k]
        np.add.reduce(inside[:, 0], axis=0, dtype=np.uint16, out=x)
        np.add.reduce(mirror[:, 0], axis=0, dtype=np.uint16, out=x_mirror)
        x += x_mirror
        hits += int(x.sum())
        square_sum += int(np.square(x, dtype=np.uint32).sum())
    return hits, square_sum
