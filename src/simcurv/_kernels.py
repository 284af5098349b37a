"""The Monte Carlo cone-membership count.

One numpy kernel: project sample directions onto the cone's generator
coefficients with a matrix product, then AND the sign tests coefficient by
coefficient.  Each direction z is tested against the cone C and against its
mirror image -C in the same pass over the product (antithetic pairs): z is
in -C exactly when every coefficient is non-positive.  A pointed cone and
its mirror image are disjoint up to the zero direction and have equal
Gaussian measure, so one Gaussian draw yields two cone tests.

The product is formed as ``solve_t.T @ chunk.T``, a (c, rows) array whose
rows are the coefficients, so each sign test runs over contiguous memory
instead of the strided columns of the (rows, c) product.

The count walks its sample block in row chunks of ``COUNT_CHUNK_ROWS``.  A
whole 2^18-row block is one product large enough that OpenBLAS starts its
own worker threads for it, inside every ``AngleCache.fill`` worker thread
(the worker threads of the fill's process-wide pool); on two CPUs that made
four busy threads fighting over two cores, slowing both the product and the
sampling beside it.  Chunked products stay under
OpenBLAS's single-thread cutoff, so the fill threads are the only
parallelism and no ``OPENBLAS_NUM_THREADS`` setting is needed.
"""

from __future__ import annotations

import numpy as np

# OpenBLAS runs a (c, c) @ (c, rows) product on the calling thread while
# rows * c * c <= 2^18; 4096 rows keeps that true up to codimension c = 8,
# and a chunk's samples and coefficients (2 x 256 KiB at c = 8) fit in L2.
COUNT_CHUNK_ROWS = 4096


def count_cone_hits(samples: np.ndarray, solve_t: np.ndarray) -> int:
    """Number of cone tests passed by the sample directions, counting each
    direction once for the cone and once for its mirror image.

    ``samples`` is a (block, c) array of isotropic Gaussian directions and
    ``solve_t`` the transposed inverse of the (column-)generator matrix, so a
    row z is inside the cone precisely when every generator coefficient of z
    is non-negative, and inside the mirror cone when every coefficient is
    non-positive.  The result is ``(m >= 0).all(1).sum() + (m <= 0).all(1).sum()``
    for ``m = samples @ solve_t``: a row whose coefficients are all zero
    (0.0 or -0.0) lies on both closed cones and is counted twice.
    """
    hits = 0
    coeffs_t = solve_t.T
    for start in range(0, samples.shape[0], COUNT_CHUNK_ROWS):
        m = coeffs_t @ samples[start : start + COUNT_CHUNK_ROWS].T
        inside = m[0] >= 0.0
        mirror = m[0] <= 0.0
        for row in m[1:]:
            inside &= row >= 0.0
            mirror &= row <= 0.0
        hits += int(np.count_nonzero(inside)) + int(np.count_nonzero(mirror))
    return hits
