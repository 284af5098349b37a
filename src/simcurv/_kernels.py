"""The Monte Carlo cone-membership count.

One numpy kernel: project sample directions onto the cone's generator
coefficients with a matrix product, then AND the sign tests column by
column.  The column-wise AND touches each coefficient once and avoids the
row reduction of ``.all(axis=1)``, which dominates at small codimension.

The count walks its sample block in row chunks of ``COUNT_CHUNK_ROWS``.  A
whole 2^18-row block is one product large enough that OpenBLAS starts its
own worker threads for it, inside every ``AngleCache.fill`` thread; on two
CPUs that made four busy threads fighting over two cores, slowing both the
product and the Philox sampling beside it.  Chunked products stay under
OpenBLAS's single-thread cutoff, so the fill threads are the only
parallelism and no ``OPENBLAS_NUM_THREADS`` setting is needed.  A chunk's
product rows are bitwise those of the whole-block product, so every count
is unchanged.  On a 2-vCPU VM the median ``mc_gauss_bonnet`` benchmark
pass fell from 1.48 s to 0.66 s (ten before/after pairs), and in a traced
pass the count itself fell from 0.98 to 0.22 thread-seconds over the same
1.36e7 rows.
"""

from __future__ import annotations

import numpy as np

# OpenBLAS runs a (rows, c) @ (c, c) product on the calling thread while
# rows * c * c <= 2^18; 4096 rows keeps that true up to codimension c = 8,
# and a chunk's samples and coefficients (2 x 256 KiB at c = 8) fit in L2.
COUNT_CHUNK_ROWS = 4096


def count_cone_hits(samples: np.ndarray, solve_t: np.ndarray) -> int:
    """Number of sample directions lying inside the simplicial cone.

    ``samples`` is a (block, c) array of isotropic Gaussian directions and
    ``solve_t`` the transposed inverse of the (column-)generator matrix, so a
    row z is inside precisely when every generator coefficient of z is
    non-negative.
    """
    hits = 0
    for start in range(0, samples.shape[0], COUNT_CHUNK_ROWS):
        m = samples[start : start + COUNT_CHUNK_ROWS] @ solve_t
        inside = m[:, 0] >= 0.0
        for j in range(1, m.shape[1]):
            inside &= m[:, j] >= 0.0
        hits += int(np.count_nonzero(inside))
    return hits
