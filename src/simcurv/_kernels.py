"""The Monte Carlo cone-membership count.

One numpy kernel: project a block of sample directions onto the cone's
generator coefficients with a single matrix product, then AND the sign tests
column by column.  The column-wise AND touches each coefficient once and
avoids the row reduction of ``.all(axis=1)``, which dominates at small
codimension.
"""

from __future__ import annotations

import numpy as np


def count_cone_hits(samples: np.ndarray, solve_t: np.ndarray) -> int:
    """Number of sample directions lying inside the simplicial cone.

    ``samples`` is a (block, c) array of isotropic Gaussian directions and
    ``solve_t`` the transposed inverse of the (column-)generator matrix, so a
    row z is inside precisely when every generator coefficient of z is
    non-negative.
    """
    m = samples @ solve_t
    inside = m[:, 0] >= 0.0
    for j in range(1, m.shape[1]):
        inside &= m[:, j] >= 0.0
    return int(np.count_nonzero(inside))
