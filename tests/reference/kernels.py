"""The counting lane ``repro.core.kernels.group_rows_sum`` ran before it
built its compact slots with ``np.unique``.

Three passes over the whole id universe per call: a ``bincount`` with
``minlength=num_rows``, a ``flatnonzero`` for the unique ids and a
bool -> int64 ``cumsum`` for the id -> compact-slot map, then the same
flat float64 ``bincount`` over (slot, dim) keys the current lane runs.
Kept as the bitwise oracle for that lane.
"""

import numpy as np


def group_rows_sum_counting(
    ids: np.ndarray, rows: np.ndarray, num_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique ids and their summed rows, rounded onto ``rows``'
    lane; ``ids`` must be non-empty and inside ``[0, num_rows)``."""
    ids = np.asarray(ids, dtype=np.int64)
    dim = rows.shape[1]
    counts = np.bincount(ids, minlength=num_rows)
    uniq = np.flatnonzero(counts)
    slots = np.cumsum(counts > 0, dtype=np.int64)
    slots -= 1
    keys = slots[ids][:, None] * dim + np.arange(dim, dtype=np.int64)
    summed = np.bincount(
        keys.ravel(), weights=rows.ravel(), minlength=uniq.size * dim
    )
    return uniq, summed.reshape(uniq.size, dim).astype(rows.dtype, copy=False)
