"""Hot Index Filter (Fig. 7, inference path step 2).

On every serving request, LiveUpdate must decide per sparse id whether the
LoRA adjustment applies: "hot" ids (recently updated by the online trainer)
are served ``W_base[i] + A[i] B``; cold ids take the plain base-table path.
The filter is a per-field membership mask: an id is hot from the trainer
step that marks it until the next :meth:`HotIndexFilter.clear` (when the
trainer merges its adapters into the base tables or resets them at a full
sync).  Nothing expires in between.

Each field's id universe is its table's row count, so a field is one
boolean per table row: ``mark`` is a scatter and ``is_hot`` one
range-checked gather, O(batch) with no search, no per-id Python loop, and
no mask unless a batch carries an out-of-universe id (which is cold).  That
costs 1 byte per table row, metadata outside the paper's <2 % overhead
figure, which counts only the adapters' ``A`` and ``B`` factors
(:meth:`repro.core.trainer.LoRATrainer.memory_bytes`).
"""

from __future__ import annotations

import numpy as np

from .kernels import gather_in_range

__all__ = ["HotIndexFilter"]


class HotIndexFilter:
    """Per-field recently-updated-id membership filter.

    Args:
        num_rows: id-universe size (table row count) of each field; ids
            outside ``[0, num_rows)`` are cold.
    """

    def __init__(self, num_rows: list[int]) -> None:
        if not num_rows:
            raise ValueError("need at least one field")
        self._marked = [np.zeros(n, dtype=bool) for n in num_rows]

    def mark(self, field: int, ids: np.ndarray) -> None:
        """Record ids as hot (trainer update callback)."""
        marked = self._marked[field]
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= marked.size):
            ids = ids[(ids >= 0) & (ids < marked.size)]
        marked[ids] = True

    def is_hot(self, field: int, ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``ids`` are currently hot."""
        return gather_in_range(
            self._marked[field], np.asarray(ids, dtype=np.int64), False
        )

    def __call__(self, field: int, ids: np.ndarray) -> np.ndarray:
        """Alias so the filter plugs into :meth:`LoRACollection.overlay`."""
        return self.is_hot(field, ids)

    def clear(self) -> None:
        for marked in self._marked:
            marked[:] = False
