"""The LoRA step and overlay the single-resolution path replaced."""

import numpy as np


def _occurrence_index(slots: np.ndarray) -> np.ndarray:
    """Per-row count of earlier rows with the same slot (0 for first)."""
    order = np.argsort(slots, kind="stable")
    sorted_slots = slots[order]
    _, counts = np.unique(sorted_slots, return_counts=True)
    group_start = np.repeat(np.cumsum(counts) - counts, counts)
    occ = np.empty(slots.size, dtype=np.int64)
    occ[order] = np.arange(slots.size) - group_start
    return occ


def accumulate_grad_rounds(adapter, ids, grad_rows, lr: float) -> int:
    """Occurrence-round SGD on ``adapter``: round ``r`` applies every id's
    ``r``-th gradient row, so repeated ids see their earlier rows' update
    (the sequential semantics) while distinct ids go through one matmul."""
    ids = np.asarray(ids, dtype=np.int64)
    grad_rows = np.asarray(grad_rows, dtype=np.float64)
    slots = adapter.activate_batch(ids)
    valid = slots >= 0
    updated = int(valid.sum())
    if not updated:
        return 0
    v_slots = slots[valid]
    grads = grad_rows[valid]
    occurrence = _occurrence_index(v_slots)
    grad_b = np.zeros_like(adapter.b)
    for r in range(int(occurrence.max()) + 1):
        sel = occurrence == r
        s = v_slots[sel]
        g = grads[sel]
        grad_b += adapter.a[s].T @ g
        adapter.a[s] -= lr * (g @ adapter.b.T)
    adapter.b -= lr * grad_b
    return updated


def copying_overlay(collection, hot_filter=None):
    """The overlay that returned adjusted *copies* of the base rows."""

    def overlay(field, ids, base_rows):
        adapter = collection[field]
        ids = np.asarray(ids)
        if hot_filter is None:
            return base_rows + adapter.delta_rows(ids)
        mask = hot_filter(field, ids)
        if not mask.any():
            return base_rows
        out = np.array(base_rows, copy=True)
        out[mask] = out[mask] + adapter.delta_rows(ids[mask])
        return out

    return overlay


def accumulate_grad_sequential(adapter, ids, grad_rows, lr: float):
    """Row-by-row SGD from ``adapter``'s current state, without touching it:
    ``(A, B, rows applied)`` after applying each ``(id, gradient)`` pair in
    order — the semantics every vectorised form has to reproduce."""
    a, b = adapter.a.copy(), adapter.b.copy()
    slot_of = dict(zip(adapter.active_ids.tolist(), adapter._slots.slots.tolist()))
    # Fresh slots are handed out in ascending order after the ones in use.
    free = [s for s in range(adapter.capacity - 1, -1, -1) if s not in set(slot_of.values())]
    grad_b = np.zeros_like(b)
    updated = 0
    for i, g in zip(np.asarray(ids).tolist(), grad_rows):
        slot = slot_of.get(i)
        if slot is None:
            if not free:
                continue
            slot = slot_of[i] = free.pop()
            a[slot] = 0.0
        grad_b += np.outer(a[slot], g)
        a[slot] -= lr * (b @ g)
        updated += 1
    b -= lr * grad_b
    return a, b, updated
