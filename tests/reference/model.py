"""The DLRM forward/backward the slab path replaced, over a live model.

Both functions read the parameters of a :class:`repro.dlrm.DLRM` and
compute what its ``forward``/``backward`` computed before the slab:
per-field temporaries from fancy indexing, an overlay that *returns*
rows, the stacked interaction, and a backward that always produces every
dense gradient.
"""

from dataclasses import dataclass

import numpy as np

from repro.dlrm.model import sigmoid

from .interaction import StackedDotInteraction


@dataclass
class StackedCache:
    sparse_ids: np.ndarray
    bottom_cache: object
    stacked: np.ndarray
    top_cache: object
    probs: np.ndarray


def forward(model, dense, sparse_ids, overlay=None) -> StackedCache:
    lane = np.dtype(model.config.dtype)
    dense = np.asarray(dense, dtype=lane)
    sparse_ids = np.asarray(sparse_ids, dtype=np.int64)
    bottom_out, bottom_cache = model.bottom.forward(dense)
    emb = []
    for f, table in enumerate(model.embeddings):
        rows = table.weight[sparse_ids[:, f]]
        if overlay is not None:
            rows = overlay(f, sparse_ids[:, f], rows)
        emb.append(rows)
    inter = StackedDotInteraction(1 + len(emb), model.config.embedding_dim, lane)
    inter_out, stacked = inter.forward(bottom_out, emb)
    logits, top_cache = model.top.forward(inter_out)
    return StackedCache(
        sparse_ids, bottom_cache, stacked, top_cache, sigmoid(logits[:, 0])
    )


def backward(model, cache: StackedCache, labels):
    """``(embedding grads, bottom grads, top grads)`` of the BCE loss."""
    labels = np.asarray(labels, dtype=cache.probs.dtype).ravel()
    grad_logit = ((cache.probs - labels) / labels.shape[0])[:, None]
    grad_inter, top_grads = model.top.backward(cache.top_cache, grad_logit)
    inter = StackedDotInteraction(
        cache.stacked.shape[1], cache.stacked.shape[2], cache.stacked.dtype
    )
    grad_dense, grad_embs = inter.backward(cache.stacked, grad_inter)
    _, bottom_grads = model.bottom.backward(cache.bottom_cache, grad_dense)
    emb_grads = [
        table.grad_from_output(cache.sparse_ids[:, f], grad_embs[f])
        for f, table in enumerate(model.embeddings)
    ]
    return emb_grads, bottom_grads, top_grads
