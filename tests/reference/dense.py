"""The seed dense stack: per-layer list MLPs and a per-pair interaction.

Before the fused activation cache, flat gradients and the batched gram,
the MLP allocated a fresh activation and gradient per layer and kept them
in Python lists, and the dot interaction looped over all ``C(m, 2)``
feature pairs in its forward *and* backward.  :func:`step` is one full
dense-stack train step on that code: bottom MLP, interaction, top MLP,
BCE backward and a per-layer SGD update, in place on the parameter lists.
"""

import numpy as np

from repro.dlrm.model import sigmoid


def mlp_forward(weights, biases, x, final_relu):
    """``(output, activations)``; a fresh allocation and list append per layer."""
    acts = [x]
    h = x
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        if layer != last or final_relu:
            z = np.maximum(z, 0.0)
        acts.append(z)
        h = z
    return h, acts


def mlp_backward(weights, acts, grad_out, final_relu):
    """``(input grad, weight grads, bias grads)`` as per-layer lists."""
    grad_w = []
    grad_b = []
    g = grad_out
    last = len(weights) - 1
    for layer in range(last, -1, -1):
        if layer != last or final_relu:
            g = g * (acts[layer + 1] > 0.0)
        grad_w.insert(0, acts[layer].T @ g)
        grad_b.insert(0, g.sum(axis=0))
        g = g @ weights[layer].T
    return g, grad_w, grad_b


def interaction_forward(dense, embeddings):
    """``(output, features)``; one Python iteration per feature pair."""
    feats = [dense] + list(embeddings)
    m = len(feats)
    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            pairs.append(np.sum(feats[i] * feats[j], axis=1))
    out = np.concatenate([dense] + [p[:, None] for p in pairs], axis=1)
    return out, feats


def interaction_backward(feats, grad_out, dim):
    """Per-feature grads; two scatter-accumulates per pair."""
    m = len(feats)
    grad_feats = [np.zeros_like(f) for f in feats]
    grad_feats[0] += grad_out[:, :dim]
    col = dim
    for i in range(m):
        for j in range(i + 1, m):
            g = grad_out[:, col][:, None]
            grad_feats[i] += g * feats[j]
            grad_feats[j] += g * feats[i]
            col += 1
    return grad_feats


def step(bottom, top, dense, embeddings, labels, lr):
    """One train step over ``(weights, biases)`` list pairs, updated in place.

    Returns ``(probs, (bottom weight grads, bottom bias grads), (top weight
    grads, top bias grads))``.
    """
    (bw, bb), (tw, tb) = bottom, top
    dim = embeddings[0].shape[1]
    h_bottom, acts_b = mlp_forward(bw, bb, dense, final_relu=True)
    inter_out, feats = interaction_forward(h_bottom, embeddings)
    logits, acts_t = mlp_forward(tw, tb, inter_out, final_relu=False)
    probs = sigmoid(logits[:, 0])
    grad_logit = ((probs - labels) / labels.shape[0])[:, None]
    grad_inter, gw_t, gb_t = mlp_backward(tw, acts_t, grad_logit, final_relu=False)
    grad_feats = interaction_backward(feats, grad_inter, dim)
    _, gw_b, gb_b = mlp_backward(bw, acts_b, grad_feats[0], final_relu=True)
    for params, grads in ((bw, gw_b), (bb, gb_b), (tw, gw_t), (tb, gb_t)):
        for p, g in zip(params, grads):
            p -= lr * g
    return probs, (gw_b, gb_b), (gw_t, gb_t)
