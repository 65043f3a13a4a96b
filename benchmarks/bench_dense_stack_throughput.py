"""Dense-stack throughput: fused MLP + batched interaction vs seed loops.

Measures samples/sec for one dense-stack train step — bottom MLP forward,
pairwise dot interaction, top MLP forward, full backward, SGD update —
comparing the fused model plane (:mod:`repro.dlrm.mlp`'s single
activation-cache / flat-gradient passes plus
:mod:`repro.dlrm.interaction`'s field-major slab and batched gram) against the
seed-style implementation the repository started from: per-layer Python
lists with a fresh allocation per activation and per-gradient, and a
Python loop over all ``C(m, 2)`` feature pairs in the interaction's
forward *and* backward.

With ``m`` feature vectors the seed pays ``m * (m - 1) / 2`` interpreter
round-trips per direction (351 at the default ``m = 27``) while the
fused path runs one batched matmul each way, so the ratio grows
quadratically with the number of sparse fields.  MLP widths are kept
small so the comparison isolates the loop structure rather than BLAS
time that both sides share.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_dense_stack_throughput.py
    PYTHONPATH=src python benchmarks/bench_dense_stack_throughput.py \
        --batch 2048 --check-speedup 10

``--check-speedup X`` exits non-zero unless the fused composite is at
least ``X`` times faster than the seed loop (the CI gate).  Both
composites are equivalence-asserted — probabilities, every parameter
gradient, and the post-step parameters — before anything is timed.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.dlrm.interaction import DotInteraction
from repro.dlrm.mlp import MLP

LR = 0.05


def _pin_allocator() -> None:
    """Keep glibc from mmap/munmap-cycling the benchmark's big arrays.

    Same rationale as the other throughput gates: both composites
    allocate MB-scale transients per step, and with default glibc
    thresholds every block above 128 KiB round-trips through mmap.
    No-op off glibc.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None)
        m_trim_threshold, m_mmap_threshold = -1, -3  # malloc.h constants
        libc.mallopt(m_mmap_threshold, 1 << 30)
        libc.mallopt(m_trim_threshold, 1 << 30)
    except (OSError, AttributeError):
        pass  # not glibc (musl, macOS): nothing to tune


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# --------------------------------------------------------------- seed reference
def seed_mlp_forward(weights, biases, x, final_relu):
    """Seed forward: a fresh allocation and list append per layer."""
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


def seed_mlp_backward(weights, acts, grad_out, final_relu):
    """Seed backward: per-layer grad lists, fresh arrays throughout."""
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


def seed_interaction_forward(dense, embeddings):
    """Seed interaction: one Python iteration per feature pair."""
    feats = [dense] + list(embeddings)
    m = len(feats)
    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            pairs.append(np.sum(feats[i] * feats[j], axis=1))
    out = np.concatenate([dense] + [p[:, None] for p in pairs], axis=1)
    return out, feats


def seed_interaction_backward(feats, grad_out, dim):
    """Seed interaction backward: two scatter-accumulates per pair."""
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


def seed_step(bw, bb, tw, tb, dense, embeddings, labels, dim):
    """Seed composite: full dense-stack forward/backward + per-layer SGD."""
    h_bottom, acts_b = seed_mlp_forward(bw, bb, dense, final_relu=True)
    inter_out, feats = seed_interaction_forward(h_bottom, embeddings)
    logits, acts_t = seed_mlp_forward(tw, tb, inter_out, final_relu=False)
    probs = _sigmoid(logits[:, 0])
    grad_logit = ((probs - labels) / labels.shape[0])[:, None]
    grad_inter, gw_t, gb_t = seed_mlp_backward(
        tw, acts_t, grad_logit, final_relu=False
    )
    grad_feats = seed_interaction_backward(feats, grad_inter, dim)
    _, gw_b, gb_b = seed_mlp_backward(
        bw, acts_b, grad_feats[0], final_relu=True
    )
    for w, gw in zip(bw, gw_b):
        w -= LR * gw
    for b, gb in zip(bb, gb_b):
        b -= LR * gb
    for w, gw in zip(tw, gw_t):
        w -= LR * gw
    for b, gb in zip(tb, gb_t):
        b -= LR * gb
    return probs, gw_b, gb_b, gw_t, gb_t


# ------------------------------------------------------------------- fused path
def fused_step(bottom, top, interaction, dense, embeddings, labels):
    """Fused composite: cached forwards, flat-gradient backwards, axpy SGD."""
    h_bottom, cache_b = bottom.forward(dense)
    slab = interaction.slab(dense.shape[0])
    slab[0] = h_bottom
    for f, rows in enumerate(embeddings):
        slab[1 + f] = rows
    logits, cache_t = top.forward(interaction.forward(slab))
    probs = _sigmoid(logits[:, 0])
    grad_logit = ((probs - labels) / labels.shape[0])[:, None]
    grad_inter, top_grads = top.backward(cache_t, grad_logit)
    grad_slab = interaction.backward(slab, grad_inter)
    _, bottom_grads = bottom.backward(cache_b, grad_slab[0])
    bottom.apply_grads(bottom_grads, LR)
    top.apply_grads(top_grads, LR)
    return probs, bottom_grads, top_grads


# -------------------------------------------------------------------- workload
def make_stack(num_dense, num_sparse, dim, hidden, seed):
    """Fused modules plus a seed-side copy of the identical parameters."""
    rng = np.random.default_rng(seed)
    bottom = MLP([num_dense, hidden, dim], rng=rng, final_relu=True)
    interaction = DotInteraction(1 + num_sparse, dim)
    top = MLP([interaction.output_dim, hidden, 1], rng=rng)
    bw = [w.copy() for w in bottom.weights]
    bb = [b.copy() for b in bottom.biases]
    tw = [w.copy() for w in top.weights]
    tb = [b.copy() for b in top.biases]
    return bottom, top, interaction, bw, bb, tw, tb


def make_batch(batch, num_dense, num_sparse, dim, rng):
    dense = rng.normal(size=(batch, num_dense))
    embeddings = [rng.normal(size=(batch, dim)) for _ in range(num_sparse)]
    labels = rng.integers(0, 2, size=batch).astype(np.float64)
    return dense, embeddings, labels


def _rates(ref_fn, vec_fn, batch, repeats, attempts=3):
    """Best samples/sec per side over interleaved measurement windows."""
    best = [float("inf"), float("inf")]
    for fn in (ref_fn, vec_fn):
        fn()  # warm the allocator arena and caches before timing
    for _ in range(attempts):
        for side, fn in enumerate((ref_fn, vec_fn)):
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                best[side] = min(best[side], time.perf_counter() - t0)
    return batch / best[0], batch / best[1]


def bench_stack(batch, num_dense, num_sparse, dim, hidden, repeats, rng):
    """Equivalence-check then time both dense-stack composites."""
    bottom, top, interaction, bw, bb, tw, tb = make_stack(
        num_dense, num_sparse, dim, hidden, seed=0
    )
    dense, embeddings, labels = make_batch(
        batch, num_dense, num_sparse, dim, rng
    )

    # -- equivalence: one step from identical initial parameters
    s_probs, s_gw_b, s_gb_b, s_gw_t, s_gb_t = seed_step(
        bw, bb, tw, tb, dense, embeddings, labels, dim
    )
    f_probs, bottom_grads, top_grads = fused_step(
        bottom, top, interaction, dense, embeddings, labels
    )
    np.testing.assert_allclose(f_probs, s_probs, rtol=1e-9, atol=1e-12)
    for fused_g, seed_g in zip(bottom_grads.weights, s_gw_b):
        np.testing.assert_allclose(fused_g, seed_g, rtol=1e-9, atol=1e-12)
    for fused_g, seed_g in zip(bottom_grads.biases, s_gb_b):
        np.testing.assert_allclose(fused_g, seed_g, rtol=1e-9, atol=1e-12)
    for fused_g, seed_g in zip(top_grads.weights, s_gw_t):
        np.testing.assert_allclose(fused_g, seed_g, rtol=1e-9, atol=1e-12)
    for fused_g, seed_g in zip(top_grads.biases, s_gb_t):
        np.testing.assert_allclose(fused_g, seed_g, rtol=1e-9, atol=1e-12)
    for fused_w, seed_w in zip(bottom.weights + top.weights, bw + tw):
        np.testing.assert_allclose(fused_w, seed_w, rtol=1e-9, atol=1e-12)
    for fused_b, seed_b in zip(bottom.biases + top.biases, bb + tb):
        np.testing.assert_allclose(fused_b, seed_b, rtol=1e-9, atol=1e-12)

    ref, vec = _rates(
        lambda: seed_step(bw, bb, tw, tb, dense, embeddings, labels, dim),
        lambda: fused_step(bottom, top, interaction, dense, embeddings, labels),
        batch,
        repeats,
    )
    return ref, vec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, default=2048)
    parser.add_argument("--num-dense", type=int, default=16)
    parser.add_argument(
        "--num-sparse", type=int, default=26,
        help="sparse fields; the interaction sees 1 + this many vectors",
    )
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument(
        "--hidden", type=int, default=32,
        help="hidden width of both MLPs (kept small: the loop structure, "
        "not BLAS time, is what is being compared)",
    )
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument(
        "--check-speedup",
        type=float,
        default=None,
        help="fail unless the fused composite reaches this speedup factor",
    )
    args = parser.parse_args(argv)
    if args.batch < 32:
        parser.error("--batch must be at least 32")
    _pin_allocator()
    rng = np.random.default_rng(11)

    m = 1 + args.num_sparse
    print(
        f"dense-stack train-step throughput @ batch {args.batch:,}, "
        f"m={m} features x d={args.dim} ({m * (m - 1) // 2} pairs), "
        f"hidden {args.hidden} (samples/sec)"
    )
    ref, vec = bench_stack(
        args.batch, args.num_dense, args.num_sparse, args.dim,
        args.hidden, args.repeats, rng,
    )
    speedup = vec / ref
    print(f"{'seed loops':<14} {ref:>12,.0f}")
    print(f"{'fused':<14} {vec:>12,.0f} {speedup:>8.1f}x")

    from _emit import emit_bench_result  # sibling module; script dir is on sys.path

    emit_bench_result(
        "dense_stack",
        shape=(
            f"batch {args.batch}, m={m} x d={args.dim}, "
            f"hidden {args.hidden}"
        ),
        ids_per_sec=vec,
        speedup=speedup,
    )

    if args.check_speedup is not None:
        if speedup < args.check_speedup:
            print(
                f"FAIL: dense-stack speedup {speedup:.1f}x below "
                f"{args.check_speedup}x",
                file=sys.stderr,
            )
            return 1
        print(f"OK: dense-stack speedup >= {args.check_speedup}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
