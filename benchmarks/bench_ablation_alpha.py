"""Ablation — PCA variance threshold alpha (Eq. 2).

The paper uses alpha in [0.8, 0.95]: higher alpha selects more components
(larger rank, more memory) for marginal accuracy.  This bench sweeps alpha
and reports the rank Eq. 2 selects on real gradient snapshots.
"""

import numpy as np

from repro.core.rank_adaptation import rank_for_variance
from repro.experiments.accuracy import TRAIN_LR, AccuracyConfig, build_pretrained_world
from repro.experiments.reporting import banner, format_table
from repro.dlrm.optim import RowwiseAdagrad


def test_ablation_alpha_threshold(once):
    config = AccuracyConfig(pretrain_steps=150)

    def run():
        stream, model = build_pretrained_world(config)
        opt = RowwiseAdagrad(lr=TRAIN_LR)
        grads = [[] for _ in model.embeddings]
        for _ in range(30):
            b = stream.next_batch(256, duration_s=5.0)
            res = model.train_step(b.dense, b.sparse_ids, b.labels, opt)
            for f, g in enumerate(res.embedding_grads):
                grads[f].append(g.rows)
        return [np.concatenate(g, axis=0) for g in grads]

    matrices = once(run)
    alphas = (0.7, 0.8, 0.9, 0.95, 0.99)
    rows = []
    ranks_by_alpha = {}
    for alpha in alphas:
        ranks = [rank_for_variance(m, alpha) for m in matrices]
        ranks_by_alpha[alpha] = ranks
        rows.append([f"{alpha:.2f}", *ranks])
    headers = ["alpha"] + [f"table {f}" for f in range(len(matrices))]
    print(banner("Ablation: Eq. 2 rank selection vs alpha"))
    print(format_table(headers, rows))

    # rank selection is monotone in alpha for every table
    for f in range(len(matrices)):
        per_table = [ranks_by_alpha[a][f] for a in alphas]
        assert all(x <= y for x, y in zip(per_table, per_table[1:]))
    # the paper's default band keeps ranks small relative to d=16
    assert max(ranks_by_alpha[0.8]) <= 8
