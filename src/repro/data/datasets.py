"""Dataset specifications mirroring Table II of the paper.

Two roles:

* **Accuracy-centric** runs need live, learnable data — we attach a
  :class:`~repro.data.synthetic.DriftingCTRStream` whose field structure is
  scaled down from the real dataset (same number of fields, proportional
  cardinalities).
* **Systems-centric** runs (update cost, Fig. 14) only need *sizes in bytes*:
  the 50 TB table footprints feed the network/transfer cost models directly,
  no instantiation required.

The original datasets are Kaggle downloads (Avazu, Criteo) and a proprietary
ByteDance trace (BD-TB); none are available offline, so the specs below are
reconstructed from Table II plus the datasets' public schemas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .synthetic import DriftingCTRStream, StreamConfig

__all__ = [
    "DatasetSpec",
    "AVAZU",
    "CRITEO",
    "BD_TB",
    "AVAZU_TB",
    "CRITEO_TB",
    "TABLE_II",
    "build_stream",
]

GB = 1024 ** 3
TB = 1024 ** 4


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table II plus schema details used by the generators.

    Attributes:
        name: dataset label as it appears in the paper.
        num_samples: total labelled impressions.
        dataset_bytes: raw dataset size.
        embedding_bytes: total EMT footprint when a model is trained on it.
        num_sparse_fields: number of categorical fields (Avazu has 21 usable
            categorical columns, Criteo 26 — public schema).
        num_dense_fields: continuous features (Criteo has 13; Avazu none in
            the raw schema, we keep 4 derived counters as is common practice).
        cardinality_skew: Zipf exponent describing how field vocabulary sizes
            decay from the largest table to the smallest.
    """

    name: str
    num_samples: int
    dataset_bytes: int
    embedding_bytes: int
    num_sparse_fields: int
    num_dense_fields: int
    cardinality_skew: float = 1.0

    @property
    def dataset_gb(self) -> float:
        return self.dataset_bytes / GB

    def scaled_table_sizes(self, total_rows: int) -> tuple[int, ...]:
        """Distribute ``total_rows`` across fields with a power-law profile,
        at least 50 rows a table.

        Real CTR datasets have a few huge tables (device id, user id) and a
        long tail of small ones; we reproduce that shape so per-table
        low-rank behaviour (Fig. 6 small vs large spread) carries over.
        """
        ranks = np.arange(1, self.num_sparse_fields + 1, dtype=np.float64)
        weights = ranks ** -self.cardinality_skew
        weights /= weights.sum()
        sizes = np.maximum((weights * total_rows).astype(int), 50)
        return tuple(int(s) for s in sizes)


# Table II of the paper, reconstructed.  The -TB variants are the public
# datasets synthetically scaled to 50 TB of embeddings with 5B samples.
AVAZU = DatasetSpec(
    name="Avazu",
    num_samples=32_300_000,
    dataset_bytes=int(4.7 * GB),
    embedding_bytes=int(0.55 * GB),
    num_sparse_fields=21,
    num_dense_fields=4,
    cardinality_skew=1.3,
)

CRITEO = DatasetSpec(
    name="Criteo",
    num_samples=45_800_000,
    dataset_bytes=11 * GB,
    embedding_bytes=int(1.9 * GB),
    num_sparse_fields=26,
    num_dense_fields=13,
    cardinality_skew=1.2,
)

BD_TB = DatasetSpec(
    name="BD-TB",
    num_samples=5_000_000_000,
    dataset_bytes=int(1.5 * TB),
    embedding_bytes=50 * TB,
    num_sparse_fields=40,
    num_dense_fields=8,
    cardinality_skew=1.1,
)

AVAZU_TB = DatasetSpec(
    name="Avazu-TB",
    num_samples=5_000_000_000,
    dataset_bytes=int(0.72 * TB),
    embedding_bytes=50 * TB,
    num_sparse_fields=21,
    num_dense_fields=4,
    cardinality_skew=1.3,
)

CRITEO_TB = DatasetSpec(
    name="Criteo-TB",
    num_samples=5_000_000_000,
    dataset_bytes=int(1.2 * TB),
    embedding_bytes=50 * TB,
    num_sparse_fields=26,
    num_dense_fields=13,
    cardinality_skew=1.2,
)

TABLE_II: tuple[DatasetSpec, ...] = (AVAZU, CRITEO, BD_TB, AVAZU_TB, CRITEO_TB)


def build_stream(
    spec: DatasetSpec,
    total_rows: int = 6000,
    seed: int = 0,
    **overrides,
) -> DriftingCTRStream:
    """Instantiate a laptop-scale live stream matching a dataset spec.

    Args:
        spec: which dataset to emulate.
        total_rows: total embedding rows in the scaled-down model.
        seed: RNG seed.
        **overrides: forwarded to :class:`StreamConfig` (e.g. drift_rate).

    The stream keeps at most 6 of the spec's sparse fields: full field
    counts make tiny models slow.
    """
    fields = min(spec.num_sparse_fields, 6)
    capped = DatasetSpec(
        name=spec.name,
        num_samples=spec.num_samples,
        dataset_bytes=spec.dataset_bytes,
        embedding_bytes=spec.embedding_bytes,
        num_sparse_fields=fields,
        num_dense_fields=spec.num_dense_fields,
        cardinality_skew=spec.cardinality_skew,
    )
    config = StreamConfig(
        table_sizes=capped.scaled_table_sizes(total_rows),
        num_dense=min(spec.num_dense_fields, 8),
        seed=seed,
        **overrides,
    )
    return DriftingCTRStream(config)
