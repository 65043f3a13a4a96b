"""Workload substrate: Zipf access patterns, drifting CTR streams, dataset
specs (Table II), and the inference-log ring buffer."""

from .datasets import (
    AVAZU,
    AVAZU_TB,
    BD_TB,
    CRITEO,
    CRITEO_TB,
    TABLE_II,
    DatasetSpec,
    build_stream,
)
from .arrivals import ArrivalConfig, BurstEpisode, RequestArrivalProcess
from .stream import InferenceLogBuffer
from .synthetic import Batch, DriftingCTRStream, StreamConfig
from .zipf import ZipfSampler, access_cdf, zipf_head_share

__all__ = [
    "ZipfSampler",
    "zipf_head_share",
    "access_cdf",
    "Batch",
    "StreamConfig",
    "DriftingCTRStream",
    "DatasetSpec",
    "AVAZU",
    "CRITEO",
    "BD_TB",
    "AVAZU_TB",
    "CRITEO_TB",
    "TABLE_II",
    "build_stream",
    "InferenceLogBuffer",
    "ArrivalConfig",
    "BurstEpisode",
    "RequestArrivalProcess",
]
