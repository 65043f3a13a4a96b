"""The float64 lane the model plane ran on before float32 became its only
lane, kept as the oracle the float32 lane is pinned against.

``DLRMConfig(policy=TRAIN)`` builds the whole stack — tables, MLPs,
interaction, adapters of a trainer over it — on exact float64 rows;
:func:`float64_twin` gives a float32 model an oracle that starts from the
very same parameters, so any gap between the two is float32 arithmetic.
"""

from dataclasses import replace

import numpy as np

from repro.core.dtypes import DTypePolicy
from repro.dlrm.model import DLRM

#: Exact float64 rows, int64 slots; nothing may downcast onto it.
TRAIN = DTypePolicy(
    "train", np.dtype(np.float64), np.dtype(np.int64), downcast_rtol=0.0
)


def float64_twin(model: DLRM) -> DLRM:
    """A float64 copy of ``model`` with bit-equal (upcast) parameters."""
    twin = DLRM(replace(model.config, policy=TRAIN))
    twin.load_state_dict(model.state_dict())
    return twin
