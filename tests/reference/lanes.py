"""The float64 lane the model plane ran on before float32 became its only
lane, kept as the oracle the float32 lane is pinned against.

``DLRMConfig(dtype=np.float64)`` builds the whole stack — tables, MLPs,
interaction, adapters of a trainer over it — on exact float64 rows;
:func:`float64_twin` gives a float32 model an oracle that starts from the
very same parameters, so any gap between the two is float32 arithmetic.
"""

from dataclasses import replace

import numpy as np

from repro.dlrm.model import DLRM


def float64_twin(model: DLRM) -> DLRM:
    """A float64 copy of ``model`` with bit-equal (upcast) parameters."""
    twin = DLRM(replace(model.config, dtype=np.float64))
    twin.load_state_dict(model.state_dict())
    return twin
