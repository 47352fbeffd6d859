"""Power-system state estimation instance builder."""

from .grid import (
    GridModel,
    PowerState,
    build_grid_model,
    flat_start_vector,
    make_box,
    newton_power_flow,
)
from .matpower import load_case
from .measurements import (
    build_nlls_sites,
    measurement_count,
    mse_metrics,
    partition_sites,
    streaming_snapshots,
)

__all__ = [
    "GridModel",
    "PowerState",
    "build_grid_model",
    "build_nlls_sites",
    "flat_start_vector",
    "load_case",
    "make_box",
    "measurement_count",
    "mse_metrics",
    "newton_power_flow",
    "partition_sites",
    "streaming_snapshots",
]
