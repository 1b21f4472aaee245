"""Analysis: figure sweeps, headline comparisons, ablations."""

from .ablations import (
    AblationRow,
    ablation_arbitration,
    ablation_interrupt,
    ablation_locks,
    ablation_wrapper,
)
from .figures import (
    DEFAULT_EXEC_TIMES,
    DEFAULT_LINE_COUNTS,
    DEFAULT_PENALTIES,
    FigureData,
    Series,
    figure5_wcs,
    figure6_bcs,
    figure7_tcs,
    figure8_miss_penalty,
    scenario_figure,
)
from .headlines import Headline, compute_headlines
from .utilization import BusUtilization, bus_utilization

__all__ = [
    "FigureData",
    "Series",
    "figure5_wcs",
    "figure6_bcs",
    "figure7_tcs",
    "figure8_miss_penalty",
    "scenario_figure",
    "DEFAULT_LINE_COUNTS",
    "DEFAULT_EXEC_TIMES",
    "DEFAULT_PENALTIES",
    "Headline",
    "compute_headlines",
    "AblationRow",
    "ablation_wrapper",
    "ablation_locks",
    "ablation_interrupt",
    "ablation_arbitration",
    "BusUtilization",
    "bus_utilization",
]
