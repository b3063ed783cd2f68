"""Trilinear quantum-dot array toolkit.

A 2D spin-qubit grid folded onto three parallel dot rows, with electron
shuttling through the empty middle row providing the 2D connectivity.
The package covers the grid-to-array mapping, defect-aware shuttle
routing, tick-level parallel scheduling under cryoCMOS multiplexing
budgets, a symbolic simulator for the half-filled global-drive operating
scheme, and the analytic scaling/footprint arithmetic.
"""

from . import cli, config, metrics, protocol, router, scheduler, topology
from .errors import (
    CircuitError,
    ConfigError,
    InvalidGrid,
    InvalidN,
    InvalidSite,
    MuxInfeasible,
    NoAdjacentEmpty,
    NotNeighbors,
    Partitioned,
    TrilinearError,
    Unrecoverable,
    UnsupportedPair,
)
from .router import (
    Durations,
    MicroOp,
    MicroOpKind,
    Reconfiguration,
    ShuttlePlan,
    long_range_plan,
    reconfigure_for_defects,
    shortest_shuttle_path,
    vertical_gate_plan,
)
from .scheduler import Circuit, Measure, MuxConfig, OneQubit, Schedule, TwoQubit
from .topology import (
    DefectMap,
    GridSpec,
    Row,
    SiteClass,
    SiteCoord,
    TrilinearLayout,
    map_to_trilinear,
)

__version__ = "0.1.0"

__all__ = [
    "cli", "config", "metrics", "protocol", "router", "scheduler", "topology",
    "TrilinearError", "InvalidGrid", "InvalidSite", "InvalidN", "NotNeighbors",
    "UnsupportedPair", "Partitioned", "Unrecoverable", "MuxInfeasible",
    "NoAdjacentEmpty", "CircuitError", "ConfigError",
    "GridSpec", "Row", "SiteClass", "SiteCoord", "TrilinearLayout",
    "map_to_trilinear",
    "DefectMap", "Durations", "MicroOp", "MicroOpKind", "Reconfiguration",
    "ShuttlePlan", "shortest_shuttle_path", "vertical_gate_plan",
    "long_range_plan", "reconfigure_for_defects",
    "Circuit", "OneQubit", "TwoQubit", "Measure", "MuxConfig", "Schedule",
]
