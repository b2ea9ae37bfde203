"""relfreq: exact steady-state availability and failure frequency for large
repairable systems whose availability is a product of transfer matrices."""

from .core import (
    Component,
    Layout,
    MatrixPair,
    MultilinearPoly,
    PassState,
    ReliabilityError,
    ReliabilityReport,
    Runs,
    TransferSystem,
    apply_rate_operator,
    initial_state,
    single_pass,
    stream_step,
)

__all__ = [
    "Component",
    "Layout",
    "MatrixPair",
    "MultilinearPoly",
    "PassState",
    "ReliabilityError",
    "ReliabilityReport",
    "Runs",
    "TransferSystem",
    "apply_rate_operator",
    "initial_state",
    "single_pass",
    "stream_step",
]

__version__ = "0.1.0"
