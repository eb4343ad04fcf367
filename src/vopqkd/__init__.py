"""Desk-scale simulator of a QKD protocol carried by vacuum-one-photon
entangled states: exact few-mode Fock simulation, protocol rounds under
configurable adversaries and device imperfections, and the statistics that
quantify its security and efficiency claims."""

from .analysis import (
    EfficiencyReport,
    SessionSummary,
    detection_curve,
    efficiency,
    oracle_check,
    oracle_csv,
    sifted_keys,
    summarize,
)
from .attacks import Attack, AttackStrategy, build
from .protocol import (
    DeviceModel,
    RoundEngine,
    Rounds,
    SessionConfig,
    infer_bit,
    run_session,
    run_session_sharded,
)

__version__ = "0.1.0"
