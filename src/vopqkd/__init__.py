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
from .fock import (
    FockState,
    OutcomeDistribution,
    apply_beam_splitter,
    apply_phase_shift,
    make_single_photon,
    one_photon_pair,
    outcome_distribution,
    project_onto,
    tensor,
    vacuum,
)
from .protocol import (
    ControlOutcome,
    DeviceModel,
    RoundEngine,
    RoundRecord,
    Rounds,
    SessionConfig,
    infer_bit,
    latent_distribution,
    run_session,
    run_session_sharded,
)

__version__ = "0.1.0"
