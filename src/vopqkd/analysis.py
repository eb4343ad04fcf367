"""Aggregate statistics, security metrics, and exact-oracle cross-checks.

Summaries are pure folds over the columns of a block of rounds, so partial
results from sharded sessions merge by concatenating the blocks. The oracle side
computes exact Born-rule distributions for a scenario by summing over the
sampler's own case tables and per-latent distributions, and compares them
with Monte-Carlo frequencies.
"""

from __future__ import annotations

import collections
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import attacks as attacks_mod
from . import protocol
from .protocol import ANNOUNCE, CONTROL_KINDS, COUNT, RoundEngine, RoundRecord, Rounds, SessionConfig

# Efficiency yardsticks: best BB84 accounting and the differential-phase-shift
# scheme without active switches, as plain reported constants.
EFFICIENCY_COMPARISONS = {"bb84_max": 0.25, "differential_phase_shift": 1.0 / 6.0}


@dataclass(frozen=True)
class EfficiencyReport:
    """Secret bits per quantum-plus-classical bit exchanged."""

    q_t: int
    b_t: int
    b_s: int
    value: float
    comparisons: Dict[str, float] = field(default_factory=lambda: dict(EFFICIENCY_COMPARISONS))

    def to_json_dict(self) -> dict:
        return {
            "q_t": self.q_t,
            "b_t": self.b_t,
            "b_s": self.b_s,
            "E": self.value,
            "comparisons": dict(self.comparisons),
        }


def efficiency(q_t: int, b_t: int, b_s: int) -> EfficiencyReport:
    """E = b_s / (q_t + b_t)."""
    if q_t < 0 or b_t < 0 or b_s < 0:
        raise ValueError("bit counts must be non-negative")
    if q_t + b_t == 0:
        raise ValueError("q_t + b_t must be positive")
    return EfficiencyReport(q_t, b_t, b_s, b_s / (q_t + b_t))


# Per accepted key bit: both parties committed one quantum bit, Alice's
# detector statement costs one classical bit, one secret bit results.
SINGLE_SHOT_EFFICIENCY = (2, 1, 1)


@dataclass(frozen=True)
class SessionSummary:
    rounds_total: int
    accepted: int
    sift_rate: float
    qber: float
    eve_info_per_round: float
    eve_info_per_sifted_bit: float
    controls_run: Dict[str, int]
    controls_flagged: Dict[str, int]
    p_undetected_model: float
    coincidence_histogram: Dict[Tuple[int, int], float]
    efficiency: EfficiencyReport

    def to_json_dict(self) -> dict:
        return {
            "rounds_total": self.rounds_total,
            "accepted": self.accepted,
            "sift_rate": self.sift_rate,
            "qber": self.qber,
            "eve_info_per_round": self.eve_info_per_round,
            "eve_info_per_sifted_bit": self.eve_info_per_sifted_bit,
            "controls_run": dict(self.controls_run),
            "controls_flagged": dict(self.controls_flagged),
            "p_undetected_model": self.p_undetected_model,
            "coincidence_histogram": {
                f"{a},{b}": p for (a, b), p in sorted(self.coincidence_histogram.items())
            },
            "efficiency": self.efficiency.to_json_dict(),
        }


def sifted_records(records: Sequence[RoundRecord]) -> List[RoundRecord]:
    """Accepted, non-control rounds: the ones contributing key bits."""
    return [r for r in records if r.accepted and r.control is None]


def sifted_keys(records: Sequence[RoundRecord]) -> Tuple[List[int], List[int]]:
    """(Alice's key bits, Bob's reconstructed key bits)."""
    sift = sifted_records(records)
    return [r.n for r in sift], [r.inferred for r in sift]


def summarize(rounds: Rounds) -> SessionSummary:
    """Fold a session's rounds into the summary statistics."""
    if not len(rounds):
        raise ValueError("cannot summarize an empty block of rounds")
    total = len(rounds)
    accepted = int(rounds.accepted.sum())
    sift = rounds.accepted & (rounds.control_kind == 0)  # every sifted round has an inference
    sifted = int(sift.sum())
    errors = int((rounds.inferred[sift] != rounds.n[sift]).sum())
    qber = errors / sifted if sifted else 0.0

    runs = np.bincount(rounds.control_kind, minlength=len(CONTROL_KINDS))
    flags = np.bincount(rounds.control_kind[rounds.control_flagged], minlength=len(CONTROL_KINDS))
    controls_run = {kind: int(runs[CONTROL_KINDS.index(kind)]) for kind in (ANNOUNCE, COUNT)}
    controls_flagged = {kind: int(flags[CONTROL_KINDS.index(kind)]) for kind in (ANNOUNCE, COUNT)}

    alice_totals = rounds.alice_counts.sum(axis=1, dtype=np.int64)
    bob_totals = rounds.bob_counts.sum(axis=1, dtype=np.int64)
    base = int(bob_totals.max()) + 1
    hist = {
        divmod(code, base): k / total
        for code, k in enumerate(np.bincount(alice_totals * base + bob_totals).tolist()) if k
    }

    knows = rounds.eve_learned != 0
    return SessionSummary(
        rounds_total=total,
        accepted=accepted,
        sift_rate=accepted / total,
        qber=qber,
        eve_info_per_round=int(knows.sum()) / total,
        eve_info_per_sifted_bit=int(knows[sift].sum()) / sifted if sifted else 0.0,
        controls_run=controls_run,
        controls_flagged=controls_flagged,
        p_undetected_model=0.5 ** controls_run[ANNOUNCE],
        coincidence_histogram=hist,
        efficiency=efficiency(*SINGLE_SHOT_EFFICIENCY),
    )


def detection_curve(flag_probability_per_control: float, nu_max: int) -> List[float]:
    """Survival probabilities (1 - p_flag)^nu for nu = 1..nu_max."""
    p = flag_probability_per_control
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flag probability must be in [0, 1], got {p}")
    return [(1.0 - p) ** nu for nu in range(1, nu_max + 1)]


def control_flags(records: Sequence[RoundRecord], kind: str) -> List[bool]:
    """Flag outcomes of the given control kind, in round order."""
    return [r.control.flagged for r in records if r.control is not None and r.control.kind == kind]


def empirical_survival(flags: Sequence[bool], nu: int) -> Tuple[float, int]:
    """Fraction of non-overlapping nu-length control blocks with no flag.

    Returns (survival fraction, number of blocks).
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    blocks = len(flags) // nu
    if blocks == 0:
        raise ValueError(f"need at least {nu} control outcomes, got {len(flags)}")
    clear = sum(
        1 for b in range(blocks) if not any(flags[b * nu : (b + 1) * nu])
    )
    return clear / blocks, blocks


def control_qber_estimate(records: Sequence[RoundRecord]) -> Optional[float]:
    """The error rate the parties themselves can estimate: the flagged
    fraction of announce-bit control rounds (each flag is one revealed
    sifted-bit error). None when no such controls ran."""
    flags = control_flags(records, ANNOUNCE)
    if not flags:
        return None
    return sum(flags) / len(flags)


def announcement_bit_mutual_information(records: Sequence[RoundRecord]) -> float:
    """Plug-in mutual information (bits) between Alice's announcement and n
    over accepted rounds; ~0 means the public statement leaks nothing."""
    joint: Dict[Tuple[int, int], int] = {}
    total = 0
    for r in records:
        if r.accepted and r.announcement is not None:
            joint[(r.announcement, r.n)] = joint.get((r.announcement, r.n), 0) + 1
            total += 1
    if total == 0:
        return 0.0
    pa: Dict[int, float] = {}
    pn: Dict[int, float] = {}
    for (a, n), c in joint.items():
        pa[a] = pa.get(a, 0.0) + c / total
        pn[n] = pn.get(n, 0.0) + c / total
    mi = 0.0
    for (a, n), c in joint.items():
        p = c / total
        mi += p * math.log2(p / (pa[a] * pn[n]))
    return mi


# ---------------------------------------------------------------------------
# Exact Born-rule oracle
# ---------------------------------------------------------------------------

CountsPair = Tuple[int, int]
Readout = Tuple[CountsPair, CountsPair]
EveCounts = Tuple[int, ...]


def exact_joint_distribution(
    cfg: SessionConfig, engine: Optional[RoundEngine] = None
) -> Dict[Tuple[Readout, EveCounts], float]:
    """Exact joint distribution of the device-reported (alice_counts,
    bob_counts) and the adversary's own counts for one round: the sampler's
    case tables and latent outcome tables, summed instead of drawn. Pass the
    `engine` that sampled the session to reuse its latent tables."""
    engine = engine or RoundEngine(cfg)
    alice, bob = cfg.device_alice, cfg.device_bob
    latents = engine.latents(recombine=True)
    weights = [math.prod(p for _, p in cases) for cases in itertools.product(*engine.tables)]
    weighted = np.repeat(weights, np.diff(latents.bounds)) * latents.p
    per_row = np.bincount(latents.row, weighted, minlength=len(latents.rows))
    acc: Dict[Tuple[Readout, EveCounts], float] = {}
    for occ, p in zip(map(tuple, latents.rows.tolist()), per_row.tolist()):
        for ra, pa in protocol.detector_cases(occ[:2], alice.eta, alice.detector_kind):
            for rb, pb in protocol.detector_cases(occ[2:4], bob.eta, bob.detector_kind):
                key = ((ra, rb), occ[4:])
                acc[key] = acc.get(key, 0.0) + p * pa * pb
    return acc


def _marginal(joint: Dict[tuple, float], part: int) -> Dict:
    out: Dict = {}
    for key, p in joint.items():
        out[key[part]] = out.get(key[part], 0.0) + p
    return out


def exact_readout_distribution(cfg: SessionConfig) -> Dict[Readout, float]:
    """Exact distribution of device-reported (alice_counts, bob_counts) for
    one round of the scenario, marginalized over all round randomness."""
    return _marginal(exact_joint_distribution(cfg), 0)


def exact_eve_count_distribution(cfg: SessionConfig) -> Dict[EveCounts, float]:
    """Exact distribution of the adversary's own detector counts (strategies
    with detectors only)."""
    if not attacks_mod.build(cfg.attack).eve_ports:
        raise ValueError("the adversary has no detectors in this scenario")
    return _marginal(exact_joint_distribution(cfg), 1)


@dataclass(frozen=True)
class OracleStage:
    """Exact vs empirical comparison for one measurement stage."""

    name: str
    rows: List[Tuple[str, float, float]]  # (outcome label, exact, empirical)
    tv_distance: float


def _stage(name: str, exact: Dict, empirical_counts: Dict, total: int, fmt) -> OracleStage:
    empirical = {k: v / total for k, v in empirical_counts.items()} if total else {}
    keys = sorted(set(exact) | set(empirical))
    rows = [(fmt(k), exact.get(k, 0.0), empirical.get(k, 0.0)) for k in keys]
    tv = 0.5 * sum(abs(e - f) for _, e, f in rows)
    return OracleStage(name, rows, tv)


def _row_counts(rows: np.ndarray) -> Dict[tuple, int]:
    """How often each distinct row of a 2-D integer array occurs."""
    return dict(collections.Counter(map(tuple, rows.tolist())))


def oracle_check(cfg: SessionConfig, records: Optional[Rounds] = None) -> List[OracleStage]:
    """Compare exact per-stage distributions against Monte-Carlo frequencies.

    Runs the session when `records` is not supplied, sharing the engine's
    latent distributions with the oracle. Count-control rounds measure a
    different observable and are excluded from the comparison.
    """
    engine = RoundEngine(cfg)
    rounds = engine.rounds(0, cfg.rounds) if records is None else records
    normal = rounds.control_kind != CONTROL_KINDS.index(COUNT)
    total = int(normal.sum())
    joint = exact_joint_distribution(cfg, engine)
    stages = []

    readouts = _row_counts(np.hstack([rounds.alice_counts[normal], rounds.bob_counts[normal]]))
    stages.append(
        _stage(
            "readout",
            _marginal(joint, 0),
            {((a1, a2), (b1, b2)): k for (a1, a2, b1, b2), k in readouts.items()},
            total,
            lambda k: "a{}{}-b{}{}".format(k[0][0], k[0][1], k[1][0], k[1][1]),
        )
    )

    if engine.attack.eve_ports:
        stages.append(
            _stage(
                "eve-counts",
                _marginal(joint, 1),
                _row_counts(rounds.eve_counts[normal]),
                total,
                lambda k: "e" + "".join(str(c) for c in k),
            )
        )
    return stages


def oracle_csv(stages: Sequence[OracleStage]) -> str:
    """Render oracle stages as CSV text."""
    out = io.StringIO()
    out.write("stage,outcome,exact_p,empirical_p,abs_error\n")
    for stage in stages:
        for label, exact, emp in stage.rows:
            out.write(f"{stage.name},{label},{exact:.10g},{emp:.10g},{abs(exact - emp):.10g}\n")
    return out.getvalue()
