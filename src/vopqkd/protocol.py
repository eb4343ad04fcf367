"""The two-party key distribution protocol.

Each round, Alice and Bob encode independent bits n, m in the phase of a
vacuum-one-photon entangled pair, keep one mode ("a1"/"b1"), send the other
("a2"/"b2") across the public channel, recombine what arrives with what they
stored on a second 50:50 splitter, and count photons in coincidence. A round
is accepted exactly when each side registers one photon; Alice's public
statement of which detector clicked then lets Bob reconstruct n.

Two tamper checks are modeled: announce-bit controls (Alice additionally
discloses n on a sacrificed accepted round) and destructive photon-count
controls (both parties skip recombination and compare direct photon counts
on stored and incoming modes against the exact one-photon-per-source
correlation).

Every random step of a round (the bits, the source emissions, the
adversary's bits, detector reports) is one case table [(value, prob)]. The
sampler draws from the tables; the exact oracle in `analysis` sums over the
same tables and the same `latent_distribution`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import attacks as attacks_mod
from . import fock
from .attacks import BIT_CASES, Attack, AttackStrategy, Cases
from .fock import FockState, OutcomeDistribution

ALICE_MODES = ("a1", "a2")  # (stored, traveling)
BOB_MODES = ("b1", "b2")

# Joint detected totals (alice, bob) reachable by the honest ideal protocol.
HONEST_COINCIDENCE_SUPPORT = frozenset({(1, 1), (2, 0), (0, 2)})

DETECTOR_KINDS = ("pnr", "threshold")


def draw(cases: Cases, rng: np.random.Generator):
    """One value from a case table; a single-case table consumes no randomness."""
    if len(cases) == 1:
        return cases[0][0]
    return fock.pick(cases, rng.random())


@dataclass(frozen=True)
class DeviceModel:
    """Source and detector imperfections for one party.

    p2 is the probability the source emits two photons instead of one;
    detectors are photon-number-resolving ("pnr") or binary ("threshold"),
    each photon surviving to detection independently with probability eta.
    """

    p2: float = 0.0
    detector_kind: str = "pnr"
    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p2 <= 1.0:
            raise ValueError(f"p2 must be in [0, 1], got {self.p2}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if self.detector_kind not in DETECTOR_KINDS:
            raise ValueError(f"detector_kind must be one of {DETECTOR_KINDS}")


@dataclass(frozen=True)
class ControlOutcome:
    kind: str  # "announce-bit" | "photon-count-check"
    flagged: bool


@dataclass
class RoundRecord:
    """Everything that happened in one protocol round."""

    round_index: int
    n: int
    m: int
    alice_counts: Tuple[int, int]
    bob_counts: Tuple[int, int]
    accepted: bool
    announcement: Optional[int]  # detector index 1|2, present only when accepted
    inferred: Optional[int]
    control: Optional[ControlOutcome]
    photon_anomaly: bool
    # Simulator-side bookkeeping, not serialized: the adversary's own counts
    # (aligned with the attack's eve_ports) and her inference of n.
    eve_counts: Optional[Tuple[int, ...]] = None
    eve_learned: Optional[int] = None

    @property
    def eve_knows_n(self) -> bool:
        return self.eve_learned is not None

    def to_json_dict(self) -> dict:
        """Wire form, one JSON object per round."""
        return {
            "round": self.round_index,
            "n": self.n,
            "m": self.m,
            "alice_counts": list(self.alice_counts),
            "bob_counts": list(self.bob_counts),
            "accepted": self.accepted,
            "announcement": {1: "Da1", 2: "Da2"}.get(self.announcement),
            "inferred": self.inferred,
            "control_kind": self.control.kind if self.control else None,
            "control_flagged": self.control.flagged if self.control else None,
            "eve_knows_n": self.eve_knows_n,
            "photon_anomaly": self.photon_anomaly,
        }


@dataclass(frozen=True)
class SessionConfig:
    rounds: int
    seed: int
    attack: AttackStrategy = AttackStrategy()
    device_alice: DeviceModel = DeviceModel()
    device_bob: DeviceModel = DeviceModel()
    control_announce_fraction: float = 0.0
    control_count_fraction: float = 0.0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("control_announce_fraction", "control_count_fraction"):
            f = getattr(self, name)
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {f}")


def encoded_pair_state(bit: int, modes: Tuple[str, str], photons: int = 1) -> FockState:
    """Source path: inject `photons` on the bit's input port, then the splitter.

    bit +1 injects on the first port, -1 on the second. One photon yields the
    carrier (|01> + bit|10>)/sqrt(2); two photons yield
    (1/2)|20> + (bit/sqrt(2))|11> + (1/2)|02>, both in (stored, traveling)
    ket order.
    """
    if bit not in (-1, 1):
        raise ValueError(f"bit must be +1 or -1, got {bit}")
    if photons not in (1, 2):
        raise ValueError(f"source emits 1 or 2 photons, got {photons}")
    counts = [0, 0]
    counts[0 if bit == 1 else 1] = photons
    state = fock.basis_state(modes, counts)
    state = fock.apply_beam_splitter(state, modes[0], modes[1])
    if bit == -1 and photons == 1:
        # Fix the source's global phase: the canonical carrier has +1/sqrt(2)
        # on the traveling ket, the raw splitter output the opposite sign.
        state = FockState(state.registry, {occ: -a for occ, a in state.amplitudes.items()})
    return state


def emission_cases(device: DeviceModel) -> Cases:
    """Photons the party's source emits: two with probability p2, else one."""
    return tuple((k, p) for k, p in ((2, device.p2), (1, 1.0 - device.p2)) if p > 0.0)


def infer_bit(alice_click: int, bob_click: int, m: int) -> int:
    """Bob's reconstruction of n from Alice's announced click and his own."""
    if alice_click not in (1, 2) or bob_click not in (1, 2):
        raise ValueError("clicks must be detector indices 1 or 2")
    if m not in (-1, 1):
        raise ValueError(f"m must be +1 or -1, got {m}")
    return m if alice_click == bob_click else -m


@functools.lru_cache(maxsize=1024)
def detector_cases(true_counts: Tuple[int, int], eta: float, detector_kind: str) -> Cases:
    """What a party's detector pair reports for the given true photon counts:
    each photon survives with probability eta, and a threshold detector only
    tells whether anything arrived. Keyed by plain values, not the device,
    so that a lookup hashes no dataclass."""
    ports = []
    for c in true_counts:
        port: dict = {}
        for d in range(c + 1):
            p = math.comb(c, d) * eta**d * (1.0 - eta) ** (c - d)
            if p > 0.0:
                key = min(d, 1) if detector_kind == "threshold" else d
                port[key] = port.get(key, 0.0) + p
        ports.append(port)
    pairs = (((d1, d2), p1 * p2) for d1, p1 in ports[0].items() for d2, p2 in ports[1].items())
    return tuple(case for case in pairs if case[1] > 0.0)


def detected_counts(
    true_counts: Tuple[int, int], device: DeviceModel, rng: np.random.Generator
) -> Tuple[int, int]:
    """What the party's detector pair reports for the given true photon counts."""
    return draw(detector_cases(true_counts, device.eta, device.detector_kind), rng)


def _single_click(reported: Tuple[int, int]) -> Optional[int]:
    """Detector index when the side registered exactly one photon/click."""
    if sum(reported) != 1:
        return None
    return 1 if reported[0] == 1 else 2


def latent_tables(cfg: SessionConfig, attack: Attack) -> List[Cases]:
    """Case tables of a round's discrete latents, in draw order: the bits n
    and m, the two source emissions, then the adversary's bits."""
    return [
        BIT_CASES,
        BIT_CASES,
        emission_cases(cfg.device_alice),
        emission_cases(cfg.device_bob),
        *attack.bit_cases,
    ]


def latent_distribution(
    attack: Attack, n: int, m: int, na: int, nb: int, bits: tuple, recombine: bool
) -> OutcomeDistribution:
    """Exact joint photon counts on ("a1", rail to Alice, "b1", rail to Bob)
    followed by the adversary's ports, for one assignment of the latents.

    The channel returns a weighted ensemble of pure states; with `recombine`
    each branch passes both recombination splitters (count-control rounds
    skip them).
    """
    state = fock.tensor(
        encoded_pair_state(n, ALICE_MODES, na),
        encoded_pair_state(m, BOB_MODES, nb),
    )
    ensemble, to_alice, to_bob = attack.channel(state, bits)
    ports = (ALICE_MODES[0], to_alice, BOB_MODES[0], to_bob) + attack.eve_ports
    entries: dict = {}
    for branch, weight in ensemble:
        if recombine:
            branch = fock.apply_beam_splitter(branch, ALICE_MODES[0], to_alice)
            branch = fock.apply_beam_splitter(branch, BOB_MODES[0], to_bob)
        for occ, p in fock.outcome_distribution(branch, ports).entries.items():
            entries[occ] = entries.get(occ, 0.0) + weight * p
    total = sum(entries.values())
    if abs(total - 1.0) > fock.NORM_TOL:
        raise RuntimeError(
            f"mixture total {total} drifted past tolerance for latents {(n, m, na, nb, bits)}"
        )
    return OutcomeDistribution(ports, entries)


def run_round(
    cfg: SessionConfig,
    attack: Attack,
    index: int,
    rng: np.random.Generator,
    cache: Optional[dict] = None,
    count_control: Optional[bool] = None,
) -> RoundRecord:
    """Execute one protocol round under the configured adversary.

    The draw order on `rng` is fixed (control pre-commitment, the latents of
    `latent_tables`, the photon counts, detector reports, control selection),
    so a round is a pure function of (cfg, attack, index, seed). `cache`
    memoizes the session's case tables and `latent_distribution` across
    rounds.
    """
    if cache is None:
        cache = {}
    tables = cache.get("tables")
    if tables is None:
        tables = cache["tables"] = latent_tables(cfg, attack)
    if count_control is None:
        count_control = (
            cfg.control_count_fraction > 0.0 and rng.random() < cfg.control_count_fraction
        )
    n, m, na, nb, *bits = [draw(cases, rng) for cases in tables]
    bits = tuple(bits)
    key = (n, m, na, nb, bits, not count_control)
    dist = cache.get(key)
    if dist is None:
        dist = cache[key] = latent_distribution(attack, *key)
    counts = dist.sample(rng)  # (a1, rail to Alice, b1, rail to Bob, *eve_ports)
    eve_counts = counts[4:] or None

    if count_control:
        # Destructive check: no recombination, direct photon counts compared
        # across the channel. Each source emits exactly one photon (ideal
        # source), so stored + counterpart-received must total 1 per party.
        flagged = counts[0] + counts[3] != 1 or counts[2] + counts[1] != 1
        return RoundRecord(
            round_index=index,
            n=n,
            m=m,
            alice_counts=counts[:2],
            bob_counts=counts[2:4],
            accepted=False,
            announcement=None,
            inferred=None,
            control=ControlOutcome("photon-count-check", flagged),
            photon_anomaly=False,
            eve_counts=eve_counts,
        )

    alice_rep = detected_counts(counts[:2], cfg.device_alice, rng)
    bob_rep = detected_counts(counts[2:4], cfg.device_bob, rng)
    alice_res = _single_click(alice_rep)
    bob_res = _single_click(bob_rep)
    accepted = alice_res is not None and bob_res is not None
    inferred = infer_bit(alice_res, bob_res, m) if accepted else None

    control = None
    if accepted and cfg.control_announce_fraction > 0.0:
        # Announce-bit verification: Alice also reveals n and Bob checks his
        # inference against it.
        if rng.random() < cfg.control_announce_fraction:
            control = ControlOutcome("announce-bit", flagged=(inferred != n))

    return RoundRecord(
        round_index=index,
        n=n,
        m=m,
        alice_counts=alice_rep,
        bob_counts=bob_rep,
        accepted=accepted,
        announcement=alice_res if accepted else None,
        inferred=inferred,
        control=control,
        photon_anomaly=(sum(alice_rep), sum(bob_rep)) not in HONEST_COINCIDENCE_SUPPORT,
        eve_counts=eve_counts,
        eve_learned=attack.learn(bits, eve_counts, alice_res),
    )


def round_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-round stream; depends only on (seed, index) so shards
    and reordered execution reproduce identical rounds."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, index)))


def run_rounds(cfg: SessionConfig, start: int, stop: int) -> List[RoundRecord]:
    """Execute rounds [start, stop) of the session."""
    attack = attacks_mod.build(cfg.attack)
    cache: dict = {}
    return [run_round(cfg, attack, i, round_rng(cfg.seed, i), cache) for i in range(start, stop)]


def run_session(cfg: SessionConfig):
    """Run a full session. Returns (records, SessionSummary)."""
    from .analysis import summarize  # import here: analysis consumes this module

    records = run_rounds(cfg, 0, cfg.rounds)
    return records, summarize(records)


def run_session_sharded(cfg: SessionConfig, shards: int):
    """Run the session split into round-range shards and merge the results.

    Per-round seeding makes this bit-identical to the single-shard run.
    """
    from .analysis import summarize

    if shards < 1:
        raise ValueError("shards must be >= 1")
    bounds = [round(i * cfg.rounds / shards) for i in range(shards + 1)]
    records: List[RoundRecord] = []
    for lo, hi in zip(bounds, bounds[1:]):
        records.extend(run_rounds(cfg, lo, hi))
    return records, summarize(records)
