"""Eavesdropping strategies acting on the two traveling channel modes.

Every strategy is a plugin that rewires (and possibly transforms) the
channel: it receives the traveling rails "a2" (Alice -> Bob) and "b2"
(Bob -> Alice), may add its own modes, and tells each party which rail
arrives at their recombiner. Stored rails "a1"/"b1" are off limits. A
strategy declares its per-round random bits as case tables (`bit_cases`)
and is stateless between rounds.

A strategy is an optical network, declared as data: its own `modes`, its
`gates` (beam splitters and phase shifts), its `rails` to Alice and to Bob,
and the input port each of its bits selects (`bit_ports`). `networks()`
lists the networks a round runs; an adversary who measures mid-round and
adapts her resend runs one network per resend case. The engine and the
exact oracle evolve these networks with `fock.evolve_latents`; the networks
are each strategy's only definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from . import fock
from .fock import BeamSplitter, PhaseShift

# A case table [(value, probability)] defines one random step; the sampler
# draws from it and the exact oracle sums over it.
Cases = Tuple[Tuple[object, float], ...]

# Fair ±1 bit (logic 1 <-> +1, logic 0 <-> -1).
BIT_CASES: Cases = ((1, 0.5), (-1, 0.5))

ATTACK_KINDS = ("none", "phase", "mitm", "devil", "short-circuit")
CHANNEL_NAMES = ("alice-to-bob", "bob-to-alice")

# Traveling rails at the interception point.
RAIL_TO_BOB = "a2"
RAIL_TO_ALICE = "b2"


@dataclass(frozen=True)
class AttackStrategy:
    """Declarative attack configuration, as selected on the command line."""

    kind: str = "none"
    phi: float = 0.0
    channels: Tuple[str, ...] = ("alice-to-bob",)

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}; choose from {ATTACK_KINDS}")
        if self.kind == "phase":
            if not 0.0 <= self.phi <= math.pi:
                raise ValueError(f"phase attack phi must lie in [0, pi], got {self.phi}")
            if not self.channels:
                raise ValueError("phase attack needs at least one channel")
            for ch in self.channels:
                if ch not in CHANNEL_NAMES:
                    raise ValueError(f"unknown channel {ch!r}; choose from {CHANNEL_NAMES}")


class Network(NamedTuple):
    """One optical network of an attack: its `gates`, run after the parties'
    sources and before their recombiners, and the photons it injects
    whatever the bits (`inputs`, one port per photon). A network that stands
    for one resend case of a measuring adversary carries the case's `weight`
    and keeps only the entries whose total count on `eve_ports` lies in the
    range `eve_totals` (None keeps every entry)."""

    gates: Tuple[fock.Gate, ...] = ()
    inputs: Tuple[str, ...] = ()
    weight: float = 1.0
    eve_totals: Optional[range] = None


class Attack:
    """Base channel hook: pass the rails through untouched."""

    kind = "none"
    eve_ports: Tuple[str, ...] = ()
    bit_cases: Tuple[Cases, ...] = ()  # one case table per adversary bit, in draw order
    modes: Tuple[str, ...] = ()  # the adversary's own modes
    gates: Tuple[fock.Gate, ...] = ()
    rails: Tuple[str, str] = (RAIL_TO_ALICE, RAIL_TO_BOB)  # (to Alice, to Bob)
    # Per bit of `bit_cases`: (input port of bit +1, input port of bit -1);
    # the bit puts one photon on its port.
    bit_ports: Tuple[Tuple[str, str], ...] = ()

    def networks(self) -> Tuple[Network, ...]:
        """The networks a round runs; their entries add up."""
        return (Network(self.gates),)

    def learn(
        self, bits: tuple, eve_counts: Optional[Tuple[int, ...]], alice_result: Optional[int]
    ) -> Optional[int]:
        """Eve's inference of n once Alice's single-click result is public.
        `eve_counts` is aligned with `eve_ports`."""
        return None


class NullAttack(Attack):
    kind = "none"


class PhaseTamperAttack(Attack):
    """Shift the phase of photons on one or both traveling rails."""

    kind = "phase"

    def __init__(self, phi: float, channels: Tuple[str, ...]):
        rails = {"alice-to-bob": RAIL_TO_BOB, "bob-to-alice": RAIL_TO_ALICE}
        self.gates = tuple(PhaseShift(rails[ch], phi) for ch in CHANNEL_NAMES if ch in channels)


class InterceptResendAttack(Attack):
    """Terminate both channels, playing Bob toward Alice and Alice toward Bob.

    Eve keeps one mode of each of her own entangled pairs, forwards the
    other, and interferes her kept modes with the intercepted rails exactly
    as the honest receiver would. Her detectors are measured jointly with
    the parties' (all ports are disjoint, so the order is immaterial).
    """

    kind = "mitm"
    eve_ports = ("e1", RAIL_TO_BOB, "e3", RAIL_TO_ALICE)
    bit_cases = (BIT_CASES, BIT_CASES)  # (p toward Alice, q toward Bob)
    modes = ("e1", "e2", "e3", "e4")
    # Her two sources, then her recombiners: kept mode on in1, intercepted
    # rail on in2.
    gates = (
        BeamSplitter("e1", "e2"),
        BeamSplitter("e3", "e4"),
        BeamSplitter("e1", RAIL_TO_BOB),
        BeamSplitter("e3", RAIL_TO_ALICE),
    )
    rails = ("e2", "e4")
    bit_ports = (("e1", "e2"), ("e3", "e4"))

    def learn(self, bits, eve_counts, alice_result):
        # Her Alice-side ports ("e1", RAIL_TO_BOB) lead `eve_ports`.
        if alice_result is None or eve_counts[0] + eve_counts[1] != 1:
            return None
        eve_click = 1 if eve_counts[0] == 1 else 2
        return bits[0] if alice_result == eve_click else -bits[0]


class AdaptiveInterceptAttack(InterceptResendAttack):
    """Intercept/resend where Eve measures her Alice-side interference first
    and picks the resend so Bob's count tracks what Alice is about to see:
    Eve counted 0 (Alice will see 2) -> send vacuum; Eve counted 2 (Alice
    will see 0) -> send one fresh photon; Eve counted 1 -> forward her
    prepared pair mode unchanged.
    """

    kind = "devil"
    eve_ports = ("e1", RAIL_TO_BOB)
    bit_cases = (BIT_CASES,)  # p; q belongs to the resend on the forward branch
    bit_ports = (("e1", "e2"),)
    gates = (BeamSplitter("e1", "e2"), BeamSplitter("e1", RAIL_TO_BOB))

    def networks(self):
        """One network per resend case. Eve's ports are not touched after
        her splitter, so measuring them last gives the same joint counts;
        each network keeps the entries whose Eve total selects its case:
        total 0 -> vacuum, total 1 -> a fresh (e3, e4) pair with q = +-1,
        total >= 2 -> one photon on e4."""
        pair = self.gates + (BeamSplitter("e3", "e4"),)
        return (
            Network(self.gates, eve_totals=range(0, 1)),
            *(
                Network(pair, (port,), weight, eve_totals=range(1, 2))
                for port, (_, weight) in zip(("e3", "e4"), BIT_CASES)  # q = +1, -1
            ),
            # Her two ports hold at most 2 * OCCUPANCY_CAP photons.
            Network(self.gates, ("e4",), eve_totals=range(2, 2 * fock.OCCUPANCY_CAP + 1)),
        )


class ShortCircuitAttack(Attack):
    """Return each party's own traveling rail to their own recombiner.

    Both apparatuses close into Mach-Zehnder interferometers, so each click
    is a deterministic function of that party's own bit and Alice's public
    result hands Eve the key.
    """

    kind = "short-circuit"
    rails = (RAIL_TO_BOB, RAIL_TO_ALICE)

    def learn(self, bits, eve_counts, alice_result):
        if alice_result is None:
            return None
        # The self-inverse beam splitter sends the photon back to its
        # injection rail: port 1 <=> bit +1.
        return 1 if alice_result == 1 else -1


def build(strategy: AttackStrategy) -> Attack:
    """Instantiate the channel hook for a declarative strategy."""
    if strategy.kind == "none":
        return NullAttack()
    if strategy.kind == "phase":
        return PhaseTamperAttack(strategy.phi, strategy.channels)
    if strategy.kind == "mitm":
        return InterceptResendAttack()
    if strategy.kind == "devil":
        return AdaptiveInterceptAttack()
    if strategy.kind == "short-circuit":
        return ShortCircuitAttack()
    raise ValueError(f"unknown attack kind {strategy.kind!r}")
