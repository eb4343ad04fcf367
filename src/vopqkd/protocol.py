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
engine draws whole blocks of rounds from the tables as numpy columns; the
exact oracle in `analysis` sums over the same tables and the same latent
outcome tables (`build_latents`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import attacks as attacks_mod
from . import fock
from .attacks import BIT_CASES, Attack, AttackStrategy, Cases
from .fock import BeamSplitter, FockState, OutcomeDistribution

ALICE_MODES = ("a1", "a2")  # (stored, traveling)
BOB_MODES = ("b1", "b2")

# Joint detected totals (alice, bob) reachable by the honest ideal protocol.
HONEST_COINCIDENCE_SUPPORT = frozenset({(1, 1), (2, 0), (0, 2)})

DETECTOR_KINDS = ("pnr", "threshold")

ANNOUNCE = "announce-bit"
COUNT = "photon-count-check"
CONTROL_KINDS = (None, ANNOUNCE, COUNT)  # codes of the `Rounds.control_kind` column

# Each round reads a fixed budget of uniforms, one slot per random quantity,
# whatever branch it takes, so a round depends only on (config, seed, index)
# and shard boundaries cannot shift the stream. Round i reads the doubles at
# offset 12*i of the Philox stream keyed by the seed: a Philox counter step
# yields 4 doubles, so round i starts at counter 3*i.
UNIFORMS_PER_ROUND = 12
SLOT_COUNT_CONTROL = 0
SLOT_LATENTS = 1  # n, m, the two emissions, then the adversary's bits
LATENT_SLOTS = 7
SLOT_OUTCOME = 8  # the joint photon counts given the latents
SLOT_DETECTOR_ALICE = 9
SLOT_DETECTOR_BOB = 10
SLOT_ANNOUNCE = 11

SEED_LIMIT = 2**64  # Philox keys are 128-bit; the CLI seed is one 64-bit word

# Rounds drawn per numpy pass. It bounds the temporaries of any session (a
# pass's uniforms take 384 KiB); passes of 2**16 rounds were no faster end to
# end on sessions of 7,000-11,000 rounds and left about 0.3 MB more resident.
BLOCK_ROUNDS = 1 << 12
# Rounds turned into Python objects or text at a time.
CHUNK_ROUNDS = 4096


class Table(NamedTuple):
    """A case table as arrays: `values` (one row per case; every case value
    of a round is a small integer: a bit, a photon count or a tuple of
    counts) and the cumulative probabilities `cum`."""

    values: np.ndarray
    cum: np.ndarray

    @classmethod
    def of(cls, cases) -> "Table":
        values, probs = zip(*cases)
        return cls(np.array(values, dtype=np.int8), np.cumsum(probs))

    def draw(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The value for each uniform in `u`: the first case whose cumulative
        probability exceeds it, the last case against rounding at u ~ 1."""
        index = np.searchsorted(self.cum, u, side="right")
        np.minimum(index, len(self.cum) - 1, out=index)
        return np.take(self.values, index, axis=0, out=out)


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
    kind: str  # ANNOUNCE | COUNT
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


# `RoundRecord.to_json_dict` rendered straight from column values; the
# lookups map column codes to their JSON text.
_JSONL_LINE = (
    '{{"round": {}, "n": {}, "m": {}, "alice_counts": [{}, {}], "bob_counts": [{}, {}], '
    '"accepted": {}, "announcement": {}, "inferred": {}, "control_kind": {}, '
    '"control_flagged": {}, "eve_knows_n": {}, "photon_anomaly": {}}}\n'
)
_JSON_BOOL = ("false", "true")
_JSON_ANNOUNCEMENT = ("null", '"Da1"', '"Da2"')
_JSON_OPTIONAL_BIT = {0: "null", 1: "1", -1: "-1"}
_JSON_CONTROL_KIND = ("null", f'"{ANNOUNCE}"', f'"{COUNT}"')
_JSON_CONTROL_FLAG = ("null", "false", "true")  # no control, not flagged, flagged


@dataclass(frozen=True, eq=False)
class Rounds:
    """A block of rounds as numpy columns, one row per round.

    Optional values are coded 0 for None: `announcement` (detector index),
    `inferred` and `eve_learned` (bits +-1), and `control_kind` (an index
    into CONTROL_KINDS). `eve_counts` is None for attacks without detectors.
    Length, iteration and indexing yield `RoundRecord` views; a slice yields
    a `Rounds`.
    """

    index: np.ndarray
    n: np.ndarray
    m: np.ndarray
    alice_counts: np.ndarray  # (rounds, 2)
    bob_counts: np.ndarray  # (rounds, 2)
    accepted: np.ndarray
    announcement: np.ndarray
    inferred: np.ndarray
    control_kind: np.ndarray
    control_flagged: np.ndarray
    photon_anomaly: np.ndarray
    eve_counts: Optional[np.ndarray]  # (rounds, len(eve_ports))
    eve_learned: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def _columns(self, rows) -> dict:
        return {
            f.name: None if getattr(self, f.name) is None else getattr(self, f.name)[rows]
            for f in fields(self)
        }

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Rounds(**self._columns(key))
        i = range(len(self))[key]
        return next(self._records(slice(i, i + 1)))

    def __iter__(self) -> Iterator[RoundRecord]:
        for lo in range(0, len(self), CHUNK_ROUNDS):
            yield from self._records(slice(lo, lo + CHUNK_ROUNDS))

    def _records(self, rows: slice) -> Iterator[RoundRecord]:
        columns = [
            itertools.repeat(None) if c is None else c.tolist() for c in self._columns(rows).values()
        ]
        for i, n, m, a, b, acc, ann, inf, kind, flag, anomaly, ev, learned in zip(*columns):
            yield RoundRecord(
                round_index=i,
                n=n,
                m=m,
                alice_counts=tuple(a),
                bob_counts=tuple(b),
                accepted=acc,
                announcement=ann or None,
                inferred=inf or None,
                control=ControlOutcome(CONTROL_KINDS[kind], flag) if kind else None,
                photon_anomaly=anomaly,
                eve_counts=None if ev is None else tuple(ev),
                eve_learned=learned or None,
            )

    def jsonl_chunks(self) -> Iterator[str]:
        """The records' wire form, one JSON line per round, in chunks of
        CHUNK_ROUNDS lines rendered straight from the columns."""
        for lo in range(0, len(self), CHUNK_ROUNDS):
            rows = slice(lo, lo + CHUNK_ROUNDS)
            flag = np.where(self.control_kind[rows] > 0, 1 + self.control_flagged[rows], 0)
            columns = (
                self.index[rows], self.n[rows], self.m[rows],
                *self.alice_counts[rows].T, *self.bob_counts[rows].T,
                self.accepted[rows], self.announcement[rows], self.inferred[rows],
                self.control_kind[rows], flag, self.eve_learned[rows] != 0,
                self.photon_anomaly[rows],
            )
            yield "".join(
                _JSONL_LINE.format(
                    i, n, m, a1, a2, b1, b2, _JSON_BOOL[acc], _JSON_ANNOUNCEMENT[ann],
                    _JSON_OPTIONAL_BIT[inf], _JSON_CONTROL_KIND[kind], _JSON_CONTROL_FLAG[fl],
                    _JSON_BOOL[knows], _JSON_BOOL[anomaly],
                )
                for i, n, m, a1, a2, b1, b2, acc, ann, inf, kind, fl, knows, anomaly in zip(
                    *(c.tolist() for c in columns)
                )
            )

    @classmethod
    def concat(cls, parts: Sequence["Rounds"]) -> "Rounds":
        """The rounds of `parts`, in order."""
        if len(parts) == 1:
            return parts[0]
        return cls(**{
            f.name: None if getattr(parts[0], f.name) is None
            else np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(cls)
        })


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
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        for name in ("control_announce_fraction", "control_count_fraction"):
            f = getattr(self, name)
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {f}")


@functools.lru_cache(maxsize=64)
def encoded_pair_state(bit: int, modes: Tuple[str, str], photons: int = 1) -> FockState:
    """Source path: inject `photons` on the bit's input port, then the splitter.

    bit +1 injects on the first port, -1 on the second. One photon yields the
    carrier (|01> + bit|10>)/sqrt(2); two photons yield
    (1/2)|20> + (bit/sqrt(2))|11> + (1/2)|02>, both in (stored, traveling)
    ket order.

    A constant of its arguments, built once per process and shared by every
    session (the protocol's modes give 8 states): gates never change their
    input, and no caller may change the returned state.
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


def infer_bit(alice_click, bob_click, m):
    """Bob's reconstruction of n from Alice's announced click and his own.
    Takes scalars or equal-length arrays."""
    alice_click, bob_click, m = np.asarray(alice_click), np.asarray(bob_click), np.asarray(m)
    for click in (alice_click, bob_click):
        if not np.all((click == 1) | (click == 2)):
            raise ValueError("clicks must be detector indices 1 or 2")
    if not np.all(np.abs(m) == 1):
        raise ValueError(f"m must be +1 or -1, got {m}")
    bit = np.where(alice_click == bob_click, m, -m)
    return bit if bit.ndim else int(bit)


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


def _single_click(reported: np.ndarray) -> np.ndarray:
    """Detector index (1|2) where the side registered exactly one photon or
    click, else 0."""
    return np.where(reported.sum(axis=1) == 1, np.where(reported[:, 0] == 1, 1, 2), 0)


def latent_tables(cfg: SessionConfig, attack: Attack) -> List[Cases]:
    """Case tables of a round's discrete latents, in slot order: the bits n
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
    followed by the adversary's ports, for one assignment of the latents,
    in canonical order: entries sorted by their port tuple.

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
    return OutcomeDistribution(ports, dict(sorted(entries.items())))


class Latents(NamedTuple):
    """Every latent's outcome table for one recombine flag, as flat arrays.

    `rows` holds every distinct port row (counts on "a1", rail to Alice,
    "b1", rail to Bob, then the adversary's ports) in lexicographic order.
    Latent `keys[i]` = (n, m, na, nb, bits) owns the entries
    `bounds[i]:bounds[i + 1]`: ascending indices `row` into `rows`, so its
    table is in canonical order, and their probabilities `p`.
    """

    keys: List[tuple]
    rows: np.ndarray  # (distinct rows, ports) int8
    row: np.ndarray
    p: np.ndarray
    bounds: np.ndarray

    def table(self, i: int) -> Table:
        """The draw table of latent `keys[i]`."""
        entries = slice(self.bounds[i], self.bounds[i + 1])
        return Table(self.rows[self.row[entries]], np.cumsum(self.p[entries]))


def latent_keys(tables: Sequence[Cases]) -> List[tuple]:
    """Every latent assignment (n, m, na, nb, bits) of the case tables, in
    `itertools.product` order."""
    return [
        (n, m, na, nb, tuple(bits))
        for n, m, na, nb, *bits in itertools.product(*[[v for v, _ in cases] for cases in tables])
    ]


def _checked_latents(keys, latent, codes, p, base, nports) -> Latents:
    """`Latents` from pieces (latent index, port-row code, probability) in
    any order. Pieces of one latent and row add up, and every latent's total
    must be 1 within NORM_TOL."""
    order = np.lexsort((codes, latent))
    latent, codes, p = latent[order], codes[order], p[order]
    first = np.flatnonzero(np.concatenate(([True], (latent[1:] != latent[:-1]) | (codes[1:] != codes[:-1]))))
    latent, codes, p = latent[first], codes[first], np.add.reduceat(p, first)
    totals = np.bincount(latent, p, minlength=len(keys))
    for i in np.flatnonzero(np.abs(totals - 1.0) > fock.NORM_TOL)[:1]:
        raise RuntimeError(f"mixture total {totals[i]} drifted past tolerance for latents {keys[i]}")
    codes, row = np.unique(codes, return_inverse=True)
    rows = (codes[:, None] // base ** np.arange(nports - 1, -1, -1)) % base  # the codes' digits
    return Latents(keys, rows.astype(np.int8), row, p, np.searchsorted(latent, np.arange(len(keys) + 1)))


def build_latents(attack: Attack, tables: Sequence[Cases], recombine: bool) -> Latents:
    """Every latent of the case tables, evolved through the attack's networks
    by `fock.evolve_latents`: one call per distinct (gates, photon number).

    Alice's bit n puts her na photons on "a1" (+1) or "a2" (-1) ahead of her
    source splitter, Bob's m his nb photons on "b1" or "b2", and each
    adversary bit one photon on its `bit_ports` entry. With `recombine` the
    parties' recombiners close the network (count-control rounds skip
    them). An entry is kept when its probability exceeds fock.PRUNE_EPS**2,
    the square of the amplitude the sparse algebra prunes.
    """
    keys = latent_keys(tables)
    to_alice, to_bob = attack.rails
    ports = (ALICE_MODES[0], to_alice, BOB_MODES[0], to_bob) + attack.eve_ports
    # The measured ports lead the modes, so the occupation space, in
    # lexicographic order, lists the occupations of each port row as one run.
    modes = ports + tuple(m for m in ALICE_MODES + BOB_MODES + attack.modes if m not in ports)
    position = {mode: i for i, mode in enumerate(modes)}
    sources = (BeamSplitter(*ALICE_MODES), BeamSplitter(*BOB_MODES))
    recombiners = (BeamSplitter(ALICE_MODES[0], to_alice), BeamSplitter(BOB_MODES[0], to_bob))
    party_inputs = [
        [ALICE_MODES[n == -1]] * na + [BOB_MODES[m == -1]] * nb
        + [pair[bit == -1] for pair, bit in zip(attack.bit_ports, bits)]
        for n, m, na, nb, bits in keys
    ]
    # Every (network, latent), grouped by the network's gates and the photon
    # number: each group evolves in one call.
    groups: Dict[tuple, list] = {}
    for net in attack.networks():
        totals = range(0, 2**31) if net.eve_totals is None else net.eve_totals
        for i, party in enumerate(party_inputs):
            inputs = [position[port] for port in party + list(net.inputs)]
            groups.setdefault((net.gates, len(inputs)), []).append(
                (i, inputs, net.weight, totals.start, totals.stop)
            )
    base = 1 + max(photons for _, photons in groups)
    pieces = []
    for (gates, photons), runs in groups.items():
        latent, inputs, weight, lo, hi = (np.array(column) for column in zip(*runs))
        unitary = fock.network_unitary(modes, sources + gates + (recombiners if recombine else ()))
        prob = np.abs(fock.evolve_latents(unitary, inputs)) ** 2
        space = fock.occupation_space(len(modes), photons)
        if photons > fock.OCCUPANCY_CAP:
            over = (space.max(axis=1) > fock.OCCUPANCY_CAP)[:, None] & (prob > fock.PRUNE_EPS**2)
            for occ, col in np.argwhere(over)[:1]:
                raise fock.OccupancyError(
                    f"occupation {tuple(space[occ])} of {modes} exceeds cap "
                    f"{fock.OCCUPANCY_CAP} for latents {keys[latent[col]]}"
                )
        rows = space[:, : len(ports)]
        if len(ports) < len(modes):  # add up each run over the unmeasured modes
            first = np.flatnonzero(np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1))))
            rows, prob = rows[first], np.add.reduceat(prob, first, axis=0)
        eve_total = rows[:, 4:].sum(axis=1)[:, None]
        prob *= weight * ((eve_total >= lo) & (eve_total < hi))
        col, row = np.nonzero(prob.T > fock.PRUNE_EPS**2)
        pieces.append((latent[col], fock.occupation_codes(rows, base)[row], prob[row, col]))
    latent, codes, p = (np.concatenate(part) for part in zip(*pieces))
    return _checked_latents(keys, latent, codes, p, base, len(ports))


def reference_latents(attack: Attack, tables: Sequence[Cases], recombine: bool) -> Latents:
    """`build_latents` from `latent_distribution`, one latent at a time on
    the sparse algebra: the reference the kernel is tested against."""
    keys = latent_keys(tables)
    base = 2 * fock.OCCUPANCY_CAP + 1
    pieces = [
        (i, sum(c * base**k for k, c in enumerate(reversed(occ))), p)
        for i, key in enumerate(keys)
        for occ, p in latent_distribution(attack, *key, recombine).entries.items()
    ]
    latent, codes, p = (np.array(part) for part in zip(*pieces))
    return _checked_latents(keys, latent, codes, p, base, 4 + len(attack.eve_ports))


def round_uniforms(seed: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start, UNIFORMS_PER_ROUND) uniforms of rounds [start, stop)."""
    bitgen = np.random.Philox(key=seed, counter=start * (UNIFORMS_PER_ROUND // 4))
    return np.random.Generator(bitgen).random((stop - start, UNIFORMS_PER_ROUND))


def _groups(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of small-integer columns: (one row holding each
    distinct row, the inverse mapping every row to its distinct row)."""
    code = np.zeros(len(columns[0]), dtype=np.int64)
    for col in columns:
        col = col.astype(np.int64)
        lo = int(col.min(initial=0))
        code = code * (int(col.max(initial=0)) - lo + 1) + (col - lo)
    present = np.bincount(code) > 0
    holder = np.empty(len(present), dtype=np.int64)
    holder[code] = np.arange(len(code))  # any row of a group stands for all of it
    return holder[present], (np.cumsum(present) - 1)[code]


def _draw_grouped(tables: Sequence[Table], inverse: np.ndarray, u: np.ndarray, width: int) -> np.ndarray:
    """Row r's value drawn from tables[inverse[r]] with uniform u[r]; each
    value is a row of `width` small integers."""
    # A block has at most BLOCK_ROUNDS <= 2**16 rows, hence groups: a stable
    # sort of 16-bit keys is a radix sort. Drawing each group into a slice of
    # one block-sized array keeps the group-sized temporaries, which numpy
    # caches by size, to the searchsorted index alone.
    order = np.argsort(inverse.astype(np.uint16), kind="stable")
    grouped_u = u[order]
    drawn = np.empty((len(u), width), dtype=np.int8)
    lo = 0
    for table, hi in zip(tables, np.cumsum(np.bincount(inverse, minlength=len(tables)))):
        table.draw(grouped_u[lo:hi], out=drawn[lo:hi])
        lo = hi
    out = np.empty_like(drawn)
    out[order] = drawn
    return out


class RoundEngine:
    """Samples the rounds of one session as numpy columns.

    A round is a pure function of (cfg, attack, index, seed): round i reads
    its own uniforms (`round_uniforms`), one slot per random quantity, so any
    block [start, stop) equals the same rows of [0, N). The first time the
    engine meets a recombine flag it builds every latent's outcome table of
    that flag in one `build_latents` call and keeps it; the exact oracle can
    share them through `latents`.
    """

    def __init__(self, cfg: SessionConfig, attack: Optional[Attack] = None):
        self.cfg = cfg
        self.attack = attacks_mod.build(cfg.attack) if attack is None else attack
        self.tables = latent_tables(cfg, self.attack)
        if len(self.tables) > LATENT_SLOTS:
            raise ValueError(
                f"a round has {LATENT_SLOTS} latent slots, the attack needs {len(self.tables)}"
            )
        self._latent_arrays = [Table.of(cases) for cases in self.tables]
        self._latents: Dict[bool, Tuple[Latents, Dict[tuple, Table]]] = {}
        self._detectors: Dict[tuple, Table] = {}

    def _built(self, recombine: bool) -> Tuple[Latents, Dict[tuple, Table]]:
        entry = self._latents.get(recombine)
        if entry is None:
            latents = build_latents(self.attack, self.tables, recombine)
            tables = {key: latents.table(i) for i, key in enumerate(latents.keys)}
            entry = self._latents[recombine] = (latents, tables)
        return entry

    def latents(self, recombine: bool) -> Latents:
        """Every latent's outcome table for the flag, built once."""
        return self._built(recombine)[0]

    def _detect(self, true_counts: np.ndarray, device: DeviceModel, u: np.ndarray) -> np.ndarray:
        holders, inverse = _groups(true_counts[:, 0], true_counts[:, 1])
        tables = []
        for pair in map(tuple, true_counts[holders].tolist()):
            key = (pair, device.eta, device.detector_kind)
            if key not in self._detectors:
                self._detectors[key] = Table.of(detector_cases(*key))
            tables.append(self._detectors[key])
        return _draw_grouped(tables, inverse, u, 2)

    def rounds(self, start: int, stop: int) -> Rounds:
        """Rounds [start, stop) of the session, each pass of BLOCK_ROUNDS
        written into columns allocated once."""
        if not 0 <= start <= stop:
            raise ValueError(f"need 0 <= start <= stop, got [{start}, {stop})")
        if stop - start <= BLOCK_ROUNDS:
            return self._block(start, stop)
        columns = None
        for lo in range(start, stop, BLOCK_ROUNDS):
            part = self._block(lo, min(lo + BLOCK_ROUNDS, stop))._columns(slice(None))
            if columns is None:
                columns = {
                    name: None if col is None else np.empty((stop - start, *col.shape[1:]), col.dtype)
                    for name, col in part.items()
                }
            for name, col in part.items():
                if col is not None:
                    columns[name][lo - start : lo - start + len(col)] = col
        return Rounds(**columns)

    def _block(self, start: int, stop: int) -> Rounds:
        cfg, attack = self.cfg, self.attack
        u = round_uniforms(cfg.seed, start, stop)
        count_control = u[:, SLOT_COUNT_CONTROL] < cfg.control_count_fraction
        latents = np.stack(
            [table.draw(u[:, SLOT_LATENTS + j]) for j, table in enumerate(self._latent_arrays)], axis=1
        )  # (n, m, na, nb, *bits) per round
        n, m = latents[:, 0], latents[:, 1]

        # The joint photon counts (a1, rail to Alice, b1, rail to Bob,
        # *eve_ports), one draw from each distinct latent's distribution.
        holders, inverse = _groups(count_control, *latents.T)
        tables = [
            self._built(not control)[1][(*row[:4], tuple(row[4:]))]
            for row, control in zip(latents[holders].tolist(), count_control[holders].tolist())
        ]
        counts = _draw_grouped(tables, inverse, u[:, SLOT_OUTCOME], 4 + len(attack.eve_ports))

        alice_rep = self._detect(counts[:, 0:2], cfg.device_alice, u[:, SLOT_DETECTOR_ALICE])
        bob_rep = self._detect(counts[:, 2:4], cfg.device_bob, u[:, SLOT_DETECTOR_BOB])
        alice_res = np.where(count_control, 0, _single_click(alice_rep))
        bob_res = _single_click(bob_rep)
        accepted = (alice_res > 0) & (bob_res > 0)
        inferred = np.zeros(len(u), dtype=np.int8)
        inferred[accepted] = infer_bit(alice_res[accepted], bob_res[accepted], m[accepted])

        # Announce-bit verification: Alice also reveals n on an accepted round
        # and Bob checks his inference against it.
        announce = accepted & (u[:, SLOT_ANNOUNCE] < cfg.control_announce_fraction)
        # Destructive count check: no recombination, direct photon counts
        # compared across the channel. Each source emits exactly one photon
        # (ideal source), so stored + counterpart-received must total 1 per
        # party.
        count_flag = (counts[:, 0] + counts[:, 3] != 1) | (counts[:, 2] + counts[:, 1] != 1)
        control_kind = np.where(
            count_control, CONTROL_KINDS.index(COUNT), np.where(announce, CONTROL_KINDS.index(ANNOUNCE), 0)
        )
        control_flagged = np.where(count_control, count_flag, announce & (inferred != n))

        totals = (alice_rep.sum(axis=1), bob_rep.sum(axis=1))
        honest_totals = np.zeros(len(u), dtype=bool)
        for a, b in HONEST_COINCIDENCE_SUPPORT:
            honest_totals |= (totals[0] == a) & (totals[1] == b)

        # Eve's inference, once per distinct (bits, her counts, Alice's result).
        eve_counts = counts[:, 4:] if attack.eve_ports else None
        eve_learned = np.zeros(len(u), dtype=np.int8)
        normal = np.flatnonzero(~count_control)
        bits = latents[normal, 4:]
        eve = np.empty((len(normal), 0)) if eve_counts is None else eve_counts[normal]
        holders, inverse = _groups(*bits.T, *eve.T, alice_res[normal])
        learned = [
            attack.learn(tuple(b), None if eve_counts is None else tuple(e), res or None)
            for b, e, res in zip(
                bits[holders].tolist(), eve[holders].tolist(), alice_res[normal][holders].tolist()
            )
        ]
        eve_learned[normal] = np.array([bit or 0 for bit in learned], dtype=np.int8)[inverse]

        return Rounds(
            index=np.arange(start, stop, dtype=np.int64),
            n=n.astype(np.int8),
            m=m.astype(np.int8),
            alice_counts=np.where(count_control[:, None], counts[:, 0:2], alice_rep),
            bob_counts=np.where(count_control[:, None], counts[:, 2:4], bob_rep),
            accepted=accepted,
            announcement=np.where(accepted, alice_res, 0).astype(np.int8),
            inferred=inferred,
            control_kind=control_kind.astype(np.int8),
            control_flagged=control_flagged,
            photon_anomaly=~count_control & ~honest_totals,
            eve_counts=eve_counts,
            eve_learned=eve_learned,
        )


def run_session(cfg: SessionConfig):
    """Run a full session. Returns (Rounds, SessionSummary)."""
    from .analysis import summarize  # import here: analysis consumes this module

    rounds = RoundEngine(cfg).rounds(0, cfg.rounds)
    return rounds, summarize(rounds)


def run_session_sharded(cfg: SessionConfig, shards: int):
    """Run the session split into round-range shards and merge the results.

    Per-round uniforms make this identical to the single-shard run.
    """
    from .analysis import summarize

    if shards < 1:
        raise ValueError("shards must be >= 1")
    engine = RoundEngine(cfg)
    bounds = [round(i * cfg.rounds / shards) for i in range(shards + 1)]
    rounds = Rounds.concat([engine.rounds(lo, hi) for lo, hi in zip(bounds, bounds[1:])])
    return rounds, summarize(rounds)
