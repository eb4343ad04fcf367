"""Seed-generated inputs for the three benchmark workloads.

A workload is an endless sequence of cycles; each cycle is a list of CLI
operations with a fixed composition, so every complete cycle does the same
kind of work whatever the seed. The seed picks each operation's CLI `--seed`,
the order within a cycle and, on oracle-sweep, the continuous parameters
(phi, p2, eta) of each grid cell.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

WORKLOADS = {
    "session-mix": (
        "long `run --format json` sessions over every CLI preset plus controls and "
        "device scenarios: the per-round loop dominates, fock almost never runs"
    ),
    "records-jsonl": (
        "the same session mix with `--format jsonl`: record building, serialization "
        "and resident records show in rounds/s and peak memory"
    ),
    "oracle-sweep": (
        "many short `oracle` runs over a seed-generated phi / attack / p2 x detector x "
        "eta grid, each with a cold latent cache: fock and the exact oracle dominate"
    ),
}

# A copy of `vopqkd.cli.SCENARIO_PRESETS` as it stood when this benchmark was
# defined, so that a later change to the presets does not change the workload.
PRESETS: Dict[str, dict] = {
    "honest": {},
    "phase-pi2": {"attack": "phase", "phi": math.pi / 2},
    "phase-pi": {"attack": "phase", "phi": math.pi},
    "mitm": {"attack": "mitm"},
    "devil": {"attack": "devil"},
    "short-circuit": {"attack": "short-circuit"},
    "two-photon": {"p2": 1.0},
    "two-photon-threshold": {"p2": 1.0, "detector": "threshold"},
}

EXTRA_SCENARIOS: Dict[str, dict] = {
    "phase-pi2-announce": {
        "attack": "phase", "phi": math.pi / 2, "control_announce_fraction": 0.3,
    },
    "short-circuit-controls": {
        "attack": "short-circuit",
        "control_announce_fraction": 0.3,
        "control_count_fraction": 0.1,
    },
    "p2-threshold-eta": {"p2": 0.3, "detector": "threshold", "eta": 0.8},
}

# Rounds per session, sized so that each session takes about 0.3 s at the
# commit that defined the benchmark (2-core Xeon, Python 3.11). Near-equal
# session times keep the latency percentiles away from the gaps between
# scenarios, so they do not jump when a run completes one cycle more.
SESSION_ROUNDS: Dict[str, int] = {
    "honest": 11000,
    "phase-pi2": 10000,
    "phase-pi": 10000,
    "mitm": 9000,
    "devil": 7000,
    "short-circuit": 10000,
    "two-photon": 10000,
    "two-photon-threshold": 9000,
    "phase-pi2-announce": 10000,
    "short-circuit-controls": 9000,
    "p2-threshold-eta": 8000,
}

ORACLE_ROUNDS = 256

# Complete cycles in the traced pass: a fixed amount of work, so that call
# counts compare across commits.
TRACE_CYCLES = {"session-mix": 1, "records-jsonl": 1, "oracle-sweep": 12}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `vopqkd <command> <scenario flags> ...`."""

    scenario: str
    command: str  # "run" | "oracle"
    params: Tuple[Tuple[str, object], ...]  # flat ScenarioConfig keys
    rounds: int
    seed: int
    fmt: str  # "json" | "jsonl" | "csv"

    @property
    def config(self) -> dict:
        return dict(self.params)

    def argv(self, out_path: str) -> List[str]:
        argv = [self.command, "--rounds", str(self.rounds), "--seed", str(self.seed)]
        for key, value in self.params:
            flag = "--" + key.replace("_", "-")
            argv += [flag, ",".join(value) if isinstance(value, tuple) else str(value)]
        return argv + ["--format", self.fmt, "--out", out_path]


def _params(flat: dict) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(flat.items()))


def session_scenarios() -> Dict[str, dict]:
    return {**PRESETS, **EXTRA_SCENARIOS}


def _session_cycle(rng: random.Random, fmt: str, scale: float) -> List[Op]:
    names = list(session_scenarios())
    rng.shuffle(names)
    return [
        Op(name, "run", _params(session_scenarios()[name]),
           max(1, int(SESSION_ROUNDS[name] * scale)), rng.randrange(2**31), fmt)
        for name in names
    ]


def _oracle_cycle(rng: random.Random, scale: float) -> List[Op]:
    cells: List[Tuple[str, dict]] = []
    # phi sweep over [0, pi] in eight strata, alternating the tampered channels.
    for k in range(8):
        phi = (k + rng.random()) * math.pi / 8
        channels = ("alice-to-bob",) if k % 2 == 0 else ("alice-to-bob", "bob-to-alice")
        cells.append((f"phi-{k}", {"attack": "phase", "phi": phi, "channels": channels}))
    # every attack kind
    cells.append(("attack-none", {}))
    cells.append(("attack-phase", {"attack": "phase", "phi": rng.uniform(0.0, math.pi)}))
    for kind in ("mitm", "devil", "short-circuit"):
        cells.append((f"attack-{kind}", {"attack": kind}))
    # p2 x detector x eta
    for p2_kind in ("zero", "mixed", "one"):
        p2 = {"zero": 0.0, "mixed": rng.uniform(0.05, 0.5), "one": 1.0}[p2_kind]
        for detector in ("pnr", "threshold"):
            for eta_kind in ("ideal", "lossy"):
                eta = 1.0 if eta_kind == "ideal" else rng.uniform(0.6, 0.95)
                cells.append((
                    f"p2-{p2_kind}-{detector}-{eta_kind}",
                    {"p2": p2, "detector": detector, "eta": eta},
                ))
    rng.shuffle(cells)
    rounds = max(1, int(ORACLE_ROUNDS * scale))
    return [
        Op(name, "oracle", _params(flat), rounds, rng.randrange(2**31), "csv")
        for name, flat in cells
    ]


def cycles(workload: str, seed: int, scale: float = 1.0) -> Iterator[List[Op]]:
    """Endless cycles of operations for `workload`, reproducible from `seed`.

    `scale` shrinks every operation's round count (self-check only).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "oracle-sweep":
            yield _oracle_cycle(rng, scale)
        else:
            yield _session_cycle(rng, "jsonl" if workload == "records-jsonl" else "json", scale)
