"""Command-line harness: scenario configuration, reproducible runs, reports.

Subcommands:
    run     execute a session; emit the summary (json) or per-round records (jsonl)
    oracle  exact vs Monte-Carlo per-stage comparison as CSV
    report  human-readable table for a stored summary

Exit codes: 0 ok, 1 usage error, 2 runtime/IO error (including a round
count too large to allocate), 3 abort because a control flagged an
eavesdropper (with --abort-on-detection).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Iterable, List, Optional, Tuple

from . import analysis
from . import protocol
from .attacks import ATTACK_KINDS, AttackStrategy
from .protocol import DeviceModel, SessionConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_DETECTED = 3


class UsageError(Exception):
    pass


FORMATS = ("json", "jsonl", "csv")

_NUMBER = (int, float)


def _key(default, accepts, **flag):
    """A scenario key: its default, the JSON types a config file may give
    it, and the argparse options of its flag."""
    return field(default=default, metadata={"accepts": accepts, "flag": flag})


def _comma_list(text: str) -> List[str]:
    return [c for c in text.split(",") if c]


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat, file-serializable description of one CLI-reachable scenario.

    Each field is a config-file key and a flag of `run` and `oracle`: `--`
    and the name, `_` written `-`. Adding a key means adding a field."""

    rounds: int = _key(10000, int, type=int)
    seed: Optional[int] = _key(None, (int, type(None)), type=int)
    attack: str = _key("none", str, choices=ATTACK_KINDS)
    phi: float = _key(0.0, _NUMBER, type=float, help="phase-attack shift in radians, 0..pi")
    channels: Tuple[str, ...] = _key(
        ("alice-to-bob",), tuple, type=_comma_list, help="comma-separated: alice-to-bob,bob-to-alice"
    )
    p2: float = _key(0.0, _NUMBER, type=float, help="two-photon emission probability")
    detector: str = _key("pnr", str, choices=protocol.DETECTOR_KINDS)
    eta: float = _key(1.0, _NUMBER, type=float, help="per-photon detection efficiency")
    control_announce_fraction: float = _key(0.0, _NUMBER, type=float)
    control_count_fraction: float = _key(0.0, _NUMBER, type=float)
    abort_on_detection: bool = _key(False, bool, action="store_true")
    out: Optional[str] = _key(None, (str, type(None)), help="output path (default: stdout)")
    format: str = _key("json", str, choices=FORMATS)

    def to_flat_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["channels"] = list(self.channels)
        return d

    @classmethod
    def from_flat_dict(cls, data: dict, base: Optional["ScenarioConfig"] = None) -> "ScenarioConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise UsageError(f"unknown configuration keys: {', '.join(sorted(unknown))}")
        merged = (base or cls()).to_flat_dict()
        merged.update(data)
        channels = merged["channels"]
        if isinstance(channels, str):
            channels = [channels]
        # A list of names becomes a tuple; anything else fails the type check.
        if isinstance(channels, (list, tuple)) and all(isinstance(c, str) for c in channels):
            merged["channels"] = tuple(channels)
        for f in fields(cls):
            key, value, accepts = f.name, merged[f.name], f.metadata["accepts"]
            # bool is an int subclass: accept it for boolean keys only
            if isinstance(value, bool) != (accepts is bool) or not isinstance(value, accepts):
                raise UsageError(f"configuration key {key!r} has an invalid value {value!r}")
        if merged["format"] not in FORMATS:
            raise UsageError(f"configuration key 'format' must be one of {FORMATS}")
        return cls(**merged)

    def session_config(self) -> SessionConfig:
        if self.seed is None:
            raise UsageError("--seed is required for record-emitting runs")
        if self.attack != "phase" and (self.phi != 0.0 or self.channels != ScenarioConfig.channels):
            raise UsageError("--phi and --channels apply only to --attack phase")
        device = DeviceModel(p2=self.p2, detector_kind=self.detector, eta=self.eta)
        return SessionConfig(
            rounds=self.rounds,
            seed=self.seed,
            attack=AttackStrategy(kind=self.attack, phi=self.phi, channels=self.channels),
            device_alice=device,
            device_bob=device,
            control_announce_fraction=self.control_announce_fraction,
            control_count_fraction=self.control_count_fraction,
        )


SCENARIO_PRESETS = {
    "honest": {},
    "phase-pi2": {"attack": "phase", "phi": math.pi / 2},
    "phase-pi": {"attack": "phase", "phi": math.pi},
    "mitm": {"attack": "mitm"},
    "devil": {"attack": "devil"},
    "short-circuit": {"attack": "short-circuit"},
    "two-photon": {"p2": 1.0},
    "two-photon-threshold": {"p2": 1.0, "detector": "threshold"},
}


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1 here, not argparse's default 2 (2 means IO/runtime).
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with flat scenario keys (flags override)")
    for f in fields(ScenarioConfig):
        # default None: a flag left out keeps the config file's value
        p.add_argument("--" + f.name.replace("_", "-"), default=None, **f.metadata["flag"])


_PARSER: Optional[_Parser] = None


def build_parser() -> _Parser:
    """The CLI's parser. One per process, shared by every caller: parsing
    leaves it unchanged, and no caller may change it."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _new_parser()
    return _PARSER


def _new_parser() -> _Parser:
    parser = _Parser(prog="vopqkd", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a session and emit summary/records")
    _add_scenario_flags(run)

    oracle = sub.add_parser("oracle", help="exact vs empirical distribution check (CSV)")
    _add_scenario_flags(oracle)
    oracle.add_argument("--scenario", choices=sorted(SCENARIO_PRESETS))

    report = sub.add_parser("report", help="print a table for a stored summary JSON")
    report.add_argument("summary", help="path to a summary JSON file")
    report.add_argument("--out", help="also write the machine-readable JSON here")
    return parser


def parse_config(args: argparse.Namespace) -> ScenarioConfig:
    """Merge defaults, config file, scenario preset, and explicit flags."""
    # oracle writes nothing but CSV, so that is its default format
    cfg = ScenarioConfig(format="csv") if getattr(args, "command", None) == "oracle" else ScenarioConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object with flat keys")
        cfg = ScenarioConfig.from_flat_dict(data, base=cfg)
    preset = getattr(args, "scenario", None)
    if preset:
        cfg = ScenarioConfig.from_flat_dict(SCENARIO_PRESETS[preset], base=cfg)
    overrides = {
        f.name: getattr(args, f.name) for f in fields(ScenarioConfig) if getattr(args, f.name, None) is not None
    }
    try:
        cfg = ScenarioConfig.from_flat_dict(overrides, base=cfg)
        cfg.session_config()  # full validation before any round executes
    except (ValueError, UsageError) as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def _emit(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write text chunks, one at a time, to `out` or stdout."""
    if out:
        with open(out, "w") as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def execute_run(cfg: ScenarioConfig) -> int:
    if cfg.format == "csv":
        raise UsageError("format csv belongs to the oracle subcommand")
    rounds, summary = protocol.run_session(cfg.session_config())
    if cfg.format == "jsonl":
        _emit(rounds.jsonl_chunks(), cfg.out)
    else:
        _emit([json.dumps(summary.to_json_dict(), indent=2) + "\n"], cfg.out)
    if cfg.abort_on_detection and sum(summary.controls_flagged.values()) > 0:
        sys.stderr.write("eavesdropper detected by control rounds; aborting\n")
        return EXIT_DETECTED
    return EXIT_OK


def execute_oracle(cfg: ScenarioConfig) -> int:
    if cfg.format != "csv":
        raise UsageError(f"oracle emits csv only, not {cfg.format} (drop --format or use --format csv)")
    stages = analysis.oracle_check(cfg.session_config())
    _emit([analysis.oracle_csv(stages)], cfg.out)
    return EXIT_OK


def format_report(summary: dict) -> str:
    """Human-readable metric table for a summary JSON dict."""
    hist = summary.get("coincidence_histogram", {})
    coincidence11 = hist.get("1,1", 0.0)
    eff = summary.get("efficiency", {})
    comparisons = eff.get("comparisons", {})
    anomaly = "  << anomalous vs honest 0.5" if abs(coincidence11 - 0.5) > 0.05 else ""
    flagged = summary.get("controls_flagged", {})
    run = summary.get("controls_run", {})
    count_run = run.get("photon-count-check", 0)
    count_rate = flagged.get("photon-count-check", 0) / count_run if count_run else 0.0
    lines = [
        "vacuum-one-photon QKD session report",
        f"  rounds                     {summary['rounds_total']}",
        f"  accepted                   {summary['accepted']}",
        f"  sift rate                  {summary['sift_rate']:.4f}",
        f"  QBER (vs encoded bits)     {summary['qber']:.4f}",
        f"  Eve info per round         {summary['eve_info_per_round']:.4f}",
        f"  Eve info per sifted bit    {summary['eve_info_per_sifted_bit']:.4f}",
        f"  announce-control detections: {flagged.get('announce-bit', 0)}"
        f" of {run.get('announce-bit', 0)} run",
        f"  count-control detection rate: {count_rate:.4f} ({count_run} run)",
        f"  model P(undetected)        {summary['p_undetected_model']:.6g}",
        f"  coincidence (1,1)          {coincidence11:.4f}{anomaly}",
        f"  efficiency E = {eff.get('b_s', 1)}/({eff.get('q_t', 2)}+{eff.get('b_t', 1)})"
        f" = {eff.get('E', 0.0):.6f}",
        f"  reference efficiencies     this scheme 1/3 = {1/3:.6f}, "
        + ", ".join(f"{k} {v:.6f}" for k, v in sorted(comparisons.items())),
    ]
    return "\n".join(lines) + "\n"


def execute_report(path: str, out: Optional[str]) -> int:
    with open(path) as f:
        try:
            summary = json.load(f)
            text = format_report(summary)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"not a summary JSON file: {exc!r}") from exc
    sys.stdout.write(text)
    if out:
        with open(out, "w") as f:
            f.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "report":
            return execute_report(args.summary, args.out)
        cfg = parse_config(args)
        if args.command == "run":
            return execute_run(cfg)
        return execute_oracle(cfg)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_RUNTIME
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
