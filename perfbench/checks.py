"""Statistical output checks, run outside the timed region.

Every operation's readout is compared with `analysis.exact_readout_distribution`
(marginalized to detected totals for a summary's coincidence histogram) by
total-variation distance. The bound follows from the Bretagnolle-Huber-Carol
inequality, P(L1 >= e) <= 2^k exp(-N e^2 / 2) for k outcomes and N samples,
set for a false-alarm rate of FALSE_ALARM per check, so a correct program
essentially never fails a check. The checks are never byte hashes: the
seed-to-record mapping may change on purpose.

Outputs without an exact counterpart in the program (count-control rounds,
`p_undetected_model`, control flag rates, non-honest QBER) are tallied as
unchecked, never as failures.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Dict, List, Tuple

FALSE_ALARM = 1e-9
EXACT_TOL = 1e-9  # the oracle CSV prints 10 significant digits
COUNT = "photon-count-check"


def tv_bound(outcomes: int, samples: int) -> float:
    """TV distance a correct sampler exceeds with probability <= FALSE_ALARM."""
    l1 = math.sqrt(2.0 * (outcomes * math.log(2.0) + math.log(1.0 / FALSE_ALARM)) / samples)
    return 0.5 * l1


def compare(exact: Dict, empirical: Dict, samples: int) -> List[str]:
    """Problems found comparing empirical frequencies with exact probabilities."""
    if samples < 1:
        return ["no samples to compare"]
    impossible = [k for k, f in empirical.items() if f > 0 and exact.get(k, 0.0) <= 0.0]
    if impossible:
        return [f"outcomes with exact probability 0 observed: {sorted(impossible)[:3]}"]
    support = sum(1 for p in exact.values() if p > 0.0)
    tv = 0.5 * sum(abs(exact.get(k, 0.0) - empirical.get(k, 0.0)) for k in set(exact) | set(empirical))
    bound = tv_bound(support, samples)
    return [f"TV distance {tv:.4f} exceeds {bound:.4f} at N={samples}"] if tv > bound else []


def _honest_ideal(config: dict) -> bool:
    return (
        config.get("attack", "none") == "none"
        and config.get("p2", 0.0) == 0.0
        and config.get("eta", 1.0) == 1.0
        and config.get("detector", "pnr") == "pnr"
    )


class Checker:
    """Checks CLI outputs against the exact oracle of the program under test."""

    def __init__(self, cli, analysis):
        self.cli = cli
        self.analysis = analysis
        self.unchecked: Counter = Counter()
        self._exact: Dict[Tuple, Dict] = {}

    def _session_config(self, op, out_path):
        args = self.cli.build_parser().parse_args(op.argv(out_path))
        return self.cli.parse_config(args).session_config()

    def _exact_readout(self, op, out_path) -> Dict:
        key = (op.command, op.params)
        if key not in self._exact:
            if len(self._exact) >= 64:  # oracle-sweep parameters never repeat
                self._exact.clear()
            self._exact[key] = self.analysis.exact_readout_distribution(
                self._session_config(op, out_path)
            )
        return self._exact[key]

    def check(self, op, out_path: str) -> List[str]:
        """Problems with the output file of one operation; empty when correct."""
        try:
            if op.fmt == "json":
                return self._check_summary(op, out_path)
            if op.fmt == "jsonl":
                return self._check_records(op, out_path)
            return self._check_oracle_csv(op, out_path)
        except Exception as exc:  # a malformed output, or an oracle that raises
            return [f"check raised {exc!r}"]

    def _check_summary(self, op, out_path) -> List[str]:
        with open(out_path) as f:
            summary = json.load(f)
        config = op.config
        problems = []
        if summary["rounds_total"] != op.rounds:
            problems.append(f"rounds_total {summary['rounds_total']} != {op.rounds}")
        if abs(summary["efficiency"]["E"] - 1.0 / 3.0) > 1e-12:
            problems.append(f"efficiency E {summary['efficiency']['E']} != 1/3")
        hist = {
            tuple(int(c) for c in k.split(",")): p
            for k, p in summary["coincidence_histogram"].items()
        }
        if config.get("control_count_fraction", 0.0) > 0.0:
            # Count-control rounds are mixed into the histogram and the oracle
            # has no count-control stage.
            self.unchecked["summary.coincidence_histogram (count controls)"] += 1
            self.unchecked["summary.sift_rate (count controls)"] += 1
        else:
            if abs(summary["sift_rate"] - hist.get((1, 1), 0.0)) > 1e-12:
                problems.append("sift_rate disagrees with the (1,1) coincidence rate")
            totals: Dict[Tuple[int, int], float] = {}
            for (a, b), p in self._exact_readout(op, out_path).items():
                key = (sum(a), sum(b))
                totals[key] = totals.get(key, 0.0) + p
            problems += compare(totals, hist, op.rounds)
        if _honest_ideal(config):
            if summary["qber"] != 0.0 or summary["eve_info_per_round"] != 0.0:
                problems.append("honest session with nonzero QBER or Eve information")
        else:
            self.unchecked["summary.qber (no closed form)"] += 1
        self.unchecked["summary.p_undetected_model"] += 1
        self.unchecked["summary.controls_flagged"] += 1
        return problems

    def _check_records(self, op, out_path) -> List[str]:
        honest = _honest_ideal(op.config)
        readouts: Counter = Counter()
        problems = []
        index = 0
        with open(out_path) as f:
            for line in f:
                rec = json.loads(line)
                if rec["round"] != index:
                    return [f"record {index} carries round index {rec['round']}"]
                index += 1
                if rec["control_kind"] == COUNT:
                    self.unchecked["records.count-control rounds"] += 1
                    continue
                readouts[(tuple(rec["alice_counts"]), tuple(rec["bob_counts"]))] += 1
                leak = rec["eve_knows_n"] or (rec["accepted"] and rec["inferred"] != rec["n"])
                if honest and leak and not problems:
                    problems.append(f"honest round {rec['round']} has a key error or a leak")
        if index != op.rounds:
            return [f"{index} records for {op.rounds} rounds"]
        normal = sum(readouts.values())
        empirical = {k: v / normal for k, v in readouts.items()} if normal else {}
        return problems + compare(self._exact_readout(op, out_path), empirical, normal)

    def _check_oracle_csv(self, op, out_path) -> List[str]:
        stages: Dict[str, Dict[str, Tuple[float, float]]] = {}
        with open(out_path) as f:
            if f.readline().strip() != "stage,outcome,exact_p,empirical_p,abs_error":
                return ["missing CSV header"]
            for line in f:
                stage, label, exact_p, emp_p, _ = line.strip().split(",")
                stages.setdefault(stage, {})[label] = (float(exact_p), float(emp_p))
        exact = {
            "a{}{}-b{}{}".format(*a, *b): p for (a, b), p in self._exact_readout(op, out_path).items()
        }
        expected = {"readout": exact}
        if op.config.get("attack") in ("mitm", "devil"):
            eve = self.analysis.exact_eve_count_distribution(self._session_config(op, out_path))
            expected["eve-counts"] = {"e" + "".join(map(str, k)): p for k, p in eve.items()}
        if set(stages) != set(expected):
            return [f"stages {sorted(stages)} != {sorted(expected)}"]
        problems = []
        for name, want in expected.items():
            rows = stages[name]
            for label in set(want) | set(rows):
                emitted = rows.get(label, (0.0, 0.0))[0]
                if abs(emitted - want.get(label, 0.0)) > EXACT_TOL:
                    problems.append(f"{name} {label}: exact_p {emitted} != oracle {want.get(label, 0.0)}")
            if op.config.get("control_count_fraction", 0.0) > 0.0:
                self.unchecked[f"oracle.{name} empirical (count controls)"] += 1
                continue
            empirical = {label: emp for label, (_, emp) in rows.items()}
            problems += [f"{name}: {p}" for p in compare(want, empirical, op.rounds)]
        return problems
