#!/usr/bin/env python3
"""Self-check of the benchmark itself, at tiny sizes.

    python3 perfbench/selfcheck.py

Shows that (1) every workload runs clean at tiny sizes, traced and untraced;
(2) no tracing wrapper runs during an untraced pass; (3) the output checks
catch deliberately corrupted outputs of every format. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import tracing
import workloads

SCALE = 0.05  # of every operation's round count


def corruptions():
    """(operation, [(description, corrupt(text) -> text)]) per output format."""
    honest = workloads.Op("honest", "run", (), 4000, 7, "json")

    def summary(edit):
        def apply(text):
            data = json.loads(text)
            edit(data)
            return json.dumps(data)
        return apply

    def skew_histogram(d):
        hist = d["coincidence_histogram"]
        hist["1,1"] = hist.get("1,1", 0.0) + hist.pop("2,0", 0.0)
        d["sift_rate"] = hist["1,1"]

    def records(edit):
        def apply(text):
            lines = [json.loads(line) for line in text.splitlines()]
            edit(lines)
            return "".join(json.dumps(r) + "\n" for r in lines)
        return apply

    def set_counts(recs, every, alice, bob):
        for r in recs[::every]:
            r["alice_counts"], r["bob_counts"] = alice, bob

    def flip_honest_key(recs):
        accepted = next(r for r in recs if r["accepted"])
        accepted["inferred"] = -accepted["n"]

    def csv(edit):
        def apply(text):
            header, *rows = [line.split(",") for line in text.splitlines()]
            edit(rows)
            return "\n".join(",".join(r) for r in [header] + rows) + "\n"
        return apply

    def shift_exact(rows):
        rows[0][2] = repr(float(rows[0][2]) + 0.01)

    def all_mass_on_first(rows):
        for r in rows:
            r[3] = "1" if r is rows[0] else "0"

    return [
        (honest, [
            ("efficiency E not 1/3", summary(lambda d: d["efficiency"].update(E=0.3))),
            ("histogram mass moved from (2,0) to (1,1)", summary(skew_histogram)),
            ("honest QBER nonzero", summary(lambda d: d.update(qber=0.01))),
        ]),
        (workloads.Op("honest", "run", (), 4000, 7, "jsonl"), [
            ("a record dropped", lambda t: "".join(t.splitlines(keepends=True)[:-1])),
            ("an impossible readout", records(lambda rs: set_counts(rs[:1], 1, [3, 0], [0, 1]))),
            ("every other readout forced to one outcome", records(lambda rs: set_counts(rs, 2, [1, 0], [0, 1]))),
            ("an honest key bit flipped", records(flip_honest_key)),
        ]),
        (workloads.Op("attack-mitm", "oracle", (("attack", "mitm"),), 256, 7, "csv"), [
            ("an exact probability shifted", csv(shift_exact)),
            ("all empirical mass on one outcome", csv(all_mass_on_first)),
        ]),
    ]


def main():
    _, modules, _ = run.load_program()
    run.WORK.mkdir(exist_ok=True)
    checker = checks.Checker(modules["cli"], modules["analysis"])
    problems = []

    for workload in workloads.WORKLOADS:
        loop = run.Loop(workload, 0, modules, checker, scale=SCALE)
        tracer = tracing.Tracer(modules)
        tracer.install()
        tracer.uninstall()
        loop.run(cycles=1)
        if any(tracer.calls) or tracing.live_wrappers(modules):
            problems.append(f"{workload}: a wrapper ran during the untraced pass")
        tracer = tracing.Tracer(modules)
        tracer.install()
        try:
            if not tracing.live_wrappers(modules):
                problems.append("live_wrappers does not see installed wrappers")
            loop.run(cycles=1, tracer=tracer)
        finally:
            tracer.uninstall()
        if tracing.live_wrappers(modules):
            problems.append(f"{workload}: wrappers left live after uninstall")
        if tracer.missing or not all(tracer.calls[tracer.names.index(n)] for n in ("cli.main", "protocol.run_round")):
            problems.append(f"{workload}: traced pass missed functions {tracer.missing}")
        if loop.failed:
            problems.append(f"{workload}: {loop.failed} of {loop.attempted} tiny operations failed: {loop.failures[:1]}")
        print(f"{workload}: {loop.attempted} tiny operations, {loop.failed} failed, tracing clean")

    for op, cases in corruptions():
        path = str(run.WORK / f"selfcheck.{op.fmt}")
        if modules["cli"].main(op.argv(path)) != 0 or checker.check(op, path):
            problems.append(f"uncorrupted {op.fmt} output of {op.scenario} fails its check")
            continue
        with open(path) as f:
            clean = f.read()
        for description, corrupt in cases:
            with open(path, "w") as f:
                f.write(corrupt(clean))
            found = checker.check(op, path)
            print(f"{op.fmt}: {description}: {'caught' if found else 'MISSED'} {found[:1]}")
            if not found:
                problems.append(f"{op.fmt}: corruption not caught: {description}")

    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
