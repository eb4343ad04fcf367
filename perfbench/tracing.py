"""Per-layer tracing from outside the program.

`Tracer.install` wraps the listed functions of the vopqkd modules; each call
records a span (name, start, end, parent) and updates per-name call counts
and self time (span duration minus the time covered by its child spans).
Aggregates cover every call; raw spans are kept in memory up to SPAN_CAP
and written out at the end. `uninstall` restores the original objects, and
`live_wrappers` proves that none is left behind.

A name is `<module>.<function>` for a module function, `<module>.<Class>.<method>`
for one method, or `<module>.<method>` for that method on every class of the
module that defines it. A name that no longer resolves is reported missing.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter
from typing import Dict, List, Tuple

TRACED = (
    "protocol.round_rng",
    "protocol.run_round",
    "protocol.detected_counts",
    "fock.OutcomeDistribution.sample",
    "attacks.learn",
    "fock.apply_beam_splitter",
    "fock.tensor",
    "fock.outcome_distribution",
    "fock.project_onto",
    "attacks.apply",
    "attacks.resend",
    "analysis.exact_readout_distribution",
    "analysis.exact_eve_count_distribution",
    "analysis.oracle_csv",
    "protocol.RoundRecord.to_json_dict",
    "analysis.summarize",
    "cli.parse_config",
    "cli.main",
)

SPAN_CAP = 100_000
_MARK = "__perfbench_wrapped__"


def _targets(modules: Dict[str, object], name: str) -> List[Tuple[object, str]]:
    """(owner, attribute) pairs that `name` resolves to; empty when missing."""
    module_name, *path = name.split(".")
    module = modules.get(module_name)
    if module is None:
        return []
    if len(path) == 2:
        owner = getattr(module, path[0], None)
        ok = inspect.isclass(owner) and inspect.isfunction(owner.__dict__.get(path[1]))
        return [(owner, path[1])] if ok else []
    attr = path[0]
    if inspect.isfunction(module.__dict__.get(attr)):
        return [(module, attr)]
    return [
        (cls, attr)
        for cls in vars(module).values()
        if inspect.isclass(cls)
        and cls.__module__ == module.__name__
        and inspect.isfunction(cls.__dict__.get(attr))
    ]


def live_wrappers(modules: Dict[str, object]) -> List[str]:
    """Every wrapper of this module still reachable in the given modules."""
    live = []
    for module in modules.values():
        owners = [module] + [c for c in vars(module).values() if inspect.isclass(c)]
        for owner in owners:
            for attr, value in vars(owner).items():
                if getattr(value, _MARK, False):
                    live.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return live


class Tracer:
    def __init__(self, modules: Dict[str, object], names=TRACED):
        self.modules = modules
        self.names = list(names)
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.edges: Counter = Counter()  # (parent index or -1, child index) -> calls
        self.span_id = array("q")
        self.span_name = array("h")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.dropped_spans = 0
        self.enabled = True
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._stack: List[list] = []  # [name index, span id, start, child ns]
        self._next_span = 0

    def install(self) -> None:
        for index, name in enumerate(self.names):
            targets = _targets(self.modules, name)
            if not targets:
                self.missing.append(name)
            for owner, attr in targets:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(index, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, index: int, fn):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = self._next_span
            self._next_span += 1
            frame = [index, span, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.calls[index] += 1
                self.self_ns[index] += duration - frame[3]
                self.edges[(parent[0] if parent else -1, index)] += 1
                if parent is not None:
                    parent[3] += duration
                if len(self.span_name) < SPAN_CAP:
                    self.span_id.append(span)
                    self.span_name.append(index)
                    self.span_start.append(frame[2])
                    self.span_end.append(end)
                    self.span_parent.append(parent[1] if parent else -1)
                else:
                    self.dropped_spans += 1

        setattr(wrapper, _MARK, True)
        return wrapper

    def calls_under(self, parent: str, child: str) -> int:
        return self.edges[(self.names.index(parent), self.names.index(child))]

    def write_spans(self, path) -> None:
        """Kept spans as TSV, in the order they ended."""
        with open(path, "w") as f:
            f.write("span\tname\tstart_ns\tend_ns\tparent_span\n")
            for i in range(len(self.span_id)):
                f.write(
                    f"{self.span_id[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]}\t{self.span_end[i]}\t{self.span_parent[i]}\n"
                )
