"""Span recording around the public functions of the jumpcodes modules.

Tracing lives entirely in the benchmark: ``install`` replaces each traced
function with a wrapper in every jumpcodes module that holds a reference to
it (``from .states import apply_local`` binds the name again in ``dynamics``,
``qec`` and ``cli``), so calls are seen whichever module they go through.
Spans stay in memory and are written once, when the workload run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass

# Module -> traced public functions. Private helpers are left unwrapped, so
# their time is part of the caller's self time (for example the replay in
# ``cli._replay_with_recovery`` counts as ``cli.run_experiment`` self time).
TRACED = {
    "states": ("apply_local", "local_to_dense", "sum_to_dense"),
    "codes": ("projector", "codeword_ket"),
    "dynamics": (
        "run_trajectory",
        "trajectory_rng",
        "jump_channel_weights",
        "average_trajectories",
        "integrate_master",
        "records_to_csv",
    ),
    "qec": ("recovery_unitary", "kl_check", "dfs_check"),
    "gates": (
        "synthesize_qutrit",
        "program_logical_unitary",
        "leakage_certificate",
        "program_to_json",
        "ent_unitary",
        "lie_closure",
    ),
    "cli": ("run_experiment", "cmd_sim", "cmd_verify", "cmd_gates"),
}


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class SpanRecorder:
    """In-memory span list with a call stack for parent links."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = True
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # Counts read from outputs at the span boundaries.
        self.counts = {
            "jumps": 0,
            "absorbed": 0,
            "segments_evaluated": 0,
            "segments_emitted": 0,
            "trotter_steps": 0,
        }

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(span_id, name, 0.0, 0.0, parent, self.run_id)
            self.spans.append(span)
            self._stack.append(span_id)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, out)
            return out

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "run": s.run_id,
                        }
                    )
                    + "\n"
                )


def _count_trajectory(rec: SpanRecorder, args, record) -> None:
    rec.counts["jumps"] += len(record.jumps)
    rec.counts["absorbed"] += int(record.absorbed)


def _count_evaluated(rec: SpanRecorder, args, out) -> None:
    rec.counts["segments_evaluated"] += len(args[0].segments)


def _count_emitted(rec: SpanRecorder, args, program) -> None:
    rec.counts["segments_emitted"] += len(program.segments)
    rec.counts["trotter_steps"] += program.trotter_steps or 0


_AFTER = {
    "dynamics.run_trajectory": _count_trajectory,
    "gates.program_logical_unitary": _count_evaluated,
    "gates.synthesize_qutrit": _count_emitted,
}


def install(recorder: SpanRecorder, package) -> None:
    """Wrap every traced function wherever a jumpcodes module binds it."""
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{m}") for m in TRACED
    ]
    for mod_name, names in TRACED.items():
        home = importlib.import_module(f"{package.__name__}.{mod_name}")
        for fn_name in names:
            original = getattr(home, fn_name)
            full = f"{mod_name}.{fn_name}"
            wrapper = recorder.wrap(full, original, _AFTER.get(full))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it covered by its children.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never double-counts covered time.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        intervals = sorted(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.span_id, [])
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per traced name: calls, total time of outermost spans, and self time."""
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    totals: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, selfs):
        t = totals.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += self_s
        outermost = True
        p = s.parent
        while p is not None:
            if by_id[p].name == s.name:
                outermost = False
                break
            p = by_id[p].parent
        if outermost:
            t["total_s"] += s.end - s.start
    return totals
