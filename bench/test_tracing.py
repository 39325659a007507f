"""Self-time arithmetic and wrapper installation of the benchmark's tracer.

    python3 -m pytest bench/test_tracing.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Span, SpanRecorder, install, layer_totals, self_times  # noqa: E402


def span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, "run")


def test_nested_spans_subtract_only_direct_children():
    spans = [
        span(0, "a", 0.0, 10.0),
        span(1, "b", 2.0, 6.0, parent=0),
        span(2, "c", 3.0, 4.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 3.0, 1.0])


def test_sibling_spans_are_summed():
    spans = [
        span(0, "a", 0.0, 10.0),
        span(1, "b", 1.0, 3.0, parent=0),
        span(2, "b", 5.0, 8.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0])


def test_overlapping_or_overhanging_children_count_once():
    spans = [
        span(0, "a", 0.0, 10.0),
        span(1, "b", 1.0, 5.0, parent=0),
        span(2, "c", 4.0, 7.0, parent=0),
        span(3, "d", 9.0, 12.0, parent=0),
    ]
    # covered: [1, 7] and [9, 10] -> 7 of 10
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_layer_totals_count_recursion_once_in_total():
    spans = [
        span(0, "f", 0.0, 10.0),
        span(1, "f", 2.0, 6.0, parent=0),
        span(2, "g", 7.0, 9.0, parent=0),
    ]
    totals = layer_totals(spans)
    assert totals["f"] == {"calls": 2, "total_s": pytest.approx(10.0), "self_s": pytest.approx(8.0)}
    assert totals["g"] == {"calls": 1, "total_s": pytest.approx(2.0), "self_s": pytest.approx(2.0)}


def test_install_wraps_names_rebound_by_from_import():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import jumpcodes
    from jumpcodes import cli, codes, dynamics, gates, qec, states

    modules = (jumpcodes, states, codes, dynamics, qec, gates, cli)
    saved = [(mod, dict(vars(mod))) for mod in modules]
    original = states.apply_local
    rec = SpanRecorder("test")
    install(rec, jumpcodes)
    try:
        for mod in (states, dynamics, qec, cli, jumpcodes):
            assert mod.apply_local is not original
        assert cli.trajectory_rng is dynamics.trajectory_rng
        psi = states.basis_ket("01")
        op = states.LocalOperator((1,), states.LOWER)
        qec.apply_local(op, psi)
        assert [s.name for s in rec.spans] == ["states.apply_local"]
    finally:
        for mod, attrs in saved:
            for name, value in attrs.items():
                if getattr(mod, name) is not value:
                    setattr(mod, name, value)
