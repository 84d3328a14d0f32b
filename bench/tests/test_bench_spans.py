import itertools

import pytest

from spans import TARGETS, SpanLog, not_restored, originals, patched


def _ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_time_of_a_synthetic_nest():
    log = SpanLog()
    root = log.record("root", 0.0, 10.0)
    a = log.record("a", 1.0, 4.0, parent=root)
    log.record("leaf", 2.0, 3.0, parent=a)
    log.record("leaf", 3.0, 3.5, parent=a)
    log.record("a", 5.0, 9.0, parent=root)
    totals = log.totals()
    assert totals["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert totals["a"] == {"calls": 2, "total_s": 7.0, "self_s": 5.5}
    assert totals["leaf"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}
    # self times partition the root's interval
    assert sum(t["self_s"] for t in totals.values()) == totals["root"]["total_s"]


def test_wrapped_calls_nest_in_call_order():
    log = SpanLog(clock=_ticking_clock())
    inner = log.wrap("inner", lambda x: x + 1)
    outer = log.wrap("outer", lambda x: 2 * inner(x))
    assert outer(1) == 4
    # outer opens at 0, inner runs 1..2, outer closes at 3
    assert log.totals() == {
        "outer": {"calls": 1, "total_s": 3.0, "self_s": 2.0},
        "inner": {"calls": 1, "total_s": 1.0, "self_s": 1.0},
    }
    assert list(log.parents) == [-1, 0]


def test_a_raising_call_closes_its_span():
    log = SpanLog(clock=_ticking_clock())

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        log.wrap("fail", fail)()
    log.wrap("after", lambda: None)()
    assert list(log.parents) == [-1, -1]
    assert log.totals()["fail"]["total_s"] == 1.0


def test_patched_replaces_every_target_and_restores_it_on_error():
    before = originals()
    with pytest.raises(RuntimeError):
        with patched(SpanLog()):
            assert not_restored(before) == [f"{mod}.{attr}" for mod, attr, _ in TARGETS]
            raise RuntimeError
    assert not_restored(before) == []
