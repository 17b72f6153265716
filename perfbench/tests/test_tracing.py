"""Self time on nested spans, per-slot counters, and wrapper removal."""

import types

import pytest

from tracing import Tracer, patched


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def by_name(tracer):
    return {s.name: s for s in tracer.finished()}


def test_self_time_subtracts_only_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        wrapped_leaf()
        clock.advance(0.5)

    wrapped_leaf = tracer.span("c.leaf", leaf)
    wrapped_middle = tracer.span("b.middle", middle)
    with tracer.region("a.top"):
        clock.advance(3.0)
        wrapped_middle()
        wrapped_leaf()

    spans = by_name(tracer)
    assert spans["a.top"].duration == pytest.approx(8.5)
    assert spans["a.top"].self_s == pytest.approx(3.0)
    assert spans["b.middle"].duration == pytest.approx(3.5)
    assert spans["b.middle"].self_s == pytest.approx(1.5)
    assert spans["c.leaf"].self_s == pytest.approx(2.0)
    top = tracer.spans.index(spans["a.top"])
    assert spans["b.middle"].parent == top
    assert spans["a.top"].parent == -1


def test_counted_calls_leave_the_parent_span_and_keep_their_own_children_out():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.span("b.inner", lambda: clock.advance(0.25))

    def per_slot():
        clock.advance(0.5)
        inner()

    slot = tracer.counted("q.slot", per_slot)
    tracer.job = 7
    with tracer.region("a.run"):
        for _ in range(4):
            slot()
        clock.advance(1.0)

    assert tracer.aggregates == {(7, "q.slot"): [4, pytest.approx(2.0)]}
    assert tracer.calls("q.slot") == 4
    assert tracer.self_time("q.slot") == pytest.approx(2.0)
    spans = by_name(tracer)
    assert spans["a.run"].duration == pytest.approx(4.0)
    assert spans["a.run"].self_s == pytest.approx(1.0)
    assert spans["b.inner"].job == 7


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise RuntimeError("no")

    wrapped = tracer.span("x.boom", boom, attrs=lambda a, k, r: {"never": True})
    with tracer.region("a.top"):
        with pytest.raises(RuntimeError):
            wrapped()
        clock.advance(1.0)
    spans = by_name(tracer)
    assert spans["x.boom"].duration == pytest.approx(1.0)
    assert spans["x.boom"].attrs is None
    assert spans["a.top"].self_s == pytest.approx(1.0)


def test_patched_restores_every_attribute():
    owner = types.SimpleNamespace(f=1, g=2)
    with pytest.raises(KeyError):
        with patched([(owner, "f", 10), (owner, "g", 20)]):
            assert (owner.f, owner.g) == (10, 20)
            raise KeyError
    assert (owner.f, owner.g) == (1, 2)
