"""Identity-keyed lift, merge and validate.

The trace layer keys its per-tREFI passes on interval *objects* and
falls back to contents only for an object it has not seen. These tests
build one schedule two ways — one shared object per distinct interval,
and a fresh but equal object per tREFI — and pin that both run to the
same payload on the reference and fast engines, collapse to the same
shared intervals, and fail budget validation at the same first index
with the same message.
"""

import pytest

from repro.attacks import registry
from repro.scenario import Scenario, Session
from repro.sim.engine import EngineConfig, RankSimulator
from repro.sim.trace import (
    GeneratorStream,
    Interval,
    RankTrace,
    Trace,
    lift_trace,
)
from repro.trackers import make_tracker

#: ``(acts, postpone)`` of a decoy-then-hammer super-window, M = 73.
_DECOY = (tuple(range(50_000, 50_000 + 4 * 73, 4)), True)
_HAMMER = (tuple([999, 1001] * 36 + [999]), True)
_RELEASE = (_HAMMER[0], False)
WINDOW = [_DECOY, _HAMMER, _HAMMER, _HAMMER, _RELEASE]


def shared(contents, count: int) -> list[Interval]:
    """``count`` intervals cycling ``contents``, one object each."""
    objects = [Interval(*entry) for entry in contents]
    return [objects[i % len(objects)] for i in range(count)]


def fresh(contents, count: int) -> list[Interval]:
    """The same schedule with a new (equal) object per tREFI."""
    return [Interval(*contents[i % len(contents)]) for i in range(count)]


@pytest.fixture(params=[shared, fresh], ids=["shared", "fresh"])
def build(request):
    return request.param


class TestEquivalentPayloads:
    @pytest.mark.parametrize("num_banks", [1, 2])
    @pytest.mark.parametrize("vectorized", [False, None],
                             ids=["reference", "fast"])
    def test_shared_and_fresh_run_identically(
        self, monkeypatch, num_banks, vectorized
    ):
        payloads = {}
        for maker in (shared, fresh):
            monkeypatch.setitem(
                registry._FACTORIES, "identity-probe",
                lambda params, rng=None: Trace(
                    "identity-probe", maker(WINDOW, params.intervals)
                ),
            )
            scenario = Scenario(
                tracker="mint", attack="identity-probe", trh=600.0,
                intervals=203, max_act=73, num_rows=128 * 1024,
                allow_postponement=True, num_banks=num_banks,
                vectorized=vectorized,
            )
            result = Session(scenario).run()
            assert result.demand_acts == 203 * 73
            payloads[maker.__name__] = result.to_payload()
        assert payloads["shared"] == payloads["fresh"]


class TestCollapse:
    def test_lift_shares_one_object_per_distinct_interval(self, build):
        lifted = lift_trace(Trace("t", build(WINDOW, 23)), bank=2).intervals
        assert len({id(interval) for interval in lifted}) == 3
        assert [i.acts[0][0] for i in lifted] == [2] * 23
        assert lifted == lift_trace(
            Trace("t", shared(WINDOW, 23)), bank=2
        ).intervals

    def test_merge_shares_one_object_per_distinct_column(self, build):
        traces = {0: Trace("a", build(WINDOW, 11)),
                  3: Trace("b", build(WINDOW[:2], 9))}
        merged = RankTrace.from_bank_traces("m", traces).intervals
        expected = RankTrace.from_bank_traces(
            "m", {0: Trace("a", shared(WINDOW, 11)),
                  3: Trace("b", shared(WINDOW[:2], 9))},
        ).intervals
        assert merged == expected
        contents = {(i.acts, i.postpone) for i in merged}
        assert len({id(i) for i in merged}) == len(contents)


class TestFirstOffendingIndex:
    """An over-budget object first used at index 3 and reused later is
    reported at index 3, on every validation path."""

    OK = (tuple(range(100, 173)), False)
    BAD = (tuple(range(200, 274)), False)
    ORDER = [OK, OK, OK, BAD, OK, BAD, BAD]

    def schedule(self, build) -> list[Interval]:
        if build is fresh:
            return [Interval(*entry) for entry in self.ORDER]
        ok, bad = Interval(*self.OK), Interval(*self.BAD)
        return [ok if entry is self.OK else bad for entry in self.ORDER]

    def test_row_trace_validate(self, build):
        with pytest.raises(
            ValueError,
            match=r"^interval 3 has 74 ACTs, but at most 73 fit in one tREFI$",
        ):
            Trace("t", self.schedule(build)).validate(73)

    def test_rank_trace_validate(self, build):
        trace = lift_trace(Trace("t", self.schedule(build)))
        with pytest.raises(
            ValueError,
            match=r"^interval 3 has 74 ACTs on bank 0, but at most 73 fit "
                  r"in one tREFI$",
        ):
            trace.validate(73)

    @pytest.mark.parametrize("vectorized", [False, None],
                             ids=["reference", "fast"])
    def test_engine_run(self, build, vectorized):
        config = EngineConfig(vectorized=vectorized)
        simulator = RankSimulator(_tracker, config)
        with pytest.raises(ValueError, match=r"^interval 3 has 74 ACTs on bank 0"):
            simulator.run(Trace("t", self.schedule(build)))

    @pytest.mark.parametrize("vectorized", [False, None],
                             ids=["reference", "fast"])
    def test_streamed_chunks_keep_global_index(self, build, vectorized):
        lifted = lift_trace(Trace("t", self.schedule(build))).intervals
        stream = GeneratorStream("s", lambda: iter(lifted), chunk_intervals=2)
        config = EngineConfig(vectorized=vectorized)
        with pytest.raises(ValueError, match=r"^interval 3 has 74 ACTs on bank 0"):
            RankSimulator(_tracker, config).run(stream)


def _tracker(_bank):
    return make_tracker("none")
