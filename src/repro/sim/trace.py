"""Attack-trace representation for the security simulator.

A trace is a sequence of :class:`Interval` objects — one per tREFI.
Each interval carries up to MaxACT row activations (the tRC budget)
and a flag asking the memory controller to postpone the REF that would
close the interval (granted only while fewer than four are owed).

Traces come in two address widths:

* :class:`Trace` — row-only ACT streams, the historical single-bank
  format. The engine auto-lifts these to bank 0 (``Interval.per_bank``
  is the lifting seam), so every pre-rank caller keeps working and
  produces bit-identical results.
* :class:`RankTrace` — bank-addressed streams whose intervals carry
  ``(bank, row)`` pairs, the input of the rank-level engine. Per-bank
  projections (:meth:`RankTrace.bank_trace`) and the inverse merge
  (:meth:`RankTrace.from_bank_traces`) convert between the two widths.

The REF-postponement flag is rank-scoped in both formats: refresh
scheduling is a rank-level memory-controller decision, so merging
per-bank traces ORs their flags.

Above the materialized formats sits the *streaming* layer:
:class:`TraceStream` yields intervals in bounded chunks so attacks can
emit unbounded schedules lazily (a materialized :class:`RankTrace` is
the special case wrapped by :class:`MaterializedStream`), and
:class:`ChannelTrace` groups per-rank streams for the channel-level
engine. See the "Streaming traces" section below.

Bank-addressed intervals additionally expose two array views for the
fast engine: ``per_bank_arrays`` — the same per-bank split with each
bank's rows as a NumPy ``intp`` array instead of a tuple — and
``bank_aggregates``, each bank's rows aggregated the way the kernel's
per-step plans use them (unique rows, counts, victims). Both are cached
on the interval object, so traces built from
:func:`repeat_interval`/:func:`repeat_rank_interval` (one shared
interval object across thousands of tREFIs) pay the conversion once.
Attack generators can skip the tuple round-trip entirely with
:meth:`RankInterval.from_arrays`, which seeds the split directly from
``bank``/``row`` column arrays. Arrays handed out by these views are
owned by the interval and must not be mutated.

Sharing is the contract throughout: the attack generators build each
distinct interval once, and the per-tREFI passes here —
:func:`lift_trace`, :meth:`RankTrace.from_bank_traces` and the budget
checks (:meth:`Trace.validate`, :func:`validate_rank_intervals`) — key
on interval *identity*, doing O(1) work per repeat. The lift and merge
fall back to a content lookup for an object they have not seen, so a
hand-built trace of fresh but equal intervals still collapses to one
shared object per distinct interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import is_, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np


def _split_by_bank(banks, rows):
    """Group ``rows`` by ``banks`` (ascending), issue order kept per bank."""
    order = np.argsort(banks, kind="stable")
    sorted_banks = banks[order]
    sorted_rows = rows[order]
    unique_banks, starts = np.unique(sorted_banks, return_index=True)
    chunks = np.split(sorted_rows, starts[1:])
    return tuple(
        (int(bank), chunk) for bank, chunk in zip(unique_banks.tolist(), chunks)
    )


class BankAggregate(NamedTuple):
    """One bank's share of an interval, aggregated for the fast
    engine's per-step plans (see :meth:`RankInterval.bank_aggregates`).

    Everything here depends on the interval and the bank's row count
    only, so a plan over many units that replay one interval offsets
    these arrays to each unit's packed keys instead of aggregating
    again. Arrays are owned by the interval and must not be mutated.
    """

    bank: int
    #: The bank's rows in issue order.
    acts: np.ndarray
    #: ``(unique_rows, counts)`` in first-occurrence order (the
    #: tracker batch contract).
    by_first: tuple
    #: Unique rows inside the bank, and their counts as ``int64``.
    in_rows: np.ndarray
    in_counts: np.ndarray
    #: ``(row, count)`` of every activated row outside the bank.
    overflow: tuple
    #: ``[lo, hi)``: the activated rows' span, clipped to the bank.
    envelope: tuple
    #: Two activated rows are neighbours: the in-batch order of their
    #: self-refreshes is observable, so the bank replays exactly.
    adjacent: bool
    #: In-bank victims (rows ±1), ascending and unique, and the
    #: activations each receives. An ``adjacent`` bank's replay bumps
    #: these same cells, so the compiled march sizes its flip-event room
    #: by them; only the aggregated scatter must not apply them there.
    victims: np.ndarray
    delta: np.ndarray


def _aggregate_bank(bank: int, acts, num_rows: int) -> BankAggregate:
    uniq, first, counts = np.unique(
        acts, return_index=True, return_counts=True
    )
    order = np.argsort(first, kind="stable")
    in_range = (uniq >= 0) & (uniq < num_rows)
    overflow: tuple = ()
    if not bool(in_range.all()):
        outside = ~in_range
        overflow = tuple(
            zip(uniq[outside].tolist(), counts[outside].tolist())
        )
    # Even out-of-range aggressors can have in-range victims.
    near = np.concatenate((uniq - 1, uniq + 1))
    weights = np.concatenate((counts, counts)).astype(np.float64)
    valid = (near >= 0) & (near < num_rows)
    victims, index = np.unique(near[valid], return_inverse=True)
    delta = np.bincount(index, weights=weights[valid], minlength=victims.size)
    return BankAggregate(
        bank=bank,
        acts=acts,
        by_first=(uniq[order], counts[order]),
        in_rows=uniq[in_range],
        in_counts=counts[in_range].astype(np.int64),
        overflow=overflow,
        envelope=(max(int(uniq[0]), 0), min(int(uniq[-1]) + 1, num_rows)),
        adjacent=uniq.size > 1 and bool(np.any(np.diff(uniq) == 1)),
        victims=victims,
        delta=delta,
    )


@dataclass(frozen=True)
class Interval:
    """One tREFI worth of demand activations."""

    acts: tuple[int, ...]
    postpone: bool = False

    @staticmethod
    def of(acts: Iterable[int], postpone: bool = False) -> "Interval":
        return Interval(tuple(acts), postpone)

    @property
    def per_bank(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Bank-addressed view: a row-only interval is bank 0's stream."""
        return ((0, self.acts),)


@dataclass(frozen=True)
class RankInterval:
    """One tREFI worth of bank-addressed demand activations.

    ``acts`` holds ``(bank, row)`` pairs in issue order. The per-bank
    split is cached on the instance because attack generators share one
    interval object across thousands of tREFIs (``repeat_interval``),
    so the engine pays the grouping cost once per distinct interval.
    """

    acts: tuple[tuple[int, int], ...]
    postpone: bool = False

    @staticmethod
    def of(
        acts: Iterable[tuple[int, int]], postpone: bool = False
    ) -> "RankInterval":
        return RankInterval(tuple((b, r) for b, r in acts), postpone)

    @cached_property
    def per_bank(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """ACTs grouped by bank (ascending), issue order kept per bank."""
        grouped: dict[int, list[int]] = {}
        for bank, row in self.acts:
            grouped.setdefault(bank, []).append(row)
        return tuple(
            (bank, tuple(rows)) for bank, rows in sorted(grouped.items())
        )

    @cached_property
    def per_bank_arrays(self):
        """ACTs grouped by bank with rows as NumPy ``intp`` arrays.

        The array analogue of :attr:`per_bank`, cached for the same
        reason. Arrays are owned by the interval — callers must not
        mutate them.
        """
        if not self.acts:
            return ()
        pairs = np.asarray(self.acts, dtype=np.intp)
        return _split_by_bank(pairs[:, 0], pairs[:, 1])

    def bank_aggregates(self, num_rows: int) -> tuple[BankAggregate, ...]:
        """Per-bank :class:`BankAggregate`\\ s for banks of ``num_rows``
        rows, banks ascending.

        The fast engine's plan aggregation, cached on the interval next
        to :attr:`per_bank_arrays` (for the last ``num_rows`` asked):
        a plan over N units replaying one shared interval does one
        aggregation, not N.
        """
        cached = self.__dict__.get("_bank_aggregates")
        if cached is None or cached[0] != num_rows:
            cached = self.__dict__["_bank_aggregates"] = (
                num_rows,
                tuple(
                    _aggregate_bank(bank, acts, num_rows)
                    for bank, acts in self.per_bank_arrays
                ),
            )
        return cached[1]

    @classmethod
    def from_arrays(cls, banks, rows, postpone: bool = False) -> "RankInterval":
        """Build an interval straight from ``bank``/``row`` column arrays.

        Attack generators that already produce arrays avoid the
        tuple-of-pairs round-trip: the per-bank array split is computed
        here and seeded into the :attr:`per_bank_arrays` cache (the
        ``acts`` tuple is still materialized for the scalar API).
        """
        banks = np.asarray(banks, dtype=np.intp)
        rows = np.asarray(rows, dtype=np.intp)
        if banks.shape != rows.shape or banks.ndim != 1:
            raise ValueError("banks and rows must be 1-D arrays of equal length")
        interval = cls(tuple(zip(banks.tolist(), rows.tolist())), postpone)
        # cached_property stores through the instance __dict__, which a
        # frozen dataclass still allows.
        interval.__dict__["per_bank_arrays"] = (
            _split_by_bank(banks, rows) if banks.size else ()
        )
        return interval

    def acts_for_bank(self, bank: int) -> tuple[int, ...]:
        for b, rows in self.per_bank:
            if b == bank:
                return rows
        return ()


@dataclass
class Trace:
    """A named, bounded stream of intervals."""

    name: str
    intervals: list[Interval] = field(default_factory=list)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def total_acts(self) -> int:
        return sum(len(interval.acts) for interval in self.intervals)

    def rows_touched(self) -> set[int]:
        rows: set[int] = set()
        for interval in self.intervals:
            rows.update(interval.acts)
        return rows

    def validate(self, max_act: int) -> None:
        """Reject traces that exceed the per-interval ACT budget.

        Each distinct interval object is checked once, at its first
        index (intervals are frozen), so the first offending index is
        the one reported.
        """
        for index, interval in _first_uses(self.intervals):
            if len(interval.acts) > max_act:
                raise ValueError(
                    f"interval {index} has {len(interval.acts)} ACTs, "
                    f"but at most {max_act} fit in one tREFI"
                )


@dataclass
class RankTrace:
    """A named, bounded stream of bank-addressed intervals."""

    name: str
    intervals: list[RankInterval] = field(default_factory=list)

    def __iter__(self) -> Iterator[RankInterval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def total_acts(self) -> int:
        return sum(len(interval.acts) for interval in self.intervals)

    def banks_touched(self) -> set[int]:
        banks: set[int] = set()
        for interval in self.intervals:
            for bank, _rows in interval.per_bank:
                banks.add(bank)
        return banks

    def rows_touched(self, bank: int | None = None) -> set[int]:
        """Rows activated anywhere in the trace (optionally one bank's)."""
        rows: set[int] = set()
        for interval in self.intervals:
            for b, r in interval.acts:
                if bank is None or b == bank:
                    rows.add(r)
        return rows

    def validate(
        self,
        max_act: int,
        num_banks: int | None = None,
        concurrent_banks: int | None = None,
        seen: set[int] | None = None,
    ) -> None:
        """Reject traces that break the per-bank or rank-level budgets.

        ``max_act`` is the per-bank tRC budget of one tREFI;
        ``num_banks`` bounds the bank address space; ``concurrent_banks``
        enforces the tFAW ceiling on how many banks can sustain demand
        activations within one interval (22 of 64 in the paper's rank).
        ``seen`` skips interval objects an earlier check already passed
        (see :func:`validate_rank_intervals`).
        """
        validate_rank_intervals(
            self.intervals,
            max_act,
            num_banks=num_banks,
            concurrent_banks=concurrent_banks,
            seen=seen,
        )

    # ------------------------------------------------------------------
    # Conversions to/from the row-only single-bank format
    # ------------------------------------------------------------------
    def bank_trace(self, bank: int) -> Trace:
        """Project one bank's stream (same length; other banks' ACTs
        dropped, rank-level postpone flags kept)."""
        return Trace(
            name=self.name,
            intervals=[
                Interval(interval.acts_for_bank(bank), interval.postpone)
                for interval in self.intervals
            ],
        )

    def bank_traces(self) -> dict[int, Trace]:
        """Per-bank projections for every bank the trace touches."""
        return {
            bank: self.bank_trace(bank) for bank in sorted(self.banks_touched())
        }

    @classmethod
    def from_bank_traces(
        cls,
        name: str,
        traces: Mapping[int, Trace] | Sequence[Trace],
    ) -> "RankTrace":
        """Merge per-bank row traces into one rank trace.

        A sequence assigns trace ``i`` to bank ``i``. Shorter traces are
        padded with idle intervals to the longest; an interval's
        postpone flag is the OR of the banks' flags (postponement is a
        rank-level REF decision).

        Identical merged intervals are interned — repeated hammer
        patterns collapse to one shared :class:`RankInterval` object, so
        downstream per-interval caches (the bank split, the engine's
        batch aggregation) are computed once per *distinct* interval
        rather than once per tREFI. The lookup keys on the tuple of
        source interval objects first, so a repeated column of shared
        intervals costs O(1) per tREFI; only a new combination of
        objects builds (and content-interns) its merged interval.
        """
        if not isinstance(traces, Mapping):
            traces = dict(enumerate(traces))
        if not traces:
            return cls(name=name, intervals=[])
        banks = sorted(traces)
        columns = [traces[bank].intervals for bank in banks]
        length = max(len(column) for column in columns)
        intervals = []
        by_id: dict[tuple, RankInterval] = {}
        by_content: dict[tuple, RankInterval] = {}
        for i in range(length):
            # None pads a shorter trace; its id never names an interval.
            sources = [column[i] if i < len(column) else None
                       for column in columns]
            ids = tuple(map(id, sources))
            merged = by_id.get(ids)
            if merged is None:
                acts: list[tuple[int, int]] = []
                postpone = False
                for bank, interval in zip(banks, sources):
                    if interval is not None:
                        acts.extend((bank, r) for r in interval.acts)
                        postpone = postpone or interval.postpone
                key = (tuple(acts), postpone)
                merged = by_content.get(key)
                if merged is None:
                    merged = by_content[key] = RankInterval(*key)
                by_id[ids] = merged
            intervals.append(merged)
        return cls(name=name, intervals=intervals)


def lift_trace(trace: Trace, bank: int = 0) -> RankTrace:
    """Lift a row-only trace onto one bank of a rank.

    Each source interval object lifts once: repeats of it (the
    :func:`repeat_interval` idiom) are O(1) lookups by identity. A new
    object falls back to a content lookup, so fresh but equal intervals
    of a hand-built trace still lift to one shared
    :class:`RankInterval`, preserving the per-distinct-interval caching.
    """
    intervals = IntervalInterner()._intern(trace.intervals, bank)
    return RankTrace(name=trace.name, intervals=intervals)


def repeat_interval(
    acts: Iterable[int], count: int, postpone: bool = False
) -> list[Interval]:
    """``count`` identical intervals (the classic-attack building block)."""
    interval = Interval.of(acts, postpone)
    return [interval] * count


def repeat_rank_interval(
    acts: Iterable[tuple[int, int]], count: int, postpone: bool = False
) -> list[RankInterval]:
    """``count`` identical bank-addressed intervals (sharing one object,
    so the engine's per-interval bank split is computed once)."""
    interval = RankInterval.of(acts, postpone)
    return [interval] * count


# ---------------------------------------------------------------------
# Streaming traces
# ---------------------------------------------------------------------

def first_use_codes(keys: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Dense codes of integer ``keys``, numbered in first-use order:
    ``(firsts, codes)``, the index of each distinct key's first use
    (ascending) and every key's position in ``firsts``."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return first[order].tolist(), rank[inverse.reshape(-1)]


def identity_codes(intervals: Sequence) -> tuple[list[int], np.ndarray | None]:
    """Code ``intervals`` by object identity at C speed.

    Returns ``(firsts, codes)``: the index of each distinct interval
    object's first use, ascending, and every interval's position in
    ``firsts`` as ``int64`` — ``None`` when one object repeats
    throughout, the shape of every classic attack, which costs one
    identity scan. Python work is per distinct object, never per
    interval.
    """
    if not intervals:
        return [], None
    if all(map(is_, intervals, repeat(intervals[0]))):
        return [0], None
    ids = np.fromiter(map(id, intervals), np.uint64, len(intervals))
    return first_use_codes(ids)


def _first_uses(
    intervals: Sequence, start: int = 0, seen: set[int] | None = None
):
    """``(index, interval)`` for the first use of each distinct
    interval object, in order, indices offset by ``start``; objects
    whose ids are already in ``seen`` are skipped (``seen`` collects
    the ids as they go)."""
    if seen is None:
        seen = set()
    for index in identity_codes(intervals)[0]:
        interval = intervals[index]
        if id(interval) not in seen:
            seen.add(id(interval))
            yield start + index, interval


def validate_rank_intervals(
    intervals: Sequence[RankInterval],
    max_act: int,
    num_banks: int | None = None,
    concurrent_banks: int | None = None,
    start: int = 0,
    seen: set[int] | None = None,
) -> None:
    """Check a run of bank-addressed intervals against the budgets.

    The single source of the per-interval budget rules: the materialized
    :meth:`RankTrace.validate` checks its whole interval list through
    here, and the engine's streaming path checks each chunk as it
    arrives with ``start`` carrying the running interval offset — so a
    streamed trace is rejected under exactly the rules (and with exactly
    the messages) a materialized one would be, just lazily. Each
    distinct interval object is checked once, at its first index:
    intervals are frozen, so a repeat cannot fail where its first use
    passed, and the first offending index is still the one reported.
    ``seen`` carries the ids of objects that already passed an earlier
    call under the same budgets (every checked object must stay alive
    meanwhile), so schedules sharing interval objects — the interned
    traces of a Monte-Carlo window group — check each object once,
    each schedule still reporting its own first offending index.
    """
    for index, interval in _first_uses(intervals, start, seen):
        split = interval.per_bank
        if concurrent_banks is not None and len(split) > concurrent_banks:
            raise ValueError(
                f"interval {index} activates {len(split)} banks, but "
                f"tFAW sustains at most {concurrent_banks} concurrently"
            )
        for bank, rows in split:
            if bank < 0:
                raise ValueError(
                    f"interval {index} addresses negative bank {bank}"
                )
            if num_banks is not None and bank >= num_banks:
                raise ValueError(
                    f"interval {index} addresses bank {bank}, but the "
                    f"rank has {num_banks} banks"
                )
            if len(rows) > max_act:
                raise ValueError(
                    f"interval {index} has {len(rows)} ACTs on bank "
                    f"{bank}, but at most {max_act} fit in one tREFI"
                )


#: Intervals per chunk handed to the engine by the stream classes. Big
#: enough that the per-chunk loop-restart cost vanishes, small enough
#: that a chunk of distinct intervals stays cache-friendly.
DEFAULT_CHUNK_INTERVALS = 4096


class TraceStream:
    """A lazily produced, bank-addressed activation schedule.

    The streaming counterpart of :class:`RankTrace`: instead of holding
    every interval in memory, a stream *yields* them in bounded chunks,
    so an attack can drive the engine across an arbitrarily long
    horizon — multi-refresh-window Monte-Carlo campaigns, adaptive
    attacks that never materialize their schedule — at O(chunk) memory.
    The engine consumes chunks in order and validates each against the
    same budget rules as a materialized trace
    (:func:`validate_rank_intervals`), and its per-interval work is
    identical either way, so a streamed schedule produces a
    :class:`~repro.sim.results.RankSimResult` bit-identical to running
    the materialized equivalent (pinned by the stream-equivalence
    tests).

    Subclasses implement :meth:`chunks`. ``horizon`` declares the total
    interval count when known (``None`` = unknown until exhausted);
    ``act_budget`` declares the maximum per-bank ACTs any interval
    carries, letting the engine reject an over-budget schedule before
    simulating a single interval. A stream must be re-iterable:
    every :meth:`chunks` call starts a fresh pass.
    """

    name: str = "stream"
    #: Declared total interval count (None = unknown/unbounded).
    horizon: int | None = None
    #: Declared max per-bank ACTs in any one interval (None = undeclared).
    act_budget: int | None = None

    def chunks(self) -> Iterator[Sequence[RankInterval]]:
        """Yield the schedule as successive runs of intervals."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[RankInterval]:
        for chunk in self.chunks():
            yield from chunk

    def materialize(self) -> RankTrace:
        """Collect the whole stream into a :class:`RankTrace`.

        The inverse of :func:`as_trace_stream` — useful for tests and
        short horizons; defeats the purpose for unbounded ones.
        """
        return RankTrace(name=self.name, intervals=list(self))


class MaterializedStream(TraceStream):
    """A :class:`RankTrace` viewed through the stream protocol.

    What :func:`as_trace_stream` wraps an already-built trace in: one
    pass yields the interval list in :data:`DEFAULT_CHUNK_INTERVALS`
    slices (slices of a list of shared interval objects are cheap), and
    the horizon is exact.
    """

    def __init__(self, trace: RankTrace,
                 chunk_intervals: int = DEFAULT_CHUNK_INTERVALS) -> None:
        if chunk_intervals < 1:
            raise ValueError("chunk_intervals must be >= 1")
        self.trace = trace
        self.name = trace.name
        self.horizon = len(trace)
        self.chunk_intervals = chunk_intervals

    def chunks(self) -> Iterator[Sequence[RankInterval]]:
        intervals = self.trace.intervals
        for lo in range(0, len(intervals), self.chunk_intervals):
            yield intervals[lo:lo + self.chunk_intervals]


class CycleStream(TraceStream):
    """A periodic schedule repeated out to a (possibly huge) horizon.

    The streaming form of the ``repeat_interval`` idiom: virtually every
    long-horizon attack is a short super-window played over and over
    (hammer intervals, a decoy-then-hammer cycle, a rotation pattern).
    A materialized ``[interval] * count`` list costs 8 bytes of pointer
    per tREFI — a billion-activation campaign would not fit in RAM —
    while this stream holds only the pattern and yields pointer blocks
    of at most ``chunk_intervals``, so memory is flat in the horizon.

    The same few interval *objects* recur throughout, which is exactly
    what the engine's per-distinct-interval caches want.
    """

    def __init__(
        self,
        name: str,
        pattern: Sequence[RankInterval],
        count: int,
        chunk_intervals: int = DEFAULT_CHUNK_INTERVALS,
    ) -> None:
        if not pattern:
            raise ValueError("pattern must carry at least one interval")
        if count < 0:
            raise ValueError("count must be >= 0")
        if chunk_intervals < len(pattern):
            chunk_intervals = len(pattern)
        self.name = name
        self.pattern = list(pattern)
        self.count = count
        self.horizon = count
        self.act_budget = max(
            (len(rows) for interval in self.pattern
             for _bank, rows in interval.per_bank),
            default=0,
        )
        # Whole pattern repetitions per chunk, so every chunk is a
        # phase-aligned prefix of the cycle.
        self._reps = max(1, chunk_intervals // len(self.pattern))

    def chunks(self) -> Iterator[Sequence[RankInterval]]:
        period = len(self.pattern)
        block = self.pattern * self._reps
        emitted = 0
        while emitted + len(block) <= self.count:
            yield block
            emitted += len(block)
        remainder = self.count - emitted
        if remainder:
            full, partial = divmod(remainder, period)
            yield self.pattern * full + self.pattern[:partial]


class GeneratorStream(TraceStream):
    """A stream over an arbitrary interval generator.

    ``intervals`` is a zero-argument callable returning an iterator of
    :class:`RankInterval` — a generator function, so every
    :meth:`chunks` call restarts the schedule from a clean slate (the
    stream contract). Use this for schedules that are computed on the
    fly (adaptive attacks, randomized placements) rather than periodic;
    give randomized generators their own seeded RNG inside the callable
    so replays are identical.
    """

    def __init__(
        self,
        name: str,
        intervals: Callable[[], Iterator[RankInterval]],
        horizon: int | None = None,
        act_budget: int | None = None,
        chunk_intervals: int = DEFAULT_CHUNK_INTERVALS,
    ) -> None:
        if not callable(intervals):
            raise TypeError(
                "intervals must be a zero-argument callable returning an "
                "iterator (a generator function), so the stream can be "
                "re-iterated"
            )
        if chunk_intervals < 1:
            raise ValueError("chunk_intervals must be >= 1")
        self.name = name
        self._intervals = intervals
        self.horizon = horizon
        self.act_budget = act_budget
        self.chunk_intervals = chunk_intervals

    def chunks(self) -> Iterator[Sequence[RankInterval]]:
        chunk: list[RankInterval] = []
        for interval in self._intervals():
            chunk.append(interval)
            if len(chunk) >= self.chunk_intervals:
                yield chunk
                chunk = []
        if chunk:
            yield chunk


class IntervalInterner:
    """One content → interval map shared by many traces.

    The windows of a Monte-Carlo group each build their trace afresh
    from their own RNG, so an attack that ignores the RNG rebuilds
    equal intervals as new objects in every window. Passing every
    window's trace through one interner (:meth:`stream`) gives equal
    intervals one shared :class:`RankInterval` across the group, and
    equal interval lists one shared stream: the per-interval caches
    (:attr:`~RankInterval.per_bank_arrays`,
    :meth:`~RankInterval.bank_aggregates`), the budget checks and the
    fast engine's plans then run once per distinct thing, not once per
    window. Sources are looked up by identity first (O(1) per repeat)
    and by content on a miss; every source and interned object is
    pinned for the interner's lifetime, so no id can be recycled.
    """

    def __init__(self) -> None:
        # Per target bank (None: bank-addressed sources, kept as is):
        # id(source) -> interned interval. Every source is pinned in
        # ``_sources``, so no id can be recycled while the map lives.
        self._interned: dict[int | None, dict[int, RankInterval]] = {}
        self._sources: list = []
        self._by_content: dict[tuple, RankInterval] = {}
        # Interned interval lists -> the one stream that plays them.
        self._streams: dict[tuple, TraceStream] = {}

    def _intern(self, intervals: Sequence, bank: int | None) -> list:
        """``intervals`` interned: row-only ones lifted onto ``bank``,
        bank-addressed ones (``bank`` None) shared by content.

        Each distinct source object is looked up once (see
        :func:`identity_codes`); the interned list is assembled from
        the identity codes at C speed.
        """
        interned = self._interned.setdefault(bank, {})
        by_content = self._by_content
        firsts, codes = identity_codes(intervals)
        shared_list = []
        for index in firsts:
            interval = intervals[index]
            shared = interned.get(id(interval))
            if shared is None:
                if bank is None:
                    key: tuple = (interval.acts, interval.postpone)
                else:
                    key = (bank, interval.acts, interval.postpone)
                shared = by_content.get(key)
                if shared is None:
                    shared = by_content[key] = (
                        interval if bank is None else RankInterval(
                            tuple((bank, row) for row in interval.acts),
                            interval.postpone,
                        )
                    )
                interned[id(interval)] = shared
                self._sources.append(interval)
            shared_list.append(shared)
        if codes is None:
            return shared_list * len(intervals)
        # Two or more distinct objects: the getter returns a tuple.
        return list(itemgetter(*codes.tolist())(shared_list))

    def stream(
        self, trace: "Trace | RankTrace | TraceStream", bank: int = 0
    ) -> TraceStream:
        """``trace`` as a stream (see :func:`as_trace_stream`), its
        intervals interned; equal interval lists under one name come
        back as one shared stream object. Lazily produced streams pass
        through: their intervals do not exist yet."""
        if isinstance(trace, CycleStream):
            pattern = self._intern(trace.pattern, None)
            key: tuple = (
                CycleStream, trace.name, trace.count,
                tuple(map(id, pattern)),
            )
            shared = self._streams.get(key)
            if shared is None:
                shared = self._streams[key] = CycleStream(
                    trace.name, pattern, trace.count
                )
            return shared
        if isinstance(trace, MaterializedStream):
            trace = trace.trace
        if isinstance(trace, Trace):
            intervals = self._intern(trace.intervals, bank)
        elif isinstance(trace, RankTrace):
            intervals = self._intern(trace.intervals, None)
        else:
            return as_trace_stream(trace)
        key = (trace.name, tuple(map(id, intervals)))
        shared = self._streams.get(key)
        if shared is None:
            shared = self._streams[key] = MaterializedStream(
                RankTrace(name=trace.name, intervals=intervals)
            )
        return shared


def as_trace_stream(
    trace: "Trace | RankTrace | TraceStream", bank: int = 0
) -> TraceStream:
    """Coerce any trace shape into a :class:`TraceStream`.

    Streams pass through; a :class:`RankTrace` wraps in a
    :class:`MaterializedStream`; a row-only :class:`Trace` lifts onto
    ``bank`` first (the classic lifting seam, interning preserved).
    """
    if isinstance(trace, TraceStream):
        return trace
    if isinstance(trace, RankTrace):
        return MaterializedStream(trace)
    if isinstance(trace, Trace):
        return MaterializedStream(lift_trace(trace, bank))
    raise TypeError(
        f"cannot stream {type(trace).__name__}; expected Trace, "
        f"RankTrace, or TraceStream"
    )


@dataclass
class ChannelTrace:
    """Per-rank activation schedules under one channel clock.

    The channel-level input format: rank ``r``'s schedule is
    ``per_rank[r]`` — a :class:`RankTrace` or a :class:`TraceStream`
    (a row-only :class:`Trace` is bank 0's schedule) — and the
    :class:`~repro.sim.engine.ChannelSimulator` marches every rank
    through the shared tREFI clock. Ranks absent from the mapping
    sit idle. REF postponement stays a per-rank flag (each rank has its
    own refresh schedule in DDR5), which is what keeps a channel run
    decomposable into independent rank runs — the property the
    channel-equivalence tests pin.
    """

    name: str
    per_rank: dict[int, "Trace | RankTrace | TraceStream"] = field(
        default_factory=dict
    )

    @property
    def num_ranks(self) -> int:
        """Ranks the trace addresses (1 + highest rank index)."""
        return max(self.per_rank, default=-1) + 1

    def ranks_touched(self) -> set[int]:
        return set(self.per_rank)

    def rank_stream(
        self, rank: int, interner: IntervalInterner | None = None
    ) -> TraceStream:
        """Rank ``rank``'s schedule as a stream (empty if unaddressed),
        interned through ``interner`` when one is given."""
        trace = self.per_rank.get(rank)
        if trace is None:
            trace = RankTrace(name=f"{self.name}[idle]")
        if interner is None:
            return as_trace_stream(trace)
        return interner.stream(trace)

    @property
    def horizon(self) -> int | None:
        """Channel horizon: the longest rank's declared horizon
        (``None`` if any rank's is unknown)."""
        horizons = [
            as_trace_stream(trace).horizon
            for trace in self.per_rank.values()
        ]
        if any(h is None for h in horizons):
            return None
        return max(horizons, default=0)
