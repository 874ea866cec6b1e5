"""Delayed Mitigation Queue (DMQ) — paper Section VI-C.

DDR5 lets the memory controller postpone up to four REF commands. For a
low-cost tracker tailored to M activations per interval, every
activation past M is invisible: an attacker can spend the first M
activations on decoys and then hammer freely (478K deterministic
activations per tREFW, Table IV).

The DMQ fixes this generically. It wraps any tracker and counts
activations since the last REF; each time the count exceeds M it resets
the count and performs a *pseudo-mitigation*: the wrapped tracker hands
over its current selection, which is pushed into a small FIFO. At a real
REF, if the FIFO holds entries the oldest is mitigated (and the
tracker's fresh selection joins the queue); otherwise the tracker
mitigates normally.
"""

from __future__ import annotations

from collections import deque

from ..dram.timing import DDR5Timing, DEFAULT_TIMING
from ..trackers.base import MitigationRequest, Tracker

#: One DMQ entry holds a row address plus the transitive-distance bit
#: (19 bits per the paper's storage analysis, Section VIII-C).
DMQ_ENTRY_BITS = 19


class DelayedMitigationQueue(Tracker):
    """Wrap ``inner`` so it survives refresh postponement.

    Parameters
    ----------
    inner:
        Any :class:`~repro.trackers.base.Tracker`.
    max_act:
        M — the number of activations the inner tracker expects per
        mitigation interval.
    depth:
        FIFO entries; 4 matches the DDR5 postponement ceiling.
    """

    centric = "wrapper"

    def __init__(self, inner: Tracker, max_act: int = 73, depth: int = 4) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if max_act < 1:
            raise ValueError("max_act must be >= 1")
        self.inner = inner
        self.max_act = max_act
        self.depth = depth
        self.queue: deque[MitigationRequest] = deque()
        self.num_acts = 0
        self.pseudo_mitigations = 0
        self.overflow_drops = 0
        self.name = f"{inner.name}+DMQ"
        self.observes_mitigations = inner.observes_mitigations

    # ------------------------------------------------------------------
    def on_activate(self, row: int) -> None:
        self.num_acts += 1
        if self.num_acts > self.max_act:
            # Refresh is overdue: flush the tracker's selection into the
            # queue so it cannot be dislodged by the extra activations.
            self.num_acts = 1
            self.pseudo_mitigations += 1
            self._enqueue(self.inner.pseudo_refresh())
        self.inner.on_activate(row)

    def on_activate_batch(self, rows, counts=None) -> None:
        """Feed a batch through in pseudo-refresh-boundary chunks.

        The wrapped tracker sees the same act stream as the scalar path:
        runs of up to ``max_act`` activations separated by the
        pseudo-mitigation hand-offs the overflow rule inserts. The
        shared ``counts`` aggregation is forwarded when a chunk covers
        the whole batch (the common full-interval case); a sub-slice
        passes ``counts=None`` since the whole-batch aggregation does
        not describe it.
        """
        n = len(rows)
        index = 0
        while index < n:
            space = self.max_act - self.num_acts
            if space <= 0:
                self.num_acts = 0
                self.pseudo_mitigations += 1
                self._enqueue(self.inner.pseudo_refresh())
                space = self.max_act
            chunk = min(n - index, space)
            if index == 0 and chunk == n:
                self.inner.on_activate_batch(rows, counts)
            else:
                self.inner.on_activate_batch(rows[index : index + chunk])
            self.num_acts += chunk
            index += chunk

    def on_mitigation_activate(self, row: int) -> None:
        # Victim-refresh activations do not advance the DMQ's activation
        # count (they happen inside the REF, not in the demand stream).
        self.inner.on_mitigation_activate(row)

    def on_refresh(self) -> list[MitigationRequest]:
        self.num_acts = 0
        fresh = self.inner.on_refresh()
        if not self.queue:
            return fresh
        # Queue is non-empty: FIFO order — mitigate the oldest entry,
        # then queue the fresh selection behind the rest (popping first
        # guarantees a full queue plus a fresh selection never drops an
        # entry during a 5-REF batch).
        oldest = self.queue.popleft()
        self._enqueue(fresh)
        return [oldest]

    def pseudo_refresh(self) -> list[MitigationRequest]:
        # Nesting DMQs is meaningless but harmless: behave like refresh.
        return self.on_refresh()

    def reset(self) -> None:
        self.inner.reset()
        self.queue.clear()
        self.num_acts = 0
        self.pseudo_mitigations = 0
        self.overflow_drops = 0

    # ------------------------------------------------------------------
    def _enqueue(self, requests: list[MitigationRequest]) -> None:
        for request in requests:
            if len(self.queue) >= self.depth:
                # Tail-drop: the oldest entries carry the bounded-delay
                # guarantee (Section VI-D), so an overflowing *new*
                # request is dropped instead. With the DDR5 ceiling of
                # four postponed REFs this only happens for duplicate
                # transitive re-submissions; counted for the ablations.
                self.overflow_drops += 1
                continue
            self.queue.append(request)

    @property
    def entries(self) -> int:
        return self.inner.entries

    @property
    def storage_bits(self) -> int:
        """Inner tracker plus ``depth`` 19-bit queue entries (§VIII-C)."""
        return self.inner.storage_bits + self.depth * DMQ_ENTRY_BITS


def with_dmq(tracker: Tracker, timing: DDR5Timing = DEFAULT_TIMING) -> Tracker:
    """Wrap ``tracker`` in a DDR5-sized Delayed Mitigation Queue."""
    return DelayedMitigationQueue(tracker, max_act=timing.max_act, depth=4)
