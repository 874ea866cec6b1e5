"""MINT: the Minimalist In-DRAM Tracker (paper Section V).

MINT is *future-centric*: at each REF it draws, uniformly at random, the
sequence number of the activation in the upcoming tREFI interval that
will be mitigated at the next REF. Three registers implement it:

``SAN`` (Selected Activation Number, 7 bits)
    The position drawn at the last REF.
``CAN`` (Current Activation Number, 7 bits)
    Sequence number of activations since the last REF.
``SAR`` (Selected Address Register, 18 bits incl. valid)
    The row captured when ``CAN == SAN``; mitigated at the next REF.

With the transitive-mitigation extension (Section V-E) the URAND draw
covers 0..M instead of 1..M: drawing 0 preserves SAR across the REF and
upgrades the pending mitigation to a transitive one (refresh the victims
of the victim rows, i.e. aggressor±2); consecutive zeros increase the
distance recursively.
"""

from __future__ import annotations

import random

from ..constants import COUNTER_BITS, SAR_BITS
from ..kernels.march import KIND_MINT
from ..trackers.base import Lowering, MarchUnit, MitigationRequest, Tracker


class MintTracker(Tracker):
    """The single-entry future-centric tracker.

    Parameters
    ----------
    max_act:
        M, the maximum number of activations per mitigation interval
        (73 for the default DDR5 timing; 32/16 when co-designed with
        RFM, Section VII).
    transitive:
        Enable the 0-slot transitive mitigation (on by default, as in
        the final MINT design). With it the URAND covers ``0..M`` and the
        selection probability becomes ``1/(M+1)``.
    rng:
        Source of randomness standing in for the in-DRAM TRNG.
    """

    name = "MINT"
    centric = "future"
    observes_mitigations = False

    def __init__(
        self,
        max_act: int = 73,
        transitive: bool = True,
        rng: random.Random | None = None,
    ) -> None:
        if max_act < 1:
            raise ValueError("max_act must be >= 1")
        self.max_act = max_act
        self.transitive = transitive
        # ad-hoc convenience default: every engine/Session path
        # repro-lint: allow[seed-policy] passes a derived rng
        self.rng = rng or random.Random()
        self.can = 0
        self.sar: int | None = None
        self._distance = 1
        self.san: int | None = None
        self._draw_san()
        # Statistics
        self.selections = 0
        self.mitigations_issued = 0
        self.transitive_mitigations = 0

    # ------------------------------------------------------------------
    @property
    def selection_probability(self) -> float:
        """Per-activation selection probability (1/M or 1/(M+1))."""
        slots = self.max_act + 1 if self.transitive else self.max_act
        return 1.0 / slots

    def _draw_san(self) -> None:
        """Draw the selected activation number for the next interval.

        Drawing 0 (only possible with the transitive extension) keeps
        the current SAR and marks the pending mitigation transitive.
        """
        low = 0 if self.transitive else 1
        draw = self.rng.randint(low, self.max_act)
        if draw == 0:
            # Slot 0: preserve SAR; its mitigation distance grows by one.
            # No new selection happens during the upcoming interval.
            if self.sar is not None:
                self._distance += 1
            self.san = None
        else:
            self.sar = None
            self._distance = 1
            self.san = draw

    # ------------------------------------------------------------------
    def on_activate(self, row: int) -> None:
        self.can += 1
        if self.san is not None and self.can == self.san:
            self.sar = row
            self.selections += 1

    def on_activate_batch(self, rows, counts=None) -> None:
        """O(1) batch observation: MINT only reads the SAN-th activation.

        CAN advances by the batch size; if the selected activation
        number falls inside this batch, capture that one row. Identical
        to the scalar loop (no randomness is consumed between REFs).
        """
        n = len(rows)
        if n == 0:
            return
        san = self.san
        if san is not None:
            index = san - self.can - 1
            if 0 <= index < n:
                self.sar = int(rows[index])
                self.selections += 1
        self.can += n

    def on_refresh(self) -> list[MitigationRequest]:
        requests = []
        if self.sar is not None:
            requests.append(MitigationRequest(self.sar, self._distance))
            self.mitigations_issued += 1
            if self._distance > 1:
                self.transitive_mitigations += 1
        self.can = 0
        self._draw_san()
        return requests

    def pseudo_refresh(self) -> list[MitigationRequest]:
        """DMQ boundary: same selection hand-over as a refresh.

        MINT already counts activations in CAN, so the DMQ reuses it
        (Section VI-C: "MINT already does this with CAN").
        """
        return self.on_refresh()

    def lower(self) -> Lowering:
        low = 0 if self.transitive else 1
        return Lowering(KIND_MINT, self.rng, (low, self.max_act))

    def march_in(self, unit: MarchUnit) -> bool:
        # A march may start at any cycle position, CAN included.
        sar = self.sar
        unit["m_can"] = self.can
        unit["m_san"] = -1 if self.san is None else self.san
        unit["m_valid"] = sar is not None
        unit["m_sar"] = sar or 0
        unit["m_dist"] = self._distance
        unit["m_sel"] = self.selections
        return True

    def march_out(self, unit: MarchUnit) -> None:
        self.can = unit["m_can"]
        self.san = None if unit["m_san"] == -1 else unit["m_san"]
        self.sar = unit["m_sar"] if unit["m_valid"] else None
        self._distance = unit["m_dist"]
        self.selections = unit["m_sel"]
        self.mitigations_issued += unit["mitig"]
        self.transitive_mitigations += unit["transmit"]

    def reset(self) -> None:
        self.can = 0
        self.sar = None
        self._distance = 1
        self._draw_san()
        self.selections = 0
        self.mitigations_issued = 0
        self.transitive_mitigations = 0

    # ------------------------------------------------------------------
    @property
    def entries(self) -> int:
        return 1

    @property
    def storage_bits(self) -> int:
        """CAN (7) + SAN (7) + SAR (18) = 32 bits = 4 bytes (§VIII-C)."""
        return 2 * COUNTER_BITS + SAR_BITS
