"""A DRAM device: banks, row-disturbance oracles, and refresh plumbing.

The device is the security simulator's view of the DRAM chip: it owns
one :class:`~repro.dram.rowstate.RowDisturbanceModel` per bank and the
auto-refresh sweep that restores 1/8192 of the rows at each REF.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import REFI_PER_REFW, ROWS_PER_BANK
from .mapping import RankAddressMap
from .rowstate import (
    DenseRowDisturbanceModel,
    PackedRows,
    RowBatch,
    RowDisturbanceModel,
)
from .timing import DDR5Timing, DEFAULT_TIMING


@dataclass
class DeviceConfig:
    """Static configuration of the simulated device.

    ``refi_per_refw`` controls the granularity of the rolling
    auto-refresh (8192 for DDR5; tests shrink it together with
    ``rows_per_bank`` to keep Monte-Carlo runs fast). The per-bank
    oracle is not configured here: it follows the storage
    :class:`DramDevice` is given (see :mod:`repro.dram.rowstate`).
    """

    timing: DDR5Timing = DEFAULT_TIMING
    num_banks: int = 1
    rows_per_bank: int = ROWS_PER_BANK
    trh: float = 4800.0
    blast_radius: int = 1
    refi_per_refw: int = REFI_PER_REFW


class DramDevice:
    """Security-level DRAM device.

    Tracks per-bank disturbance and performs the rolling auto-refresh:
    REF number ``i`` refreshes the slice of rows
    ``[i * rows/8192, (i+1) * rows/8192)`` so that every row is restored
    exactly once per tREFW, matching the model the paper analyses.

    ``storage``, when given, is a zero-filled packed ``(bank, row)``
    :class:`~repro.dram.rowstate.PackedRows` family (the fast engine's
    kernel state): each bank's oracle is then the
    :class:`~repro.dram.rowstate.DenseRowDisturbanceModel` on its row
    views. Without it, each bank gets the sparse
    :class:`~repro.dram.rowstate.RowDisturbanceModel`.
    """

    def __init__(
        self,
        config: DeviceConfig | None = None,
        storage: PackedRows | None = None,
    ) -> None:
        self.config = config or DeviceConfig()
        c = self.config
        oracle = RowDisturbanceModel if storage is None else DenseRowDisturbanceModel
        self.banks = [
            oracle(
                c.rows_per_bank,
                c.trh,
                c.blast_radius,
                storage=None if storage is None else storage.unit(bank),
            )
            for bank in range(c.num_banks)
        ]
        self._ref_counter = [0] * c.num_banks
        self._rows_per_slice = max(1, c.rows_per_bank // c.refi_per_refw)
        self.address_map = RankAddressMap(c.num_banks, c.rows_per_bank)

    def activate(self, bank: int, row: int, time_ns: float = 0.0) -> None:
        """A demand activation: hammers the row's neighbours."""
        self.banks[bank].activate(row, time_ns)

    def activate_many(
        self, bank: int, rows: RowBatch, time_ns: float = 0.0
    ) -> None:
        """Batch of demand activations on one bank (hot-loop entry).

        ``rows`` may be any integer sequence or NumPy array and is
        never mutated.
        """
        self.banks[bank].activate_many(rows, time_ns)

    def activate_flat(self, address: int, time_ns: float = 0.0) -> tuple[int, int]:
        """Activate by flat physical address; returns the decoded
        ``(bank, row)`` so callers can correlate with per-bank results."""
        bank, row = self.address_map.decode(address)
        self.banks[bank].activate(row, time_ns)
        return bank, row

    def mitigate(
        self, bank: int, aggressor: int, distance: int = 1, time_ns: float = 0.0
    ) -> list[int]:
        """Victim refresh around ``aggressor`` at ``distance``.

        ``distance=1`` is a normal mitigation (refresh aggressor±1);
        ``distance=2`` is a transitive mitigation (refresh aggressor±2),
        and so on for recursive transitive mitigations (Section V-E).
        Returns the refreshed rows.
        """
        model = self.banks[bank]
        if distance == 1:
            # The common (non-transitive) mitigation is exactly the
            # model's own victim refresh; the dense model specializes
            # it, and this runs once per REF per bank.
            return model.mitigate(aggressor, time_ns)
        refreshed = []
        # A victim refresh covers every ring the device's blast radius
        # disturbs: rings ``distance .. distance + blast_radius - 1``.
        for ring in range(distance, distance + model.blast_radius):
            for offset in (aggressor - ring, aggressor + ring):
                if 0 <= offset < model.num_rows:
                    refreshed.append(offset)
        for victim in refreshed:
            model.refresh_row(victim, time_ns)
        # A victim refresh is itself an activation: it disturbs the
        # victim's neighbours (the transitive / Half-Double channel).
        for victim in refreshed:
            model.activate(victim, time_ns)
        for victim in refreshed:
            model.clear_row(victim)
        return refreshed

    def victim_refresh(self, bank: int, row: int, time_ns: float = 0.0) -> list[int]:
        """Victim-centric mitigation (ProTRR-style): refresh ``row``
        itself.

        The refresh is a full row cycle, so it disturbs the refreshed
        row's neighbours; the refreshed row ends the operation clean.
        Returns the refreshed rows (always just ``row``).
        """
        model = self.banks[bank]
        model.refresh_row(row, time_ns)
        model.activate(row, time_ns)
        model.clear_row(row)
        return [row]

    def auto_refresh(self, bank: int, time_ns: float = 0.0) -> tuple[int, int]:
        """Execute the rolling auto-refresh slice for one REF command.

        Returns the half-open row range that was restored.
        """
        model = self.banks[bank]
        refw = self.config.refi_per_refw
        i = self._ref_counter[bank] % refw
        lo = i * self._rows_per_slice
        hi = min(lo + self._rows_per_slice, model.num_rows)
        if i == refw - 1:
            hi = model.num_rows
        model.refresh_range(lo, hi, time_ns)
        self._ref_counter[bank] += 1
        return lo, hi

    def flips(self, bank: int = 0):
        return self.banks[bank].flips

    @property
    def any_flip(self) -> bool:
        return any(bank.any_flip for bank in self.banks)
