#!/usr/bin/env python3
"""Quickstart: protect a DRAM bank with MINT.

Runs the classic double-sided Rowhammer attack against an unprotected
bank and against MINT, at a modern threshold (TRH-D = 4800, the lowest
LPDDR4 value from the paper's Table II), and shows the outcome.

Run:  python examples/quickstart.py
"""

from dataclasses import replace

from repro import Scenario, Session


def main() -> None:
    # One refresh window's worth of hammering (8192 tREFI), full rate.
    unprotected = Scenario(
        tracker="none", attack="double-sided", trh=4800,
        intervals=8192, base_row=1000, seed=42,
    )
    trace = unprotected.build_trace()

    print(f"attack: {trace.name}, {trace.total_acts:,} activations "
          f"over {len(trace)} tREFI (one 32 ms refresh window)")
    print(f"device threshold: TRH-D = {unprotected.trh:.0f}\n")

    failed = Session(unprotected).run().per_bank[0]
    print(f"unprotected bank : {failed.summary()}")
    if failed.failed:
        flip = failed.flips[0]
        print(f"                   first flip in row {flip.row} after "
              f"{flip.disturbance:.0f} disturbances "
              f"({flip.time_ns / 1e6:.2f} ms into the window)")

    session = Session(replace(unprotected, tracker="mint"))
    protected = session.run().per_bank[0]
    tracker = session.trackers[0]
    print(f"with MINT        : {protected.summary()}")
    print(f"                   {protected.mitigations} victim refreshes "
          f"({protected.transitive_mitigations} transitive), "
          f"tracker storage: {tracker.storage_bits // 8} bytes")

    assert failed.failed and not protected.failed
    print("\nMINT (single-entry, 4 bytes per bank) stopped the attack "
          "the unprotected bank failed in milliseconds.")


if __name__ == "__main__":
    main()
