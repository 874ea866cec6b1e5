#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure."""

import io
import random
import sys

from repro.analysis import (
    ada_curve,
    maxact_sweep,
    mint_dmq_vs_prct_gap,
    mint_vs_prct_gap,
    non_selection_probability,
    pattern1_mintrh,
    pattern2_mintrh,
    pattern3_mintrh,
    survival_probability,
    sampling_probability_no_overwrite,
    table3,
    table4,
    table5,
    table9,
    ttf_sensitivity,
    vulnerability_factor,
    worst_case_ada_mintrh,
)
from repro.attacks import AttackParams, postponement_decoy
from repro.core import DelayedMitigationQueue, MintTracker
from repro.dram.timing import DEFAULT_TIMING
from repro.perf.energy import table8
from repro.perf.runner import evaluate_workload, geometric_mean
from repro.perf.workloads import RATE_WORKLOADS, rate_mix
from repro.sim.engine import EngineConfig, RankSimulator


def main() -> None:
    out = io.StringIO()
    w = out.write

    w("# EXPERIMENTS — paper vs measured\n\n")
    w("Generated by `python scripts/generate_experiments_md.py`. Every table\n"
      "and figure of the paper's evaluation, the number the paper reports,\n"
      "and what this reproduction measures. Shape agreement (ordering,\n"
      "factors, crossovers) is the goal; deviations are footnoted.\n\n")

    # Table I ----------------------------------------------------------
    t = DEFAULT_TIMING
    w("## Table I — DRAM parameters\n\n")
    w("| Parameter | Paper | Measured |\n|---|---|---|\n")
    w(f"| tREFW | 32 ms | {t.t_refw_ms:.0f} ms |\n")
    w(f"| tREFI | 3900 ns | {t.t_refi_ns:.0f} ns |\n")
    w(f"| tRFC | 410 ns | {t.t_rfc_ns:.0f} ns |\n")
    w(f"| tRC | 48 ns | {t.t_rc_ns:.0f} ns |\n")
    w(f"| MaxACT | 73 | {t.max_act} |\n\n")

    # Figs 3/5/6 --------------------------------------------------------
    w("## Figs 3, 5, 6 — InDRAM-PARA pitfalls\n\n")
    w("| Quantity | Paper | Measured |\n|---|---|---|\n")
    w(f"| Survival of position 1 (Fig 3) | 0.37 | "
      f"{survival_probability(1):.3f} |\n")
    w(f"| Sampling of position 73, relative (Fig 5) | 0.37 | "
      f"{sampling_probability_no_overwrite(73) * 73:.3f} |\n")
    w(f"| Worst-position dip, overwrite (Fig 6) | 2.7x | "
      f"{vulnerability_factor(overwrite=True):.2f}x |\n")
    w(f"| Worst-position dip, no-overwrite (Fig 6) | 2.7x | "
      f"{vulnerability_factor(overwrite=False):.2f}x |\n")
    w(f"| Non-selection of a full window (Eq 4) | 0.37 | "
      f"{non_selection_probability():.3f} |\n\n")

    # Figs 10/11 --------------------------------------------------------
    w("## Figs 10, 11 — worst-case patterns for MINT\n\n")
    w("| Quantity | Paper | Measured |\n|---|---|---|\n")
    w(f"| Pattern-1 MinTRH | 2461 | {pattern1_mintrh()} |\n")
    w(f"| Pattern-2 MinTRH at k=73 (peak) | 2763 | {pattern2_mintrh(73)} |\n")
    w(f"| Pattern-2 at k=146 (multi-tREFI decline) | <2763 | "
      f"{pattern2_mintrh(146)} |\n")
    w(f"| Pattern-3 at c=3 (flat) | ~2763 | {pattern3_mintrh(3)} |\n")
    w(f"| Pattern-3 at c=24 (collapsed) | well below | "
      f"{pattern3_mintrh(24)} |\n\n")

    # Table III ---------------------------------------------------------
    w("## Table III — tracker comparison (MinTRH-D / entries)\n\n")
    paper3 = {"PRCT": (623, "128K"), "Mithril": (1400, "677"),
              "PARFM": (4096, "73"), "InDRAM-PARA": (3732, "1"),
              "MINT": (1400, "1")}
    w("| Design | Paper MinTRH-D | Measured | Paper entries | Measured |\n")
    w("|---|---|---|---|---|\n")
    for row in table3():
        p = paper3[row.name]
        w(f"| {row.name} | {p[0]} | {row.mintrh_d} | {p[1]} | "
          f"{row.entries} |\n")
    w(f"\nMINT vs PRCT gap: paper 2.25x, measured "
      f"{mint_vs_prct_gap():.2f}x.\n")
    w("InDRAM-PARA deviates ~9%: the paper scales the 2.7x probability\n"
      "ratio directly; our exact threshold search gives a 2.4x ratio.\n\n")

    # Table IV ----------------------------------------------------------
    w("## Table IV — refresh postponement and the DMQ\n\n")
    paper4 = {"PRCT": (623, 769, 769), "Mithril": (1400, 1546, 1546),
              "PARFM": (4096, "478K", 4242),
              "InDRAM-PARA": (3732, "21.3K", 3650),
              "MINT": (1400, "478K", "1404/1482")}
    w("| Design | Paper (none/noDMQ/DMQ) | Measured (none/noDMQ/DMQ) |\n")
    w("|---|---|---|\n")
    for row in table4():
        p = paper4[row.name]
        w(f"| {row.name} | {p[0]} / {p[1]} / {p[2]} | "
          f"{row.mintrh_d_no_postpone} / {row.mintrh_d_no_dmq} / "
          f"{row.mintrh_d_with_dmq} |\n")
    w(f"\nMINT+DMQ vs PRCT gap under postponement: paper 1.9x, measured "
      f"{mint_dmq_vs_prct_gap():.2f}x.\n")
    w("InDRAM-PARA 'no DMQ' deviates upward: our attacker optimises\n"
      "acts-per-superwindow and finds a stronger pattern than the paper's\n"
      "first-position argument; the conclusion (collapse without DMQ,\n"
      "repair with DMQ) is unchanged.\n\n")

    # 478K live ---------------------------------------------------------
    params = AttackParams(max_act=73, intervals=2000)
    target = 60_000
    plain, queued = (
        RankSimulator(
            lambda _bank: tracker,
            EngineConfig(trh=1e9, allow_postponement=True),
        ).run(postponement_decoy(target, params)).per_bank[0]
        for tracker in (
            MintTracker(rng=random.Random(1)),
            DelayedMitigationQueue(MintTracker(rng=random.Random(2)),
                                   max_act=73, depth=4),
        )
    )
    scale = 8192 / params.intervals
    w("## Section VI-B claim — 478K deterministic activations (live run)\n\n")
    w("| Configuration | Paper | Measured |\n|---|---|---|\n")
    w(f"| MINT, decoy+postponement, per tREFW | 478K | "
      f"{plain.max_unmitigated[target] * scale:,.0f} |\n")
    w(f"| MINT+DMQ, same attack | <=657 (365+292) | "
      f"{queued.max_unmitigated[target]} |\n\n")

    # Table V -----------------------------------------------------------
    w("## Table V — MINT + RFM scaling\n\n")
    paper5 = [2700, 1482, 689, 356]
    w("| Scheme | Rate | Paper | Measured |\n|---|---|---|---|\n")
    for row, p in zip(table5(), paper5):
        w(f"| {row.name} | {row.relative_rate} | {p} | {row.mintrh_d} |\n")
    w("\n")

    # Fig 16 ------------------------------------------------------------
    w("## Fig 16 — normalized performance\n\n")
    results = [
        evaluate_workload(wl.name, rate_mix(wl), sim_time_ns=400_000.0)
        for wl in RATE_WORKLOADS
    ]
    g32 = geometric_mean([r.rfm32 for r in results])
    g16 = geometric_mean([r.rfm16 for r in results])
    worst16 = min(results, key=lambda r: r.rfm16)
    w("| Scheme | Paper | Measured (geomean, 17 rate workloads) |\n")
    w("|---|---|---|\n")
    w("| MINT | 1.000 (zero slowdown) | 1.000 (by construction: "
      "mitigations ride inside tRFC) |\n")
    w(f"| MINT+RFM32 | 0.999 | {g32:.3f} |\n")
    w(f"| MINT+RFM16 | 0.984 | {g16:.3f} (worst: {worst16.workload} "
      f"{worst16.rfm16:.3f}) |\n\n")

    # Fig 17 ------------------------------------------------------------
    w("## Fig 17 — MINT vs MC-PARA\n\n")
    heavy = [wl for wl in RATE_WORKLOADS if wl.mpki >= 4.0]
    results17 = [
        evaluate_workload(wl.name, rate_mix(wl), sim_time_ns=400_000.0,
                          include_mc_para=True)
        for wl in heavy
    ]
    slows = sorted(1 - r.mc_para for r in results17)
    w("| Scheme | Paper | Measured (memory-bound workloads) |\n")
    w("|---|---|---|\n")
    w("| MINT | ~1% slowdown | 0% (free) + RFM overheads when enabled |\n")
    w(f"| MC-PARA | 2-9% slowdown | "
      f"{slows[0] * 100:.1f}%-{slows[-1] * 100:.1f}% |\n\n")

    # Table VII ---------------------------------------------------------
    w("## Table VII — Target-TTF sensitivity (MinTRH-D)\n\n")
    paper7 = {1e3: (1400, 651, 336), 1e4: (1480, 689, 356),
              1e5: (1570, 726, 375), 1e6: (1640, 763, 395)}
    w("| Target-TTF | Paper (MINT/+RFM32/+RFM16) | Measured |\n|---|---|---|\n")
    for row in ttf_sensitivity([1e3, 1e4, 1e5, 1e6]):
        p = paper7[row["target_ttf_years"]]
        w(f"| {row['target_ttf_years']:,.0f} y | {p[0]} / {p[1]} / {p[2]} | "
          f"{row['mint']} / {row['rfm32']} / {row['rfm16']} |\n")
    w("\n")

    # Table VIII --------------------------------------------------------
    w("## Table VIII — energy overheads\n\n")
    paper8 = {"Base (No Mitig)": (1.0, 1.0), "MINT": (1.06, 1.01),
              "MINT+RFM32": (1.10, 1.01), "MINT+RFM16": (1.25, 1.03)}
    w("| Config | Paper ACT / total | Measured ACT / total |\n|---|---|---|\n")
    for row in table8():
        p = paper8[row.scheme]
        w(f"| {row.scheme} | {p[0]:.2f}x / {p[1]:.2f}x | "
          f"{row.act_energy:.2f}x / {row.total:.2f}x |\n")
    w("\n")

    # Table IX ----------------------------------------------------------
    w("## Table IX — SRAM overhead\n\n")
    w("| Device | Paper Graphene | Measured | Paper MINT+DMQ | Measured |\n")
    w("|---|---|---|---|---|\n")
    for row, paper in zip(table9(), ("56.5 KB", "565 KB")):
        w(f"| TRH-D={row['trh_d']} | {paper} | "
          f"{row['graphene_kb_per_bank']:.1f} KB | 15 B | "
          f"{row['mint_dmq_bytes_per_bank']:.1f} B |\n")
    w("\n")

    # Fig 18 ------------------------------------------------------------
    w("## Fig 18 (Appendix A) — MaxACT sweep\n\n")
    points = maxact_sweep([65, 69, 73, 77, 80])
    w("| MaxACT | MINT MinTRH-D | InDRAM-PARA | gap |\n|---|---|---|---|\n")
    for p in points:
        w(f"| {p.max_act} | {p.mint_mintrh_d} | {p.para_mintrh_d} | "
          f"{p.ratio:.2f}x |\n")
    w("\nPaper: ~linear growth, constant 2.7x gap. Measured: linear growth,\n"
      "constant ~2.4x gap (exact-threshold ratio vs probability ratio).\n\n")

    # Fig 21 ------------------------------------------------------------
    w("## Fig 21 (Appendix B) — adaptive attack on MINT+DMQ\n\n")
    mp_s, peak_s = worst_case_ada_mintrh(double_sided=False)
    mp_d, peak_d = worst_case_ada_mintrh(double_sided=True)
    w("| Quantity | Paper | Measured |\n|---|---|---|\n")
    w(f"| ADA single-sided peak MinTRH | 2899 @ MP 2533-3730 | "
      f"{peak_s} @ MP {mp_s} |\n")
    w(f"| ADA double-sided peak MinTRH-D | 1482 @ MP 1299-1456 | "
      f"{peak_d} @ MP {mp_d} |\n")
    curve = dict(ada_curve([400], double_sided=True))
    w(f"| Floor below effective MP (double) | 1404 | {curve[400]} |\n\n")

    # Section IX ---------------------------------------------------------
    from repro.analysis.pride import (
        pride_loss_probability,
        pride_mintrh_d,
        pride_worst_position_loss,
    )
    w("## Section IX — MINT vs PrIDE\n\n")
    w("| Quantity | Paper | Measured |\n|---|---|---|\n")
    w(f"| Single-entry loss probability | 63% | "
      f"{pride_worst_position_loss(1) * 100:.0f}% (worst position) |\n")
    w(f"| 4-entry FIFO loss probability | ~10% | "
      f"{pride_loss_probability(4) * 100:.0f}% (mean) |\n")
    w(f"| PrIDE MinTRH-D | 1750 | {pride_mintrh_d(4)} |\n")
    w(f"| PrIDE+DMQ MinTRH-D | 1900 | "
      f"{pride_mintrh_d(4, with_dmq=True)} |\n\n")

    w("## Known deviations (summary)\n\n")
    w("1. **InDRAM-PARA absolute thresholds** (~9% low, Tables III/IV,\n"
      "   Fig 18 gap 2.4x vs 2.7x): the paper converts the 2.7x\n"
      "   mitigation-probability deficit directly into a threshold ratio;\n"
      "   the exact Saroiu-Wolman search gives slightly less than\n"
      "   proportional scaling. Orderings and conclusions unchanged.\n")
    w("2. **InDRAM-PARA under postponement without DMQ** (Table IV cell):\n"
      "   paper 21.3K, ours ~76K — our attacker optimises the number of\n"
      "   target activations per super-window instead of fixing one.\n")
    w("3. **Mithril entries** 677 vs our 674-679: the Theorem-1 bound is\n"
      "   reconstructed as M*H_m + W/m (derived in the docstring of\n"
      "   repro.analysis.mithril_bound).\n")
    w("4. **Performance absolute numbers**: our DES is a closed-loop\n"
      "   queueing model, not Gem5+SPEC; per-workload slowdowns differ\n"
      "   but the ordering (MINT 0 <= RFM32 < RFM16 < MC-PARA) and\n"
      "   magnitudes (sub-percent to single-digit percent) match.\n")

    text = out.getvalue()
    with open("EXPERIMENTS.md", "w") as f:
        f.write(text)
    sys.stdout.write(text)


if __name__ == "__main__":
    main()
