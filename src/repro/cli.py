"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      execute a scenario file through the Session facade
``scenario`` inspect a scenario file (``show`` / ``fingerprint``)
``attack``   run an attack pattern against a tracker in the simulator
``mintrh``   compute the tolerated threshold of a MINT configuration
``table``    print one of the paper's comparison tables
``plan``     recommend a configuration for a device threshold
``exp``      run/inspect batched experiment grids (parallel + cached)
``serve``    HTTP read API over a result store (cached sweep queries)
``lint``     determinism & identity static analysis (see repro.lint)

Every simulation command goes through :mod:`repro.scenario`: ``run``
consumes a serialized :class:`~repro.scenario.Scenario` verbatim,
``attack`` builds one from flags, and ``exp run`` fans a grid of them
out over the process pool. ``--format json|csv`` renders results via
the shared serializers on
:class:`~repro.sim.results.RankSimResult` /
:class:`~repro.sim.montecarlo.MonteCarloResult`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .analysis.adaptive import AdaConfig, worst_case_ada_mintrh
from .analysis.comparison import table3
from .analysis.postponement import table4
from .analysis.rfm_scaling import (
    mint_rfm_config,
    mint_slow_config,
    table5,
    ttf_sensitivity,
)
from .analysis.storage import table9
from .attacks import (
    available_attacks,
    available_channel_attacks,
    available_rank_attacks,
)
from .scenario import AttackSpec, Scenario, Session, TrackerSpec
from .sim.results import RESULT_CSV_COLUMNS, result_csv_rows
from .trackers import available_trackers

#: Attack families exposed by ``repro attack`` (the full registry also
#: carries the postponement/decoy patterns used by ``repro exp``).
_CLI_ATTACKS = (
    "single-sided", "double-sided", "many-sided", "blacksmith",
    "half-double", "pattern2",
)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_scenario(path: str) -> Scenario:
    """Read a scenario file (JSON payload) or raise ``SystemExit(2)``."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as error:
        print(f"cannot read scenario file: {error}")
        raise SystemExit(2)
    except json.JSONDecodeError as error:
        print(f"{path}: not valid JSON ({error})")
        raise SystemExit(2)
    try:
        return Scenario.from_payload(payload)
    except (KeyError, TypeError, ValueError) as error:
        print(f"{path}: invalid scenario: {error}")
        raise SystemExit(2)


def _emit_csv(rows: list[dict], columns) -> None:
    writer = csv.DictWriter(sys.stdout, fieldnames=list(columns))
    writer.writeheader()
    writer.writerows(rows)


def _emit_run_result(result, fmt: str) -> None:
    """Render a RankSimResult in the requested format."""
    if fmt == "json":
        print(json.dumps(result.to_payload(), indent=2, sort_keys=True))
    elif fmt == "csv":
        _emit_csv(result_csv_rows(result.to_payload()), RESULT_CSV_COLUMNS)
    else:
        print(result.summary())
        if result.failed:
            flip = result.flips[0]
            print(f"first flip: row {flip.row} after "
                  f"{flip.disturbance:.0f} disturbances at "
                  f"{flip.time_ns / 1e6:.2f} ms")


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    session = Session(scenario)
    try:
        if args.windows is not None:
            result = session.run_many(
                args.windows, n_workers=args.workers or 1
            )
        else:
            result = session.run()
    except ValueError as error:
        # A scenario that loads but cannot be played (a decoy horizon
        # shorter than one super-window, an over-budget schedule).
        print(f"{args.scenario}: cannot run scenario: {error}")
        return 2
    if args.windows is not None:
        payload = result.to_payload()
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif args.format == "csv":
            _emit_csv([payload], payload.keys())
        else:
            low, high = result.confidence_interval()
            print(f"{scenario.label}: {result.failures}/{result.windows} "
                  f"windows failed (p = {result.failure_probability:.4g}, "
                  f"95% CI [{low:.4g}, {high:.4g}], "
                  f"{result.total_mitigations} mitigations)")
        return 1 if result.failures else 0
    _emit_run_result(result, args.format)
    return 1 if result.failed else 0


def _cmd_scenario_show(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.format == "json":
        print(json.dumps(scenario.to_payload(), indent=2, sort_keys=True))
    else:
        print(scenario.describe())
    return 0


def _cmd_scenario_fingerprint(args) -> int:
    print(_load_scenario(args.scenario).fingerprint())
    return 0


def _cmd_attack(args) -> int:
    try:
        scenario = Scenario(
            tracker=TrackerSpec.of(args.tracker, dmq=args.dmq),
            attack=AttackSpec.of(args.attack),
            trh=args.trh,
            intervals=args.intervals,
            max_act=args.max_act,
            allow_postponement=args.allow_postponement,
            num_banks=args.banks,
            num_ranks=args.ranks,
            seed=args.seed,
        )
        result = Session(scenario).run()
    except (RuntimeError, ValueError) as error:
        # An out-of-range flag (the Scenario names the field), a
        # --max-act over the tREFI budget, or REPRO_KERNELS=cext with
        # no C compiler: usage or environment problems, reported in one
        # line with exit 2 rather than a traceback and the "a bit
        # flipped" exit 1.
        print(f"attack: {error}", file=sys.stderr)
        return 2
    if not scenario.is_channel and not scenario.is_rank:
        result = result.per_bank[0]
    print(result.summary())
    if result.failed:
        flip = result.flips[0]
        print(f"first flip: row {flip.row} after {flip.disturbance:.0f} "
              f"disturbances at {flip.time_ns / 1e6:.2f} ms")
    return 1 if result.failed else 0


def _cmd_mintrh(args) -> int:
    if args.scheme == "mint":
        cfg = AdaConfig(target_ttf_years=args.target_ttf)
    elif args.scheme == "mint-0.5x":
        cfg = mint_slow_config(2, target_ttf_years=args.target_ttf)
    elif args.scheme == "rfm32":
        cfg = mint_rfm_config(32, target_ttf_years=args.target_ttf)
    elif args.scheme == "rfm16":
        cfg = mint_rfm_config(16, target_ttf_years=args.target_ttf)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.scheme)
    mp, value = worst_case_ada_mintrh(cfg, double_sided=True)
    print(f"{args.scheme}: MinTRH-D = {value} "
          f"(worst adaptive morphing point {mp}, "
          f"target TTF {args.target_ttf:,.0f} years/bank)")
    return 0


def _cmd_table(args) -> int:
    if args.which == "3":
        for row in table3():
            print(f"{row.name:<14} {row.centric:<8} MinTRH-D={row.mintrh_d:<7}"
                  f" entries={row.entries:<7} "
                  f"{'vulnerable' if row.transitive_vulnerable else 'immune'}")
    elif args.which == "4":
        for row in table4():
            print(f"{row.name:<14} entries={row.entries:<7} "
                  f"none={row.mintrh_d_no_postpone:<7} "
                  f"noDMQ={row.mintrh_d_no_dmq:<7} "
                  f"DMQ={row.mintrh_d_with_dmq}")
    elif args.which == "5":
        for row in table5():
            print(f"{row.name:<14} {row.relative_rate:<28} "
                  f"MinTRH-D={row.mintrh_d}")
    elif args.which == "7":
        for row in ttf_sensitivity():
            print(f"target={row['target_ttf_years']:>12,.0f}y "
                  f"mint={row['mint']:<6} rfm32={row['rfm32']:<5} "
                  f"rfm16={row['rfm16']}")
    elif args.which == "9":
        for row in table9():
            print(f"TRH-D={row['trh_d']:<6} "
                  f"graphene={row['graphene_kb_per_bank']:.1f}KB/bank "
                  f"mint+dmq={row['mint_dmq_bytes_per_bank']:.1f}B/bank")
    return 0


def _cmd_plan(args) -> int:
    options = [
        ("MINT", AdaConfig()),
        ("MINT+RFM32", mint_rfm_config(32)),
        ("MINT+RFM16", mint_rfm_config(16)),
    ]
    for name, cfg in options:
        _mp, tolerated = worst_case_ada_mintrh(cfg, double_sided=True)
        if args.trh_d >= tolerated:
            print(f"device TRH-D {args.trh_d}: use {name} "
                  f"(tolerates {tolerated}, margin "
                  f"{args.trh_d / tolerated:.2f}x)")
            return 0
    print(f"device TRH-D {args.trh_d}: below MINT+RFM16 reach; "
          f"per-row counting (PRAC) required")
    return 1


def _cmd_exp_run(args) -> int:
    from .exp import (
        AttackSpec,
        ExperimentGrid,
        PointConfig,
        TrackerSpec,
        preset_grid,
        run_grid,
    )

    if args.preset:
        preset_kwargs = {}
        if args.banks is not None:
            if args.preset not in ("rank-shootout", "channel-shootout"):
                print(f"exp run: --banks only applies to the rank-shootout "
                      f"and channel-shootout presets (got --preset "
                      f"{args.preset})")
                return 2
            preset_kwargs["banks"] = (args.banks,)
        if args.ranks is not None:
            if args.preset != "channel-shootout":
                print(f"exp run: --ranks only applies to the "
                      f"channel-shootout preset (got --preset "
                      f"{args.preset})")
                return 2
            preset_kwargs["ranks"] = (args.ranks,)
        try:
            grid = preset_grid(args.preset, **preset_kwargs)
        except TypeError as error:
            print(f"exp run: {error}")
            return 2
    else:
        if not (args.trackers and args.attacks):
            print("exp run: need --preset, or both --trackers and --attacks")
            return 2
        grid = ExperimentGrid(
            trackers=[
                TrackerSpec.of(name, dmq=args.dmq)
                for name in args.trackers.split(",")
            ],
            attacks=[AttackSpec.of(name) for name in args.attacks.split(",")],
            configs=[
                PointConfig(
                    trh=args.trh,
                    intervals=args.intervals,
                    max_act=args.max_act,
                    allow_postponement=args.allow_postponement,
                    num_banks=args.banks or 1,
                    num_ranks=args.ranks or 1,
                )
            ],
        )
    store = _open_store(args.store) if args.store else None
    try:
        report = run_grid(
            grid, base_seed=args.seed, n_workers=args.workers, store=store
        )
    except KeyError as error:
        # Unknown tracker/attack names surface from the factories.
        print(f"exp run: {error.args[0]}")
        return 2
    except ValueError as error:
        # Invalid point definitions (tFAW ceiling, attacks needing more
        # banks than configured, budget violations) surface from the
        # generators and the engine's trace validation.
        print(f"exp run: {error}")
        return 2
    failed = any(result.failed for result in report.results)
    if args.format == "json":
        print(json.dumps(
            [result.to_payload() for result in report.results],
            indent=2, sort_keys=True,
        ))
        return 1 if failed else 0
    if args.format == "csv":
        from .exp.query import SWEEP_CSV_COLUMNS, sweep_csv_rows

        _emit_csv(sweep_csv_rows(report.results), SWEEP_CSV_COLUMNS)
        return 1 if failed else 0
    print(f"exp run: {report.summary()}")
    for result in report.results:
        metrics = result.metrics
        status = "FLIP" if result.failed else "ok"
        label = result.attack
        if result.num_ranks > 1:
            label = f"{label}@{result.num_ranks}r{result.num_banks}b"
        elif result.num_banks > 1:
            label = f"{label}@{result.num_banks}b"
        print(
            f"  [{status:>4}] {result.tracker:<14} vs {label:<17} "
            f"acts={metrics['demand_acts']:<9} "
            f"mitigations={metrics['mitigations']}"
        )
        for rank, rank_metrics in enumerate(result.per_rank_metrics):
            rank_status = "FLIP" if rank_metrics.get("failed") else "ok"
            print(
                f"         rank {rank}: [{rank_status:>4}] "
                f"acts={rank_metrics['demand_acts']:<9} "
                f"mitigations={rank_metrics['mitigations']}"
            )
        for bank, bank_metrics in enumerate(result.per_bank_metrics):
            bank_status = "FLIP" if bank_metrics.get("failed") else "ok"
            print(
                f"         bank {bank}: [{bank_status:>4}] "
                f"acts={bank_metrics['demand_acts']:<9} "
                f"mitigations={bank_metrics['mitigations']}"
            )
    return 1 if failed else 0


def _open_store(path: str):
    """Open a result store, mapping format refusals to exit code 2."""
    from .exp import ResultStore, StoreFormatError

    try:
        return ResultStore(path)
    except StoreFormatError as error:
        print(f"store: {error}")
        raise SystemExit(2)


def _cmd_exp_status(args) -> int:
    from .exp import journal_for_store, shard_key

    store = _open_store(args.store)
    shards = sorted({shard_key(key, store.shard_width) for key in store.keys()})
    print(
        f"{args.store}: {len(store)} cached result(s) in "
        f"{len(shards)} shard(s), {store.disk_bytes():,} bytes on disk"
    )
    journal = journal_for_store(store)
    state = journal.load() if journal is not None else None
    if state is not None and state.interrupted:
        print(
            f"  interrupted run {state.run_key}: "
            f"{len(state.done)}/{len(state.planned)} planned point(s) "
            f"done, {len(state.remaining)} missing — re-running the "
            f"same grid resumes it"
        )
    elif state is not None and state.finished:
        print(f"  last run {state.run_key}: complete "
              f"({state.shards_done} shard(s))")
    for result in store.results():
        status = "FLIP" if result.failed else "ok"
        print(
            f"  {result.key[:12]}  [{status:>4}] "
            f"{result.tracker:<14} vs {result.attack:<14} "
            f"seed={result.seed}"
        )
    return 0


def _cmd_exp_compact(args) -> int:
    store = _open_store(args.store)
    before = store.disk_bytes()
    written = store.compact()
    print(
        f"{args.store}: compacted {len(store)} result(s) "
        f"({before:,} -> {store.disk_bytes():,} bytes, "
        f"{written:,} written)"
    )
    return 0


def _cmd_serve(args) -> int:
    from .exp import StoreFormatError
    from .exp.serve import serve_store

    try:
        return serve_store(
            args.store, host=args.host, port=args.port,
            verbose=not args.quiet,
        )
    except StoreFormatError as error:
        print(f"serve: {error}")
        return 2
    except OSError as error:
        print(f"serve: cannot bind {args.host}:{args.port} ({error})")
        return 2


def _cmd_lint(args) -> int:
    # Imported lazily: the lint subsystem is never needed on the
    # simulation paths.
    from .lint import RULE_REGISTRY, render_json, render_text, run_lint

    if args.list_rules:
        width = max(len(rule_id) for rule_id in RULE_REGISTRY)
        for rule_id in sorted(RULE_REGISTRY):
            print(f"{rule_id:<{width}}  {RULE_REGISTRY[rule_id].summary}")
        return 0
    rules = None
    if args.rules:
        wanted = [name.strip() for name in args.rules.split(",") if name.strip()]
        unknown = sorted(set(wanted) - set(RULE_REGISTRY))
        if unknown:
            print(f"lint: unknown rule(s) {unknown}; "
                  f"known: {sorted(RULE_REGISTRY)}")
            return 2
        rules = [RULE_REGISTRY[name] for name in wanted]
    paths = args.paths or ["src", "scripts"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"lint: no such path(s): {', '.join(missing)}")
        return 2
    findings, files_scanned = run_lint(paths, rules)
    if args.format == "json":
        print(render_json(findings, files_scanned))
    else:
        print(render_text(findings, files_scanned))
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MINT (MICRO 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="execute a scenario file (JSON) through the facade"
    )
    run.add_argument("scenario",
                     help="path to a scenario JSON payload "
                          "(see `repro scenario show` and README)")
    run.add_argument("--windows", type=_positive_int, default=None,
                     help="Monte-Carlo mode: run N independent tREFW "
                          "windows instead of one full trace")
    run.add_argument("--workers", type=_positive_int, default=None,
                     help="process-pool size for --windows fan-out")
    run.add_argument("--format", choices=["human", "json", "csv"],
                     default="human")
    run.set_defaults(func=_cmd_run)

    scenario = sub.add_parser(
        "scenario", help="inspect a scenario file"
    )
    scenario_sub = scenario.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_show = scenario_sub.add_parser(
        "show", help="print the normalized scenario (human or json)"
    )
    scenario_show.add_argument("scenario", help="path to a scenario JSON")
    scenario_show.add_argument("--format", choices=["human", "json"],
                               default="human")
    scenario_show.set_defaults(func=_cmd_scenario_show)
    scenario_fp = scenario_sub.add_parser(
        "fingerprint", help="print the scenario's stable fingerprint"
    )
    scenario_fp.add_argument("scenario", help="path to a scenario JSON")
    scenario_fp.set_defaults(func=_cmd_scenario_fingerprint)

    attack = sub.add_parser("attack", help="simulate an attack vs a tracker")
    attack.add_argument("--tracker", choices=available_trackers(),
                        default="mint")
    attack.add_argument("--attack", choices=sorted(_CLI_ATTACKS),
                        required=True)
    attack.add_argument("--trh", type=float, default=4800.0)
    attack.add_argument("--intervals", type=int, default=2000)
    attack.add_argument("--max-act", type=int, default=73)
    attack.add_argument("--banks", type=int, default=1,
                        help="banks per rank (runs on the rank engine "
                             "when above 1)")
    attack.add_argument("--ranks", type=int, default=1,
                        help="ranks in the simulated channel (runs on "
                             "the channel engine when above 1)")
    attack.add_argument("--seed", type=int, default=1)
    attack.add_argument("--dmq", action="store_true")
    attack.add_argument("--allow-postponement", action="store_true")
    attack.set_defaults(func=_cmd_attack)

    mintrh = sub.add_parser("mintrh", help="tolerated threshold of a scheme")
    mintrh.add_argument("--scheme", default="mint",
                        choices=["mint", "mint-0.5x", "rfm32", "rfm16"])
    mintrh.add_argument("--target-ttf", type=float, default=10_000.0)
    mintrh.set_defaults(func=_cmd_mintrh)

    table = sub.add_parser("table", help="print a paper table")
    table.add_argument("--which", choices=["3", "4", "5", "7", "9"],
                       required=True)
    table.set_defaults(func=_cmd_table)

    plan = sub.add_parser("plan", help="recommend a configuration")
    plan.add_argument("--trh-d", type=int, required=True)
    plan.set_defaults(func=_cmd_plan)

    exp = sub.add_parser(
        "exp", help="batched experiment grids (parallel, cached)"
    )
    exp_sub = exp.add_subparsers(dest="exp_command", required=True)

    exp_run = exp_sub.add_parser(
        "run", help="run a (tracker x attack) grid through the pool"
    )
    exp_run.add_argument(
        "--preset",
        choices=["shootout", "postponement", "rank-shootout",
                 "channel-shootout"],
    )
    exp_run.add_argument("--trackers",
                         help="comma-separated tracker names "
                              f"(known: {','.join(available_trackers())})")
    exp_run.add_argument("--attacks",
                         help="comma-separated attack names "
                              f"(known: {','.join(available_attacks())})")
    exp_run.add_argument("--trh", type=float, default=4800.0)
    exp_run.add_argument("--intervals", type=int, default=2000)
    exp_run.add_argument("--max-act", type=int, default=73)
    exp_run.add_argument("--banks", type=int, default=None,
                         help="banks in the simulated rank (runs points on "
                              "the rank-level engine; rank attacks: "
                              f"{','.join(available_rank_attacks())})")
    exp_run.add_argument("--ranks", type=int, default=None,
                         help="ranks in the simulated channel (runs points "
                              "on the channel-level engine; channel "
                              "attacks: "
                              f"{','.join(available_channel_attacks())})")
    exp_run.add_argument("--seed", type=int, default=0,
                         help="base seed; every task seed derives from it")
    exp_run.add_argument("--workers", type=_positive_int, default=None,
                         help="process-pool size (default: usable CPUs)")
    exp_run.add_argument("--store",
                         help="JSON result store for incremental re-runs")
    exp_run.add_argument("--dmq", action="store_true")
    exp_run.add_argument("--allow-postponement", action="store_true")
    exp_run.add_argument("--format", choices=["human", "json", "csv"],
                         default="human",
                         help="result export format (json/csv render via "
                              "the shared result serializers)")
    exp_run.set_defaults(func=_cmd_exp_run)

    exp_status = exp_sub.add_parser(
        "status", help="inspect a result store (results, shards, and "
                       "any interrupted run recorded in its journal)"
    )
    exp_status.add_argument("--store", required=True)
    exp_status.set_defaults(func=_cmd_exp_status)

    exp_compact = exp_sub.add_parser(
        "compact", help="rewrite every store shard and drop orphans"
    )
    exp_compact.add_argument("--store", required=True)
    exp_compact.set_defaults(func=_cmd_exp_compact)

    serve = sub.add_parser(
        "serve",
        help="read-only HTTP API over a result store "
             "(GET /v1/status, /v1/points, /v1/point/<fingerprint>, "
             "/v1/sweep?tracker=&attack=&failed=&format=json|csv)",
    )
    serve.add_argument("--store", required=True,
                       help="result store to serve (see `repro exp run "
                            "--store`); new results written by concurrent "
                            "runs are picked up automatically")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8731,
                       help="TCP port (0 picks a free one; default 8731)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")
    serve.set_defaults(func=_cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="determinism & identity static analysis (exit 1 on findings)",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint "
                           "(default: src scripts)")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="finding report format (json is versioned and "
                           "round-trips, see repro.lint.reporters)")
    lint.add_argument("--rules",
                      help="comma-separated rule ids to run "
                           "(default: all; see --list-rules)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed stdout; exit quietly instead of
        # tracebacking. Point stdout at devnull so interpreter teardown
        # does not re-raise while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
