"""Public-API snapshot: the exported surface is part of the contract.

These sets are deliberate, reviewed snapshots of ``__all__``. A failing
test here means the public surface changed: if that was intentional,
update the snapshot *in the same commit* and mention the change in the
commit message; if not, you just caught a silent API break before it
shipped. (The satellite guard requested alongside the Scenario API —
future refactors must not drift the seams every downstream consumer
imports from.)
"""

import importlib

import pytest

#: repro — the package front door.
REPRO_SURFACE = frozenset({
    "AttackSpec",
    "BANKS_PER_RANK",
    "CONCURRENT_BANKS",
    "ChannelSimResult",
    "ChannelSimulator",
    "ChannelTrace",
    "DDR5Timing",
    "DEFAULT_BLAST_RADIUS",
    "DEFAULT_TARGET_TTF_YEARS",
    "DEFAULT_TIMING",
    "DelayedMitigationQueue",
    "DramDevice",
    "EngineConfig",
    "InDramParaTracker",
    "MAX_POSTPONED_REFRESHES",
    "MintTracker",
    "MithrilTracker",
    "MitigationRequest",
    "ParfmTracker",
    "PrctTracker",
    "REFI_PER_REFW",
    "ROWS_PER_BANK",
    "RankSimResult",
    "RankSimulator",
    "RankTrace",
    "RfmConfig",
    "RfmController",
    "RowDisturbanceModel",
    "RowPressMintTracker",
    "Scenario",
    "Session",
    "SimResult",
    "Trace",
    "TraceStream",
    "Tracker",
    "TrackerSpec",
    "__version__",
    "available_trackers",
    "bank_tracker_factory",
    "channel_tracker_factory",
    "equivalent_activations",
    "make_tracker",
    "run_scenario",
    "system_mttf_years",
})

#: repro.sim — the simulation stack.
SIM_SURFACE = frozenset({
    "ChannelSimResult",
    "ChannelSimulator",
    "ChannelTrace",
    "CycleStream",
    "EngineConfig",
    "GeneratorStream",
    "Interval",
    "MaterializedStream",
    "MonteCarloResult",
    "RankInterval",
    "RankSimResult",
    "RankSimulator",
    "RankTrace",
    "SimResult",
    "Trace",
    "TraceStream",
    "as_trace_stream",
    "canonical_json",
    "derive_rng",
    "lift_trace",
    "repeat_interval",
    "repeat_rank_interval",
    "result_csv_rows",
    "scaled_timing",
    "scenario_failure_probability",
    "stable_hash",
    "stable_seed",
    "system_mttf_years",
    "with_dmq",
})

#: repro.scenario — the canonical declarative entry point.
SCENARIO_SURFACE = frozenset({
    "SCENARIO_VERSION",
    "AttackSpec",
    "Scenario",
    "Session",
    "TrackerSpec",
    "run_scenario",
})

#: repro.exp — the experiment service (sharded scheduler, store,
#: journal, read API).
EXP_SURFACE = frozenset({
    "AttackSpec",
    "ExperimentGrid",
    "ExperimentPoint",
    "ExperimentResult",
    "JournalState",
    "PointConfig",
    "QueryAPI",
    "ResultStore",
    "RunJournal",
    "RunReport",
    "SCHEMA_VERSION",
    "ShardReport",
    "StoreFormatError",
    "TaskShard",
    "TrackerSpec",
    "channel_shootout_grid",
    "journal_for_store",
    "make_server",
    "plan_shards",
    "postponement_grid",
    "preset_grid",
    "rank_shootout_grid",
    "run_grid",
    "run_point",
    "serve_store",
    "shard_key",
    "shootout_grid",
    "summarise_channel_result",
    "summarise_rank_result",
    "summarise_sim_result",
    "sweep_csv_rows",
})

SNAPSHOTS = {
    "repro": REPRO_SURFACE,
    "repro.sim": SIM_SURFACE,
    "repro.scenario": SCENARIO_SURFACE,
    "repro.exp": EXP_SURFACE,
}


@pytest.mark.parametrize("module_name", sorted(SNAPSHOTS))
def test_surface_matches_snapshot(module_name):
    module = importlib.import_module(module_name)
    exported = set(module.__all__)
    snapshot = SNAPSHOTS[module_name]
    added = exported - snapshot
    removed = snapshot - exported
    assert exported == snapshot, (
        f"{module_name} public surface drifted: "
        f"added {sorted(added) or 'nothing'}, "
        f"removed {sorted(removed) or 'nothing'} — update the snapshot "
        f"in tests/test_api_surface.py if this change is deliberate"
    )


@pytest.mark.parametrize("module_name", sorted(SNAPSHOTS))
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name}"


def test_shared_spec_types_are_the_same_objects():
    """exp re-exports the scenario spec classes, not copies."""
    import repro
    import repro.exp
    import repro.scenario

    assert repro.TrackerSpec is repro.scenario.TrackerSpec
    assert repro.exp.TrackerSpec is repro.scenario.TrackerSpec
    assert repro.exp.AttackSpec is repro.scenario.AttackSpec
