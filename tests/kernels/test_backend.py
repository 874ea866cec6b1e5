"""Engine and provider selection, fallback, and telemetry pins.

There are two engines — the scalar reference (``vectorized=False``)
and the fast packed kernel — and the fast engine runs its compiled
march on whatever provider the host offers, ``REPRO_KERNELS`` (here
:class:`~repro.kernels.forced_provider`) being the only override: a
forced provider that cannot run must fail loudly, no provider must
fall back to the pure-NumPy kernel bit-identically, every engine must
reproduce the reference bit for bit at rank and channel scope, and
whatever path executes, the kernel telemetry has to account for every
step.
"""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from unittest import mock

from repro import kernels
from repro.core.mint import MintTracker
from repro.kernels import forced_provider
from repro.scenario import AttackSpec, TrackerSpec
from repro.sim.engine import ChannelSimulator, EngineConfig, RankSimulator
from repro.sim.trace import (
    ChannelTrace,
    CycleStream,
    RankInterval,
    RankTrace,
)
from repro.trackers.registry import available_trackers, channel_tracker_factory

from tests.providers import MARCH_PROVIDERS, requires_c_march

NUM_ROWS = 64
INTERVALS = 60

#: Engine selection as ``(EngineConfig overrides, forced provider)``:
#: the scalar reference, and the fast engine without (``"none"``) and
#: with its compiled march. A ``None`` provider leaves resolution to
#: the host — or to the caller's own ``forced_provider`` — so
#: ``fast-auto`` and ``fast-compiled`` run the same path: the tests
#: name the one they mean.
ENGINES = {
    "reference": (dict(vectorized=False), None),
    "fast-auto": ({}, None),
    "fast-numpy": ({}, "none"),
    "fast-compiled": ({}, None),
}


def _engine(engine):
    """``(config overrides, provider context)`` of an ``ENGINES`` key."""
    overrides, force = ENGINES[engine]
    return overrides, forced_provider(force) if force else nullcontext()


def _interval(num_banks=2, acts=12):
    """One tREFI of ``acts`` ACTs striped over the banks, each bank
    hammering rows 10-18 as double-sided pairs."""
    return RankInterval.of(
        [(i % num_banks, 10 + 2 * (i % 5)) for i in range(acts)]
    )


def _trace(num_ranks, num_banks=2, acts=12):
    interval = _interval(num_banks, acts)
    return ChannelTrace(
        name="backend-pin",
        per_rank={
            rank: CycleStream(f"r{rank}", (interval,), INTERVALS)
            for rank in range(num_ranks)
        },
    )


def _config(trh=10**9, num_ranks=2, num_banks=2, **overrides):
    return EngineConfig(
        num_banks=num_banks,
        num_ranks=num_ranks,
        num_rows=NUM_ROWS,
        trh=trh,
        refi_per_refw=8,
        **overrides,
    )


def _factory(tracker):
    """The channel tracker factory of a registry name; ``"mint+dmq"``
    wraps MINT in its Delayed Mitigation Queue."""
    name, _, wrapper = tracker.partition("+")
    return channel_tracker_factory(name, seed=11, dmq=wrapper == "dmq")


#: Every registered tracker and MINT behind a DMQ, split by whether it
#: lowers to the compiled march (the lowering contract in
#: :mod:`repro.trackers.base`) or runs per step on the fast engine.
TRACKERS = [*available_trackers(), "mint+dmq"]
LOWERED = [t for t in TRACKERS if _factory(t)(0, 0).lower() is not None]
UNLOWERED = [t for t in TRACKERS if t not in LOWERED]


def _run(tracker, engine="fast-auto", trh=10**9, num_ranks=2, num_banks=2,
         acts=12):
    """Canonical JSON and result of one run; ``num_ranks=0`` drives a
    plain :class:`RankSimulator` (the 1-rank unit set)."""
    factory = _factory(tracker)
    overrides, provider = _engine(engine)
    with provider:
        if num_ranks == 0:
            simulator = RankSimulator(
                lambda bank: factory(0, bank),
                _config(trh=trh, num_ranks=1, **overrides),
            )
            result = simulator.run(
                CycleStream("r0", (_interval(),), INTERVALS)
            )
        else:
            simulator = ChannelSimulator(
                factory,
                _config(trh=trh, num_ranks=num_ranks, num_banks=num_banks,
                        **overrides),
            )
            result = simulator.run(_trace(num_ranks, num_banks, acts))
    return json.dumps(asdict(result), sort_keys=True), result


def _run_rank(tracker_factory, engine):
    """Canonical JSON and result of a 2-bank rank run of per-bank
    trackers from ``tracker_factory``."""
    overrides, provider = _engine(engine)
    with provider:
        simulator = RankSimulator(
            tracker_factory, _config(num_ranks=1, **overrides)
        )
        result = simulator.run(CycleStream("r0", (_interval(),), INTERVALS))
    return json.dumps(asdict(result), sort_keys=True), result


def _cext_unavailable():
    """Patch the C provider into a host without a C build."""
    from repro.kernels import cext

    return mock.patch.object(cext, "available", return_value=False)


class TestSelection:
    def test_invalid_backend_rejected(self):
        # The knob is gone: REPRO_KERNELS is the only provider override.
        with pytest.raises(TypeError, match="backend"):
            EngineConfig(backend="numpy")

    def test_compiled_without_provider_raises_clear_error(self):
        with _cext_unavailable(), forced_provider("cext"):
            reason = kernels.unavailable_reason()
            with pytest.raises(RuntimeError) as excinfo:
                ChannelSimulator(
                    channel_tracker_factory("mint", seed=1), _config()
                )
        message = str(excinfo.value)
        assert "REPRO_KERNELS" in message and "'cext'" in message
        assert reason in message
        assert "C compiler" in message

    def test_rank_engine_compiled_pin_requires_provider_too(self):
        with _cext_unavailable(), forced_provider("cext"):
            with pytest.raises(
                RuntimeError, match=re.escape(kernels.unavailable_reason())
            ):
                RankSimulator(
                    lambda bank, rng=None: channel_tracker_factory(
                        "mint", seed=1
                    )(0, bank),
                    _config(num_ranks=1),
                )

    @pytest.mark.parametrize("simulator", [RankSimulator, ChannelSimulator])
    @pytest.mark.parametrize(
        "overrides", [dict(vectorized=False), dict(blast_radius=2)]
    )
    def test_compiled_requires_the_fast_engine(self, simulator, overrides):
        # The reference engine never marches a provider, so a forced
        # one — even one that cannot run — leaves it alone.
        config = _config(num_ranks=1, **overrides)
        factory = channel_tracker_factory("mint", seed=1)
        with _cext_unavailable(), forced_provider("cext"):
            built = simulator(lambda *coords: factory(0, coords[-1]), config)
            result = built.run(CycleStream("r0", (_interval(),), INTERVALS))
        assert not built.vectorized
        assert result.kernel_stats is None

    @requires_c_march
    def test_a_failing_provider_raises_instead_of_falling_back(
        self, monkeypatch
    ):
        """A march body that writes and then raises must not leave the
        per-step path to carry on over half-marched arrays."""
        from repro.kernels import cext
        from repro.scenario import Scenario, Session

        def broken(dist, *args):
            dist[:] += 4790
            raise IndexError("provider bug")

        monkeypatch.setattr(cext, "march_steps", broken)
        scenario = Scenario(
            tracker="mint", attack="single-sided", intervals=400,
            num_rows=4096,
        )
        with forced_provider("cext"):
            with pytest.raises(IndexError, match="provider bug"):
                Session(scenario).run()

    def test_forced_provider_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown provider"):
            forced_provider("fortran")
        with pytest.raises(ValueError, match="'interpreted'"):
            forced_provider("interpreted")

    @pytest.mark.parametrize("value", ["cxt", "fortran", "interpreted"])
    def test_unknown_repro_kernels_value_fails_loudly(self, value):
        """An unknown REPRO_KERNELS value must fail instead of resolving
        to some provider (``cxt`` used to hand the engine a march
        nobody asked for; ``interpreted`` named a provider that is
        gone)."""
        src = Path(kernels.__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.kernels"],
            env={**os.environ, "REPRO_KERNELS": value, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "ValueError" in proc.stderr
        assert f"unknown provider '{value}' in REPRO_KERNELS" in proc.stderr
        assert "['cext', 'none']" in proc.stderr

    def test_provider_resolution_respects_forcing(self):
        with forced_provider("none"):
            assert kernels.provider() is None
            assert not kernels.available()
            assert "forced off" in kernels.unavailable_reason()
        # Auto-resolution, whatever REPRO_KERNELS the caller set (the
        # package reads it once, at import).
        with _cext_unavailable(), forced_provider(None):
            assert kernels.provider() is None
            with forced_provider("cext"), pytest.raises(RuntimeError):
                kernels.provider()


def _timeout(*args, **kwargs):
    raise subprocess.TimeoutExpired(args[0], 120)


def _compile_error(*args, **kwargs):
    return subprocess.CompletedProcess(args[0], 1, "", "march.c: bad")


def _compiled(*args, **kwargs):
    return subprocess.CompletedProcess(args[0], 0, "", "")


def _refuse_replace(src, dst):
    raise OSError("rename refused")


class TestCBuild:
    """A failed on-demand C build leaves no temp file behind and says
    why it failed; a successful one prunes the builds of older source
    revisions."""

    @pytest.fixture
    def cext(self, monkeypatch, tmp_path):
        """The C provider, not yet loaded, building into ``tmp_path``
        with a compiler named ``cc``."""
        from repro.kernels import cext

        monkeypatch.setenv("REPRO_KERNELS_BUILD_DIR", str(tmp_path))
        for name, value in (("_TRIED", False), ("_FUNC", None),
                            ("_ERROR", None)):
            monkeypatch.setattr(cext, name, value)
        monkeypatch.setattr(cext, "_compiler", lambda: "cc")
        return cext

    @pytest.mark.parametrize(
        "run, replace, error",
        [
            (_timeout, None, "timed out"),
            (_compile_error, None, "march.c: bad"),
            (_compiled, _refuse_replace, "rename refused"),
        ],
        ids=["timeout", "compile-error", "replace-fails"],
    )
    def test_failed_build_leaves_the_build_dir_empty(
        self, cext, monkeypatch, tmp_path, run, replace, error
    ):
        monkeypatch.setattr(cext.subprocess, "run", run)
        if replace is not None:
            monkeypatch.setattr(cext.os, "replace", replace)
        assert not cext.available()
        assert list(tmp_path.iterdir()) == []
        assert "C build failed" in cext.build_error()
        assert error in cext.build_error()

    def test_a_build_prunes_stale_builds_only(
        self, cext, monkeypatch, tmp_path
    ):
        """A successful build unlinks the builds of older source
        revisions, and nothing else: an unrelated file and a concurrent
        worker's in-flight temp build survive."""
        kept = {"notes.txt", "march-k3x_9qzt.so"}
        for name in (*kept, "march-0000000000000000.so"):
            (tmp_path / name).write_bytes(b"")
        # The stand-in compiler writes nothing, so the renamed build is
        # empty and fails to load; the pruning happened before that.
        monkeypatch.setattr(cext.subprocess, "run", _compiled)
        cext.available()
        digest = hashlib.sha256(cext._SOURCE.read_bytes()).hexdigest()[:16]
        assert {path.name for path in tmp_path.iterdir()} == {
            *kept, f"march-{digest}.so"
        }


#: Run geometries of the identity pin: a plain rank and 1- and 2-rank
#: channels of two banks, and the 4-rank x 8-bank channel with each
#: rank's whole 73-ACT tREFI budget striped across its banks — the
#: steady state the compiled march replays in one call.
GEOMETRIES = [
    pytest.param(dict(num_ranks=0), id="0"),
    pytest.param(dict(num_ranks=1), id="1"),
    pytest.param(dict(num_ranks=2), id="2"),
    pytest.param(dict(num_ranks=4, num_banks=8, acts=73), id="4x8"),
]

#: A 1-rank channel at TRH 3, where both banks mitigate in the same REF
#: rounds and a mitigation's neighbour bump crosses TRH: the even rows
#: no ACT disturbs (8 and 20 flank the aggressors 10-18) flip from
#: victim-refresh activations alone (mithril, parfm and trr get there).
BUMP_FLIPS = dict(num_ranks=1, trh=3.0)


class TestFallbackIdentity:
    def test_auto_without_provider_matches_numpy_bit_for_bit(self):
        base, _ = _run("mint", "reference")
        with forced_provider("none"):
            fallen_back, result = _run("mint", "fast-auto")
        assert fallen_back == base
        assert result.kernel_stats["provider"] is None
        assert "forced off" in result.kernel_stats["no_provider"]
        assert result.kernel_stats["compiled_steps"] == 0

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", ["fast-numpy", "fast-compiled"])
    @pytest.mark.parametrize("provider", MARCH_PROVIDERS)
    @pytest.mark.parametrize("tracker", LOWERED)
    def test_every_engine_matches_the_reference_bit_for_bit(
        self, tracker, provider, engine, geometry
    ):
        base, _ = _run(tracker, "reference", **geometry)
        with forced_provider(provider):
            fast, result = _run(tracker, engine, **geometry)
        assert fast == base
        stats = result.kernel_stats
        if engine == "fast-compiled":
            assert stats["provider"] == provider
            assert stats["no_provider"] is None
            assert stats["compiled_steps"] > 0
        else:
            assert stats["provider"] is None
            assert "forced off" in stats["no_provider"]
            assert stats["compiled_steps"] == 0

    @pytest.mark.parametrize(
        "geometry",
        [*GEOMETRIES, pytest.param(BUMP_FLIPS, id="1-bump-flips")],
    )
    @pytest.mark.parametrize(
        "engine",
        ["fast-numpy", pytest.param("fast-compiled", marks=requires_c_march)],
    )
    @pytest.mark.parametrize("tracker", UNLOWERED)
    def test_unlowered_trackers_match_the_reference_bit_for_bit(
        self, tracker, engine, geometry
    ):
        # A tracker with no lowering refuses the march: the fast engine
        # runs it step by step, bit for bit the reference, and counts
        # every refusal as a tracker skip.
        base, _ = _run(tracker, "reference", **geometry)
        compiled = engine == "fast-compiled"
        with forced_provider("cext") if compiled else nullcontext():
            fast, result = _run(tracker, engine, **geometry)
        assert fast == base
        stats = result.kernel_stats
        assert stats["compiled_steps"] == 0
        if compiled:
            assert stats["provider"] == "cext"
            assert stats["compiled_skip_tracker"] > 0
        else:
            assert stats["provider"] is None
            assert stats["compiled_skip_tracker"] == 0

    def test_bump_flips_input_crosses_trh_in_shared_rounds(self):
        # Keeps BUMP_FLIPS honest: every REF round mitigates on both
        # banks, and rows only mitigations disturb reach TRH.
        _, result = _run("mithril", "reference", **BUMP_FLIPS)
        banks = result.per_rank[0].per_bank
        assert [bank.mitigations for bank in banks] == [INTERVALS] * 2
        assert any(flip.row % 2 == 0 for bank in banks for flip in bank.flips)

    @pytest.mark.parametrize("provider", MARCH_PROVIDERS)
    def test_flip_heavy_threshold_records_flips_inside_the_march(
        self, provider
    ):
        # trh low enough that victims cross it over and over: the march
        # records every flip itself, in the reference's order and with
        # its crossing disturbance and time, and never hands a step
        # back to the per-step path.
        base, reference = _run("mint", "reference", trh=5.0)
        with forced_provider(provider):
            compiled, result = _run("mint", "fast-compiled", trh=5.0)
        assert compiled == base

        def flips(run):
            return [bank.flips for rank in run.per_rank for bank in rank.per_bank]

        assert any(flips(reference))
        assert flips(result) == flips(reference)
        stats = result.kernel_stats
        assert stats["compiled_steps"] == stats["steps"] == INTERVALS
        assert stats["compiled_flip_steps"] >= 1

    def test_mint_banks_sharing_one_rng_stay_bit_identical(self):
        # Two banks' MINT trackers drawing from one stream: the compiled
        # march draws from one twister state per tracker, so it must keep
        # such banks on the per-step path, whose REF order is the
        # reference's.
        def run(engine):
            shared = random.Random(5)
            return _run_rank(
                lambda bank: MintTracker(max_act=6, rng=shared), engine
            )

        base, _ = run("reference")
        fast, result = run("fast-auto")
        assert fast == base
        assert result.kernel_stats["compiled_steps"] == 0


class TestTelemetry:
    @pytest.mark.parametrize("num_ranks", [0, 2])
    def test_every_step_is_accounted_once(self, num_ranks):
        _, result = _run("mint", num_ranks=num_ranks)
        stats = result.kernel_stats
        assert stats["steps"] == INTERVALS
        assert (
            stats["fast_path_steps"]
            + stats["slow_path_steps"]
            + stats["compiled_steps"]
            == stats["steps"]
        )
        assert (
            stats["plan_cache_hits"] + stats["plan_cache_misses"]
            == stats["steps"]
        )
        assert stats["plan_cache_misses"] == 1  # one distinct interval

    @pytest.mark.parametrize("num_ranks", [0, 2])
    def test_kernel_stats_stay_out_of_the_canonical_payload(self, num_ranks):
        _, result = _run("mint", num_ranks=num_ranks)
        assert result.kernel_stats is not None
        assert "kernel_stats" not in asdict(result)
        assert "kernel_stats" not in result.to_payload()
        opted_in = result.to_payload(include_kernel_stats=True)
        assert opted_in["kernel_stats"] == result.kernel_stats

    @pytest.mark.parametrize("num_ranks", [0, 2])
    def test_reference_run_attaches_no_stats(self, num_ranks):
        _, result = _run("mint", "reference", num_ranks=num_ranks)
        assert result.kernel_stats is None


class TestSkipReasons:
    """The kernel says why an eligible replay run did not compile."""

    SKIPS = (
        "compiled_skip_tracker",
        "compiled_skip_state",
    )

    def _session_stats(self, tracker, attack, **overrides):
        from repro.scenario import Scenario, Session

        scenario = Scenario(
            tracker=tracker,
            attack=attack,
            trh=4800.0,
            num_rows=4096,
            **{"intervals": 300, **overrides},
        )
        return Session(scenario).run().kernel_stats

    @pytest.mark.skipif(not kernels.available(), reason="no provider")
    def test_decoy_marches_without_skips(self):
        # The decoy's runs are 1 and 3 tREFIs long, and its schedulers
        # postpone four REFs, then pay them back in a five-REF batch:
        # the march runs the schedulers itself, so every step marches,
        # flips included. Its decoy rows (50K rows up) fall outside the
        # 4096-row bank, which the march carries too.
        stats = self._session_stats(
            "mint",
            AttackSpec.of("decoy", target=2000),
            allow_postponement=True,
        )
        assert stats["compiled_steps"] == stats["steps"]
        assert stats["compiled_skip_tracker"] == 0

    @pytest.mark.skipif(not kernels.available(), reason="no provider")
    def test_short_decoy_marches_every_step(self):
        # Two super-windows are ten steps: the window marches them all.
        stats = self._session_stats(
            "para",
            AttackSpec.of("decoy", target=2000),
            allow_postponement=True,
            intervals=10,
        )
        assert stats["steps"] == 10
        assert stats["compiled_steps"] == 10
        assert stats["compiled_calls"] == 1

    @requires_c_march
    @pytest.mark.parametrize("tracker", ["mint", "para", "graphene", "prac"])
    def test_a_deep_postponement_limit_sizes_by_the_window(self, tracker):
        # The decoy postpones four REFs at a time: the march sizes its
        # buffers by the batches the window can issue, not by a
        # max_postponed of 30 (PRAC's alerts alone would then claim
        # 2**30-fold room), and lands every bit as the scalar engine.
        from repro.scenario import Scenario, Session
        from repro.sim.seeding import canonical_json

        scenario = Scenario(
            tracker=tracker,
            attack=AttackSpec.of("decoy", target=2000),
            trh=1500.0,
            num_rows=4096,
            intervals=300,
            allow_postponement=True,
            max_postponed=30,
        )
        with forced_provider("cext"):
            fast = Session(scenario).run()
        reference = Session(replace(scenario, vectorized=False)).run()
        stats = fast.kernel_stats
        assert stats["compiled_steps"] == stats["steps"] == 300
        assert canonical_json(fast.to_payload()) == canonical_json(
            reference.to_payload()
        )

    @requires_c_march
    @pytest.mark.parametrize(
        "tracker, max_postponed",
        [("prac", 30), ("prac", 100), ("graphene", 30)],
    )
    def test_a_31_ref_batch_sizes_its_queue_by_the_slots(
        self, tracker, max_postponed
    ):
        # The decoy really postpones 30 REFs: PRAC's alerts could double
        # at each of the 31 REFs that pay them back. The queue room
        # stops growing at the unit's slot count, the march stops
        # before such a step with trips pending, and the per-step path
        # lands the rest, every bit as the scalar engine.
        from repro.scenario import Scenario, Session
        from repro.sim.seeding import canonical_json

        scenario = Scenario(
            tracker=tracker,
            attack=AttackSpec.of("decoy", target=2000, postponed=30),
            trh=1500.0,
            num_rows=4096,
            intervals=300,
            allow_postponement=True,
            max_postponed=max_postponed,
        )
        with forced_provider("cext"):
            fast = Session(scenario).run()
        reference = Session(replace(scenario, vectorized=False)).run()
        assert canonical_json(fast.to_payload()) == canonical_json(
            reference.to_payload()
        )
        stats = fast.kernel_stats
        assert stats["compiled_steps"] >= 30
        if tracker == "graphene":
            assert stats["compiled_steps"] == stats["steps"]

    @requires_c_march
    def test_adjacent_aggressors_march(self):
        # Adjacent aggressors make a unit's in-tREFI order observable:
        # the march replays that unit's acts in act order, so the steps
        # around them stay in one window and one call. No cell crosses
        # TRH, so none of those replays counts as a flip step.
        exact = RankInterval.of([(0, 10), (0, 11)] * 3)
        plain = RankInterval.of([(0, 20), (1, 30)] * 3)
        trace = RankTrace(
            "adjacent", [exact] + [plain] * 5 + [exact] + [plain] * 20
        )

        def run(engine):
            overrides, provider = _engine(engine)
            with provider:
                simulator = RankSimulator(
                    lambda bank: MintTracker(rng=random.Random(bank)),
                    _config(num_ranks=1, **overrides),
                )
                result = simulator.run(trace)
            return json.dumps(asdict(result), sort_keys=True), result

        base, _ = run("reference")
        with forced_provider("cext"):
            fast, result = run("fast-compiled")
        assert fast == base
        stats = result.kernel_stats
        assert stats["compiled_steps"] == stats["steps"] == 27
        assert stats["compiled_calls"] == 1
        assert stats["compiled_flip_steps"] == 0

    @requires_c_march
    @pytest.mark.parametrize("tracker", ["mint", "para", "graphene", "prac"])
    def test_an_exact_unit_crossing_trh_flips_in_act_order(self, tracker):
        # Each step, bank 0 hammers 20 fresh adjacent rows at TRH 1, so
        # its replay flips 22 cells, far more than bank 1's plan has
        # victims, and the run flips more cells than one call's event
        # buffer holds: the march's event room must count the exact
        # unit's victims too. The flips land in act order, with the
        # crossing disturbance and time, as the reference records them.
        trace = RankTrace("exact-flips", [
            RankInterval.of(
                [(0, row) for row in range(40 * i + 1, 40 * i + 21)]
                + [(1, 40), (1, 42)] * 3
            )
            for i in range(60)
        ])

        def run(engine):
            overrides, provider = _engine(engine)
            config = EngineConfig(
                num_banks=2, num_rows=4096, trh=1.0, refi_per_refw=8,
                **overrides,
            )
            factory = _factory(tracker)
            with provider:
                simulator = RankSimulator(lambda b: factory(0, b), config)
                result = simulator.run(trace)
            return json.dumps(asdict(result), sort_keys=True), result

        base, reference = run("reference")
        with forced_provider("cext"):
            fast, result = run("fast-compiled")
        assert fast == base
        flips = reference.per_bank[0].flips
        assert len(flips) >= 60 * 22
        assert result.per_bank[0].flips == flips
        stats = result.kernel_stats
        assert stats["steps"] == 60
        # Every compiled step flips; Graphene's table fills up with the
        # fresh rows, so its march stops before the table would
        # overflow and the per-step path carries on.
        assert stats["compiled_flip_steps"] == stats["compiled_steps"]
        assert stats["compiled_steps"] == (39 if tracker == "graphene" else 60)

    @pytest.mark.skipif(not kernels.available(), reason="no provider")
    def test_refresh_debt_marches_with_the_window(self):
        # Three postponing steps leave a REF debt the first plain step
        # pays back; the march runs the schedulers over the whole
        # window, so all 43 steps march and the debt lands as the
        # scalar engine lands it.
        postpone = RankInterval.of([(0, 10), (1, 20)], postpone=True)
        plain = RankInterval.of([(0, 10), (1, 20)])
        trace = RankTrace("debt", [postpone] * 3 + [plain] * 40)

        def run(engine):
            overrides, provider = _engine(engine)
            with provider:
                simulator = RankSimulator(
                    lambda bank: MintTracker(rng=random.Random(bank)),
                    _config(num_ranks=1, allow_postponement=True,
                            **overrides),
                )
                result = simulator.run(trace)
            payload = json.dumps(asdict(result), sort_keys=True)
            return payload, result, simulator.scheduler.postponed

        base, _, base_postponed = run("reference")
        fast, result, fast_postponed = run("fast-auto")
        assert fast == base
        assert fast_postponed == base_postponed
        stats = result.kernel_stats
        assert stats["compiled_steps"] == 43
        assert stats["compiled_calls"] == 1

    @pytest.mark.skipif(not kernels.available(), reason="no provider")
    @pytest.mark.parametrize("tracker", ["mithril", "mint+dmq"])
    def test_unlowered_trackers_count_tracker_skips(self, tracker):
        spec = (
            TrackerSpec.of("mint", dmq=True) if tracker == "mint+dmq"
            else tracker
        )
        stats = self._session_stats(spec, AttackSpec.of("double-sided"))
        assert stats["compiled_skip_tracker"] > 0
        assert stats["compiled_steps"] == 0

    @requires_c_march
    def test_behaviour_overriding_subclass_refuses_bit_identically(self):
        class _M(MintTracker):
            def on_refresh(self):
                return super().on_refresh()

        def run(engine):
            return _run_rank(
                lambda bank: _M(max_act=6, rng=random.Random(3 + bank)),
                engine,
            )

        base, _ = run("reference")
        with forced_provider("cext"):
            fast, result = run("fast-compiled")
        assert fast == base
        assert _M().lower() is None
        assert result.kernel_stats["compiled_skip_tracker"] > 0
        assert result.kernel_stats["compiled_steps"] == 0

    @requires_c_march
    def test_subclass_overriding_nothing_still_compiles(self):
        class _Plain(MintTracker):
            pass

        def run(engine):
            return _run_rank(
                lambda bank: _Plain(max_act=6, rng=random.Random(3 + bank)),
                engine,
            )

        base, _ = run("reference")
        with forced_provider("cext"):
            fast, result = run("fast-compiled")
        assert fast == base
        assert result.kernel_stats["compiled_skip_tracker"] == 0
        assert result.kernel_stats["compiled_steps"] > 0

    @requires_c_march
    def test_a_randint_wider_than_one_word_refuses_bit_identically(self):
        # randint(1, 2**32) draws 33-bit candidates, two twister words
        # each; the march draws one, so such a MINT keeps the per-step
        # path.
        def run(engine):
            return _run_rank(
                lambda bank: MintTracker(
                    max_act=1 << 32, rng=random.Random(3 + bank)
                ),
                engine,
            )

        base, _ = run("reference")
        with forced_provider("cext"):
            fast, result = run("fast-compiled")
        assert fast == base
        assert result.kernel_stats["compiled_skip_tracker"] > 0
        assert result.kernel_stats["compiled_steps"] == 0

    @requires_c_march
    def test_dmq_wrapped_mint_still_refuses(self):
        from repro.sim import with_dmq

        def run(engine):
            return _run_rank(
                lambda bank: with_dmq(
                    MintTracker(max_act=6, rng=random.Random(3 + bank))
                ),
                engine,
            )

        base, _ = run("reference")
        with forced_provider("cext"):
            fast, result = run("fast-compiled")
        assert fast == base
        assert result.kernel_stats["compiled_skip_tracker"] > 0
        assert result.kernel_stats["compiled_steps"] == 0

    @pytest.mark.parametrize("tracker", ["para", "graphene", "prac"])
    def test_skip_counters_are_integers_outside_the_payload(self, tracker):
        _, result = _run(tracker)
        for key in self.SKIPS:
            assert isinstance(result.kernel_stats[key], int)
            assert key not in json.dumps(result.to_payload())
