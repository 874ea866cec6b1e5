"""The experiment-service workload: grid runs, resume, and HTTP reads
interleaved with grid-growth writes.

One phase, all in one closed loop on the main thread (the HTTP server
answers on its own thread, one request in flight at a time):

1. a cold ``run_grid`` of the ``shootout`` preset at a short horizon
   into a fresh file-backed store (``grid_points_per_s``);
2. an immediate resume of the same grid (nothing executes);
3. reads against ``make_server`` over that store, in rounds that issue
   every route of :data:`ROUTES` once — ``/v1/points``, ``/v1/status``,
   ``/v1/point/<fp>`` (full fingerprint, prefix, CSV) and filtered
   ``/v1/sweep`` (JSON and CSV) — where every ``WRITE_ROUNDS`` rounds a
   write runs a small grid of new points into the same store path,
   which bumps the store generation the server's query cache is keyed
   on.

The read mix is one of each route per round, not a mix observed in real
traffic; the seed picks each read's point, tracker and attack, and the
order of the routes in a round, so every seed measures the same mix.
An op is one read. Checks: each point response equals the stored
result's payload, ``/v1/status`` counts every point written so far,
sweeps and indexes list exactly the matching points, and each write
executes exactly its new points.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import threading
import time
from pathlib import Path
from typing import Any

from repro.exp.presets import SHOOTOUT_ATTACKS, SHOOTOUT_TRACKERS, shootout_grid
from repro.exp.query import QueryAPI
from repro.exp.runner import run_grid
from repro.exp.serve import make_server
from repro.exp.store import ResultStore
from repro.scenario import Scenario

from common import Tally, percentile

#: Horizon (tREFIs) of every grid point; short, as a service would run.
GRID_INTERVALS = 200
#: The read routes; a round issues each once. ``points`` always opens a
#: round: it reloads the server's store, and ``QueryAPI.status`` answers
#: from the store as last loaded (it skips ``reload_if_changed``), so a
#: status read before any reload after a write would report the old
#: count. The rest come in a seed-shuffled order.
ROUTES = ("points", "status", "point", "point-prefix", "point-csv",
          "sweep", "sweep-failed", "sweep-csv")
#: Rounds of reads between two grid-growth writes. Rare enough that the
#: points a run adds stay few next to the cold grid: the store, and the
#: memory and read cost that grow with it, then depend little on how
#: many reads a run gets through on a faster or slower host.
WRITE_ROUNDS = 48
#: The write grid: two new points per write (fresh base seed each time).
WRITE_TRACKERS = ("mint", "para")


def _write_grid():
    return Scenario(
        tracker="mint", attack="double-sided", trh=1500.0,
        intervals=GRID_INTERVALS,
    ).sweep(tracker=list(WRITE_TRACKERS))


class _MeteredStore(ResultStore):
    """A store that remembers the bytes of every flush that wrote."""

    def __init__(self, path: Path, flushes: list[int]) -> None:
        self._flushes = flushes
        super().__init__(path)

    def flush(self) -> int:
        written = super().flush()
        if written:
            self._flushes.append(self.last_flush_bytes)
        return written


class _Server:
    """``make_server`` over a store path, served from one thread."""

    def __init__(self, store_path: Path) -> None:
        self.api = QueryAPI(ResultStore(store_path))
        self.server = make_server(self.api)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30
        )
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)


class GridServe:
    """Setup, phases, and teardown of the ``grid_serve`` workload."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.phases = 0
        self.cold_grid = shootout_grid(intervals=GRID_INTERVALS)
        self.write_grid = _write_grid()

    # -- setup ---------------------------------------------------------
    def warm_up(self) -> bool:
        """Run the write grid into a scratch store and read it back over
        HTTP once; True when the round trip checks out."""
        path = self.workdir / "warmup" / "store.json"
        report = run_grid(self.write_grid, base_seed=self.seed, n_workers=1,
                          store=ResultStore(path))
        server = _Server(path)
        try:
            status, body = server.get("/v1/status")
        finally:
            server.close()
        return status == 200 and json.loads(body)["results"] == len(
            report.results
        )

    def write_seed(self, write: int) -> int:
        """Base seed of the ``write``-th grid-growth write (from 1)."""
        return 1_000_003 * (self.seed + 1) + write

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- one phase -----------------------------------------------------
    def run_phase(self, seconds: float, recorder: Any,
                  traced: bool) -> dict:
        self.phases += 1
        store_path = self.workdir / f"phase{self.phases}" / "store.json"
        flushes: list[int] = []

        def open_store() -> ResultStore:
            with recorder.span("exp.store.open"):
                if traced:
                    return _MeteredStore(store_path, flushes)
                return ResultStore(store_path)

        server = _Server(store_path)
        twin = QueryAPI(ResultStore(store_path)) if traced else None
        try:
            return self._loop(seconds, recorder, server, twin, open_store,
                              flushes)
        finally:
            server.close()

    def _loop(self, seconds, recorder, server, twin, open_store, flushes):
        clock = time.perf_counter
        rng = random.Random(f"paperbench/grid_serve/{self.seed}")
        tally = Tally()
        known: dict[str, dict] = {}
        runs: list[Any] = []
        write_latencies: list[float] = []
        #: Simulated demand ACTs of every point a run_grid executed; over
        #: the shards' exec seconds (not store opens and commits), scaled
        #: to the reference host by the slowness the read loop's probes
        #: read, they give sim_acts_per_s.
        acts = 0

        def grid_run(grid, base_seed: int, expect_new: int) -> float:
            nonlocal acts
            recorder.op = None
            tally.attempted += 1
            begun = clock()
            store = open_store()
            with recorder.span("exp.runner.run_grid"):
                report = run_grid(grid, base_seed=base_seed, n_workers=1,
                                  store=store)
            elapsed = clock() - begun
            checked = clock()
            runs.append(report)
            new = [r for r in report.results if r.key not in known]
            if report.executed != expect_new or len(new) != expect_new:
                tally.fail(
                    f"run_grid executed {report.executed}, expected "
                    f"{expect_new} new point(s)"
                )
            for result in new:
                known[result.key] = json.loads(json.dumps(result.to_payload()))
                acts += result.metrics["demand_acts"]
            tally.check_s += clock() - checked
            return elapsed

        deadline = clock() + seconds
        cold_points = len(self.cold_grid.points())
        cold_s = grid_run(self.cold_grid, self.seed, cold_points)
        resume_s = grid_run(self.cold_grid, self.seed, 0)
        keys = list(known)

        # The read loop: a cycle is a write (the first cycle has none),
        # then WRITE_ROUNDS rounds of reads. At least one cycle runs,
        # however short the phase.
        started = clock()
        tally.check_s = 0.0
        rounds = reads = 0
        shuffled = list(ROUTES[1:])
        while clock() < deadline or rounds < WRITE_ROUNDS:
            if rounds and rounds % WRITE_ROUNDS == 0:
                write_latencies.append(grid_run(
                    self.write_grid, self.write_seed(rounds // WRITE_ROUNDS),
                    len(self.write_grid.points()),
                ))
                keys = list(known)
            rng.shuffle(shuffled)
            for route in (ROUTES[0], *shuffled):
                path, call = _read(route, rng, keys)
                reads += 1
                recorder.op = reads
                tally.attempted += 1
                with recorder.span("op"):
                    begun = clock()
                    with recorder.span("exp.serve.request"):
                        try:
                            status, body = server.get(path)
                        except (OSError, http.client.HTTPException) as error:
                            status, body = None, repr(error).encode()
                    done = clock()
                # The in-process twin of the read (traced phase only), like
                # the output check, stays out of the throughput.
                if twin is not None:
                    with recorder.span("exp.query.call"):
                        try:
                            call(twin, recorder)
                        except Exception as error:
                            tally.fail(f"in-process {route}: {error!r}")
                if status is None:
                    tally.fail(f"GET {path}: {body.decode()}")
                else:
                    tally.latencies.append(done - begun)
                    if status != 200 or not _check_read(
                        route, path, body, known
                    ):
                        tally.fail(f"GET {path} -> {status}")
                tally.check_s += clock() - done
                tally.pace(clock() - started)
            rounds += 1
            if rounds % WRITE_ROUNDS == 0:
                tally.mark_round(clock() - started)
        tally.close(clock() - started)

        api = server.api
        lookups = api.hits + api.misses
        executed = sum(report.executed for report in runs)
        exec_s = sum(report.exec_seconds for report in runs)
        return {
            "tally": tally,
            "sim_acts_per_s": acts / exec_s * tally.slowness,
            "grid_points_per_s": cold_points / cold_s,
            "write_p50_ms": percentile(write_latencies, 0.5) * 1e3,
            "resume_ms": resume_s * 1e3,
            "exec_s": exec_s / executed,
            "commit_s": sum(
                s.wall_seconds - s.exec_seconds for r in runs for s in r.shards
            ) / executed,
            "flush_bytes": sum(flushes) / len(flushes) if flushes else 0.0,
            "disk_bytes": api.store.disk_bytes(),
            "hit_ratio": api.hits / lookups if lookups else 0.0,
        }


def _read(route: str, rng: random.Random, keys: list[str]):
    """One read of ``route``: ``(url path, in-process twin call)``. The
    seed picks the point, tracker and attack it asks for."""
    key = rng.choice(keys)
    tracker = rng.choice(SHOOTOUT_TRACKERS)
    attack = rng.choice(SHOOTOUT_ATTACKS)[0]
    if route == "points":
        return "/v1/points", lambda api, rec: api.sweep()
    if route == "status":
        return "/v1/status", lambda api, rec: api.status()
    if route in ("point", "point-prefix"):
        ident = key if route == "point" else key[:12]

        def point(api, rec):
            result = api.point(ident)
            with rec.span("results.to_payload"):
                return result.to_payload()

        return f"/v1/point/{ident}", point
    if route == "point-csv":
        return (f"/v1/point/{key}?format=csv",
                lambda api, rec: api.point(key))
    if route == "sweep":
        return (f"/v1/sweep?tracker={tracker}&attack={attack}",
                lambda api, rec: api.sweep_payloads(tracker, attack, None))
    if route == "sweep-failed":
        return (f"/v1/sweep?tracker={tracker}&failed=false",
                lambda api, rec: api.sweep_payloads(tracker, None, False))
    return (f"/v1/sweep?attack={attack}&format=csv",
            lambda api, rec: api.sweep_csv(None, attack, None))


def _matches(payload: dict, query: dict) -> bool:
    return (
        payload["tracker"] == query.get("tracker", payload["tracker"])
        and payload["attack"] == query.get("attack", payload["attack"])
        and (
            "failed" not in query
            or bool(payload["metrics"]["failed"])
            == (query["failed"] == "true")
        )
    )


def _check_read(route: str, path: str, body: bytes,
                known: dict[str, dict]) -> bool:
    """Is a 200 response exactly what the written points imply?"""
    text = body.decode("utf-8")
    if route in ("point", "point-prefix", "point-csv"):
        ident = path.split("/")[3].split("?")[0]
        full = [key for key in known if key.startswith(ident)]
        if len(full) != 1:
            return False
        if route == "point-csv":
            lines = text.splitlines()
            return len(lines) == 2 and full[0][:12] in lines[1]
        return json.loads(text) == known[full[0]]
    if route == "status":
        return json.loads(text)["results"] == len(known)
    if route == "points":
        listed = [point["key"] for point in json.loads(text)["points"]]
        return sorted(listed) == sorted(known)
    query = dict(
        part.split("=", 1) for part in path.split("?", 1)[1].split("&")
    )
    query.pop("format", None)
    expected = sorted(
        key for key, payload in known.items() if _matches(payload, query)
    )
    if route == "sweep-csv":
        # One CSV row per single-bank result, after the header.
        rows = text.splitlines()[1:]
        return sorted(row.split(",", 1)[0] for row in rows) == sorted(
            key[:12] for key in expected
        )
    listed = [payload["key"] for payload in json.loads(text)["results"]]
    return listed == expected
