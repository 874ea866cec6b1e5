"""The read path: QueryAPI caching and the ``repro serve`` HTTP front
end (stdlib client against a real threaded server)."""

import csv
import io
import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.exp import (
    ExperimentResult,
    QueryAPI,
    ResultStore,
    make_server,
    run_grid,
)
from repro.exp.runner import _InjectedCrash
from tests.exp.test_runner import BASE_SEED, fast_grid


def stored_result(key, tracker="mint", attack="single-sided", failed=False):
    return ExperimentResult(
        key=key,
        tracker=tracker,
        attack=attack,
        trace=f"{attack}(row=1000)",
        seed=7,
        point={"tracker": {"name": tracker}},
        metrics={"failed": failed, "demand_acts": 10, "flips": []},
        tracker_stats={"storage_bits": 32},
    )


def populated_store(path=None):
    store = ResultStore(path)
    store.put(stored_result("aa11", tracker="mint"))
    store.put(stored_result("bb22", tracker="para", attack="double-sided"))
    store.put(stored_result("cc33", tracker="mint", failed=True))
    return store


class TestQueryAPI:
    def test_point_by_fingerprint_and_prefix(self):
        api = QueryAPI(populated_store())
        assert api.point("aa11").tracker == "mint"
        assert api.point("bb").tracker == "para"  # unambiguous prefix
        assert api.point("zz") is None
        assert api.point("") is None

    def test_ambiguous_prefix_is_a_miss(self):
        store = populated_store()
        store.put(stored_result("bb99"))
        api = QueryAPI(store)
        assert api.point("bb") is None
        assert api.point("bb22") is not None

    def test_sweep_filters(self):
        api = QueryAPI(populated_store())
        assert len(api.sweep()) == 3
        assert [r.key for r in api.sweep(tracker="mint")] == ["aa11", "cc33"]
        assert [r.key for r in api.sweep(attack="double-sided")] == ["bb22"]
        assert [r.key for r in api.sweep(failed=True)] == ["cc33"]
        assert api.sweep(tracker="mint", failed=False)[0].key == "aa11"

    def test_repeat_queries_hit_the_cache(self):
        api = QueryAPI(populated_store())
        api.sweep(tracker="mint")
        misses = api.misses
        api.sweep(tracker="mint")
        api.sweep(tracker="mint")
        assert api.misses == misses
        assert api.hits >= 2

    def test_cached_none_is_a_hit(self):
        """A negative lookup is memoized too — the sentinel default
        distinguishes a cached None from a cache miss."""
        api = QueryAPI(populated_store())
        assert api.point("zz") is None
        misses = api.misses
        assert api.point("zz") is None
        assert api.misses == misses

    def test_store_mutation_invalidates(self):
        store = populated_store()
        api = QueryAPI(store)
        assert len(api.sweep()) == 3
        store.put(stored_result("dd44"))
        assert len(api.sweep()) == 4  # generation re-keyed the cache

    def test_external_flush_picked_up_via_reload(self, tmp_path):
        path = tmp_path / "store.json"
        writer = populated_store(path)
        writer.flush()
        api = QueryAPI.open(path)
        assert len(api.sweep()) == 3
        writer.put(stored_result("dd44"))
        writer.flush()
        assert len(api.sweep()) == 4

    def test_status_sees_another_handles_flush(self, tmp_path):
        path = tmp_path / "store.json"
        writer = populated_store(path)
        writer.flush()
        api = QueryAPI.open(path)
        assert api.status()["results"] == 3
        writer.put(stored_result("dd44", tracker="prac"))
        writer.flush()
        status = api.status()
        assert status["results"] == 4
        assert status["trackers"] == ["mint", "para", "prac"]

    def test_csv_rows_share_the_result_serializer(self):
        api = QueryAPI(populated_store())
        rows = api.sweep_csv(tracker="para")
        assert len(rows) == 1
        row = rows[0]
        assert row["key"] == "bb22"
        assert row["tracker"] == "para"
        assert row["attack"] == "double-sided"
        assert row["demand_acts"] == 10
        assert row["scope"] == "bank"

    def test_status_reports_store_and_cache(self, tmp_path):
        path = tmp_path / "store.json"
        populated_store(path).flush()
        api = QueryAPI.open(path)
        api.keys()
        api.keys()
        status = api.status()
        assert status["results"] == 3
        assert status["store_path"] == str(path)
        assert status["store_disk_bytes"] > 0
        assert status["cache_hits"] == 1
        assert status["trackers"] == ["mint", "para"]


@contextmanager
def serving(path):
    """A threaded ``repro serve`` over the store at ``path``; yields its
    base URL."""
    httpd = make_server(QueryAPI.open(path), port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


@pytest.fixture
def server(tmp_path):
    path = tmp_path / "store.json"
    populated_store(path).flush()
    with serving(path) as url:
        yield url


def fetch(url):
    with urllib.request.urlopen(url) as response:
        return response.status, response.read().decode("utf-8")


class TestServe:
    def test_status_route(self, server):
        status, body = fetch(server + "/v1/status")
        assert status == 200
        assert json.loads(body)["results"] == 3

    def test_points_index(self, server):
        _, body = fetch(server + "/v1/points")
        points = json.loads(body)["points"]
        assert [p["key"] for p in points] == ["aa11", "bb22", "cc33"]
        assert points[2]["failed"] is True

    def test_point_by_prefix(self, server):
        _, body = fetch(server + "/v1/point/bb")
        assert json.loads(body)["tracker"] == "para"

    def test_sweep_filtered(self, server):
        _, body = fetch(server + "/v1/sweep?tracker=mint&failed=false")
        results = json.loads(body)["results"]
        assert [r["key"] for r in results] == ["aa11"]

    def test_sweep_csv(self, server):
        _, body = fetch(server + "/v1/sweep?format=csv")
        rows = list(csv.DictReader(io.StringIO(body)))
        assert [row["key"] for row in rows] == ["aa11", "bb22", "cc33"]
        assert rows[0]["tracker"] == "mint"

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server + "/v1/nonsense")
        assert excinfo.value.code == 404
        assert "error" in json.loads(excinfo.value.read().decode())

    def test_missing_point_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server + "/v1/point/zz99")
        assert excinfo.value.code == 404

    def test_bad_format_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server + "/v1/sweep?format=xml")
        assert excinfo.value.code == 400

    def test_bad_failed_flag_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server + "/v1/sweep?failed=maybe")
        assert excinfo.value.code == 400


def test_resumed_store_serves_every_point(tmp_path):
    """The service lifecycle end to end: run a grid, crash it after one
    shard, resume, then serve the resumed store over HTTP — every point
    of the grid is there."""
    path = tmp_path / "store.json"
    with pytest.raises(_InjectedCrash):
        run_grid(fast_grid(), base_seed=BASE_SEED, n_workers=1,
                 store=ResultStore(path), fail_after_shards=1)
    resumed = run_grid(fast_grid(), base_seed=BASE_SEED, n_workers=1,
                       store=ResultStore(path))
    assert 0 < resumed.executed < resumed.total == len(fast_grid())
    with serving(path) as url:
        _, status = fetch(url + "/v1/status")
        _, points = fetch(url + "/v1/points")
    assert json.loads(status)["results"] == resumed.total
    assert sorted(p["key"] for p in json.loads(points)["points"]) == sorted(
        result.key for result in resumed.results
    )
