"""Tests for the out-of-core tile residency layer (repro.storage.tilestore).

Covers the TileHandle pin/unpin protocol, LRU eviction under a byte
budget, the never-evict rules (pinned, dirty), checkpoint rebinding,
weakref byte accounting, the budget shared with the resolved-column
cache, and per-column lazy decode of paged payloads.
"""

import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro import Database, ExtractionConfig, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.errors import StorageError
from repro.storage import persist
from repro.storage.persist import load_relation, save_relation
from repro.storage.tile_cache import GLOBAL_TILE_CACHE, ResolvedTileCache
from repro.storage.tilestore import (
    GLOBAL_TILE_STORE,
    TileHandle,
    TileStore,
    _default_budget,
)

CONFIG = ExtractionConfig(tile_size=32, partition_size=2)


def tweets(n):
    return [{"id": i, "text": f"tweet number {i} " * 4,
             "user": {"id": i % 17}, "score": float(i) / 3}
            for i in range(n)]


def make_paged_relation(tmp_path, n=128, budget=None, name="t"):
    """Build, checkpoint and reload a relation whose tiles page in and
    out of a private store."""
    db = Database(StorageFormat.TILES, CONFIG)
    relation = db.load_table(name, tweets(n))
    path = tmp_path / f"{name}.jtile"
    save_relation(relation, path)
    store = TileStore(budget, cache=ResolvedTileCache())
    return load_relation(path, store=store), store


@pytest.fixture
def global_store():
    """Hand out the process-wide store; undo any budget the test set."""
    GLOBAL_TILE_CACHE.clear()
    try:
        yield GLOBAL_TILE_STORE
    finally:
        GLOBAL_TILE_STORE.set_budget(None)
        GLOBAL_TILE_STORE.reset_stats()


class TestTileHandle:
    def test_bulk_loaded_handles_are_dirty_and_resident(self):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(96))
        assert all(isinstance(h, TileHandle) for h in relation.tiles)
        assert all(h.dirty and h.resident for h in relation.tiles)
        assert all(h.disk_bytes == 0 for h in relation.tiles)

    def test_reloaded_relation_pages_lazily(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        assert len(relation.tiles) == 4
        assert not any(h.resident for h in relation.tiles)
        assert store.resident_bytes == 0
        # headers are resident without any load
        assert relation.row_count == 128
        assert relation.tiles[0].header.columns
        assert store.loads == 0

    def test_pin_materializes_and_protects(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        handle = relation.tiles[0]
        with handle.pinned() as tile:
            assert handle.resident
            assert handle.pin_count == 1
            assert tile.row_count == handle.row_count
        assert handle.pin_count == 0
        assert handle.resident  # unlimited budget: stays resident
        assert store.loads == 1
        assert store.resident_bytes == handle.nbytes > 0

    def test_compat_proxies_load_on_demand(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        handle = relation.tiles[0]
        assert handle.peek() is None
        columns = handle.columns
        assert columns  # the Tile surface works through the handle
        assert handle.peek() is not None
        assert handle.size_bytes() > 0

    def test_pin_after_discard_raises(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        handle = relation.tiles[0]
        store.discard(handle)
        with pytest.raises(StorageError):
            handle.pin()


class TestEviction:
    def test_lru_keeps_resident_bytes_under_budget(self, tmp_path):
        probe, _ = make_paged_relation(tmp_path, name="probe")
        tile_bytes = max(h.disk_bytes for h in probe.tiles)
        budget = int(tile_bytes * 2.5)
        relation, store = make_paged_relation(tmp_path, budget=budget)
        for handle in relation.tiles:
            with handle.pinned():
                pass
            assert store.resident_bytes <= budget
        stats = store.stats()
        assert stats["evictions"] > 0
        assert stats["peak_resident_bytes"] <= budget
        assert sum(1 for h in relation.tiles if h.resident) < \
            len(relation.tiles)

    def test_lru_order_evicts_coldest_first(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        for handle in relation.tiles:
            with handle.pinned():
                pass
        # re-touch tile 0 so tile 1 is the LRU victim
        with relation.tiles[0].pinned():
            pass
        store.set_budget(store.resident_bytes - 1)
        assert not relation.tiles[1].resident
        assert relation.tiles[0].resident

    def test_evicted_tile_reloads_bit_identical(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        before = list(relation.documents())
        uids = [h.uid for h in relation.tiles]
        store.set_budget(1)  # evict everything evictable
        assert store.resident_bytes == 0
        store.set_budget(None)
        assert list(relation.documents()) == before
        # handle identity is stable across the evict/reload cycle
        assert [h.uid for h in relation.tiles] == uids

    def test_pinned_tiles_never_evicted(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        victim = relation.tiles[0]
        tile = victim.pin()
        store.set_budget(1)
        assert victim.resident
        assert victim.peek() is tile
        assert store.resident_bytes == victim.nbytes  # only the pin survives
        victim.unpin()
        assert not victim.resident  # released pin unblocked the eviction
        store.set_budget(None)

    def test_dirty_tiles_never_evicted(self):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(96))
        store = TileStore(cache=ResolvedTileCache())
        handles = [TileHandle.wrap(h.peek(), store, "t")
                   for h in relation.tiles]
        store.set_budget(1)
        assert all(h.resident for h in handles)
        assert store.stats()["evictions"] == 0
        assert store.resident_bytes > 1  # over budget rather than corrupt

    def test_mark_dirty_blocks_eviction(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        handle = relation.tiles[0]
        with handle.pinned():
            handle.mark_dirty()
        store.set_budget(1)
        assert handle.resident
        assert handle.disk_bytes == 0  # the segment is stale now

    def test_rebind_after_save_makes_handles_evictable(
            self, tmp_path, global_store):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(96))
        assert all(h.dirty for h in relation.tiles)
        save_relation(relation, tmp_path / "t.jtile")
        assert not any(h.dirty for h in relation.tiles)
        assert all(h.disk_bytes > 0 for h in relation.tiles)
        before = list(relation.documents())
        global_store.set_budget(1)
        assert not any(h.resident for h in relation.tiles)
        global_store.set_budget(None)
        assert list(relation.documents()) == before

    def test_update_marks_dirty_until_next_checkpoint(
            self, tmp_path, global_store):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(96))
        path = tmp_path / "t.jtile"
        save_relation(relation, path)
        relation.update(0, {"patched": True})
        touched = relation.tile_of_row(0)
        assert touched.dirty
        global_store.set_budget(1)
        assert touched.resident  # the only copy of the update
        global_store.set_budget(None)
        save_relation(relation, path)
        assert not touched.dirty
        assert load_relation(path).document(0)["patched"] is True


class TestAccounting:
    def test_weakrefs_release_dropped_relations(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        for handle in relation.tiles:
            with handle.pinned():
                pass
        assert store.resident_bytes > 0
        del relation, handle
        gc.collect()
        assert store.resident_bytes == 0
        assert store.stats()["resident_tiles"] == 0

    def test_discard_table_releases_everything(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        for handle in relation.tiles:
            with handle.pinned():
                pass
        dropped = store.discard_table(relation.name)
        assert dropped == len(relation.tiles)
        assert store.resident_bytes == 0

    def test_load_and_eviction_counters(self, tmp_path):
        probe, _ = make_paged_relation(tmp_path, name="probe")
        budget = int(max(h.disk_bytes for h in probe.tiles) * 1.5)
        relation, store = make_paged_relation(tmp_path, budget=budget)
        for handle in relation.tiles:
            with handle.pinned():
                pass
        stats = store.stats()
        assert stats["loads"] == len(relation.tiles)
        assert stats["load_bytes"] > 0
        assert stats["evictions_by_table"].get("t", 0) > 0
        store.reset_stats()
        assert store.stats()["loads"] == 0
        assert store.stats()["peak_resident_bytes"] == store.resident_bytes

    def test_eviction_fires_relation_event(self, tmp_path):
        relation, store = make_paged_relation(tmp_path)
        events = []
        relation.add_event_hook(
            lambda event, rel, payload: events.append((event, payload)))
        for handle in relation.tiles:
            with handle.pinned():
                pass
        store.set_budget(1)
        evicted = [payload for event, payload in events if event == "evict"]
        assert len(evicted) == len(relation.tiles)
        assert all(payload.pin_count == 0 for payload in evicted)

    def test_no_reload_before_the_evict_event(self, tmp_path):
        """Observers of an ``evict`` event see the tile paged out: a
        concurrent pin of that tile waits until the event has fired."""
        relation, store = make_paged_relation(tmp_path)
        handle = relation.tiles[0]
        with handle.pinned():
            pass
        seen = []
        reloaders = []

        def hook(event, _relation, payload):
            if event != "evict" or reloaders:
                return
            reloader = threading.Thread(target=payload.pin)
            reloaders.append(reloader)
            reloader.start()
            reloader.join(timeout=0.5)
            seen.append((payload.resident, payload.pin_count,
                         reloader.is_alive()))

        relation.add_event_hook(hook)
        store.set_budget(1)
        store.set_budget(None)
        reloaders[0].join(timeout=10)
        assert not reloaders[0].is_alive()
        assert seen == [(False, 0, True)]
        assert handle.resident and handle.pin_count == 1


class TestSharedBudget:
    def test_cache_capped_at_its_share(self, tmp_path):
        relation, store = make_paged_relation(tmp_path, budget=1_000_000)
        cache = store.cache
        # fill the cache past a quarter of the budget
        tile = relation.tiles[0]
        with tile.pinned() as payload:
            path = next(iter(payload.columns))
            vector = payload.column(path)
        import repro.storage.tile_cache as tc
        size = tc._vector_bytes(vector)
        for i in range(1_000_000 // (4 * max(size, 1)) + 2):
            cache.store(tc.make_key("t", i, path, None, False), vector)
        store.enforce()
        assert cache.used_bytes <= store.budget_bytes // TileStore.CACHE_SHARE

    def test_cache_overseer_evicts_tiles_for_cache_growth(self, tmp_path):
        relation, store = make_paged_relation(tmp_path, budget=None)
        cache = store.cache
        cache.attach_overseer(store.enforce)
        for handle in relation.tiles:
            with handle.pinned():
                pass
        store.budget_bytes = store.resident_bytes + 64
        tile = relation.tiles[0]
        with tile.pinned() as payload:
            path = next(iter(payload.columns))
            vector = payload.column(path)
        import repro.storage.tile_cache as tc
        cache.store(tc.make_key("t", 1, path, None, False), vector)
        # the insert pushed the pool over budget; the overseer paged
        # tiles out to make room
        assert store.resident_bytes + cache.used_bytes <= store.budget_bytes


class TestBudgetConfiguration:
    def test_set_budget_mb(self):
        store = TileStore(cache=ResolvedTileCache())
        store.set_budget_mb(2.5)
        assert store.budget_bytes == int(2.5 * 2**20)
        store.set_budget_mb(0)
        assert store.budget_bytes is None
        store.set_budget_mb(None)
        assert store.budget_bytes is None

    def test_env_budget_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_MB", "16")
        assert _default_budget() == 16 * 2**20
        monkeypatch.setenv("REPRO_MEMORY_MB", "0")
        assert _default_budget() is None
        monkeypatch.setenv("REPRO_MEMORY_MB", "junk")
        assert _default_budget() is None
        monkeypatch.delenv("REPRO_MEMORY_MB")
        assert _default_budget() is None


class TestQueriesOverPagedTiles:
    QUERY = ("select count(*) as n, sum(t.data->>'score'::float) as s "
             "from t t where t.data->'user'->>'id'::int >= 3")

    def test_results_match_fully_resident(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        resident = db.load_table("t", tweets(128))
        expected = db.sql(self.QUERY).rows

        probe, _ = make_paged_relation(tmp_path, name="probe")
        budget = int(max(h.disk_bytes for h in probe.tiles) * 2)
        relation, store = make_paged_relation(tmp_path, budget=budget)
        paged_db = Database(StorageFormat.TILES, CONFIG)
        paged_db.register("t", relation)
        result = paged_db.sql(self.QUERY)
        assert result.rows == expected
        assert store.stats()["peak_resident_bytes"] <= budget
        assert result.counters.tile_loads == len(relation.tiles)
        assert result.counters.tile_evictions > 0

    def test_counters_absent_when_resident(self):
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("t", tweets(64))
        result = db.sql(self.QUERY)
        assert result.counters.tile_loads == 0
        assert result.counters.tile_evictions == 0


@pytest.fixture
def decode_calls(monkeypatch):
    """Count column and JSONB-heap decodes of paged payloads."""
    calls = {"columns": 0, "heap": 0}
    restore_column = persist._restore_column
    decode_rows = persist._decode_rows

    def counting_column(*args):
        calls["columns"] += 1
        return restore_column(*args)

    def counting_rows(*args):
        calls["heap"] += 1
        return decode_rows(*args)

    monkeypatch.setattr(persist, "_restore_column", counting_column)
    monkeypatch.setattr(persist, "_decode_rows", counting_rows)
    return calls


class TestLazyDecode:
    """A pin reads a paged tile's bytes; each column and the JSONB heap
    decode only when first touched."""

    PATHS = [KeyPath.parse(text) for text in ("id", "text", "user.id",
                                              "score")]

    def test_one_path_query_decodes_only_that_column(self, tmp_path,
                                                     decode_calls):
        relation, store = make_paged_relation(tmp_path)
        assert all(set(h.header.columns) == set(self.PATHS)
                   for h in relation.tiles)  # fully extracted
        db = Database(StorageFormat.TILES, CONFIG)
        db.register("t", relation)
        result = db.sql("select sum(t.data->>'id'::int) as s from t t")
        assert result.scalar() == sum(range(128))
        assert result.counters.tile_loads == len(relation.tiles)
        assert decode_calls == {"columns": len(relation.tiles), "heap": 0}
        # the budget charge is the whole segment regardless
        assert store.resident_bytes == sum(h.disk_bytes
                                           for h in relation.tiles)

    def test_iteration_and_membership_do_not_decode(self, tmp_path,
                                                    decode_calls):
        relation, _store = make_paged_relation(tmp_path)
        with relation.tiles[0].pinned() as tile:
            assert list(tile.columns) == list(tile.header.columns)
            assert len(tile.columns) == len(self.PATHS)
            assert all(path in tile.columns for path in self.PATHS)
            assert KeyPath.parse("nope") not in tile.columns
            assert tile.column(KeyPath.parse("nope")) is None
            assert tile.row_count == 32
            assert decode_calls == {"columns": 0, "heap": 0}
            first = tile.column(self.PATHS[0])
            assert tile.column(self.PATHS[0]) is first  # decoded once
            assert len(tile.jsonb_rows) == 32
            assert decode_calls == {"columns": 1, "heap": 1}

    def test_update_patches_undecoded_columns(self, tmp_path):
        new_document = {"id": -5, "text": "rewritten",
                        "user": {"id": 99}, "score": -1.5}
        db = Database(StorageFormat.TILES, CONFIG)
        resident = db.load_table("t", tweets(128))
        resident.update(37, new_document)

        relation, store = make_paged_relation(tmp_path)
        relation.update(37, new_document)
        assert relation.tiles[1].dirty
        save_relation(relation, tmp_path / "updated.jtile")
        reopened = load_relation(tmp_path / "updated.jtile", store=store)
        assert reopened.document(37) == new_document
        for expected, handle in zip(resident.tiles, reopened.tiles):
            for path in self.PATHS:
                column = handle.column(path)
                assert column.to_list() == expected.column(path).to_list()
                assert np.array_equal(column.null_mask,
                                      expected.column(path).null_mask)

    def test_concurrent_first_access_decodes_once(self, tmp_path,
                                                  monkeypatch):
        restore_column = persist._restore_column

        def slow_column(*args):
            time.sleep(0.002)  # widen the decode/publish window
            return restore_column(*args)

        monkeypatch.setattr(persist, "_restore_column", slow_column)
        relation, store = make_paged_relation(tmp_path)
        workers = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for handle in relation.tiles:
                for path in self.PATHS:
                    store.set_budget(1)  # evict: every round starts cold
                    store.set_budget(None)
                    barrier = threading.Barrier(workers)
                    seen = [None] * workers

                    def read(slot, handle=handle, path=path,
                             barrier=barrier, seen=seen):
                        with handle.pinned() as tile:
                            barrier.wait(timeout=10)
                            hit = path in tile.columns
                            seen[slot] = (hit, tile.columns.get(path),
                                          tile.column(path))

                    threads = [threading.Thread(target=read, args=(slot,))
                               for slot in range(workers)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=30)
                        assert not thread.is_alive()
                    first = seen[0][1]
                    assert first is not None
                    for hit, by_get, by_column in seen:
                        assert hit
                        assert by_get is first and by_column is first
        finally:
            sys.setswitchinterval(interval)

    def test_evict_and_reload_decodes_lazily_again(self, tmp_path,
                                                   decode_calls):
        relation, store = make_paged_relation(tmp_path)
        handle = relation.tiles[2]
        uid = handle.uid
        with handle.pinned() as tile:
            before = tile.column(self.PATHS[1]).to_list()
        store.set_budget(1)
        assert not handle.resident
        store.set_budget(None)
        with handle.pinned() as reloaded:
            assert reloaded is not tile
            assert reloaded.uid == uid == handle.uid
            assert decode_calls == {"columns": 1, "heap": 0}
            assert reloaded.column(self.PATHS[1]).to_list() == before
        assert decode_calls == {"columns": 2, "heap": 0}
        assert store.loads == 2
