"""Morsel-driven parallel execution: results must be bit-identical to
the serial engine on every workload — the merge stage replays the
serial float-operation sequence in morsel order."""

import random
import struct

import pytest

from repro import Database, ExtractionConfig, StorageFormat
from repro.engine.morsels import pool_stats, run_ordered
from repro.engine.plan import QueryOptions
from repro.workloads import hackernews, yelp

CONFIG = ExtractionConfig(tile_size=128, partition_size=4)


def bits(value):
    """A bit-exact comparison key (floats by their IEEE bytes)."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


def assert_bit_identical(serial, parallel, context=""):
    assert serial.columns == parallel.columns, context
    assert len(serial.rows) == len(parallel.rows), context
    for row_s, row_p in zip(serial.rows, parallel.rows):
        assert [bits(v) for v in row_s] == [bits(v) for v in row_p], \
            f"{context}: {row_s!r} != {row_p!r}"


def run_both(db, sql, batch_rows=64, **kwargs):
    serial = db.sql(sql, QueryOptions(parallelism=1, batch_rows=batch_rows,
                                      **kwargs))
    parallel = db.sql(sql, QueryOptions(parallelism=8, batch_rows=batch_rows,
                                        **kwargs))
    assert_bit_identical(serial, parallel, sql)
    return serial


class TestRunOrdered:
    def test_results_in_submission_order(self):
        import time

        def slow(value):
            time.sleep(0.02 if value % 3 == 0 else 0.0)
            return value * value

        tasks = [lambda v=v: slow(v) for v in range(40)]
        assert list(run_ordered(tasks, workers=6)) == \
            [v * v for v in range(40)]

    def test_serial_fallback(self):
        assert list(run_ordered([lambda: 1, lambda: 2], workers=1)) == [1, 2]

    def test_pool_stats_shape(self):
        list(run_ordered([lambda: None] * 8, workers=4))
        stats = pool_stats()
        assert stats["tasks_completed"] >= 8
        assert stats["workers"] >= 4


class TestYelpDeterminism:
    @pytest.fixture(scope="class")
    def db(self):
        return yelp.make_database(80, StorageFormat.TILES, CONFIG)

    def test_all_yelp_queries_bit_identical(self, db):
        for number, sql in yelp.YELP_QUERIES.items():
            run_both(db, sql)

    def test_uneven_morsel_boundaries(self, db):
        # batch sizes that do not divide the tile size exercise partial
        # trailing morsels
        for batch_rows in (17, 37, 128, 4096):
            run_both(db, yelp.YELP_QUERIES[1], batch_rows=batch_rows)

    def test_counters_match_serial(self, db):
        sql = yelp.YELP_QUERIES[2]
        serial = db.sql(sql, QueryOptions(parallelism=1, batch_rows=64))
        parallel = db.sql(sql, QueryOptions(parallelism=8, batch_rows=64))
        assert serial.counters.as_dict() == parallel.counters.as_dict()


class TestCombinedLogDeterminism:
    @pytest.fixture(scope="class")
    def db(self):
        return hackernews.make_database(600, StorageFormat.TILES, CONFIG)

    def test_all_hackernews_queries_bit_identical(self, db):
        for name, sql in hackernews.HACKERNEWS_QUERIES.items():
            run_both(db, sql)

    def test_scalar_aggregates(self, db):
        run_both(db, "select count(*) as n, sum(i.data->>'score'::int) as s, "
                     "min(i.data->>'score'::int) as lo, "
                     "max(i.data->>'score'::int) as hi, "
                     "avg(i.data->>'score'::float) as a from items i")

    def test_count_distinct(self, db):
        run_both(db, "select count(distinct i.data->>'type') as n "
                     "from items i")

    def test_group_by_count_distinct_generic_path(self, db):
        run_both(db, "select i.data->>'type' as t, "
                     "count(distinct i.data->>'by') as users "
                     "from items i group by i.data->>'type'")

    def test_filtered_aggregate(self, db):
        run_both(db, "select count(*) as n, avg(i.data->>'score'::float) as a "
                     "from items i where i.data->>'score'::int > 40")

    def test_top_k(self, db):
        run_both(db, "select i.data->>'id'::int as id, "
                     "i.data->>'score'::int as score from items i "
                     "order by i.data->>'score'::int desc limit 25")


class TestShuffledWithReordering:
    @pytest.fixture(scope="class")
    def db(self):
        documents = yelp.YelpGenerator(60, seed=11).combined()
        random.Random(4).shuffle(documents)
        config = ExtractionConfig(tile_size=128, partition_size=4,
                                  enable_reordering=True)
        db = Database(StorageFormat.TILES, config)
        db.load_table("yelp", documents, StorageFormat.TILES, config)
        return db

    def test_shuffled_queries_bit_identical(self, db):
        for number, sql in yelp.YELP_QUERIES.items():
            run_both(db, sql)


class TestOtherFormatsAndModes:
    def test_json_text_format_parallel(self):
        db = hackernews.make_database(300, StorageFormat.JSON, CONFIG)
        run_both(db, "select i.data->>'type' as t, count(*) as n "
                     "from items i group by i.data->>'type'")

    def test_jsonb_format_parallel(self):
        db = hackernews.make_database(300, StorageFormat.JSONB, CONFIG)
        run_both(db, hackernews.HACKERNEWS_QUERIES[1])

    def test_parallel_with_cache_bit_identical(self):
        db = yelp.make_database(50, StorageFormat.TILES, CONFIG)
        sql = yelp.YELP_QUERIES[2]
        serial = db.sql(sql, QueryOptions(parallelism=1, tile_cache=False))
        for _ in range(2):  # second round is served from the cache
            cached = db.sql(sql, QueryOptions(parallelism=8,
                                              tile_cache=True))
            assert_bit_identical(serial, cached, sql)

    def test_explain_analyze_reports_counters(self):
        db = yelp.make_database(40, StorageFormat.TILES, CONFIG)
        text = db.explain(yelp.YELP_QUERIES[2],
                          QueryOptions(parallelism=4), analyze=True)
        assert "rows_scanned=" in text
        assert "parallelism=4" in text
        assert "pool: workers=" in text


class TestTileLayoutIndependence:
    """Batches are canonical chunks of the global row space, so where
    seals drew tile boundaries (a server flushing mid-stream) never
    changes a float fold."""

    QUERIES = [
        "select sum(t.data->>'v'::float) as s, "
        "avg(t.data->>'v'::float) as a from t t",
        "select t.data->>'g'::int as g, sum(t.data->>'v'::float) as s "
        "from t t group by t.data->>'g'::int order by g",
        "select t.data->>'k'::int as k from t t "
        "where t.data->>'v'::float > 90.0 order by k desc limit 5",
    ]

    @staticmethod
    def _db(flush_every):
        rows = [{"k": i, "g": i % 7, "v": (i * 7919 % 1000) / 10.0 + 0.1}
                for i in range(1000)]
        db = Database(StorageFormat.TILES,
                      ExtractionConfig(tile_size=64, partition_size=2,
                                       enable_reordering=False))
        db.create_table("t")
        relation = db.tables["t"]
        for start in range(0, len(rows), flush_every):
            relation.insert_many(rows[start:start + flush_every])
            relation.flush_inserts()
        return db

    @pytest.mark.parametrize("batch_rows", [48, 4096])
    def test_drifted_tiles_match_canonical(self, batch_rows):
        canonical = self._db(64)
        drifted = self._db(53)
        assert [tile.row_count for tile in
                drifted.tables["t"].manifest().tiles][:2] == [53, 53]
        for sql in self.QUERIES:
            expected = run_both(canonical, sql, batch_rows=batch_rows)
            assert_bit_identical(
                expected, run_both(drifted, sql, batch_rows=batch_rows),
                sql)
