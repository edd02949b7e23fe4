"""Tests for on-disk persistence (save/load of relations)."""

import json
import struct

import pytest

from repro import Database, ExtractionConfig, StorageFormat
from repro.core.jsonpath import KeyPath
from repro.errors import StorageError
from repro.storage.persist import (
    MAGIC,
    _open_catalog,
    load_relation,
    open_database,
    save_database,
    save_relation,
)

CONFIG = ExtractionConfig(tile_size=32, partition_size=2)


def tweets(n):
    return [{"id": i, "create": "2020-06-01", "text": f"tweet {i}" * 3,
             "user": {"id": i % 17}, "score": float(i) / 3}
            for i in range(n)]


class TestRelationRoundTrip:
    @pytest.mark.parametrize("storage_format", [
        StorageFormat.JSON, StorageFormat.JSONB, StorageFormat.SINEW,
        StorageFormat.TILES,
    ])
    def test_documents_survive(self, tmp_path, storage_format):
        db = Database(storage_format, CONFIG)
        relation = db.load_table("t", tweets(100))
        path = tmp_path / "t.jtile"
        size = save_relation(relation, path)
        assert size > 0
        restored = load_relation(path)
        assert restored.row_count == 100
        assert list(restored.documents()) == list(relation.documents())

    def test_extracted_columns_survive(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(100))
        save_relation(relation, tmp_path / "t.jtile")
        restored = load_relation(tmp_path / "t.jtile")
        for original, loaded in zip(relation.tiles, restored.tiles):
            assert set(original.columns) == set(loaded.columns)
            for path in original.columns:
                assert original.column(path).to_list() == \
                    loaded.column(path).to_list()
                original_meta = original.header.columns[path]
                loaded_meta = loaded.header.columns[path]
                assert original_meta.column_type == loaded_meta.column_type
                assert original_meta.is_datetime == loaded_meta.is_datetime

    def test_statistics_survive(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(100))
        save_relation(relation, tmp_path / "t.jtile")
        restored = load_relation(tmp_path / "t.jtile")
        path = KeyPath.parse("user.id")
        assert restored.statistics.row_count == 100
        assert restored.statistics.key_count(path) == \
            relation.statistics.key_count(path)
        assert restored.statistics.distinct(path) == \
            pytest.approx(relation.statistics.distinct(path))

    def test_bloom_filters_survive(self, tmp_path):
        db = Database(StorageFormat.TILES,
                      ExtractionConfig(tile_size=32, threshold=0.9))
        docs = tweets(64)
        docs[0]["rare_key"] = 1  # below threshold -> bloom only
        relation = db.load_table("t", docs)
        save_relation(relation, tmp_path / "t.jtile")
        restored = load_relation(tmp_path / "t.jtile")
        assert restored.tiles[0].header.may_contain(KeyPath.parse("rare_key"))
        assert not restored.tiles[0].header.may_contain(
            KeyPath.parse("never_there"))

    def test_tiles_star_children_survive(self, tmp_path):
        db = Database(StorageFormat.TILES_STAR, CONFIG)
        docs = [{"id": i, "tags": [{"v": j} for j in range(i % 6)]}
                for i in range(64)]
        relation = db.load_table("t", docs,
                                 array_paths=[KeyPath.parse("tags")])
        save_relation(relation, tmp_path / "t.jtile")
        restored = load_relation(tmp_path / "t.jtile")
        assert "tags" in restored.children
        assert restored.children["tags"].row_count == \
            relation.children["tags"].row_count

    def test_pending_inserts_round_trip(self, tmp_path):
        """Buffered (unsealed) inserts survive save/load as a buffer —
        no forced seal of an undersized tile, no dropped rows."""
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(32))
        relation.insert({"id": 999, "fresh": True})
        tiles_before = len(relation.tiles)
        save_relation(relation, tmp_path / "t.jtile")
        assert len(relation.tiles) == tiles_before  # save did not seal
        restored = load_relation(tmp_path / "t.jtile")
        assert restored.pending_inserts == 1
        assert restored.snapshot_insert_buffer() == \
            [{"id": 999, "fresh": True}]
        restored.flush_inserts()
        assert restored.row_count == 33
        assert restored.document(32) == {"id": 999, "fresh": True}

    def test_pending_inserts_queryable_after_reopen(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("t", tweets(40))
        db.table("t").insert_many([{"id": 1000 + i} for i in range(5)])
        save_database(db, tmp_path / "store")
        reopened = open_database(tmp_path / "store")
        relation = reopened.table("t")
        assert relation.pending_inserts == 5
        relation.flush_inserts()
        assert reopened.sql("select count(*) as n from t x").scalar() == 45

    def test_save_relation_extra_round_trip(self, tmp_path):
        from repro.storage.persist import read_relation_extra

        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(32))
        path = tmp_path / "t.jtile"
        save_relation(relation, path, extra={"wal": {"epoch": 3,
                                                     "records": 17}})
        assert read_relation_extra(path) == {"wal": {"epoch": 3,
                                                     "records": 17}}
        save_relation(relation, path)
        assert read_relation_extra(path) == {}
        # the extra dict rides in the catalog, not in the relation
        assert load_relation(path).row_count == 32

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.jtile"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(StorageError):
            load_relation(path)

    def test_truncated_file_rejected(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(50))
        path = tmp_path / "t.jtile"
        save_relation(relation, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(StorageError):
            load_relation(path)


def rewrite_file(path, edit):
    """Re-write a v2 ``.jtile`` after *edit(catalog, blobs)* changed its
    catalog and/or the bytes of its blob section (a bytearray that
    starts at file offset 0, so ``blob_index`` offsets address it)."""
    catalog, _index = _open_catalog(path)
    data = path.read_bytes()
    (footer_len,) = struct.unpack("<Q", data[-13:-5])
    blobs = bytearray(data[:len(data) - 13 - footer_len])
    edit(catalog, blobs)
    footer = json.dumps(catalog).encode("utf-8")
    path.write_bytes(bytes(blobs) + footer
                     + struct.pack("<Q", len(footer)) + MAGIC)


#: the extracted columns the corruption query reads, by blob layout
_QUERIED = {"object": "text", "raw": "id"}


def _column_vector(catalog, layout):
    for column in catalog["tiles"][0]["columns"]:
        if column["path"] == _QUERIED[layout]:
            assert column["vector"]["layout"] == layout
            return column["vector"]
    raise AssertionError(f"{_QUERIED[layout]} is not extracted")


def _shorten(blob_key, layout=None, by=3):
    def edit(catalog, _blobs):
        owner = (catalog["tiles"][0] if layout is None
                 else _column_vector(catalog, layout))
        catalog["blob_index"][owner[blob_key]][1] -= by
    return edit


def _bad_utf8(catalog, blobs):
    offset, _length = catalog["blob_index"][
        _column_vector(catalog, "object")["data"]]
    blobs[offset + 8] = 0xFF  # first byte of the first value


def _oversized_prefix(catalog, blobs):
    offset, _length = catalog["blob_index"][catalog["tiles"][0]["rows"]]
    blobs[offset + 4 : offset + 8] = struct.pack("<I", 1 << 30)


def _wrong_count(catalog, blobs):
    offset, _length = catalog["blob_index"][
        _column_vector(catalog, "object")["data"]]
    (count,) = struct.unpack_from("<I", blobs, offset)
    blobs[offset : offset + 4] = struct.pack("<I", count - 1)


class TestCorruptPayloadBlobs:
    """A damaged payload blob is detected when it is decoded — at first
    access, since decode is lazy — and raised as StorageError naming
    the file and the blob, never decoded into wrong values."""

    CORRUPTIONS = {
        "object-column-cut-short": _shorten("data", "object"),
        "object-column-bad-utf8": _bad_utf8,
        "object-column-wrong-count": _wrong_count,
        "raw-column-partial-item": _shorten("data", "raw"),
        "null-bitmap-cut-short": _shorten("nulls", "raw", by=1),
        "rows-cut-short": _shorten("rows"),
        "rows-oversized-prefix": _oversized_prefix,
    }
    QUERY = ("select sum(t.data->>'id'::int) as ids, "
             "count(t.data->>'text') as texts, "
             "count(t.data->>'rare') as rares from t t")

    @staticmethod
    def documents():
        docs = tweets(32)
        for doc in docs[::8]:
            doc["rare"] = "déf"  # below the extraction threshold
        return docs

    def test_intact_file_answers(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("t", self.documents())
        expected = db.sql(self.QUERY).rows
        save_database(db, tmp_path / "store")
        assert open_database(tmp_path / "store").sql(self.QUERY).rows == \
            expected == [(sum(range(32)), 32, 4)]

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_blob_raises_storage_error(self, tmp_path, corruption):
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("t", self.documents())
        path = tmp_path / "store" / "t.jtile"
        save_database(db, tmp_path / "store")
        rewrite_file(path, self.CORRUPTIONS[corruption])
        reopened = open_database(tmp_path / "store")  # headers only
        with pytest.raises(StorageError, match=r"t\.jtile.*blob \d+"):
            reopened.sql(self.QUERY)


class TestFormatV1Compatibility:
    """The committed pre-refactor fixture must load through the new
    lazy reader: ``format_v1.jtile`` was written by the v1
    (leading-catalog, ``blob_sizes``) serializer before the footer
    index existed."""

    FIXTURE_QUERY = ("select count(*) as n, "
                     "sum(o.data->>'score'::float) as s from old o "
                     "where o.data->'user'->>'id'::int >= 3")

    @pytest.fixture
    def fixture_paths(self):
        import json
        from pathlib import Path

        directory = Path(__file__).parent / "fixtures"
        expected = json.loads(
            (directory / "format_v1_expected.json").read_text())
        return directory / "format_v1.jtile", expected

    def test_v1_file_loads_with_expected_shape(self, fixture_paths):
        path, expected = fixture_paths
        relation = load_relation(path)
        assert relation.row_count == expected["row_count"]
        assert relation.pending_inserts == expected["pending"]
        assert len(relation.tiles) == expected["tiles"]

    def test_v1_file_loads_lazily(self, fixture_paths):
        path, _expected = fixture_paths
        relation = load_relation(path)
        # v1 blobs are addressable from their cumulative sizes: no
        # tile payload is faulted in by the load itself
        assert not any(handle.resident for handle in relation.tiles)
        assert all(handle.disk_bytes > 0 for handle in relation.tiles)

    def test_v1_query_results_match(self, fixture_paths):
        path, expected = fixture_paths
        db = Database(StorageFormat.TILES, CONFIG)
        db.register("old", load_relation(path))
        rows = [list(row) for row in db.sql(self.FIXTURE_QUERY).rows]
        assert rows == expected["query"]

    def test_v1_rewrites_as_v2(self, tmp_path, fixture_paths):
        path, expected = fixture_paths
        relation = load_relation(path)
        new_path = tmp_path / "upgraded.jtile"
        save_relation(relation, new_path)
        assert new_path.read_bytes()[:5] == b"JTIL2"
        db = Database(StorageFormat.TILES, CONFIG)
        db.register("old", load_relation(new_path))
        rows = [list(row) for row in db.sql(self.FIXTURE_QUERY).rows]
        assert rows == expected["query"]


class TestTornFileSafety:
    def test_failed_save_leaves_previous_snapshot_intact(
            self, tmp_path, monkeypatch):
        from repro.storage import persist

        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(64))
        path = tmp_path / "t.jtile"
        save_relation(relation, path)
        good = path.read_bytes()

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(persist, "_relation_meta", explode)
        bigger = db.load_table("t2", tweets(96))
        with pytest.raises(RuntimeError):
            save_relation(bigger, path)
        # the crash hit the temp sibling; the published file is whole
        assert path.read_bytes() == good
        assert load_relation(path).row_count == 64

    def test_save_replaces_atomically(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        path = tmp_path / "t.jtile"
        save_relation(db.load_table("a", tweets(32)), path)
        save_relation(db.load_table("b", tweets(64)), path)
        assert load_relation(path).row_count == 64
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_missing_trailer_rejected(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        relation = db.load_table("t", tweets(50))
        path = tmp_path / "t.jtile"
        save_relation(relation, path)
        data = path.read_bytes()
        # flip the trailer magic: the file length is right but the
        # completeness proof is gone
        path.write_bytes(data[:-5] + b"XXXXX")
        with pytest.raises(StorageError):
            load_relation(path)


class TestDatabaseRoundTrip:
    def test_queries_identical_after_reopen(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        db.load_table("tweets", tweets(120))
        db.load_table("users", [{"uid": i, "name": f"u{i}"}
                                for i in range(17)])
        query = ("select u.data->>'name' as name, count(*) as n, "
                 "sum(t.data->>'score'::float) as s "
                 "from tweets t, users u "
                 "where t.data->'user'->>'id'::int = u.data->>'uid'::int "
                 "group by u.data->>'name' order by n desc, name limit 5")
        expected = db.sql(query).rows

        written = save_database(db, tmp_path / "store")
        assert set(written) == {"tweets", "users"}
        reopened = open_database(tmp_path / "store")
        assert reopened.sql(query).rows == expected

    def test_children_not_saved_twice(self, tmp_path):
        db = Database(StorageFormat.TILES_STAR, CONFIG)
        docs = [{"id": i, "tags": [{"v": j} for j in range(i % 6)]}
                for i in range(64)]
        db.load_table("t", docs, array_paths=[KeyPath.parse("tags")])
        written = save_database(db, tmp_path / "store")
        assert set(written) == {"t"}  # the child rides inside t.jtile
        reopened = open_database(tmp_path / "store")
        assert "t__tags" in reopened.tables

    def test_skipping_still_works_after_reopen(self, tmp_path):
        db = Database(StorageFormat.TILES, CONFIG)
        docs = [{"kind_a": i} for i in range(64)] + \
               [{"kind_b": i} for i in range(64)]
        db.load_table("mixed", docs,
                      config=ExtractionConfig(tile_size=32,
                                              enable_reordering=False))
        save_database(db, tmp_path / "store")
        reopened = open_database(tmp_path / "store")
        result = reopened.sql("select count(*) as n from mixed m "
                              "where m.data->>'kind_b'::int >= 0")
        assert result.scalar() == 64
        assert result.counters.tiles_skipped >= 2
