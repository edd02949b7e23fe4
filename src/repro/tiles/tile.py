"""The tile: a chunk of tuples with materialized columns + JSONB rows.

A tile owns its slice of binary JSON documents (the always-correct
fallback representation) and, when the storage format extracts, one
:class:`~repro.storage.column.ColumnVector` per materialized key path.
Scans stream the vectors; accesses to non-extracted paths (or to
type-conflicting NULL slots) traverse the JSONB bytes per tuple.

A tile paged in from disk arrives with its payload bytes read but not
decoded: each column, and the JSONB heap, is decoded on first access,
so a scan pays only for the key paths it touches.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Mapping
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.core.jsonpath import KeyPath
from repro.jsonb.access import JsonbValue
from repro.storage.column import ColumnVector
from repro.tiles.header import TileHeader

#: process-unique tile identities; sealing, recomputation and
#: checkpoint reload all build new Tile objects, so a uid never
#: refers to stale contents — the resolved-tile cache keys on it.
#: Paged tiles are the one exception: their TileHandle allocates the
#: uid once and re-stamps it onto every reload, because an evicted and
#: re-read tile is bit-identical to the one it replaces (in-place
#: mutation marks the handle dirty, and dirty tiles are never evicted).
_uid_counter = itertools.count(1)


def new_tile_uid() -> int:
    """Allocate a fresh process-unique tile identity (used by
    :class:`repro.storage.tilestore.TileHandle` for paged tiles)."""
    return next(_uid_counter)


class TileColumns(Mapping):
    """The extracted columns of a tile: a read-only ``KeyPath`` ->
    :class:`ColumnVector` mapping.

    Columns of a built tile are *decoded* from the start.  A paged
    tile's columns start *pending*: each maps to a zero-argument
    decoder over the column's bytes, run on the first ``get`` /
    ``[]`` (``items()`` and ``values()`` decode every column).  The
    decoded vector replaces the decoder, dropping the raw bytes.
    Iteration, ``in`` and ``len`` never decode.

    Concurrent first accesses (two morsels of one pinned tile) decode
    once under the lock, and a vector is published before its pending
    entry is removed, so a reader never sees a known path as absent —
    that would silently reroute it to the JSONB fallback.
    """

    __slots__ = ("_paths", "_decoded", "_pending", "_lock")

    def __init__(self, decoded: Optional[Dict[KeyPath, ColumnVector]] = None,
                 pending: Optional[Dict[KeyPath,
                                        Callable[[], ColumnVector]]] = None):
        self._decoded = dict(decoded or {})
        self._pending = dict(pending or {})
        self._paths = dict.fromkeys(itertools.chain(self._decoded,
                                                    self._pending))
        self._lock = threading.Lock()

    def __getitem__(self, path: KeyPath) -> ColumnVector:
        column = self._decoded.get(path)
        if column is None:
            with self._lock:
                column = self._decoded.get(path)
                if column is None:
                    column = self._pending[path]()
                    self._decoded[path] = column
                    del self._pending[path]
        return column

    def get(self, path: KeyPath, default=None):
        column = self._decoded.get(path)
        if column is not None:
            return column
        return self[path] if path in self._paths else default

    def __contains__(self, path: object) -> bool:
        return path in self._paths

    def __iter__(self) -> Iterator[KeyPath]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


class Tile:
    __slots__ = ("header", "columns", "first_row", "uid", "_rows",
                 "_decode_rows", "_lock")

    def __init__(self, header: TileHeader, columns: Dict[KeyPath, ColumnVector],
                 jsonb_rows: List[bytes], first_row: int = 0):
        self.header = header
        self.columns = TileColumns(columns)
        self.first_row = first_row
        self.uid = next(_uid_counter)
        self._rows: Optional[List[bytes]] = jsonb_rows
        self._decode_rows: Optional[Callable[[], List[bytes]]] = None
        self._lock = threading.Lock()

    @classmethod
    def paged(cls, header: TileHeader, columns: TileColumns,
              decode_rows: Callable[[], List[bytes]],
              first_row: int) -> "Tile":
        """A tile whose payload bytes are read but not yet decoded:
        *columns* holds pending decoders and *decode_rows* produces the
        JSONB heap on the first :attr:`jsonb_rows` access."""
        tile = cls(header, {}, None, first_row)
        tile.columns = columns
        tile._decode_rows = decode_rows
        return tile

    def __reduce__(self):
        # locks do not pickle; the parallel loader ships built tiles
        # (always fully decoded) back from its worker processes
        return (_rebuild_tile, (self.header, dict(self.columns.items()),
                                self.jsonb_rows, self.first_row, self.uid))

    @property
    def jsonb_rows(self) -> List[bytes]:
        rows = self._rows
        if rows is None:
            with self._lock:
                rows = self._rows
                if rows is None:
                    rows = self._decode_rows()
                    self._rows = rows
                    self._decode_rows = None
        return rows

    @jsonb_rows.setter
    def jsonb_rows(self, rows: List[bytes]) -> None:
        self._rows = rows
        self._decode_rows = None

    @property
    def row_count(self) -> int:
        return self.header.row_count

    def column(self, path: KeyPath) -> Optional[ColumnVector]:
        return self.columns.get(path)

    def jsonb_value(self, row: int) -> JsonbValue:
        return JsonbValue(self.jsonb_rows[row])

    def lookup_fallback(self, row: int, path: KeyPath) -> Optional[JsonbValue]:
        """Per-tuple JSONB traversal for a non-extracted path."""
        return JsonbValue(self.jsonb_rows[row]).get_path(path)

    def row_ids(self) -> np.ndarray:
        """Global row ids of the tuples in this tile."""
        return np.arange(self.first_row, self.first_row + self.row_count,
                         dtype=np.int64)

    def size_bytes(self, shared_strings: bool = False) -> int:
        """Footprint of the materialized columns (the +Tiles overhead of
        Table 6; the JSONB rows are accounted separately).  See
        :meth:`ColumnVector.nbytes` for the shared-strings mode."""
        return sum(column.nbytes(shared_strings)
                   for column in self.columns.values())

    def jsonb_size_bytes(self) -> int:
        return sum(len(row) for row in self.jsonb_rows)


def _rebuild_tile(header, columns, jsonb_rows, first_row, uid) -> Tile:
    tile = Tile(header, columns, jsonb_rows, first_row)
    tile.uid = uid
    return tile
