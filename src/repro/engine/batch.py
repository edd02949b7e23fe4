"""Column batches: the unit of data flow between operators.

The engine is vectorized: every operator consumes and produces batches
of named :class:`~repro.storage.column.ColumnVector` columns.  One scan
batch corresponds to one tile, so extracted columns flow straight from
the tile storage into expression evaluation without per-tuple work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.storage.column import ColumnVector


class Batch:
    """A fixed-length collection of named column vectors."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[str, ColumnVector], length: int):
        for name, column in columns.items():
            if len(column) != length:
                raise ExecutionError(
                    f"column {name!r} has {len(column)} rows, batch has {length}"
                )
        self.columns = columns
        self.length = length

    def column(self, name: str) -> ColumnVector:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(f"unknown column {name!r} in batch "
                                 f"(have {sorted(self.columns)})") from None

    def filter(self, keep: np.ndarray) -> "Batch":
        kept = {name: column.filter(keep) for name, column in self.columns.items()}
        return Batch(kept, int(np.count_nonzero(keep)))

    def take(self, indices: np.ndarray) -> "Batch":
        taken = {name: column.take(indices) for name, column in self.columns.items()}
        return Batch(taken, len(indices))

    def with_columns(self, extra: Dict[str, ColumnVector]) -> "Batch":
        merged = dict(self.columns)
        merged.update(extra)
        return Batch(merged, self.length)

    def __len__(self) -> int:
        return self.length


def concat_batches(batches: List[Batch]) -> Optional[Batch]:
    """Concatenate batches with identical schemas (None when empty)."""
    batches = [batch for batch in batches if batch.length > 0]
    if not batches:
        return None
    if len(batches) == 1:
        return batches[0]
    names = list(batches[0].columns)
    columns = {}
    for name in names:
        vectors = [batch.column(name) for batch in batches]
        data = np.concatenate([vector.data for vector in vectors])
        null_mask = np.concatenate([vector.null_mask for vector in vectors])
        columns[name] = ColumnVector(vectors[0].type, data, null_mask)
    return Batch(columns, sum(batch.length for batch in batches))


def rows_of(batch: Optional[Batch], names: Sequence[str]) -> List[tuple]:
    """The result rows of *batch* as tuples over *names* (none when
    *batch* is ``None``)."""
    if batch is None:
        return []
    vectors = [batch.column(name) for name in names]
    return [tuple(vector.value(row) for vector in vectors)
            for row in range(batch.length)]
