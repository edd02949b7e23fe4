"""Span tracing from outside the program.

The tracer wraps functions of the ``repro`` modules at their layer
boundaries without editing them: every reference to a target function
(the defining module and every ``repro`` module that imported it by
name) or the class attribute of a target method is replaced by a
wrapper that records one span per call.  Only calls that happen at most
once per query, morsel, tile or batch are targets; per-value costs come
from the program's own counters instead.

A span is ``(name, start, end, span_id, parent_id, extra)``.  The
parent is the innermost traced call active on the same thread, so a
layer's self time is its duration minus its children's.  A recursive
call of a function that is already active on the thread is not
recorded again: each span covers the outermost call only.  Spans stay
in memory until :meth:`Tracer.take` hands them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _first_len(args, kwargs, result):
    return len(args[0])


def _request_id(args, kwargs, result):
    return args[1].get("id")


def _returned(args, kwargs, result):
    return result


#: (module, attribute path, span name, extra) — the layer boundaries.
#: ``extra`` derives a per-span number from the call (task counts,
#: documents per tile, protocol request ids, merge outcomes).
TARGETS: Sequence[Tuple[str, str, str, Optional[Callable]]] = (
    # repro.sql
    ("repro.sql.parser", "parse", "sql.parse", None),
    ("repro.sql.binder", "Binder.bind", "sql.bind", None),
    # repro.engine
    ("repro.engine.optimizer", "Planner.plan_block", "engine.plan", None),
    ("repro.engine.fragments", "plan_fragments", "engine.plan_fragments",
     None),
    ("repro.engine.fragments", "execute_fragments_local",
     "engine.fragments.exec", None),
    ("repro.engine.partial", "execute_partial", "engine.partial.exec",
     None),
    ("repro.engine.partial", "execute_build_fragment",
     "engine.partial.exec", None),
    ("repro.engine.partial", "execute_probe_fragment",
     "engine.partial.exec", None),
    ("repro.engine.partial", "merge_partial_results",
     "engine.partial.merge", None),
    ("repro.engine.morsels", "run_ordered", "engine.morsels.run",
     _first_len),
    ("repro.engine.scan", "ScanCounters.merge",
     "engine.scan.counters_merge", None),
    ("repro.engine.scan", "TableScan.resolve_morsel", "engine.scan.resolve",
     None),
    ("repro.engine.scan", "TableScan._decode_fallback_group", "jsonb.shred",
     None),
    ("repro.engine.kernels", "GroupByKernel.update",
     "engine.kernels.groupby", None),
    ("repro.engine.operators", "Operator.materialize",
     "engine.operators.materialize", None),
    # repro.tiles / repro.mining
    ("repro.tiles.extractor", "build_tile", "tiles.build_tile",
     _first_len),
    ("repro.mining.fpgrowth", "FPGrowth.mine", "mining.mine", None),
    ("repro.tiles.extractor", "choose_schema", "mining.choose_schema",
     None),
    ("repro.tiles.reorder", "reorder_transactions", "tiles.reorder", None),
    # repro.storage
    ("repro.storage.tilestore", "TileStore.pin", "storage.tilestore.pin",
     None),
    ("repro.storage.persist", "save_relation", "storage.persist.checkpoint",
     None),
    ("repro.storage.persist", "open_database", "storage.persist.open",
     None),
    ("repro.storage.relation", "Relation.flush_inserts",
     "storage.relation.seal", None),
    # repro.lsm / repro.maintenance
    ("repro.storage.relation", "Relation.compact_tiles", "lsm.compact",
     _returned),
    ("repro.lsm.compactor", "plan_compactions", "lsm.plan", None),
    ("repro.maintenance.daemon", "MaintenanceDaemon.run_cycle",
     "maintenance.cycle", None),
    # repro.server
    ("repro.server.wal", "WriteAheadLog.append_many", "server.wal.append",
     None),
    ("repro.server.locks", "ReadWriteLock.acquire_write",
     "server.locks.write_wait", None),
    ("repro.server.locks", "ReadWriteLock.acquire_read",
     "server.locks.read_wait", None),
    ("repro.server.server", "JsonTilesServer._dispatch", "server.dispatch",
     _request_id),
)

Span = Tuple[str, float, float, int, int, object]


class Tracer:
    """Wraps the :data:`TARGETS` and collects their spans in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (owner object, attribute, original) for every replacement
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, extra: Optional[Callable]):
        spans, ids = self.spans, self._ids

        if inspect.iscoroutinefunction(fn):
            # coroutines interleave on one thread, so they take no
            # part in the parent stack; their spans are roots
            @functools.wraps(fn)
            async def traced_coroutine(*args, **kwargs):
                start = perf_counter()
                result = await fn(*args, **kwargs)
                spans.append((name, start, perf_counter(), next(ids), 0,
                              extra(args, kwargs, result) if extra
                              else None))
                return result
            return traced_coroutine

        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            for active_name, _span_id in stack:
                if active_name == name:
                    return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1][1] if stack else 0
            stack.append((name, span_id))
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((name, start, end, span_id, parent,
                              extra(args, kwargs, result) if extra
                              else None))
        return traced

    def install(self) -> "Tracer":
        """Replace every target by its traced wrapper."""
        # import everything first: a module imported after a patch
        # would bind the wrapper by name and keep it past uninstall
        for module_name, _attr_path, _name, _extra in TARGETS:
            importlib.import_module(module_name)
        for module_name, attr_path, name, extra in TARGETS:
            module = sys.modules[module_name]
            if "." in attr_path:
                class_name, method = attr_path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original, extra))
                continue
            original = getattr(module, attr_path)
            wrapper = self._wrap(name, original, extra)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (loaded_name == "repro"
                                          or loaded_name.startswith("repro.")):
                    continue
                for attribute, value in list(vars(loaded).items()):
                    if value is original:
                        self._patches.append((loaded, attribute, original))
                        setattr(loaded, attribute, wrapper)
        return self

    def uninstall(self) -> None:
        """Restore every replaced reference."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def take(self) -> List[Span]:
        """Hand out the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        del self.spans[: len(taken)]
        return taken


# ----------------------------------------------------------------------
# span arithmetic


class SpanSet:
    """Totals, counts and self times over a list of spans."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = list(spans)
        self._by_name: Dict[str, List[Span]] = {}
        child_time: Dict[int, float] = {}
        for span in self.spans:
            self._by_name.setdefault(span[0], []).append(span)
            if span[4]:
                child_time[span[4]] = child_time.get(span[4], 0.0) \
                    + span[2] - span[1]
        self._child_time = child_time

    def named(self, name: str) -> List[Span]:
        return self._by_name.get(name, [])

    def count(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str) -> float:
        """Seconds spent in spans of *name*."""
        return sum(span[2] - span[1] for span in self.named(name))

    def self_total(self, name: str) -> float:
        """Seconds spent in spans of *name* outside traced children."""
        return sum(span[2] - span[1] - self._child_time.get(span[3], 0.0)
                   for span in self.named(name))

    def extra_sum(self, name: str) -> float:
        return sum(span[5] or 0 for span in self.named(name))

    def children_named(self, parent_name: str, child_name: str) -> List[Span]:
        parents = {span[3] for span in self.named(parent_name)}
        return [span for span in self.named(child_name) if span[4] in parents]
