"""Per-layer metrics from a traced run's spans and program counters.

Every metric is normalised by the unit of work named in it: per query
of the traced timed phase, per tile built, per sealed document, per
batch, per merge or per lock acquisition.  Every ratio states its base
in the comment beside it.  Layers a workload does not exercise report
0, which is itself the prediction for that workload (for example no
tile loads on the fully resident ``micro-agg``).
"""

from __future__ import annotations

import math
from statistics import mean
from typing import Dict, Tuple

from tracing import SpanSet

LOAD_PHASES = ("parse", "write_jsonb", "mining", "reorder", "extract",
               "total")


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered) - 1e-9))
    return ordered[rank - 1]


def kind_p90_geomean(records) -> float:
    """Geo-mean over query kinds of each kind's p90 latency, in ms."""
    by_kind = {}
    for record in records:
        by_kind.setdefault(record.kind, []).append(record.seconds * 1e3)
    if not by_kind:
        return 0.0
    return math.exp(sum(math.log(percentile(values, 0.90))
                        for values in by_kind.values()) / len(by_kind))


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def per_layer(outcome) -> Dict[str, Tuple[float, str]]:
    phase = SpanSet(outcome.phase_spans)
    both = SpanSet(list(outcome.setup_spans) + list(outcome.phase_spans))
    setup = SpanSet(outcome.setup_spans)
    facts = outcome.facts
    queries = max(1, len(outcome.queries))
    scan = facts.get("scan", {})
    metrics: Dict[str, Tuple[float, str]] = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    def per_query_us(*names):
        return sum(phase.total(name) for name in names) / queries * 1e6

    def per_query_ms(*names):
        return per_query_us(*names) / 1e3

    # repro.sql
    put("sql.parse_us", per_query_us("sql.parse"), "us")
    put("sql.bind_us", per_query_us("sql.bind"), "us")
    # repro.engine
    put("engine.plan_us",
        per_query_us("engine.plan", "engine.plan_fragments"), "us")
    put("engine.fragments.exec_ms", per_query_ms("engine.fragments.exec"),
        "ms")
    put("engine.partial.exec_ms", per_query_ms("engine.partial.exec"), "ms")
    put("engine.partial.merge_us", per_query_us("engine.partial.merge"),
        "us")
    put("engine.morsels.tasks_per_query",
        phase.extra_sum("engine.morsels.run") / queries, "count")
    put("engine.scan.counters_merge_calls",
        phase.count("engine.scan.counters_merge") / queries, "count")
    put("engine.scan.counters_merge_us",
        per_query_us("engine.scan.counters_merge"), "us")
    put("engine.scan.resolve_ms", per_query_ms("engine.scan.resolve"), "ms")
    put("engine.kernels.groupby_ms", per_query_ms("engine.kernels.groupby"),
        "ms")
    # base: rows the gated kernels saw (vectorized + declined)
    put("engine.kernels.kernel_row_ratio",
        _ratio(scan.get("kernel_rows", 0),
               scan.get("kernel_rows", 0) + scan.get("fallback_rows", 0)),
        "ratio")
    put("engine.operators.materialize_ms",
        per_query_ms("engine.operators.materialize"), "ms")

    # scan counters (QueryResult.counters of every traced query)
    scanned_tiles = scan.get("tiles_total", 0) - scan.get("tiles_skipped", 0)
    # base: tiles the scans enumerated
    put("scan.tiles_skipped_ratio",
        _ratio(scan.get("tiles_skipped", 0), scan.get("tiles_total", 0)),
        "ratio")
    put("scan.blocks_pruned_per_query",
        scan.get("blocks_pruned", 0) / queries, "count")
    # base: tiles scanned; counts (tile, path) resolutions served only
    # by the JSONB fallback, so it can exceed 1
    put("scan.fallback_tile_ratio",
        _ratio(scan.get("fallback_tiles", 0), scanned_tiles), "ratio")
    put("scan.fallback_lookups_per_query",
        scan.get("fallback_lookups", 0) / queries, "count")
    # base: (row, path) fallback decodes needed = skipped + shredded
    put("scan.fallback_rows_skipped_ratio",
        _ratio(scan.get("fallback_rows_skipped", 0),
               scan.get("fallback_rows_skipped", 0)
               + scan.get("shred_paths", 0)), "ratio")
    # base: tiles scanned
    put("scan.latemat_decline_ratio",
        _ratio(scan.get("latemat_declines", 0), scanned_tiles), "ratio")

    # repro.jsonb
    put("jsonb.shred_ms", per_query_ms("jsonb.shred"), "ms")
    put("jsonb.shred_passes_per_query",
        scan.get("shred_passes", 0) / queries, "count")
    breakdown = facts.get("load_breakdown", {})
    sealed_tiles = both.children_named("storage.relation.seal",
                                       "tiles.build_tile")
    sealed_docs = sum(span[5] or 0 for span in sealed_tiles)
    if breakdown.get("write_jsonb"):
        # bulk load: the loader's own JSONB-encode phase per document
        encode_us = breakdown["write_jsonb"] / max(
            1, facts.get("docs_loaded", 0)) * 1e6
    else:
        # ingest: seal self time (JSONB encode of the sealed buffer,
        # outside tile build and lock waits) per sealed document
        encode_us = _ratio(both.self_total("storage.relation.seal"),
                           sealed_docs) * 1e6
    put("jsonb.encode_us_per_doc", encode_us, "us")

    # repro.mining / repro.tiles
    tiles_built = both.count("tiles.build_tile")
    put("mining.mine_ms_per_tile",
        _ratio(both.total("mining.mine") + both.total("mining.choose_schema"),
               tiles_built) * 1e3, "ms")
    put("tiles.build_tile_ms",
        _ratio(both.total("tiles.build_tile"), tiles_built) * 1e3, "ms")
    put("tiles.reorder_ms_per_partition",
        _ratio(both.total("tiles.reorder"), both.count("tiles.reorder"))
        * 1e3, "ms")
    # base: rows; extracted (path, row) share as the program reports it
    put("tiles.extracted_fraction", facts.get("extracted_fraction", 0.0),
        "ratio")
    for name in LOAD_PHASES:
        put(f"storage.load_breakdown.{name}_s", breakdown.get(name, 0.0),
            "s")

    # repro.storage
    before = facts.get("before", {})
    after = facts.get("after", {})

    def delta(kind, key):
        return after.get(kind, {}).get(key, 0) \
            - before.get(kind, {}).get(key, 0)

    loads = delta("tilestore", "loads")
    pins = phase.count("storage.tilestore.pin")
    put("storage.tilestore.loads_per_query", loads / queries, "count")
    put("storage.tilestore.load_mb_per_query",
        delta("tilestore", "load_bytes") / 2**20 / queries, "MB")
    put("storage.tilestore.pin_ms", per_query_ms("storage.tilestore.pin"),
        "ms")
    # base: pin calls; a hit found the payload resident
    put("storage.tilestore.pin_hit_ratio",
        _ratio(pins - loads, pins) if pins else 0.0, "ratio")
    put("storage.persist.checkpoint_s",
        _ratio(setup.total("storage.persist.checkpoint"),
               setup.count("storage.persist.checkpoint")), "s")
    put("storage.persist.open_s",
        _ratio(setup.total("storage.persist.open"),
               setup.count("storage.persist.open")), "s")
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    # base: resolved-column cache lookups
    put("storage.tile_cache.hit_ratio", _ratio(hits, hits + misses),
        "ratio")
    put("storage.tile_cache.invalidations_per_seal",
        _ratio(delta("cache", "invalidations"), len(sealed_tiles)), "count")
    sealing = {span[4] for span in sealed_tiles}
    seal_seconds = sum(span[2] - span[1]
                       for span in both.named("storage.relation.seal")
                       if span[3] in sealing)
    put("storage.relation.seal_ms_per_tile",
        _ratio(seal_seconds, len(sealed_tiles)) * 1e3, "ms")

    # repro.lsm / repro.maintenance
    merges = sum(1 for span in phase.named("lsm.compact") if span[5])
    put("lsm.merges", merges, "count")
    put("lsm.compact_ms_per_merge",
        _ratio(phase.total("lsm.compact"), merges) * 1e3, "ms")
    put("lsm.plan_us",
        _ratio(phase.total("lsm.plan"), phase.count("lsm.plan")) * 1e6, "us")
    put("maintenance.cycle_ms",
        _ratio(phase.total("maintenance.cycle"),
               phase.count("maintenance.cycle")) * 1e3, "ms")
    lsm = facts.get("lsm", {})
    # base: JSON text bytes the client sent
    put("lsm.write_amplification",
        _ratio(lsm.get("bytes_written", 0), outcome.input_bytes), "ratio")
    levels = facts.get("levels", {})
    for level in range(3):
        put(f"lsm.level_tiles.L{level}", levels.get(level, 0), "count")

    # repro.server
    put("server.wal.append_ms_per_batch",
        _ratio(phase.total("server.wal.append"),
               phase.count("server.wal.append")) * 1e3, "ms")
    put("server.locks.write_wait_ms",
        _ratio(phase.total("server.locks.write_wait"),
               phase.count("server.locks.write_wait")) * 1e3, "ms")
    put("server.locks.read_wait_ms",
        _ratio(phase.total("server.locks.read_wait"),
               phase.count("server.locks.read_wait")) * 1e3, "ms")
    served = {span[5]: span[2] - span[1]
              for span in phase.named("server.dispatch")}
    gaps = [seconds - served[request_id]
            for request_id, _command, seconds in facts.get("calls", [])
            if request_id in served]
    put("server.dispatch_ms", mean(gaps) * 1e3 if gaps else 0.0, "ms")
    inserts = [record.seconds * 1e3 for record in outcome.inserts]
    put("server.insert_p50_ms", percentile(inserts, 0.50), "ms")
    put("server.insert_p99_ms", percentile(inserts, 0.99), "ms")

    # untraced ÷ traced per-kind p90 latency of the same run, i.e. the
    # traced query rate as a share of the untraced one, measured with
    # the statistic that repeats across runs (see run.DECLARED)
    put("trace.overhead_ratio",
        _ratio(kind_p90_geomean(outcome.untraced_queries),
               kind_p90_geomean(outcome.queries)), "ratio")
    return metrics
