"""The benchmark's three closed-loop workloads.

Each workload is driven by one client from one process: the client
sends its next request only after the previous one answered.  Inputs
come from the workload seed alone; the program receives only the
generated documents and queries.  Every result of the timed phase is
checked afterwards against the same queries over the same documents in
``StorageFormat.JSON``, the paper's text format (the oracle), and every
mismatch counts as a failed operation.  Oracle time is outside every
metric.

* ``micro-agg`` — small split TPC-H tables, fully resident, embedded
  ``Database.sql``: fixed per-query overhead dominates.
* ``tpch-combined-ooc`` — TPC-H over the combined relation, checkpointed
  and reopened under a tile-store budget of a quarter of its bytes:
  fallback decode, kernels and paging dominate.
* ``tweet-ingest`` — a ``repro serve`` child with WAL fsync and LSM
  tiering; the client streams tweets in batches with a query after each
  batch and a forced maintenance cycle every 16 batches.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro import Database, ExtractionConfig, StorageFormat
from repro.errors import ReproError
from repro.server.client import ServerClient
from repro.storage.tile_cache import GLOBAL_TILE_CACHE
from repro.storage.tilestore import GLOBAL_TILE_STORE
from repro.workloads import tpch
from repro.workloads.twitter import TWITTER_QUERIES, TwitterGenerator

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

TILE_SIZE = 256
PARTITION_SIZE = 8
#: set-ups per run; the median is reported
SETUP_REPEATS = 3

MICRO_SF = 0.002
MICRO_TABLES = ("lineitem", "orders", "customer", "part")
OOC_SF = 0.005
OOC_QUERIES = (1, 3, 4, 6, 12, 14)
#: tile-store budget as a share of the checkpointed bytes
OOC_BUDGET_SHARE = 0.25
TWEETS = 8000
TWEET_BATCH = 64
#: a forced maintenance cycle (LSM merges) every this many batches
TWEET_FORCE_EVERY = 16


def config() -> ExtractionConfig:
    return ExtractionConfig(tile_size=TILE_SIZE,
                            partition_size=PARTITION_SIZE)


# ----------------------------------------------------------------------
# measurement helpers


def normalize(rows) -> list:
    """Order-insensitive, float-tolerant comparison form (floats at 6
    significant digits: summation order differs between formats)."""
    def norm_value(value):
        if isinstance(value, float):
            return float(f"{value:.6g}")
        return value

    return sorted(
        (tuple(norm_value(value) for value in row) for row in rows),
        key=lambda row: tuple((value is None, str(value)) for value in row))


def json_bytes(documents) -> int:
    return sum(len(json.dumps(document)) for document in documents)


def reset_peak_rss(pid="self") -> None:
    """Restart the kernel's peak-RSS mark (VmHWM) of *pid*."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb(pid="self") -> float:
    """VmHWM of *pid* in MiB (peak resident set since the last reset)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for {pid}")


@dataclass
class Record:
    """One timed request: kind, latency in seconds, its result rows."""
    kind: str
    seconds: float
    rows: Optional[list]
    counters: object = None
    #: documents visible when the request ran (tweet-ingest queries)
    prefix: int = 0


@dataclass
class Outcome:
    """Everything one run measured, before it becomes metrics."""
    setup_s: List[float] = field(default_factory=list)
    load_s: List[float] = field(default_factory=list)
    docs_loaded: int = 0
    queries: List[Record] = field(default_factory=list)
    inserts: List[Record] = field(default_factory=list)
    elapsed_s: float = 0.0
    docs_written: int = 0
    stored_bytes: int = 0
    input_bytes: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: percentile reported as the workload's tail latency
    tail: float = 0.99
    #: traced runs only: spans and program counters per phase
    setup_spans: list = field(default_factory=list)
    phase_spans: list = field(default_factory=list)
    facts: Dict[str, object] = field(default_factory=dict)
    untraced_queries: List[Record] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: float
    workdir: Path
    #: test hook: transforms each result before the oracle check
    tamper: Optional[Callable[[str, list], list]] = None


def _closed_loop(run_one: Callable[[str], Tuple[list, object]],
                 kinds: List[str], seconds: float) -> Tuple[list, float]:
    """Send the query mix in rotation until *seconds* elapsed; returns
    the records and the wall time up to the last answer."""
    records = []
    start = perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        kind = kinds[index % len(kinds)]
        began = perf_counter()
        try:
            rows, counters = run_one(kind)
        except ReproError:
            rows, counters = None, None
        ended = perf_counter()
        records.append(Record(kind, ended - began, rows, counters))
        index += 1
        if ended >= deadline:
            return records, ended - start


def _check(outcome: Outcome, records: List[Record],
           expected: Callable[[Record], list], ctx: Context) -> None:
    """Count every errored or wrong result as failed."""
    for record in records:
        outcome.attempted += 1
        rows = record.rows
        if rows is not None and ctx.tamper is not None:
            rows = ctx.tamper(record.kind, rows)
        if rows is None or normalize(rows) != expected(record):
            outcome.failed += 1


def _scan_totals(records: List[Record]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for record in records:
        if record.counters is None:
            continue
        for name, value in record.counters.as_dict().items():
            if value:
                totals[name] = totals.get(name, 0) + value
    return totals


# ----------------------------------------------------------------------
# embedded workloads (micro-agg, tpch-combined-ooc)


def _summed_breakdown(relations) -> Dict[str, float]:
    """Seconds per bulk-load phase (``Relation.load_breakdown``)."""
    breakdown: Dict[str, float] = {}
    for relation in relations:
        for phase, seconds in relation.load_breakdown.items():
            breakdown[phase] = breakdown.get(phase, 0.0) + seconds
    return breakdown


def _micro_queries(tables: Dict[str, list], seed: int) -> Dict[str, str]:
    customers = tables["customer"]
    custkey = customers[seed % len(customers)]["c_custkey"]
    return {
        # Fig. 15: the summation micro-benchmark
        "sum": "select sum(l.data->>'l_linenumber'::int) as s "
               "from lineitem l",
        "filtered_count": "select count(*) as n from lineitem l "
                          "where l.data->>'l_quantity'::int < 10",
        "group_by": "select o.data->>'o_orderpriority' as priority, "
                    "count(*) as n from orders o "
                    "group by o.data->>'o_orderpriority' order by priority",
        "point": "select c.data->>'c_name' as name, "
                 "c.data->>'c_acctbal'::decimal as balance "
                 f"from customer c where c.data->>'c_custkey'::int = "
                 f"{custkey}",
        "top5": "select o.data->>'o_orderkey'::int as orderkey, "
                "o.data->>'o_totalprice'::decimal as price from orders o "
                "order by price desc, orderkey limit 5",
    }


class _Embedded:
    """Shared driver of the two embedded workloads: set up several
    times, warm up, run the closed loop (untraced, then traced in a
    traced run), check against the oracle."""

    tail = 0.99
    setup_repeats = SETUP_REPEATS

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.outcome = Outcome(tail=self.tail)
        self.db: Optional[Database] = None

    # subclasses: generate(), setup_once(index) -> Database,
    # queries() -> {kind: sql}, oracle_db() -> Database, facts()

    def run(self) -> Outcome:
        ctx, outcome = self.ctx, self.outcome
        self.generate()
        tracer = Tracer() if ctx.trace else None
        repeats = 1 if ctx.trace else self.setup_repeats
        if tracer is not None:
            tracer.install()
        try:
            for index in range(repeats):
                if self.db is not None:
                    self.release(self.db)
                    self.db = None
                    gc.collect()
                started = perf_counter()
                self.db = self.setup_once(index)
                outcome.setup_s.append(perf_counter() - started)
        finally:
            if tracer is not None:
                outcome.setup_spans = tracer.take()
                tracer.uninstall()
        self.after_setup()
        mix = self.queries()
        kinds = list(mix)
        db = self.db

        def run_one(kind):
            result = db.sql(mix[kind])
            return result.rows, result.counters

        for kind in kinds:  # warm-up: caches fill, lazy set-up ends
            run_one(kind)
        gc.collect()
        if tracer is not None:
            outcome.untraced_queries, _elapsed = _closed_loop(
                run_one, kinds, ctx.seconds)
            self.outcome.facts["before"] = self.program_stats()
            tracer.install()
            try:
                records, elapsed = _closed_loop(run_one, kinds,
                                                ctx.seconds)
            finally:
                outcome.phase_spans = tracer.take()
                tracer.uninstall()
            self.outcome.facts["after"] = self.program_stats()
        else:
            reset_peak_rss()
            records, elapsed = _closed_loop(run_one, kinds, ctx.seconds)
            outcome.peak_rss_mb = peak_rss_mb()
        outcome.queries, outcome.elapsed_s = records, elapsed
        outcome.facts["scan"] = _scan_totals(records)
        outcome.facts.update(self.facts())

        oracle = self.oracle_db()
        expected = {kind: normalize(oracle.sql(sql).rows)
                    for kind, sql in mix.items()}
        _check(outcome, records, lambda record: expected[record.kind], ctx)
        return outcome

    def release(self, db: Database) -> None:
        for name in list(db.tables):
            if name in db.tables:
                db.drop_table(name)

    def after_setup(self) -> None:
        pass

    def program_stats(self) -> dict:
        return {"tilestore": GLOBAL_TILE_STORE.stats(),
                "cache": GLOBAL_TILE_CACHE.stats()}

    def relations(self):
        seen = {}
        for relation in self.db.tables.values():
            seen[id(relation)] = relation
        return list(seen.values())

    def facts(self) -> dict:
        relations = self.relations()
        rows = sum(relation.row_count for relation in relations)
        levels: Dict[int, int] = {}
        for relation in relations:
            for tile in relation.manifest().tiles:
                levels[tile.header.level] = \
                    levels.get(tile.header.level, 0) + 1
        return {
            "levels": levels,
            "load_breakdown": self.breakdown,
            "docs_loaded": self.outcome.docs_loaded,
            "extracted_fraction": sum(
                relation.extracted_fraction() * relation.row_count
                for relation in relations) / max(1, rows),
        }


class MicroAgg(_Embedded):
    def generate(self) -> None:
        tables = tpch.generate_tables(MICRO_SF * self.ctx.scale,
                                      self.ctx.seed)
        self.tables = {name: tables[name] for name in MICRO_TABLES}
        docs = [doc for rows in self.tables.values() for doc in rows]
        self.outcome.docs_loaded = len(docs)
        self.outcome.input_bytes = json_bytes(docs)

    def setup_once(self, index: int) -> Database:
        db = Database(StorageFormat.TILES, config())
        for name in MICRO_TABLES:
            db.load_table(name, self.tables[name])
        self.breakdown = _summed_breakdown(
            db.tables[name] for name in MICRO_TABLES)
        return db

    def after_setup(self) -> None:
        outcome = self.outcome
        outcome.load_s = list(outcome.setup_s)
        # stored size only: the workload itself stays fully resident
        from repro.storage.persist import save_database

        written = save_database(self.db, self.ctx.workdir / "micro")
        outcome.stored_bytes = sum(written.values())

    def queries(self) -> Dict[str, str]:
        return _micro_queries(self.tables, self.ctx.seed)

    def oracle_db(self) -> Database:
        db = Database(StorageFormat.JSON, config())
        for name in MICRO_TABLES:
            db.load_table(name, self.tables[name])
        return db


class TpchCombinedOoc(_Embedded):
    #: ~30-45 queries per 10 s run support p90, not p99
    tail = 0.90
    #: each set-up bulk-loads 43k documents (12-19 s on 2 cores)
    setup_repeats = 2

    def generate(self) -> None:
        self.documents = tpch.generate_combined(OOC_SF * self.ctx.scale,
                                                self.ctx.seed)
        self.outcome.docs_loaded = len(self.documents)
        self.outcome.input_bytes = json_bytes(self.documents)

    def setup_once(self, index: int) -> Database:
        """Bulk load, checkpoint, reopen from disk."""
        outcome = self.outcome
        directory = self.ctx.workdir / f"ooc-{index}"
        started = perf_counter()
        loaded = Database(StorageFormat.TILES, config(),
                          directory=directory)
        relation = loaded.load_table("tpch_combined", self.documents)
        outcome.load_s.append(perf_counter() - started)
        self.breakdown = _summed_breakdown([relation])
        written = loaded.checkpoint()
        outcome.stored_bytes = sum(written.values())
        # release before reopening: residency is tracked by table name
        loaded.drop_table("tpch_combined")
        db = Database.open(directory, config=config())
        combined = db.tables["tpch_combined"]
        for name in tpch.TABLE_NAMES:
            db.register(name, combined)
        return db

    def release(self, db: Database) -> None:
        db.drop_table("tpch_combined")
        db.tables.clear()

    def after_setup(self) -> None:
        budget = int(self.outcome.stored_bytes * OOC_BUDGET_SHARE)
        GLOBAL_TILE_STORE.set_budget(budget)
        self.outcome.notes.append(
            f"tile-store budget {budget} B = {OOC_BUDGET_SHARE:g} x "
            f"{self.outcome.stored_bytes} checkpointed B")

    def queries(self) -> Dict[str, str]:
        return {f"q{number}": tpch.TPCH_QUERIES[number]
                for number in OOC_QUERIES}

    def oracle_db(self) -> Database:
        GLOBAL_TILE_STORE.set_budget(None)
        db = Database(StorageFormat.JSON, config())
        relation = db.load_table("tpch_combined", self.documents)
        for name in tpch.TABLE_NAMES:
            db.register(name, relation)
        return db


# ----------------------------------------------------------------------
# tweet-ingest: a `repro serve` child, one client connection


TWEET_TABLE = "tweets"
TWEET_QUERIES = {
    "q1": TWITTER_QUERIES[1],
    "q5": TWITTER_QUERIES[5],
    # replies are too sparse to be extracted: the JSONB fallback and
    # the resolved-column cache serve this path
    "filtered_count": "select count(*) as n from tweets t "
                      "where t.data->>'in_reply_to_user_id'::int < 100",
}
COUNT_SQL = "select count(*) as n from tweets t"


def server_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # forced maintenance cycles run LSM merges, not §3.2 partition
    # reorders (those are measured by the bulk load of
    # tpch-combined-ooc); reorders would take every action slot
    env["REPRO_MAINT_REORDER"] = "0"
    return env


def server_args(data_dir: Path) -> List[str]:
    return ["--data-dir", str(data_dir), "--port", "0",
            "--tile-size", str(TILE_SIZE),
            "--partition-size", str(PARTITION_SIZE),
            "--lsm",
            # compaction runs only when the client forces a cycle
            "--maintenance-interval", "86400",
            "--checkpoint-interval", "0",
            "--query-workers", str(max(1, min(2, os.cpu_count() or 1)))]


class Server:
    """One ``repro serve`` child process (traced through
    ``serve_traced.py`` when *trace_out* is given)."""

    def __init__(self, data_dir: Path, trace_out: Optional[Path] = None):
        self.trace_out = trace_out
        if trace_out is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                       "--trace-out", str(trace_out), "--"]
        self.process = subprocess.Popen(
            command + server_args(data_dir), cwd=str(ROOT),
            env=server_env(), stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[4].rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.process.pid

    def dump_trace(self) -> None:
        """Ask the traced server to write its spans now (before a
        SIGKILL, which skips the exit-time dump)."""
        self.trace_out.unlink(missing_ok=True)
        os.kill(self.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not self.trace_out.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not dump its spans")
            time.sleep(0.02)

    def wait(self, timeout: float = 60) -> None:
        self.process.wait(timeout=timeout)
        self.process.stdout.close()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.wait()


class TimedClient(ServerClient):
    """A protocol client that records (request id, command, latency) of
    every call."""

    def __init__(self, port: int):
        self.calls: List[Tuple[int, str, float]] = []
        super().__init__("127.0.0.1", port, timeout=120)

    def _call(self, command, **fields):
        began = perf_counter()
        response = super()._call(command, **fields)
        self.calls.append((self._request_id, command,
                           perf_counter() - began))
        return response


class TweetIngest:
    #: ~65 queries per 10 s run: p99 would be the maximum
    tail = 0.90

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.outcome = Outcome(tail=self.tail)

    def run(self) -> Outcome:
        ctx, outcome = self.ctx, self.outcome
        generator = TwitterGenerator(max(1, int(TWEETS * ctx.scale)),
                                     ctx.seed, evolving=True)
        self.documents = generator.stream()
        if ctx.trace:
            # untraced pass first: the baseline for trace.overhead_ratio
            baseline = self._session("untraced", traced=False)
            outcome.untraced_queries = baseline.queries
            self._session("traced", traced=True, outcome=outcome)
        else:
            for index in range(SETUP_REPEATS - 1):
                # set-up only: start, create the table, stop
                started = perf_counter()
                server = Server(ctx.workdir / f"setup-{index}")
                try:
                    client = TimedClient(server.port)
                    client.create_table(TWEET_TABLE)
                    outcome.setup_s.append(perf_counter() - started)
                    client.shutdown(checkpoint=False)
                    client.close()
                    server.wait()
                finally:
                    server.kill()
            self._session("run", traced=False, outcome=outcome)
        return outcome

    def _session(self, name: str, traced: bool,
                 outcome: Optional[Outcome] = None) -> Outcome:
        """Start a server, stream until the time is up, kill it, restart
        it and check durability; everything against the oracle."""
        ctx = self.ctx
        outcome = outcome if outcome is not None \
            else Outcome(tail=self.tail)
        data_dir = ctx.workdir / f"tweets-{name}"
        trace_out = ctx.workdir / f"{name}-spans.json" if traced else None
        started = perf_counter()
        server = Server(data_dir, trace_out)
        try:
            client = TimedClient(server.port)
            client.create_table(TWEET_TABLE)
            outcome.setup_s.append(perf_counter() - started)
            gc.collect()
            reset_peak_rss()
            self._stream(client, outcome)
            outcome.peak_rss_mb = peak_rss_mb() + peak_rss_mb(server.pid)
            if traced:
                _server_facts(outcome, client)
                server.dump_trace()
                outcome.phase_spans = _read_spans(trace_out)
            client.close()
            # durability: acknowledgements follow the WAL write.  A
            # SIGKILL keeps the OS page cache, so this does not check
            # that the fsync reached the device.
            server.kill()
        finally:
            server.kill()
        restart_out = ctx.workdir / f"{name}-restart-spans.json" \
            if traced else None
        restarted = Server(data_dir, restart_out)
        try:
            client = TimedClient(restarted.port)
            self._check_durable(client, outcome)
            written = client.checkpoint()
            outcome.stored_bytes = sum(written.values())
            client.shutdown(checkpoint=False)
            client.close()
            restarted.wait()
        finally:
            restarted.kill()
        if traced:
            outcome.setup_spans = _read_spans(restart_out)
        return outcome

    def _stream(self, client, outcome: Outcome) -> None:
        """Batches of inserts, a query after each, maintenance forced
        every TWEET_FORCE_EVERY batches, until the time is up."""
        documents = self.documents
        kinds = list(TWEET_QUERIES)
        start = perf_counter()
        deadline = start + self.ctx.seconds
        acked = batch = 0
        while acked < len(documents):
            chunk = documents[acked: acked + TWEET_BATCH]
            began = perf_counter()
            try:
                client.insert_many(TWEET_TABLE, chunk)
            except ReproError:
                outcome.inserts.append(Record("insert", 0.0, None))
                outcome.failed += 1
                break
            outcome.inserts.append(Record("insert",
                                          perf_counter() - began, []))
            acked += len(chunk)
            kind = kinds[batch % len(kinds)]
            began = perf_counter()
            try:
                result = client.query(TWEET_QUERIES[kind])
                rows, counters = result.rows, result.counters
            except ReproError:
                rows, counters = None, None
            ended = perf_counter()
            outcome.queries.append(Record(kind, ended - began, rows,
                                          counters, prefix=acked))
            batch += 1
            if batch % TWEET_FORCE_EVERY == 0:
                outcome.attempted += 1
                try:
                    client.maintenance("force")
                except ReproError:
                    outcome.failed += 1
            if ended >= deadline:
                break
        outcome.elapsed_s = perf_counter() - start
        outcome.docs_written = acked
        outcome.attempted += len(outcome.inserts)
        outcome.input_bytes = json_bytes(documents[:acked])

    def _check_durable(self, client, outcome: Outcome) -> None:
        """After the kill and restart: every acknowledged document is
        there, and the oracle results hold; then check every result of
        the timed phase against the oracle at its document prefix."""
        ctx = self.ctx
        oracle = Database(StorageFormat.JSON, config())
        relation = oracle.create_table(TWEET_TABLE)
        expected: Dict[Tuple[str, int], list] = {}
        visible = 0
        for record in outcome.queries:
            if record.prefix > visible:
                relation.insert_many(self.documents[visible:record.prefix])
                visible = record.prefix
            expected[(record.kind, record.prefix)] = normalize(
                oracle.sql(TWEET_QUERIES[record.kind]).rows)
        _check(outcome, outcome.queries,
               lambda record: expected[(record.kind, record.prefix)], ctx)

        acked = outcome.docs_written
        if visible < acked:
            relation.insert_many(self.documents[visible:acked])
        restart_checks = [Record("count", 0.0, None)] + [
            Record(kind, 0.0, None) for kind in TWEET_QUERIES]
        for record in restart_checks:
            sql = COUNT_SQL if record.kind == "count" \
                else TWEET_QUERIES[record.kind]
            try:
                record.rows = client.query(sql).rows
            except ReproError:
                record.rows = None
        final = {kind: normalize(oracle.sql(sql).rows)
                 for kind, sql in TWEET_QUERIES.items()}
        final["count"] = [(acked,)]
        _check(outcome, restart_checks,
               lambda record: final[record.kind], ctx)


def _server_facts(outcome: Outcome, client) -> None:
    """Program counters of a traced session: the server's ``stats``
    (cache, residency, LSM status) and the per-query scan counters."""
    stats = client.stats(TWEET_TABLE)
    table = stats["tables"][TWEET_TABLE]
    levels = {int(level): report["tiles"]
              for level, report in table["lsm"]["levels"].items()}
    rows = sum(report["rows"] for report in table["lsm"]["levels"].values())
    outcome.facts.update(
        scan=_scan_totals(outcome.queries),
        after={"tilestore": stats["residency"], "cache": stats["cache"]},
        lsm=table["lsm"]["counters"],
        levels=levels,
        extracted_fraction=sum(
            report["extracted_fraction"] * report["rows"]
            for report in table["lsm"]["levels"].values()) / max(1, rows),
        calls=list(client.calls))


def _read_spans(path: Path) -> list:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)["spans"]]


WORKLOADS = {
    "micro-agg": MicroAgg,
    "tpch-combined-ooc": TpchCombinedOoc,
    "tweet-ingest": TweetIngest,
}


def run_workload(ctx: Context) -> Outcome:
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    try:
        return WORKLOADS[ctx.workload](ctx).run()
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
