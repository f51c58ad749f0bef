"""Shared-nothing process-pool execution of partitioned scan levels.

The virtual cost model charges partitioned scans as a per-partition
makespan; a thread pool cannot make the wall clock follow it (the GIL
serializes the scan), so this module fans the driving scan level of
:meth:`QueryPlan.execute <repro.relalg.planner.QueryPlan.execute>` out over
real OS processes:

* :class:`ProcessScanExecutor` keeps a persistent pool of **spawn-safe
  worker processes**.  Each worker owns a disjoint subset of every table's
  partition shards (shard ``pid`` belongs to worker ``pid % workers``) as
  plain columnar value lists — shared-nothing, no locks, no shared memory —
  scanned vectorized whenever the driving filters batch-compile.
* Compiled plans are closures over live tables and cannot pickle, so the
  executor ships the :class:`~repro.relalg.planner.PlanSpec` lowering of a
  plan instead: plain expression ASTs plus the slot layout.  Workers
  re-compile the driving scan level locally through
  :mod:`repro.relalg.compile` and cache the result per spec generation (the
  parent's plan cache keys plans by SQL text and per-table schema epoch, so
  a re-planned statement ships a fresh spec exactly once).
* Shards are kept in sync by **partition-routed forwarding**: every DML bumps
  the mutated :attr:`Partition.version
  <repro.relalg.storage.Partition.version>`, and the next fan-out forwards
  only the stale shards — each to the single worker that owns it —
  piggybacked on the scan request (one message per worker per statement).
  The version counter describes **committed** state only (an open
  transaction bumps it at COMMIT, never while staging), and
  :meth:`Table.partition_snapshot <repro.relalg.storage.Table.partition_snapshot>`
  filters staged rows out through the undo chain, so a forwarded shard never
  contains uncommitted data; the database additionally falls back to the
  sequential scan while its own transaction has staged DML, so the local
  session still reads its own writes.
* A scan request fans the driving level's partitions out to their owners;
  every worker scans its shards, applies the driving level's re-compiled
  residual filters and returns the surviving rows plus the scanned count per
  partition — workers only scan and filter, they never join or aggregate.
  The parent merges the chunks **in partition order**, so the
  downstream join levels, aggregation, ordering and the
  :class:`~repro.relalg.rowset.QueryStats` partition attribution are
  byte-identical to the sequential enumeration.

Failure model: a worker that dies (killed, crashed, hung beyond the
request timeout) surfaces a typed :class:`ExecutionError` on the statement
that observed it — never a hang — and tears the pool down; the next
statement transparently rebuilds it (fresh workers re-sync their shards on
demand).  Worker-side *engine* errors (e.g. a filter dividing by zero)
travel back as typed errors too and leave the pool running.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.relalg.compile import (
    ExecContext,
    SlotLayout,
    compile_batch_predicate,
    compile_row_expr,
)
from repro.relalg.errors import ExecutionError
from repro.relalg.planner import PlanSpec, QueryPlan, filter_rows, lower_plan
from repro.relalg.rowset import QueryStats
from repro.relalg.sqlast import SelectStatement
from repro.relalg.storage import gather_rows

__all__ = [
    "ProcessScanExecutor",
    "DEFAULT_SPEC_CACHE_LIMIT",
    "DEFAULT_WORKER_TIMEOUT",
]

#: Seconds a statement waits for one worker's reply before declaring the
#: worker hung and rebuilding the pool.
DEFAULT_WORKER_TIMEOUT = 60.0

#: Compiled plan specs a worker retains before evicting the oldest.  The
#: parent mirrors the same FIFO rule over the spec ids it believes each
#: worker holds (see :class:`_Worker.note_spec`), so both sides always agree
#: on what is cached — an evicted spec is simply re-shipped.  The parent
#: reads the limit once per fan-out and sends it inside every scan request,
#: so the two sides can never run different limits.
DEFAULT_SPEC_CACHE_LIMIT = 512

#: Process-global spec generation counter: ids stay unique even when one
#: shared executor pool serves several databases (or several executors share
#: a plan object).
_SPEC_IDS = itertools.count(1)


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #


def _no_subquery_plans(select: SelectStatement) -> QueryPlan:
    """Worker-side subquery callback: workers hold no catalog to plan in.

    Specs with scalar subqueries in the driving filters are never shipped
    (see :attr:`PlanSpec.process_eligible`), so reaching this is an engine
    bug, reported as a typed error.
    """
    raise ExecutionError(
        "scalar subqueries cannot run in a process worker (the plan spec "
        "is not process-eligible)"
    )


def _compile_driving_scan(spec: PlanSpec):
    """Rehydrate the driving scan level of a shipped spec into closures.

    The worker-side counterpart of :func:`~repro.relalg.planner.lower_plan`:
    rebuild the slot layout from column names, re-compile the filter ASTs
    with :func:`~repro.relalg.compile.compile_row_expr` (the subquery
    callback is :func:`_no_subquery_plans`).  When the filters also
    batch-compile (:func:`~repro.relalg.compile.compile_batch_predicate`),
    the worker scans its columnar shards vectorized — one predicate dispatch
    per shard — and only materialises the surviving rows.
    """
    layout = SlotLayout.from_column_names(spec.bindings)
    filter_fns = [
        compile_row_expr(expr, layout, _no_subquery_plans)
        for expr in spec.filter_asts
    ]
    batch_fn = (
        compile_batch_predicate(spec.filter_asts, layout, spec.offset, spec.end)
        if spec.filter_asts
        else None
    )
    return (
        spec.table_uid, spec.offset, spec.end, spec.width, filter_fns, batch_fn
    )


def _shard_rows(shard) -> List[Tuple[Any, ...]]:
    """The row-tuple view of a columnar shard, materialised once and cached."""
    rows = shard[2]
    if rows is None:
        count, cols = shard[0], shard[1]
        rows = list(zip(*cols)) if count else []
        shard[2] = rows
    return rows


def _scan_shard(shards, entry, ctx, pid):
    """Scan + filter one owned shard: ``(surviving rows, scanned count)``."""
    table_uid, offset, end, width, filter_fns, batch_fn = entry
    shard = shards.get((table_uid, pid))
    if shard is None:
        raise ExecutionError(
            f"worker owns no shard (table uid {table_uid}, partition "
            f"{pid}); sync protocol violated"
        )
    scanned = shard[0]
    if not filter_fns:
        return _shard_rows(shard), scanned
    if batch_fn is not None:
        cols = shard[1]
        try:
            sel = batch_fn(cols, scanned, ctx)
        except Exception:  # lint: allow-broad-except
            pass  # the row filters below raise the row engine's error
        else:
            if sel is None:
                return _shard_rows(shard), scanned
            return gather_rows(cols, sel), scanned
    return filter_rows(
        _shard_rows(shard), filter_fns, ctx, offset, end, width
    ), scanned


def _worker_scan(shards, entry, params, pids):
    """Scan + filter the requested shards; returns per-partition chunks."""
    ctx = ExecContext(list(params), QueryStats())
    results: List[Tuple[int, List[Tuple[Any, ...]], int]] = []
    for pid in pids:
        survivors, scanned = _scan_shard(shards, entry, ctx, pid)
        results.append((pid, survivors, scanned))
    return results


def _worker_main(conn) -> None:
    """Entry point of one pool worker (top-level: spawn pickles it by name).

    State is a dict of shard replicas keyed ``(table uid, partition id)``
    plus a bounded cache of re-compiled driving-scan levels keyed by spec
    generation.  Shards arrive and are held **columnar** — ``[row count,
    per-column value lists, lazily cached row tuples]`` — so the vectorized
    scan needs no per-row materialisation and the pickled sync payload
    carries a fixed number of flat lists instead of one tuple per row.  The
    protocol is strict request/response over one pipe: every message gets
    exactly one ``("ok", ...)`` or ``("err", message)`` reply except
    ``("stop",)``, which exits the loop.
    """
    shards: Dict[Tuple[int, int], List[Any]] = {}
    compiled: Dict[int, Any] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        kind = message[0]
        if kind == "stop":
            return
        try:
            if kind == "scan":
                _, spec_id, spec, params, pids, sync, cache_limit = message
                for uid, pid, count, cols in sync:
                    shards[(uid, pid)] = [count, cols, None]
                if spec is not None:
                    # A shipped payload means the parent believes this worker
                    # does not hold the spec: (re)insert it so the FIFO
                    # insertion sequence mirrors the parent's bookkeeping
                    # exactly, eviction for eviction.
                    compiled.pop(spec_id, None)
                    compiled[spec_id] = _compile_driving_scan(spec)
                    while len(compiled) > cache_limit:
                        compiled.pop(next(iter(compiled)))
                entry = compiled.get(spec_id)
                if entry is None:
                    raise ExecutionError(
                        f"worker has no compiled spec {spec_id} and none "
                        f"was shipped; sync protocol violated"
                    )
                reply = ("ok", _worker_scan(shards, entry, params, pids))
            elif kind == "forget":
                uids = set(message[1])
                for key in [k for k in shards if k[0] in uids]:
                    del shards[key]
                reply = ("ok", None)
            elif kind == "ping":
                reply = ("ok", "pong")
            else:
                reply = ("err", f"unknown message kind {kind!r}")
        except Exception as exc:  # lint: allow-broad-except
            reply = ("err", str(exc) or type(exc).__name__)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #


class _Worker:
    """Parent-side handle of one pool worker."""

    __slots__ = ("process", "conn", "specs", "versions")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: Spec generations this worker currently holds compiled, in the
        #: worker's exact FIFO insertion order (insertion-ordered dict used
        #: as an ordered set) — the parent-side mirror of the worker cache.
        self.specs: Dict[int, None] = {}
        #: (table uid, pid) → shard version last forwarded to this worker.
        self.versions: Dict[Tuple[int, int], int] = {}

    def note_spec(self, spec_id: int, cache_limit: int) -> None:
        """Record that a spec payload was just shipped to this worker.

        Applies the worker's own FIFO eviction rule (same insertion, same
        limit), so ``spec_id in specs`` is always exactly what the worker
        holds and an evicted spec gets re-shipped instead of desyncing.
        """
        self.specs.pop(spec_id, None)
        self.specs[spec_id] = None
        while len(self.specs) > cache_limit:
            del self.specs[next(iter(self.specs))]


class ProcessScanExecutor:
    """A persistent, spawn-safe pool executing partitioned scans out of process.

    One executor can be owned by a single :class:`~repro.relalg.database.
    Database` (``Database(parallel=k, executor="process")`` creates and
    closes it) or shared between several databases — shard replicas are
    keyed by the process-globally unique :attr:`Table.uid
    <repro.relalg.storage.Table.uid>`, so tables of different databases (or
    DROP/CREATE generations of one name) never alias.

    The pool starts lazily on the first fan-out and rebuilds itself on the
    first statement after a worker failure.
    """

    def __init__(
        self,
        workers: int = 2,
        timeout: float = DEFAULT_WORKER_TIMEOUT,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        import multiprocessing

        self.workers = workers
        self.timeout = timeout
        self._mp = multiprocessing.get_context("spawn")
        self._handles: List[_Worker] = []
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def running(self) -> bool:
        """Whether the worker pool is currently up."""
        return bool(self._handles)

    def worker_pids(self) -> List[int]:
        """OS pids of the running workers (empty before the first fan-out)."""
        return [handle.process.pid for handle in self._handles]

    def _ensure_started(self) -> None:
        if self._closed:
            raise ExecutionError("process executor has been shut down")
        if self._handles:
            return
        for position in range(self.workers):
            parent_conn, child_conn = self._mp.Pipe()
            process = self._mp.Process(
                target=_worker_main,
                args=(child_conn,),
                daemon=True,
                name=f"relalg-scan-{position}",
            )
            process.start()
            child_conn.close()
            self._handles.append(_Worker(process, parent_conn))

    def _teardown(self, graceful: bool = False) -> None:
        """Stop every worker and drop all parent-side pool state."""
        handles, self._handles = self._handles, []
        for handle in handles:
            if graceful:
                try:
                    handle.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            try:
                handle.conn.close()
            except OSError:
                pass
        for handle in handles:
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(timeout=1.0)

    def shutdown(self) -> None:
        """Stop the pool permanently (idempotent)."""
        self._closed = True
        self._teardown(graceful=True)

    def forget(self, uids: Sequence[int]) -> None:
        """Drop the shard replicas of the given tables from every worker.

        Called when a database borrowing a shared pool closes, so long-lived
        pools do not accumulate dead replicas.  A pool that is down (or dies
        during the request) has nothing to forget — failures here only tear
        the pool down, they never raise.
        """
        uid_set = set(uids)
        if not self._handles or not uid_set:
            return
        try:
            for handle in self._handles:
                handle.conn.send(("forget", list(uid_set)))
            for handle in self._handles:
                self._recv(handle)
        except ExecutionError:
            return
        for handle in self._handles:
            for key in [k for k in handle.versions if k[0] in uid_set]:
                del handle.versions[key]

    # ------------------------------------------------------------------ #
    # the fan-out
    # ------------------------------------------------------------------ #

    def scan_chunks(
        self, plan: QueryPlan, params: Sequence[Any]
    ) -> Optional[List[Tuple[int, List[Tuple[Any, ...]], int]]]:
        """Execute a plan's driving scan level on the pool.

        Returns ``(pid, surviving rows, scanned count)`` triples covering
        every partition **in partition order** — the exact chunk stream the
        sequential enumeration would produce after applying the driving
        level's filters — or ``None`` when the plan cannot be shipped (no
        partitioned driving scan, or driving filters with scalar
        subqueries): the caller falls back to local execution.

        Raises :class:`ExecutionError` when a worker fails (died, hung,
        protocol error); the pool is rebuilt by the next statement.
        """
        spec = getattr(plan, "_process_spec", None)
        if spec is None:
            spec = lower_plan(plan)
            plan._process_spec = spec
            plan._process_spec_id = next(_SPEC_IDS)
        if not spec.process_eligible:
            # Covers (among others) range-probe driving levels and plans
            # with index-order pushdown: both must run sequentially in every
            # mode so their physical counters stay byte-identical across
            # sequential and process execution.
            return None
        spec_id = plan._process_spec_id
        table = plan.levels[0].table
        cache_limit = DEFAULT_SPEC_CACHE_LIMIT
        self._ensure_started()
        width = len(self._handles)
        jobs: List[Tuple[_Worker, List[int]]] = []
        for position, handle in enumerate(self._handles):
            pids = list(range(position, table.n_partitions, width))
            if not pids:
                continue
            sync = []
            for pid in pids:
                key = (table.uid, pid)
                version = table.partitions[pid].version
                if handle.versions.get(key) != version:
                    _version, count, cols = (
                        table.partition_snapshot_columns(pid)
                    )
                    sync.append((table.uid, pid, count, cols))
                    handle.versions[key] = version
            payload = None if spec_id in handle.specs else spec
            try:
                handle.conn.send(
                    (
                        "scan", spec_id, payload, list(params), pids, sync,
                        cache_limit,
                    )
                )
            except (BrokenPipeError, OSError) as exc:
                self._teardown()
                raise ExecutionError(
                    f"process executor worker died before the scan request: "
                    f"{exc}"
                ) from exc
            if payload is not None:
                handle.note_spec(spec_id, cache_limit)
            jobs.append((handle, pids))
        chunks: Dict[int, Tuple[int, List[Tuple[Any, ...]], int]] = {}
        worker_error: Optional[str] = None
        for handle, _pids in jobs:
            status, body = self._recv(handle)
            if status == "err":
                worker_error = worker_error or body
                continue
            for chunk in body:
                chunks[chunk[0]] = chunk
        if worker_error is not None:
            raise ExecutionError(worker_error)
        return [chunks[pid] for pid in range(table.n_partitions)]

    def _recv(self, handle: _Worker) -> Tuple[str, Any]:
        """One worker reply, bounded by the request timeout (never a hang)."""
        try:
            if not handle.conn.poll(self.timeout):
                self._teardown()
                raise ExecutionError(
                    f"process executor worker (pid "
                    f"{handle.process.pid}) did not reply within "
                    f"{self.timeout}s; pool torn down"
                )
            return handle.conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            self._teardown()
            raise ExecutionError(
                f"process executor worker (pid {handle.process.pid}) died "
                f"mid-statement; pool torn down"
            ) from exc

    # ------------------------------------------------------------------ #

    def __enter__(self) -> "ProcessScanExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "running" if self._handles else "idle"
        )
        return f"ProcessScanExecutor(workers={self.workers}, {state})"
