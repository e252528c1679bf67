"""The benchmark's four workloads: seeded inputs, set-up, measured phase, oracle.

Three *simulation* workloads drive a :class:`ProcedureManager` in a closed
loop with one caller, the way ``repro.workload.runner.run_workload`` does;
``serve-zipf`` drives the asyncio :class:`ProcedureApp` with one client
(and, in a traced run, open loop at a fixed rate). Every input comes from
the seed. A run sets up and replays the same ops several times and takes
each op's fastest replay, with times scaled to a reference machine speed
(see :class:`Speedometer`). After the measured phase, an Always Recompute
replay of the same seed and the same executed (for the server: admitted)
operations checks every access's canonical rows.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

import tracing
from repro.core import ProcedureManager
from repro.experiments.simcompare import SIM_SCALE_PARAMS
from repro.model.params import ModelParams
from repro.serve import load as serve_load
from repro.serve.cache import canonical_rows
from repro.workload import database, procedures, runner
from repro.workload.generator import OperationKind, generate_operations

clock = time.perf_counter

#: Cap on tracebacks printed per run when operations raise.
MAX_TRACEBACKS = 3

#: What ``_speed_loop`` takes at the reference speed: the 2-vCPU VM the
#: benchmark was written on, unslowed by neighbours. End-to-end times are
#: reported at this speed (see ``Speedometer``).
REFERENCE_LOOP_S = 30e-6


def percentile(ascending: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ascending:
        return math.nan
    rank = max(1, math.ceil(q * len(ascending)))
    return ascending[rank - 1]


def _speed_loop() -> None:
    """A fixed piece of pure-Python work that uses nothing of the program."""
    table: dict[int, int] = {}
    for i in range(300):
        table[i & 31] = table.get(i & 31, 0) + i
    sorted(table.values())


class Speedometer:
    """Times ``_speed_loop`` between ops, at most every ``interval``
    seconds, so the machine's speed is known throughout a run.

    A shared host slows this process by up to 1.7x, in stretches from
    milliseconds to beyond a whole run, so raw wall times of the same code
    spread more than a regression the benchmark must catch. Each op's time
    is scaled by the reference loop time over the loop time measured around
    it: the op's time at the reference speed. A change to the program moves
    the scaled times; a change in the machine's speed moves the loop too
    and cancels out. Raw wall times are kept in the run's detail."""

    def __init__(self, interval: float = 0.005) -> None:
        self.interval = interval
        self.times: list[float] = []
        self.loop_s: list[float] = []
        self._next = 0.0

    def sample(self) -> float:
        began = clock()
        _speed_loop()
        took = clock() - began
        self.times.append(began)
        self.loop_s.append(took)
        self._next = began + took + self.interval
        return took

    def tick(self) -> None:
        if clock() >= self._next:
            self.sample()

    def loop_s_at(self, moment: float, window: float = 0.025) -> float:
        """Median loop time within ``window`` seconds of ``moment``, or of
        the five samples nearest to it when none fall inside."""
        low = bisect.bisect_left(self.times, moment - window)
        high = bisect.bisect_right(self.times, moment + window)
        if high - low < 1:
            low, high = max(0, low - 2), low + 3
        return statistics.median(self.loop_s[low:high])

    def at_reference(self, seconds: float, moment: float) -> float:
        return seconds * REFERENCE_LOOP_S / self.loop_s_at(moment)

    def time_setup(self, build) -> tuple[float, float, Any]:
        """Runs ``build``; returns its wall time, that time at the reference
        speed (from 50 loop samples on each side) and its result."""
        around = [self.sample() for _ in range(50)]
        began = clock()
        result = build()
        wall = clock() - began
        around += [self.sample() for _ in range(50)]
        return wall, wall * REFERENCE_LOOP_S / statistics.median(around), result

    def summary(self) -> dict:
        ordered = sorted(self.loop_s)
        return {
            "reference_loop_us": REFERENCE_LOOP_S * 1e6,
            "samples": len(ordered),
            "loop_us_p10": percentile(ordered, 0.10) * 1e6,
            "loop_us_p50": percentile(ordered, 0.50) * 1e6,
            "loop_us_p90": percentile(ordered, 0.90) * 1e6,
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_exception(count: int) -> None:
    if count <= MAX_TRACEBACKS:
        traceback.print_exc(file=sys.stderr)


def sustainable_rate(service_s: list[float], limit_s: float) -> float:
    """Highest constant arrival rate at which a FIFO server with these
    service times keeps the p99 sojourn and the final backlog within
    ``limit_s``: Lindley's recursion, bisected on the rate (waits only grow
    with the rate). The service times are taken in a fixed shuffled order,
    so a slow stretch of the shared machine spanning many consecutive ops
    does not read as the program's queueing."""
    order = list(service_s)
    random.Random(0).shuffle(order)

    def meets(rate: float) -> bool:
        gap = 1.0 / rate
        wait = 0.0
        sojourns = []
        for service in order:
            sojourns.append(wait + service)
            wait = max(0.0, wait + service - gap)
        sojourns.sort()
        return percentile(sojourns, 0.99) <= limit_s and wait <= limit_s

    capacity = len(service_s) / sum(service_s)
    if meets(capacity):
        return capacity
    low, high = 0.0, capacity
    for _ in range(40):
        middle = (low + high) / 2
        if meets(middle):
            low = middle
        else:
            high = middle
    return low


# -- simulation workloads ------------------------------------------------------


@dataclass(frozen=True)
class SimWorkload:
    name: str
    strategy: str
    model: int
    tuples_per_update: int
    #: p99 limit for ``max_rps``.
    latency_limit_ms: float
    #: Ops every replay completes; the deterministic figures (simulated
    #: ms/access, page counts) are taken over this prefix.
    prefix_ops: int
    #: Times a run sets the system up and replays the same measured ops on
    #: it. ``setup_s`` is the median set-up; every other time is per op, the
    #: fastest of its replays, so a stall that slows one replay of an op
    #: does not count.
    repeats: int = 5

    def params(self) -> ModelParams:
        return SIM_SCALE_PARAMS.with_update_probability(0.5).replace(
            tuples_per_update=self.tuples_per_update
        )


@dataclass
class SimSystem:
    params: ModelParams
    db: Any
    names: list[str]
    manager: ProcedureManager


def build_sim(
    spec: SimWorkload, seed: int, strategy: Optional[str] = None, warm: bool = True
) -> SimSystem:
    """Build + populate + define + warm, as ``run_workload`` does."""
    params = spec.params()
    db = database.build_database(params, seed=seed)
    pop = procedures.build_procedures(db, params, model=spec.model, seed=seed)
    manager = ProcedureManager(
        runner.make_strategy(strategy or spec.strategy, db, params)
    )
    for name, expr in pop.definitions:
        manager.define_procedure(name, expr)
    if warm:
        for name in pop.names:
            manager.access(name)
        manager.reset_counters()
        db.clock.reset()
    return SimSystem(params, db, pop.names, manager)


@dataclass
class SimPhase:
    #: Per op: "update" or "access".
    kinds: list[str] = field(default_factory=list)
    #: Per op: hash of the access's canonical rows; None for an update or
    #: a failed access. Keeping digests rather than the rows keeps the
    #: harness from growing the heap every garbage collection walks.
    digests: list[Optional[int]] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    began: list[float] = field(default_factory=list)
    access_s: list[float] = field(default_factory=list)
    update_s: list[float] = field(default_factory=list)
    errors: int = 0
    wall_s: float = 0.0
    #: Over the first ``prefix_ops`` ops.
    sim_ms_per_access: float = math.nan
    page_reads: int = 0
    page_writes: int = 0


def run_sim_ops(
    system: SimSystem,
    spec: SimWorkload,
    seed: int,
    seconds: float = 0.0,
    count: Optional[int] = None,
    log: Optional[tracing.SpanLog] = None,
    speed: Optional[Speedometer] = None,
) -> SimPhase:
    """Run the seeded op stream: exactly ``count`` ops, or else for
    ``seconds`` but never fewer than the workload's prefix."""
    db, manager = system.db, system.manager
    sim_clock = db.clock
    phase = SimPhase()
    rng = random.Random(seed + 3)  # the runner's update stream
    stream = generate_operations(system.params, system.names, 10**9, seed=seed)
    gc.collect()
    start = clock()
    deadline = start + seconds
    for index, op in enumerate(stream):
        if count is not None:
            if index >= count:
                break
        elif index >= spec.prefix_ops and clock() >= deadline:
            break
        if log is not None:
            log.op_id = index
        rows = None
        if speed is not None:
            speed.tick()
        began = clock()
        try:
            if op.kind is OperationKind.UPDATE:
                runner._perform_update(
                    db, manager, rng, op.tuples_to_modify, relation=op.relation
                )
            else:
                rows = manager.access(op.procedure).rows
        except Exception:
            phase.errors += 1
            _report_exception(phase.errors)
        took = clock() - began
        phase.kinds.append(op.kind.value)
        phase.digests.append(None if rows is None else hash(canonical_rows(rows)))
        phase.op_s.append(took)
        phase.began.append(began)
        if op.kind is OperationKind.UPDATE:
            phase.update_s.append(took)
        else:
            phase.access_s.append(took)
        if index + 1 == spec.prefix_ops:
            phase.sim_ms_per_access = manager.cost_per_access()
            phase.page_reads = sim_clock.disk_reads
            phase.page_writes = sim_clock.disk_writes
    phase.wall_s = clock() - start
    if log is not None:
        log.op_id = tracing.SETUP_OP
    return phase


def sim_oracle(spec: SimWorkload, seed: int, phase: SimPhase) -> int:
    """Replay the executed ops under Always Recompute; count accesses whose
    canonical rows differ."""
    oracle = build_sim(spec, seed, strategy="always_recompute", warm=False)
    rng = random.Random(seed + 3)
    stream = generate_operations(
        oracle.params, oracle.names, len(phase.digests), seed=seed
    )
    mismatches = 0
    for op, digest in zip(stream, phase.digests):
        if op.kind is OperationKind.UPDATE:
            runner._perform_update(
                oracle.db, oracle.manager, rng, op.tuples_to_modify,
                relation=op.relation,
            )
            continue
        rows = oracle.manager.access(op.procedure).rows
        if hash(canonical_rows(rows)) != digest:
            mismatches += 1
    return mismatches


def _latency_metrics(access_s: list[float], update_s: list[float]) -> dict:
    access = sorted(access_s)
    update = sorted(update_s)
    return {
        "access_p50_ms": percentile(access, 0.50) * 1e3,
        "access_p99_ms": percentile(access, 0.99) * 1e3,
        "update_p50_ms": percentile(update, 0.50) * 1e3,
        "update_p99_ms": percentile(update, 0.99) * 1e3,
    }


def best_of(replays: list[list[float]]) -> list[float]:
    """Each op's fastest time over the replays."""
    return [min(times) for times in zip(*replays)]


def timing_metrics(
    speed: Speedometer,
    setups: list[tuple[float, float]],
    replays: list[list[tuple[float, float]]],
    is_update: list[bool],
    limit_s: float,
) -> tuple[dict, dict]:
    """The end-to-end time metrics at the reference speed, and the same
    figures from raw wall times. ``setups`` holds (wall, at reference) per
    set-up; each replay holds (start, wall seconds) per op."""

    def figures(setup_s: list[float], best: list[float]) -> dict:
        return {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": len(best) / sum(best),
            **_latency_metrics(
                [t for t, update in zip(best, is_update) if not update],
                [t for t, update in zip(best, is_update) if update],
            ),
            "max_rps": sustainable_rate(best, limit_s),
        }

    scaled = figures(
        [at_reference for _wall, at_reference in setups],
        best_of(
            [[speed.at_reference(took, start) for start, took in ops] for ops in replays]
        ),
    )
    wall = figures(
        [wall for wall, _at_reference in setups],
        best_of([[took for _start, took in ops] for ops in replays]),
    )
    return scaled, wall


def run_sim(spec: SimWorkload, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics."""
    speed = Speedometer()
    setups = []
    phases: list[SimPhase] = []
    count = None
    system = None
    for _ in range(spec.repeats):
        system = None
        gc.collect()
        wall, at_reference, system = speed.time_setup(lambda: build_sim(spec, seed))
        setups.append((wall, at_reference))
        phase = run_sim_ops(
            system, spec, seed, seconds=seconds / spec.repeats, count=count, speed=speed
        )
        count = len(phase.op_s)
        phases.append(phase)
    system = None
    rss = peak_rss_mb()
    first = phases[0]
    # Every replay must give the same rows and the same simulated cost.
    disagreements = sum(
        digest != expected
        for phase in phases[1:]
        for digest, expected in zip(phase.digests, first.digests)
    )
    same_cost = all(
        phase.sim_ms_per_access == first.sim_ms_per_access for phase in phases
    )
    errors = sum(phase.errors for phase in phases)
    mismatches = sim_oracle(spec, seed, first)
    metrics, wall_metrics = timing_metrics(
        speed,
        setups,
        [list(zip(phase.began, phase.op_s)) for phase in phases],
        [kind == "update" for kind in first.kinds],
        spec.latency_limit_ms / 1e3,
    )
    metrics["peak_rss_mb"] = rss
    return {
        "correct": mismatches + errors + disagreements == 0 and same_cost,
        "attempted": count * spec.repeats,
        "failed": mismatches + errors + disagreements,
        "metrics": metrics,
        "detail": {
            "wall_metrics": wall_metrics,
            "speed": speed.summary(),
            "setup_s_all": [wall for wall, _ in setups],
            "ops": count,
            "repeats": spec.repeats,
            "accesses": len(first.access_s),
            "updates": len(first.update_s),
            "measured_s_all": [phase.wall_s for phase in phases],
            "replay_disagreements": disagreements,
            "replays_same_sim_cost": same_cost,
            "errors": errors,
            "oracle_mismatches": mismatches,
            "prefix_ops": spec.prefix_ops,
            "sim_ms_per_access": first.sim_ms_per_access,
            "prefix_page_reads": first.page_reads,
            "prefix_page_writes": first.page_writes,
            "max_rps_method": "FIFO replay of the per-op best service times",
            "latency_limit_ms": spec.latency_limit_ms,
        },
    }


def run_sim_traced(spec: SimWorkload, seed: int, seconds: float) -> dict:
    """Untraced pass, then a traced pass over the same ops on a fresh
    system: per-layer metrics and the tracing overhead."""
    build_sim(spec, seed)  # first-call costs fall outside both passes
    gc.collect()
    began = clock()
    system = build_sim(spec, seed)
    plain = run_sim_ops(system, spec, seed, seconds=seconds / 2)
    plain_wall = clock() - began
    system = None

    log = tracing.SpanLog()
    gc.collect()
    patches = tracing.install(log)
    try:
        began_ns = time.perf_counter_ns()
        system = build_sim(spec, seed)
        traced = run_sim_ops(system, spec, seed, count=len(plain.op_s), log=log)
        traced_wall_ns = time.perf_counter_ns() - began_ns
    finally:
        tracing.uninstall(patches)
    strategy = system.manager.strategy
    invalidations = getattr(strategy, "invalidation_count", 0)
    system = None

    kinds = traced.kinds
    result = _layer_report(
        log, patches, lambda op: kinds[op] if op >= 0 else "setup",
        traced_wall_ns,
        plain_wall, invalidations,
        update_wall_s=sum(traced.update_s),
    )
    same = (
        plain.digests == traced.digests
        and plain.sim_ms_per_access == traced.sim_ms_per_access
        and (plain.page_reads, plain.page_writes)
        == (traced.page_reads, traced.page_writes)
    )
    mismatches = sim_oracle(spec, seed, traced)
    errors = plain.errors + traced.errors
    result["metrics"].update(
        {
            "storage.page_reads": traced.page_reads,
            "storage.page_writes": traced.page_writes,
            "serve.hit_rate": 0.0,
            "serve.evictions": 0,
            "serve.queue_wait_p99_ms": 0.0,
            "serve.service_p99_ms": 0.0,
            "serve.rejected": 0,
            "bench.generator_late_p99_ms": 0.0,
            "sim.ms_per_access": traced.sim_ms_per_access,
        }
    )
    result["detail"].update(
        {
            "ops": len(traced.op_s),
            "traced_equals_untraced": same,
            "oracle_mismatches": mismatches,
            "errors": errors,
            "untraced_sim_ms_per_access": plain.sim_ms_per_access,
        }
    )
    result["correct"] = (
        result["correct"] and same and mismatches == 0 and errors == 0
    )
    result["attempted"] = len(plain.op_s) + len(traced.op_s)
    result["failed"] = mismatches + errors
    return result


def _layer_report(
    log: tracing.SpanLog,
    patches: list[tracing.Patch],
    op_kind,
    traced_wall_ns: int,
    plain_wall_s: float,
    invalidations: int,
    update_wall_s: float,
) -> dict:
    """Per-layer self times, counts, reconciliation and overhead."""
    spans = log.spans
    nested = all(
        parent < 0
        or (spans[parent][1] <= start and end <= spans[parent][2])
        for _name, start, end, parent, _op in spans
    )
    report = tracing.breakdown(spans, patches, op_kind)
    layer_ns = {layer: report.layer_ns(layer) for layer in tracing.LAYERS}
    unattributed_ns = traced_wall_ns - report.covered_ns
    reconciled = (
        nested
        and unattributed_ns >= 0
        and sum(layer_ns.values()) + unattributed_ns == traced_wall_ns
        and all(ns >= 0 for ns in layer_ns.values())
    )
    counters = log.counters
    update_kinds = ("update", "POST")
    update_share = {
        layer: sum(report.self_ns[layer].get(kind, 0) for kind in update_kinds)
        / 1e9
        / update_wall_s
        for layer in tracing.LAYERS
        if update_wall_s > 0
    }
    metrics: dict[str, float] = {
        f"{layer}_s": ns / 1e9 for layer, ns in layer_ns.items()
    }
    metrics.update(
        {
            "query.executes": report.calls["query.execute"],
            "query.tests_per_row": (
                counters.plan_tests / counters.plan_rows
                if counters.plan_rows
                else 0.0
            ),
            "locks.probes": report.calls["locks.probe"],
            "locks.useful_ratio": (
                invalidations / counters.probe_flagged
                if counters.probe_flagged
                else 0.0
            ),
            "bench.trace_overhead": traced_wall_ns / 1e9 / plain_wall_s - 1.0,
            "bench.unattributed_s": unattributed_ns / 1e9,
            "bench.unattributed_share": unattributed_ns / traced_wall_ns,
            "bench.traced_wall_s": traced_wall_ns / 1e9,
        }
    )
    return {
        "correct": reconciled,
        "metrics": metrics,
        "detail": {
            "reconciled": reconciled,
            "spans": len(spans),
            "untraced_wall_s": plain_wall_s,
            "calls_by_layer": report.calls,
            "calls_by_span": report.span_calls,
            "self_s_by_layer_and_op": {
                layer: {kind: ns / 1e9 for kind, ns in sorted(kinds.items())}
                for layer, kinds in report.self_ns.items()
            },
            "update_time_share": update_share,
            "update_wall_s": update_wall_s,
        },
        "spans": spans,
    }


SIM_WORKLOADS = {
    spec.name: spec
    for spec in (
        SimWorkload(
            "ci-wide-update", "cache_invalidate", model=1,
            tuples_per_update=100, latency_limit_ms=50.0, prefix_ops=2200,
            repeats=3,
        ),
        SimWorkload(
            "uc-avm-join", "update_cache_avm", model=2,
            tuples_per_update=10, latency_limit_ms=20.0, prefix_ops=2000,
        ),
        SimWorkload(
            "uc-rvm-join", "update_cache_rvm", model=2,
            tuples_per_update=10, latency_limit_ms=20.0, prefix_ops=2000,
        ),
    )
}


# -- serve-zipf ----------------------------------------------------------------


@dataclass(frozen=True)
class ServeWorkload:
    name: str = "serve-zipf"
    #: As for the simulation workloads; fewer, because each replay needs a
    #: long closed pass for its POST p99.
    repeats: int = 4
    procedures_per_kind: int = 200
    cache_capacity: int = 64
    max_inflight: int = 16
    zipf_s: float = 1.1
    update_probability: float = 0.1
    tuples_per_update: int = 10
    latency_limit_ms: float = 25.0
    #: Closed-loop requests excluded from every metric (cache fill and
    #: first-call memoization).
    warmup_requests: int = 1000
    #: The measured closed pass runs for its share of ``--seconds`` but
    #: never fewer requests than this: about 1100 POSTs, so the update p99
    #: rests on more than 1000 samples.
    closed_requests: int = 11_000
    #: The plan covers a closed pass at up to this rate.
    plan_rps: float = 6000.0
    #: Closed-pass requests over which a traced run takes its deterministic
    #: figures (simulated ms/access, page counts, hit rate).
    prefix_requests: int = 2000
    #: A traced run's open-loop pass sends at this rate for half of
    #: ``--seconds``.
    nominal_rps: float = 800.0

    def params(self) -> ModelParams:
        return SIM_SCALE_PARAMS.replace(
            num_p1=self.procedures_per_kind,
            num_p2=self.procedures_per_kind,
            tuples_per_update=self.tuples_per_update,
        )

    def plan_length(self, seconds: float) -> int:
        closed = max(self.closed_requests, math.ceil(self.plan_rps * seconds))
        return self.warmup_requests + closed


SERVE = ServeWorkload()

#: (request, status, rows digest, due, handler entry, return) per request,
#: appended in the order the engine executed them.
Record = tuple[tuple, int, Optional[int], float, float, float]

#: Status recorded when ``handle`` itself raised.
RAISED = -1


def build_serve(spec: ServeWorkload, seed: int):
    return serve_load.build_serving_stack(
        spec.params(),
        "cache_invalidate",
        model=1,
        seed=seed,
        capacity=spec.cache_capacity,
        max_inflight=spec.max_inflight,
    )


def make_plan(spec: ServeWorkload, app, seed: int, count: int) -> list[tuple]:
    """Two seeded Zipf plans, one over the P1 and one over the P2
    procedures, interleaved request by request. Every seed then gives the
    same mix of selections and joins among the hot procedures; with one
    Zipf over all of them, which kind a seed happens to rank first moved
    the latencies more than anything the program does."""
    names = sorted(app.manager.strategy.procedures)
    plans = [
        serve_load.plan_requests(
            [name for name in names if name.startswith(kind)],
            (count + 1) // 2,
            seed=2 * seed + offset,
            update_probability=spec.update_probability,
            zipf_s=spec.zipf_s,
            tuples_per_update=spec.tuples_per_update,
        )
        for offset, kind in enumerate(("P1_", "P2_"))
    ]
    return [request for pair in zip(*plans) for request in pair][:count]


class ServeDriver:
    """Sends a seeded plan to one app, in phases, from one event loop.

    Handlers run their engine work synchronously after their last await,
    and ``_send`` records right after ``handle`` returns, so ``records``
    lists requests in the order the engine executed them."""

    def __init__(self, app, plan: list[tuple]) -> None:
        self.app = app
        self._plan = iter(plan)
        self.records: list[Record] = []
        self.errors = 0

    def take(self, count: int) -> list[tuple]:
        return [next(self._plan) for _ in range(count)]

    async def _send(self, request: tuple, due: float) -> None:
        entry = clock()
        try:
            response = await self.app.handle(*request)
        except Exception:
            self.errors += 1
            _report_exception(self.errors)
            self.records.append((request, RAISED, None, due, entry, clock()))
            return
        end = clock()
        digest = None
        if response.status == 200 and request[0] == "GET":
            digest = hash(tuple(map(tuple, response.body["rows"])))
        self.records.append((request, response.status, digest, due, entry, end))

    async def closed(
        self,
        count: int,
        seconds: float = math.inf,
        at_least: int = 0,
        log: Optional[tracing.SpanLog] = None,
        speed: Optional[Speedometer] = None,
    ) -> int:
        """One client sending the next request when the last returns, for
        ``count`` requests or until ``seconds`` pass, but at least
        ``at_least``; returns the count."""
        deadline = clock() + seconds
        sent = 0
        while sent < count and (sent < at_least or clock() < deadline):
            if log is not None:
                log.op_id = len(self.records)
            if speed is not None:
                speed.tick()
            await self._send(next(self._plan), clock())
            sent += 1
        if log is not None:
            log.op_id = tracing.SETUP_OP
        return sent

    async def open_loop(self, requests: list[tuple], rate: float) -> dict:
        """Send at a fixed rate regardless of completions; latencies count
        from each request's due time."""
        first = len(self.records)
        # Completed tasks are dropped at once: thousands of finished tasks
        # kept alive would lengthen every garbage collection that follows.
        pending: set[asyncio.Task] = set()

        def finished(task: asyncio.Task) -> None:
            pending.discard(task)
            task.result()

        late = []
        origin = clock() + 0.001
        due = origin
        for index, request in enumerate(requests):
            due = origin + index / rate
            while True:
                ahead = due - clock()
                if ahead <= 0:
                    break
                # The event loop rounds timer waits up to whole ms: sleep
                # until just short of the due time, then yield to ready
                # handlers until it arrives.
                await asyncio.sleep(ahead - 0.00105 if ahead > 0.0011 else 0)
            late.append(clock() - due)
            task = asyncio.create_task(self._send(request, due))
            pending.add(task)
            task.add_done_callback(finished)
        await asyncio.gather(*pending)
        records = self.records[first:]
        latencies = sorted(
            end - due if status == 200 else math.inf
            for _req, status, _digest, due, _entry, end in records
        )
        return {
            "rate": rate,
            "requests": len(records),
            "records": records,
            "latencies": latencies,
            "late": late,
            "p50_ms": percentile(latencies, 0.50) * 1e3,
            "p99_ms": percentile(latencies, 0.99) * 1e3,
            "drain_ms": (max(end for *_rest, end in records) - due) * 1e3,
            "refused": sum(1 for record in records if record[1] == 429),
        }


def serve_oracle(spec: ServeWorkload, seed: int, records: list[Record]) -> int:
    """Replay the admitted requests, in execution order, under Always
    Recompute with no result cache; count GETs whose rows differ."""
    params = spec.params()
    db = database.build_database(params, seed=seed)
    pop = procedures.build_procedures(db, params, model=1, seed=seed)
    manager = ProcedureManager(
        runner.make_strategy("always_recompute", db, params)
    )
    for name, expr in pop.definitions:
        manager.define_procedure(name, expr)
    rng = random.Random(seed + 17)  # the app's update stream
    mismatches = 0
    for (method, path, body), status, digest, *_times in records:
        if status != 200:
            continue
        if method == "POST":
            runner._perform_update(
                db, manager, rng, body["tuples"], relation=body["relation"]
            )
            continue
        name = path.rsplit("/", 1)[1]
        if hash(canonical_rows(manager.access(name).rows)) != digest:
            mismatches += 1
    return mismatches


def _failed_requests(records: list[Record]) -> int:
    return sum(1 for record in records if record[1] != 200)


def run_serve(spec: ServeWorkload, seed: int, seconds: float) -> dict:
    """Untraced run: set-up, warm-up and a closed pass, replayed."""
    speed = Speedometer()
    setups = []
    passes: list[list[Record]] = []
    plan: list[tuple] = []
    count = None
    app = driver = None
    for _ in range(spec.repeats):
        app = driver = None
        gc.collect()
        wall, at_reference, app = speed.time_setup(lambda: build_serve(spec, seed))
        setups.append((wall, at_reference))
        if not plan:
            plan = make_plan(spec, app, seed, spec.plan_length(seconds / spec.repeats))
        driver = ServeDriver(app, plan)

        async def measure() -> int:
            await driver.closed(spec.warmup_requests)
            if count is not None:
                return await driver.closed(count, speed=speed)
            return await driver.closed(
                len(plan) - spec.warmup_requests,
                seconds / spec.repeats,
                at_least=spec.closed_requests,
                speed=speed,
            )

        gc.collect()
        count = asyncio.run(measure())
        passes.append(driver.records)
    rss = peak_rss_mb()
    status_counts = app.status_counts
    cache_stats = app.cache.stats()
    app = driver = None

    # Every replay must execute the same requests with the same answers.
    disagreements = sum(
        record[:3] != expected[:3]
        for records in passes[1:]
        for record, expected in zip(records, passes[0])
    )
    failed = sum(_failed_requests(records) for records in passes)
    mismatches = serve_oracle(spec, seed, passes[0])
    measured = [records[spec.warmup_requests:] for records in passes]
    # A closed pass sends each request when it is due, so its latency from
    # due time is its service time.
    metrics, wall_metrics = timing_metrics(
        speed,
        setups,
        [[(due, end - due) for *_r, due, _entry, end in records] for records in measured],
        [record[0][0] == "POST" for record in measured[0]],
        spec.latency_limit_ms / 1e3,
    )
    metrics["peak_rss_mb"] = rss
    posts = sum(record[0][0] == "POST" for record in measured[0])
    return {
        "correct": mismatches + failed + disagreements == 0,
        "attempted": sum(len(records) for records in passes),
        "failed": mismatches + failed + disagreements,
        "metrics": metrics,
        "detail": {
            "wall_metrics": wall_metrics,
            "speed": speed.summary(),
            "setup_s_all": [wall for wall, _ in setups],
            "requests": count,
            "repeats": spec.repeats,
            "closed_gets": count - posts,
            "closed_posts": posts,
            "replay_disagreements": disagreements,
            "latency_limit_ms": spec.latency_limit_ms,
            "max_rps_method": "FIFO replay of the per-request best service times",
            "oracle_mismatches": mismatches,
            "status_counts": status_counts,
            "cache": cache_stats,
        },
    }


def run_serve_traced(spec: ServeWorkload, seed: int, seconds: float) -> dict:
    """Untraced closed pass and nominal rung, then the same closed pass
    traced on a fresh stack."""
    nominal_requests = max(1, round(spec.nominal_rps * seconds / 2))
    closed_count = spec.warmup_requests + spec.closed_requests
    # A throwaway stack takes first-call costs out of both passes and
    # names the procedures for the plan.
    plan = make_plan(
        spec, build_serve(spec, seed), seed, closed_count + nominal_requests
    )

    async def plain_pass() -> tuple[ServeDriver, float, dict]:
        began = clock()
        driver = ServeDriver(build_serve(spec, seed), plan)
        await driver.closed(closed_count)
        wall = clock() - began
        rung = await driver.open_loop(
            driver.take(nominal_requests), spec.nominal_rps
        )
        return driver, wall, rung

    gc.collect()
    plain, plain_wall, rung = asyncio.run(plain_pass())
    plain.app = None

    log = tracing.SpanLog()
    closed_sim: dict[str, float] = {}

    async def traced_pass() -> ServeDriver:
        app = build_serve(spec, seed)
        driver = ServeDriver(app, plan)
        await driver.closed(spec.warmup_requests, log=log)
        sim_clock = app.manager.clock
        before = (
            sim_clock.elapsed_ms, sim_clock.disk_reads, sim_clock.disk_writes,
            app.cache.hits, app.cache.lookups, app.cache.evictions,
        )
        await driver.closed(spec.prefix_requests, log=log)
        gets = sum(
            1 for record in driver.records[spec.warmup_requests:]
            if record[0][0] == "GET"
        )
        closed_sim.update(
            sim_ms_per_access=(sim_clock.elapsed_ms - before[0]) / gets,
            page_reads=sim_clock.disk_reads - before[1],
            page_writes=sim_clock.disk_writes - before[2],
            hit_rate=(app.cache.hits - before[3])
            / (app.cache.lookups - before[4]),
            evictions=app.cache.evictions - before[5],
        )
        await driver.closed(closed_count - len(driver.records), log=log)
        closed_sim["invalidations"] = app.manager.strategy.invalidation_count
        return driver

    gc.collect()
    patches = tracing.install(log)
    try:
        began_ns = time.perf_counter_ns()
        traced = asyncio.run(traced_pass())
        traced_wall_ns = time.perf_counter_ns() - began_ns
    finally:
        tracing.uninstall(patches)
    traced.app = None

    methods = {index: record[0][0] for index, record in enumerate(traced.records)}
    post_wall = sum(
        end - due
        for (method, *_r), _s, _d, due, _e, end in traced.records
        if method == "POST"
    )
    # Probe and invalidation counts cover the closed pass and its warm-up.
    result = _layer_report(
        log, patches, lambda op: methods.get(op, "setup"), traced_wall_ns,
        plain_wall, closed_sim["invalidations"], update_wall_s=post_wall,
    )
    same = [record[:3] for record in plain.records[:closed_count]] == [
        record[:3] for record in traced.records
    ]
    mismatches = serve_oracle(spec, seed, plain.records)
    records = rung["records"]
    result["metrics"].update(
        {
            "storage.page_reads": closed_sim["page_reads"],
            "storage.page_writes": closed_sim["page_writes"],
            "serve.hit_rate": closed_sim["hit_rate"],
            "serve.evictions": closed_sim["evictions"],
            "serve.queue_wait_p99_ms": percentile(
                sorted(entry - due for *_r, due, entry, _end in records), 0.99
            )
            * 1e3,
            "serve.service_p99_ms": percentile(
                sorted(end - entry for *_r, entry, end in records), 0.99
            )
            * 1e3,
            "serve.rejected": rung["refused"],
            "bench.generator_late_p99_ms": percentile(sorted(rung["late"]), 0.99)
            * 1e3,
            "sim.ms_per_access": closed_sim["sim_ms_per_access"],
        }
    )
    failed = _failed_requests(plain.records) + _failed_requests(traced.records)
    result["detail"].update(
        {
            "requests": len(plain.records) + len(traced.records),
            "traced_equals_untraced": same,
            "oracle_mismatches": mismatches,
            "nominal_rung": {
                key: rung[key]
                for key in ("rate", "requests", "p50_ms", "p99_ms", "drain_ms",
                            "refused")
            },
        }
    )
    result["correct"] = result["correct"] and same and mismatches == 0
    result["attempted"] = len(plain.records) + len(traced.records)
    result["failed"] = failed + mismatches
    return result


WORKLOADS = (*SIM_WORKLOADS, SERVE.name)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == SERVE.name:
        runner_fn = run_serve_traced if trace else run_serve
        return runner_fn(SERVE, seed, seconds)
    spec = SIM_WORKLOADS[workload]
    return (run_sim_traced if trace else run_sim)(spec, seed, seconds)
