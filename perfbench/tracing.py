"""Wall-clock spans at the program's module boundaries, recorded from outside.

The benchmark never edits the program. Instead, :func:`install` replaces the
public functions and methods listed in :data:`BOUNDARIES` with thin wrappers
that record one span per call: ``(name, start_ns, end_ns, parent, op_id)``.
Spans stay in memory while the traced pass runs; :func:`write_spans` saves
them when the run ends. :func:`uninstall` puts every original back.

A module-level function imported by value (``from repro.query.executor
import execute_plan``) is a separate binding in each importing module, so a
function boundary is patched in every loaded ``repro`` module that binds the
original object. Methods are patched on the class that defines them.

Each span's self time is its duration minus the time its direct children
cover. Calls are synchronous and single-threaded (the serving pass is traced
only as a closed single-client loop), so spans nest strictly and a parent's
child coverage is the sum of its children's durations.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: (layer, "module" or "module:Class", attribute names). The layer names are
#: the ``src/repro/`` packages the per-layer metrics are reported under.
BOUNDARIES: list[tuple[str, str, tuple[str, ...]]] = [
    ("workload.build", "repro.workload.database", ("build_database",)),
    ("workload.build", "repro.workload.procedures", ("build_procedures",)),
    # The pre-reads of each changed tuple happen in ``_perform_update``
    # itself, so its self time is base-update work.
    ("storage.base_update", "repro.workload.runner", ("_perform_update",)),
    ("storage.base_update", "repro.core.manager:ProcedureManager", ("update",)),
    (
        "storage.base_update",
        "repro.storage.catalog:Relation",
        ("update", "update_clustered"),
    ),
    (
        "storage.matstore",
        "repro.storage.matstore:MaterializedStore",
        ("refresh", "apply_delta", "read_all", "load_silently"),
    ),
    ("query.execute", "repro.query.executor", ("execute_plan",)),
    (
        "locks.probe",
        "repro.locks.ilocks:ILockTable",
        (
            "conflicting_procedures",
            "conflicting_procedures_batch",
            "conflicting_procedures_swept",
        ),
    ),
    ("rete.define", "repro.rete.network:ReteNetwork", ("add_procedure",)),
    (
        "rete.propagate",
        "repro.rete.network:ReteNetwork",
        ("apply_update", "apply_update_batch"),
    ),
    (
        "rete.screen",
        "repro.rete.discrimination:ConstantTestIndex",
        ("candidates", "candidates_batch"),
    ),
    ("core.define", "repro.core.manager:ProcedureManager", ("define_procedure",)),
    ("core.define", "repro.core.strategy:ProcedureStrategy", ("define",)),
    ("core.access", "repro.core.manager:ProcedureManager", ("access",)),
    (
        "core.access",
        "repro.core.cache_invalidate:CacheAndInvalidate",
        ("access",),
    ),
    ("core.access", "repro.core.update_cache_avm:UpdateCacheAVM", ("access",)),
    ("core.access", "repro.core.update_cache_rvm:UpdateCacheRVM", ("access",)),
    (
        "core.maintain",
        "repro.core.cache_invalidate:CacheAndInvalidate",
        ("on_update", "on_update_batch"),
    ),
    (
        "core.maintain",
        "repro.core.update_cache_avm:UpdateCacheAVM",
        ("on_update", "on_update_batch"),
    ),
    (
        "core.maintain",
        "repro.core.update_cache_rvm:UpdateCacheRVM",
        ("on_update", "on_update_batch"),
    ),
    ("core.delta", "repro.core.delta:DeltaJoiner", ("compute",)),
    ("serve.app", "repro.serve.app:ProcedureApp", ("handle",)),
    ("serve.cache", "repro.serve.cache:ResultCache", ("get_or_compute",)),
    ("serve.invalidate", "repro.serve.cache:ResultCache", ("on_update",)),
]

#: Every layer a span can be charged to, in report order.
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(layer for layer, _owner, _attrs in BOUNDARIES)
)

#: Op id of spans recorded outside the op loop (build, define, warm).
SETUP_OP = -1

Span = tuple[str, int, int, int, int]


@dataclass
class Counters:
    """Counts taken at the boundaries, for the per-layer ratios."""

    plan_tests: int = 0  # simulated predicate tests charged inside execute_plan
    plan_rows: int = 0  # rows execute_plan returned
    probe_flagged: int = 0  # procedures the i-lock probes returned


@dataclass
class SpanLog:
    """In-memory span store shared by every installed wrapper."""

    #: (name, start_ns, end_ns, parent index or -1, op id)
    spans: list[Span] = field(default_factory=list)
    op_id: int = SETUP_OP
    counters: Counters = field(default_factory=Counters)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> tuple[int, int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0, 0, parent, self.op_id))
        self._stack.append(index)
        return index, parent

    def close(self, index: int, parent: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.spans[index][4])


def _count_plan(log: SpanLog, args: tuple, kwargs: dict, call: Callable):
    clock = kwargs["clock"] if "clock" in kwargs else args[2]
    before = clock.cpu_tests
    result = call()
    log.counters.plan_tests += clock.cpu_tests - before
    log.counters.plan_rows += len(result.rows)
    return result


def _count_flagged(log: SpanLog, args: tuple, kwargs: dict, call: Callable):
    result = call()
    log.counters.probe_flagged += len(result)
    return result


#: Span name -> counting hook run around the call (inside its span).
HOOKS: dict[str, Callable] = {
    "execute_plan": _count_plan,
    "ILockTable.conflicting_procedures": _count_flagged,
    "ILockTable.conflicting_procedures_batch": _count_flagged,
    "ILockTable.conflicting_procedures_swept": _count_flagged,
}


@dataclass
class Patch:
    owner: Any
    attr: str
    original: Any
    layer: str
    span: str


def _wrap(log: SpanLog, name: str, fn: Callable) -> Callable:
    clock = time.perf_counter_ns
    hook = HOOKS.get(name)
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            index, parent = log.open(name)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                log.close(index, parent, name, start)

        return async_wrapper
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            # One span per resumption: the consumer's loop body runs between
            # resumptions and must not be charged to this layer.
            inner = fn(*args, **kwargs)
            while True:
                index, parent = log.open(name)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    log.close(index, parent, name, start)
                yield item

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index, parent = log.open(name)
        start = clock()
        try:
            if hook is None:
                return fn(*args, **kwargs)
            return hook(log, args, kwargs, lambda: fn(*args, **kwargs))
        finally:
            log.close(index, parent, name, start)

    return wrapper


def _resolve(owner_path: str) -> Any:
    module_name, _, class_name = owner_path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def install(log: SpanLog) -> list[Patch]:
    """Wrap every boundary; returns the patches :func:`uninstall` reverts."""
    patches: list[Patch] = []
    for layer, owner_path, attrs in BOUNDARIES:
        owner = _resolve(owner_path)
        for attr in attrs:
            if inspect.isclass(owner):
                original = owner.__dict__[attr]
                span = f"{owner.__name__}.{attr}"
                targets = [owner]
            else:
                original = getattr(owner, attr)
                span = attr
                targets = [
                    module
                    for module_name, module in sorted(sys.modules.items())
                    if module_name.split(".")[0] == "repro"
                    and getattr(module, attr, None) is original
                ]
            wrapped = _wrap(log, span, original)
            for target in targets:
                setattr(target, attr, wrapped)
                patches.append(Patch(target, attr, original, layer, span))
    return patches


def uninstall(patches: list[Patch]) -> None:
    for patch in reversed(patches):
        setattr(patch.owner, patch.attr, patch.original)


@dataclass
class Breakdown:
    """Self time per layer, split by the kind of op that caused it."""

    #: layer -> op kind -> self ns
    self_ns: dict[str, dict[str, int]]
    #: layer -> calls
    calls: dict[str, int]
    #: span name -> calls
    span_calls: dict[str, int]
    #: ns covered by at least one span (the top-level spans' durations)
    covered_ns: int

    def layer_ns(self, layer: str) -> int:
        return sum(self.self_ns[layer].values())


def breakdown(
    spans: list[Span], patches: list[Patch], op_kind: Callable[[int], str]
) -> Breakdown:
    span_layer = {patch.span: patch.layer for patch in patches}
    child_ns = [0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: dict[str, dict[str, int]] = {layer: {} for layer in LAYERS}
    calls = dict.fromkeys(LAYERS, 0)
    span_calls: dict[str, int] = {}
    covered = 0
    for index, (name, start, end, parent, op) in enumerate(spans):
        layer = span_layer[name]
        kind = op_kind(op)
        by_kind = self_ns[layer]
        by_kind[kind] = by_kind.get(kind, 0) + (end - start) - child_ns[index]
        calls[layer] += 1
        span_calls[name] = span_calls.get(name, 0) + 1
        if parent < 0:
            covered += end - start
    return Breakdown(self_ns, calls, span_calls, covered)


def write_spans(path: Path, spans: list[Span]) -> None:
    """Save spans as gzipped JSON lines, one span per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for name, start, end, parent, op in spans:
            out.write(
                json.dumps(
                    {
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "parent": parent,
                        "op": op,
                    }
                )
            )
            out.write("\n")
