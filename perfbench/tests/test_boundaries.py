"""Self-test of the benchmark's tracing: boundary coverage and clean removal.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ALWAYS = {
    "workload.build",
    "storage.base_update",
    "storage.matstore",
    "core.define",
    "core.access",
    "core.maintain",
}

#: Layers each workload must reach; every other layer must stay idle.
BUSY = {
    "ci-wide-update": ALWAYS | {"query.execute", "locks.probe"},
    "uc-avm-join": ALWAYS | {"rete.screen", "core.delta"},
    "uc-rvm-join": ALWAYS | {"rete.define", "rete.propagate", "rete.screen"},
    "serve-zipf": ALWAYS
    | {"query.execute", "locks.probe", "serve.app", "serve.cache", "serve.invalidate"},
}


def boundary_state() -> dict:
    """Every binding a wrapper may replace, by identity."""
    state = {}
    for _layer, owner_path, attrs in tracing.BOUNDARIES:
        owner = tracing._resolve(owner_path)
        for attr in attrs:
            if inspect.isclass(owner):
                state[(owner_path, attr)] = owner.__dict__[attr]
            else:
                for name, module in sorted(sys.modules.items()):
                    if name.split(".")[0] == "repro" and hasattr(module, attr):
                        state[(name, attr)] = getattr(module, attr)
    return state


def traced_calls(workload: str) -> tuple[dict, list]:
    log = tracing.SpanLog()
    patches = tracing.install(log)
    try:
        began = time.perf_counter_ns()
        if workload == workloads.SERVE.name:
            spec = workloads.SERVE
            app = workloads.build_serve(spec, seed=3)
            driver = workloads.ServeDriver(
                app, workloads.make_plan(spec, app, 3, 300)
            )
            asyncio.run(driver.closed(300, log=log))
            update_wall = 1.0
        else:
            spec = workloads.SIM_WORKLOADS[workload]
            system = workloads.build_sim(spec, seed=3)
            phase = workloads.run_sim_ops(system, spec, 3, count=60, log=log)
            update_wall = sum(phase.update_s)
        wall = time.perf_counter_ns() - began
    finally:
        tracing.uninstall(patches)
    report = workloads._layer_report(
        log, patches, lambda op: "update", wall, wall / 1e9, 0, update_wall
    )
    return report, patches


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layers_busy_or_idle_as_predicted(workload):
    before = boundary_state()
    report, patches = traced_calls(workload)
    calls = report["detail"]["calls_by_layer"]
    busy = {layer for layer, count in calls.items() if count}
    assert busy == BUSY[workload]
    assert report["detail"]["reconciled"]
    assert report["metrics"]["bench.unattributed_s"] >= 0
    # Wrappers are fully removed after the traced run.
    assert patches
    assert boundary_state() == before


def test_every_layer_is_busy_somewhere():
    assert set().union(*BUSY.values()) == set(tracing.LAYERS)


def test_value_imports_are_wrapped_where_looked_up():
    import repro.core.cache_invalidate as ci
    import repro.query.executor as executor
    import repro.serve.app as app

    log = tracing.SpanLog()
    patches = tracing.install(log)
    try:
        assert ci.execute_plan is executor.execute_plan
        assert ci.execute_plan.__wrapped__ is not None
        assert app._perform_update.__wrapped__ is not None
    finally:
        tracing.uninstall(patches)
    assert not hasattr(ci.execute_plan, "__wrapped__")


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_sustainable_rate_is_capacity_for_constant_service():
    rate = workloads.sustainable_rate([0.001] * 1000, limit_s=0.010)
    assert rate == pytest.approx(1000.0)
    assert workloads.sustainable_rate([0.001] * 99 + [0.05], 0.010) < 1000.0


def test_speedometer_scales_by_the_loop_time_around_each_op():
    speed = workloads.Speedometer()
    reference = workloads.REFERENCE_LOOP_S
    # The machine runs at the reference speed, then at half of it.
    speed.times = [0.00, 0.01, 0.02, 1.00, 1.01, 1.02]
    speed.loop_s = [reference] * 3 + [2 * reference] * 3
    assert speed.at_reference(0.004, 0.01) == pytest.approx(0.004)
    assert speed.at_reference(0.004, 1.01) == pytest.approx(0.002)
    # No sample within the window: the nearest ones decide.
    assert speed.at_reference(0.004, 5.0) == pytest.approx(0.002)


def test_best_of_takes_each_ops_fastest_replay():
    assert workloads.best_of([[3.0, 1.0], [2.0, 4.0]]) == [2.0, 1.0]
