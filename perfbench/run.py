"""Whole-run wall-clock benchmark of the procedure engine.

Run from the repository root::

    python3 perfbench/run.py --workload ci-wide-update --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 12 --trace 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
and a traced pass and prints the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The line before it holds the run's detail and environment
stamp, which is also written, with the spans of a traced run, under
``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "access_p50_ms": "ms",
    "access_p99_ms": "ms",
    "update_p50_ms": "ms",
    "update_p99_ms": "ms",
    "max_rps": "req/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "workload.build_s": "s",
    "storage.base_update_s": "s",
    "storage.matstore_s": "s",
    "storage.page_reads": "count",
    "storage.page_writes": "count",
    "query.execute_s": "s",
    "query.executes": "count",
    "query.tests_per_row": "ratio",
    "locks.probe_s": "s",
    "locks.probes": "count",
    "locks.useful_ratio": "frac",
    "rete.define_s": "s",
    "rete.propagate_s": "s",
    "rete.screen_s": "s",
    "core.define_s": "s",
    "core.access_s": "s",
    "core.maintain_s": "s",
    "core.delta_s": "s",
    "serve.app_s": "s",
    "serve.cache_s": "s",
    "serve.invalidate_s": "s",
    "serve.hit_rate": "frac",
    "serve.evictions": "count",
    "serve.queue_wait_p99_ms": "ms",
    "serve.service_p99_ms": "ms",
    "serve.rejected": "count",
    "bench.trace_overhead": "frac",
    "bench.unattributed_s": "s",
    "bench.unattributed_share": "frac",
    "bench.traced_wall_s": "s",
    "bench.generator_late_p99_ms": "ms",
    "sim.ms_per_access": "ms",
}


def git_sha() -> str | None:
    """HEAD's commit id read from ``.git`` without running git, or None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_sha256() -> str:
    """Digest of every file under ``src/repro``: names the measured program
    when there is no git checkout."""
    digest = hashlib.sha256()
    base = ROOT / "src" / "repro"
    for path in sorted(base.rglob("*.py")):
        digest.update(str(path.relative_to(base)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy

    from repro.storage.columnar import columnar_enabled

    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_COLUMNAR": os.environ.get("REPRO_COLUMNAR"),
        "columnar_enabled": columnar_enabled(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    stamp = environment()
    # The default columnar engine path is the program under test; a stray
    # REPRO_COLUMNAR=0 would measure a different program.
    valid = stamp["columnar_enabled"]

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    finite = True
    for name, unit in units.items():
        value = result["metrics"][name]
        if not math.isfinite(value):
            finite = False
            value = None
        metrics[name] = {"value": value, "unit": unit}
    correct = bool(result["correct"]) and valid and finite
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "valid": valid,
        "environment": stamp,
        **result["detail"],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "spans" in result:
        import tracing

        tracing.write_spans(OUT / f"{stem}.spans.jsonl.gz", result["spans"])
    summary = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps({**summary, "detail": detail}, indent=2, default=str) + "\n"
    )
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(summary))
    return 0 if valid else 1


if __name__ == "__main__":
    sys.exit(main())
