"""Benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 bench/run.py --workload collective-builtin --seed 1 --seconds 20 --trace 0

A run:

1. writes the workload's inputs for ``--seed`` under ``.bench_out/``;
2. times set-up ``SETUP_PROBES`` times, each in a fresh interpreter
   (``probe.py``), and keeps the median;
3. starts ``worker.py`` in a process of its own, which runs whole rounds of
   the workload's operations through ``anomattr.cli.main`` for
   ``--seconds`` and checks every output;
4. prints one JSON object as its last line: ``correct``, ``attempted``,
   ``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
   the per-layer metrics with ``--trace 1`` (the spans of that run go to
   ``.bench_out/trace-<workload>-seed<seed>.jsonl.gz``).

It exits with code 2, printing no result, when the program's source is not
next to it, and with code 1 when a probe or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
# a run must end within 180 s
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def probe_setup(spec: str, data: str, env: dict, deadline: float) -> dict:
    """Time one fresh interpreter from start to its ready line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), spec, data],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    phases = json.loads(line)
    phases["wall_s"] = wall
    return phases


def run_worker(args, work: Path, env: dict, deadline: float, trace_file) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "anomattr" / "cli.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    env = _env()
    try:
        _, spec, data = workloads.build(args.workload, args.seed, work)
        probes = [probe_setup(spec, data, env, deadline) for _ in range(SETUP_PROBES)]
        trace_file = OUT / f"trace-{tag}.jsonl.gz" if args.trace else None
        result = run_worker(args, work, env, deadline, trace_file)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
        metrics["setup.import_s"] = {
            "value": statistics.median(p["import_s"] for p in probes), "unit": "s"}
        metrics["setup.model_start_s"] = {
            "value": statistics.median(p["model_start_s"] for p in probes), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p["wall_s"] for p in probes), "unit": "s"},
            "op_s": {"value": result["op_s"], "unit": "s"},
            "queries_per_op": {"value": result["queries_per_op"], "unit": "queries"},
            "roundtrips_per_op": {"value": result["roundtrips_per_op"], "unit": "requests"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
