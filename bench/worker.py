"""Measured loop of one benchmark run, in a process of its own.

Started by ``run.py``; prints one JSON object as its last line.  The loop:

1. a warm-up round, traced, which also gives the per-operation query and
   round-trip counts (they are the same in every round);
2. rounds until ``--seconds`` have passed, each a whole round.  With
   ``--trace 0`` no round is traced.  With ``--trace 1`` untraced and
   traced rounds alternate, so the tracing overhead is measured on the
   same machine state, and the per-layer figures come from the traced
   rounds.

Every operation's output is checked; an operation that raises, exits
non-zero or fails its check counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from anomattr import cli

import checks
import workloads
from tracer import BASELINE_METHODS, Tracer


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.ops, _, _ = workloads.build(workload, seed, work)
        self.check = checks.CHECKS[workload]
        self.counts_path = work / "child_counts.jsonl"
        # the set-up probes' children wrote to the same file first
        self.counts_offset = (
            self.counts_path.stat().st_size if self.counts_path.exists() else 0
        )
        self.handles = []
        self.docs = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.child = [0, 0]  # requests, points
        # cli.resolve_model returns a handle nobody closes; close it after
        # each operation so subprocess children do not pile up
        original = cli.resolve_model

        def resolve_and_keep(*args, **kwargs):
            handle = original(*args, **kwargs)
            self.handles.append(handle)
            return handle

        cli.resolve_model = resolve_and_keep

    def _release(self) -> None:
        for handle in self.handles:
            close = getattr(handle, "close", None)
            if close is not None:
                close()
        self.handles.clear()
        if self.counts_path.exists():
            with self.counts_path.open(encoding="utf-8") as fh:
                fh.seek(self.counts_offset)
                for line in fh:
                    doc = json.loads(line)
                    self.child[0] += doc["requests"]
                    self.child[1] += doc["points"]
                self.counts_offset = fh.tell()

    def run_op(self, op, tracer: Tracer | None) -> float:
        """Run one operation; return its wall time."""
        self.attempted += 1
        sink = io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    code = cli.main(op.argv)
                else:
                    code = tracer.root("cli.main", cli.main, op.argv)
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self._release()
        if error is None and code != 0:
            error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
        if error is None:
            error = self._check(op)
        if error is not None:
            self.failures.append(f"{op.name}: {error}")
        return elapsed

    def _check(self, op) -> str | None:
        try:
            doc = json.loads(op.output.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            return f"unreadable output: {exc}"
        self.docs[op.name] = doc
        if self.workload == "baselines-compare" and op.expect["row"] % 2 == 1:
            pair = self.docs.get(self.ops[op.expect["pair"]].name)
            problems = self.check(op.expect, doc, pair)
        else:
            problems = self.check(op.expect, doc)
        return "; ".join(problems) if problems else None

    def run_round(self, tracer: Tracer | None, times: dict) -> None:
        """Run every operation once, adding its wall time to ``times``."""
        if tracer is not None:
            tracer.install()
        try:
            for op in self.ops:
                times[op.name].append(self.run_op(op, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()


def op_seconds(times: dict) -> float:
    """Median wall time of each operation over the rounds, averaged over
    the operations of a round, so every operation of the mix counts once."""
    return statistics.fmean(statistics.median(v) for v in times.values())


def layer_metrics(tracer: Tracer, n_ops: int, counts: Tracer, n_count_ops: int,
                  child: list) -> dict:
    """Per-operation figures: times from ``tracer`` (timed rounds), counts
    from ``counts`` (the warm-up round, identical in every round)."""
    t, c = tracer.totals, counts.totals

    def secs(name, column=1):
        return t[name][column] / n_ops

    def per_op(value):
        return value / n_count_ops

    adapter_points = counts.points
    gpa_solver = counts.solver["gpa.map_estimate"]
    out = {
        "models.adapter.busy_s": (secs("models.adapter"), "s"),
        "models.adapter.calls": (per_op(counts.calls), "calls"),
        "models.adapter.points": (per_op(adapter_points), "points"),
        "models.adapter.points_per_call": (adapter_points / max(counts.calls, 1), "points"),
        "models.child.requests": (per_op(child[0]), "requests"),
        "models.child.points": (per_op(child[1]), "points"),
        "models.child.served_ratio": (child[1] / max(adapter_points, 1), "ratio"),
        "models.estimate_gradient.calls": (per_op(c["models.estimate_gradient"][0]), "calls"),
        "models.estimate_gradient.self_s": (secs("models.estimate_gradient", 2), "s"),
        "gpa.rates.calls": (per_op(c["gpa.rates"][0]), "calls"),
        "gpa.rates.points": (per_op(c["gpa.rates"][3]), "points"),
        "gpa.rates.s": (secs("gpa.rates"), "s"),
        "gpa.map_estimate.s": (secs("gpa.map_estimate"), "s"),
        "gpa.map_estimate.self_s": (secs("gpa.map_estimate", 2), "s"),
        "gpa.solver.iterations": (per_op(gpa_solver[1]), "iterations"),
        "gpa.solver.value_evals": (per_op(gpa_solver[2]), "evals"),
        "gpa.solver.halvings": (per_op(gpa_solver[2] - gpa_solver[0] - gpa_solver[1]),
                                "halvings"),
        "gpa.solver.points_per_iter": (gpa_solver[3] / max(gpa_solver[1], 1), "points"),
        "gpa.score_distributions.s": (secs("gpa.score_distributions"), "s"),
        "gpa.score_distributions.calls": (per_op(c["gpa.score_distributions"][0]), "calls"),
        "gpa.score_distributions.points": (per_op(c["gpa.score_distributions"][3]), "points"),
    }
    for name in BASELINE_METHODS:
        key = f"baselines.{name}"
        out[f"{key}.s"] = (secs(key), "s")
        out[f"{key}.points"] = (per_op(c[key][3]), "points")
    out["baselines.lc.iterations"] = (per_op(counts.solver["baselines.lc"][1]), "iterations")
    out.update({
        "metrics.s": (secs("metrics"), "s"),
        "dataio.load_csv.s": (secs("dataio.load_csv"), "s"),
        "dataio.emit.s": (secs("dataio.emit"), "s"),
        "dataio.emit.bytes": (per_op(counts.emit_bytes), "bytes"),
        "cli.self_s": (secs("cli.main", 2), "s"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path, default=None)
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.work)
    n_ops = len(runner.ops)

    # warm-up round: fills caches and gives the per-operation counts
    counts = Tracer()
    runner.run_round(counts, defaultdict(list))
    child = list(runner.child)
    result = {
        "queries_per_op": counts.points / n_ops,
        # a subprocess model's round trips are the requests its child
        # answered; a builtin model's are the adapter calls
        "roundtrips_per_op": (child[0] or counts.calls) / n_ops,
    }

    tracer = Tracer(store_spans=args.trace_file is not None) if args.trace else None
    times, traced_times = defaultdict(list), defaultdict(list)
    rounds = [(None, times)]
    if tracer is not None:
        rounds.append((tracer, traced_times))
    start = time.perf_counter()
    while True:
        for round_tracer, sink in rounds:
            runner.run_round(round_tracer, sink)
        # alternate which kind of round goes first, so a machine that
        # slows down during the run does not bias the tracing overhead
        rounds.reverse()
        if time.perf_counter() - start >= args.seconds:
            break

    result["op_s"] = op_seconds(times)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        traced_ops = sum(len(v) for v in traced_times.values())
        layers = layer_metrics(tracer, traced_ops, counts, n_ops, child)
        traced_op_s = op_seconds(traced_times)
        layers["trace.op_s"] = (traced_op_s, "s")
        layers["trace.overhead_s"] = (traced_op_s - result["op_s"], "s")
        result["layers"] = layers
        if args.trace_file is not None:
            tracer.write(args.trace_file)
    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures[:10]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
