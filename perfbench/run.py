"""Stage-by-stage compile/verify benchmark for gridspec.

    python3 perfbench/run.py --workload loans_grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The workload is generated from the seed (see workloads.py) and
written under `.bench_build/perfbench/`.  One round is the three commands
a batch user or CI job runs, called through `gridspec.cli.main` in this
process, one at a time:

    gridspec check spec.gsx
    gridspec compile spec.gsx --inputs in.csv --out-dir out
    gridspec verify out

Rounds repeat until `--seconds` have passed, always whole rounds.  Before
timing, one round runs untimed and its output is checked against the
workload's own reference; every timed round must then write the same
bytes and get the same verify verdict.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics.  With `--trace 1` rounds alternate between plain and
traced (see tracing.py), the last line carries the per-layer metrics,
and the spans are written to `.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 15
OPERATIONS = ("check", "compile", "verify")

# Metrics of one compile op and one verify op, from the self times of
# the spans under them.  load_s keeps csv_to_grid in, as verify_directory
# minus verify_grid.
LAYER_TIMES = {
    "parser.parse_s": ("compile", ["parser.parse_document"]),
    "analyzer.resolve_s": ("compile", ["analyzer.resolve"]),
    "analyzer.typecheck_s": ("compile", ["analyzer.typecheck"]),
    "analyzer.elaborate_s": ("compile", ["analyzer.elaborate"]),
    "cli.load_inputs_s": ("compile", ["cli.load_inputs"]),
    "evaluator.graph_s": ("compile", ["evaluator.build_graph"]),
    "evaluator.eval_s": ("compile", ["evaluator.evaluate"]),
    "layout.plan_s": ("compile", ["layout.plan_layout"]),
    "layout.emit_s": ("compile", ["layout.emit"]),
    "layout.render_formula_s": ("compile", ["layout.render_formula"]),
    "layout.write_s": ("compile", ["layout.write_outputs"]),
    "a1.parse_s": ("verify", ["a1.parse_a1_formula"]),
    "verify.load_s": ("verify", ["verify.verify_directory", "layout.csv_to_grid"]),
    "verify.check_s": ("verify", ["verify.verify_grid"]),
}
LAYER_COUNTS = {
    "parser.source_bytes": ("compile", ["parser.source_bytes"], "B"),
    "analyzer.rules": ("compile", ["analyzer.rules"], "count"),
    "analyzer.pattern_matches": ("compile", ["analyzer.match_patterns"], "count"),
    "cli.bindings": ("compile", ["cli.bindings"], "count"),
    "evaluator.cells": ("compile", ["evaluator.cells"], "count"),
    "evaluator.edges": ("compile", ["evaluator.edges"], "count"),
    "evaluator.expand_ref_calls": ("compile", ["evaluator.expand_ref", "layout.expand_ref"],
                                   "count"),
    "layout.formulas": ("compile", ["layout.formulas"], "count"),
    "layout.output_bytes": ("compile", ["layout.output_bytes"], "B"),
    "verify.checks": ("verify", ["verify.checks"], "count"),
    "verify.mismatches": ("verify", ["verify.mismatches"], "count"),
}

PEAK_SCRIPT = ("import resource, sys\n"
               "from gridspec.cli import main\n"
               "code = main(sys.argv[1:])\n"
               "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
               "sys.exit(code)\n")


class Bench:
    def __init__(self, workload: workloads.Workload, work: Path, cli):
        self.workload = workload
        self.cli = cli
        self.spec = work / "spec.gsx"
        self.inputs = work / "in.csv"
        self.out = work / "out"
        self.spec.write_text(workload.spec, encoding="utf-8")
        self.inputs.write_text(workload.inputs, encoding="utf-8")
        self.argv = {
            "check": ["check", str(self.spec)],
            "compile": ["compile", str(self.spec), "--inputs", str(self.inputs),
                        "--out-dir", str(self.out)],
            "verify": ["verify", str(self.out)],
        }
        self.problems: list[str] = []
        self.digest = ""             # of the checked output directory
        self.verdict = None          # (exit code, first line) verify must give
        self.attempted = 0
        self.failed = 0

    def call(self, op: str, tracer: Tracer | None = None):
        """One CLI command; returns (seconds, exit code, stdout)."""
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        span = tracer.operation(f"op.{op}") if tracer else nullcontext()
        with redirect_stdout(stdout), redirect_stderr(stderr), span:
            start = perf_counter()
            try:
                code = self.cli.main(self.argv[op])
            except Exception:  # a traceback is a failed operation, and a wrong one
                code = None
                traceback.print_exc()
            seconds = perf_counter() - start
        if code is None or stderr.getvalue():
            self.problems.append(f"{op}: exit {code}: {stderr.getvalue().strip()[-2000:]}")
        return seconds, code, stdout.getvalue()

    def round(self, tracer: Tracer | None = None) -> dict[str, float]:
        """One round: three operations, each checked, whatever happens."""
        times = {}
        for op in OPERATIONS:
            seconds, code, text = self.call(op, tracer)
            times[op] = seconds
            self.attempted += 1
            self.failed += code != 0
            if op == "compile" and code == 0 and not self.digest:
                self.check_output()
            if op == "check":
                ok = code == 0 and not text
            elif op == "compile":
                ok = code == 0 and digest(self.out) == self.digest
            else:
                ok = (code, first_line(text)) == self.verdict
            if not ok:
                self.problems.append(f"{op} exits {code}: {text[:2000]}")
        return times

    def check_output(self) -> None:
        """Check the first compile's output in full.  Later compiles must
        write the same bytes, and verify must give the same verdict."""
        from gridspec.verify import verify_directory

        self.digest = digest(self.out)
        report = verify_directory(self.out)
        self.verdict = (1 if report.mismatches else 0,
                        f"checked {report.checks} cells, {len(report.mismatches)} mismatch(es)")
        try:
            emitted = workloads.Emitted(self.out, self.workload)
            workloads.check_counts(self.workload, emitted)
            self.workload.check(emitted)
            if report.checks != self.workload.formulas:
                raise workloads.CheckFailed(
                    f"verify checked {report.checks} cells, {self.workload.formulas} formulas")
            # every mismatch must lie in a table where the workload expects one
            for mismatch in report.mismatches:
                address = mismatch.address
                table = emitted.table_at(address.sheet, address.row, address.column)
                if table not in self.workload.mismatch_tables:
                    raise workloads.CheckFailed(f"unexpected mismatch in {table}: {mismatch}")
        except workloads.CheckFailed as exc:
            self.problems.append(f"reference check: {exc}")

    def peak_memory_mb(self, work: Path) -> float:
        """Peak resident memory of one compile in a process of its own."""
        out = work / "peak"
        argv = self.argv["compile"][:-1] + [str(out)]
        done = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=170)
        if done.returncode != 0 or digest(out) != self.digest:
            self.problems.append(f"compile in its own process exits {done.returncode}: "
                                 f"{done.stderr[-2000:]}")
            return 0.0
        return int(done.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB


def first_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[0] if lines else ""


def digest(directory: Path) -> str:
    if not directory.is_dir():
        return ""
    hasher = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        hasher.update(path.name.encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_seconds() -> float:
    """Median time from spawning a fresh interpreter to the end of its
    `import gridspec.cli`.  The child reads the clock itself, so its exit
    and this process waking up are not counted; on Linux perf_counter is
    CLOCK_MONOTONIC, the same clock in every process."""
    command = [sys.executable, "-c", "import gridspec.cli, time; print(time.perf_counter())"]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):  # the first writes the byte-code cache
        start = perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, check=True, timeout=60)
        samples.append(float(done.stdout) - start)
    return statistics.median(samples[1:])


def import_cli():
    if not (SRC / "gridspec" / "cli.py").is_file():
        raise SystemExit(f"error: no gridspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridspec
    import gridspec.cli

    if Path(gridspec.__file__).resolve().parent != SRC / "gridspec":
        raise SystemExit(f"error: imported gridspec from {gridspec.__file__}, not {SRC}")
    return gridspec.cli


def summarize(name: str, samples: list[float]) -> str:
    if len(samples) < 2:
        return f"{name}: {samples[0]:.4f} s (1 sample)"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (f"{name}: median {statistics.median(samples):.4f} s, quartiles {q1:.4f}..{q3:.4f}, "
            f"{len(samples)} samples")


def end_to_end(bench: Bench, work: Path, seconds: float) -> dict:
    setup = setup_seconds()
    rounds = []
    deadline = perf_counter() + seconds
    while not rounds or perf_counter() < deadline:
        rounds.append(bench.round())
    peak = bench.peak_memory_mb(work)
    metrics = {"setup_s": (setup, "s")}
    for op in OPERATIONS:
        samples = [r[op] for r in rounds]
        print(summarize(f"{op}_s", samples))
        metrics[f"{op}_s"] = (statistics.median(samples), "s")
    metrics["compile_peak_mb"] = (peak, "MB")
    print(f"setup_s: median {setup:.4f} s of {SETUP_SAMPLES}; compile_peak_mb: {peak:.1f} MB")
    return metrics


def per_layer(bench: Bench, seconds: float, trace_path: Path) -> dict:
    """Plain and traced rounds in turn, ending on a traced one."""
    tracer = Tracer()
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(bench.round())
        tracer.install()
        try:
            traced.append(bench.round(tracer))
        finally:
            tracer.uninstall()

    # one traced round has three operations, in order
    per_round = [tracer.operations[i:i + 3] for i in range(0, len(tracer.operations), 3)]
    selfs = [{op: tracer.self_times(ops[n]["span"]) for n, op in enumerate(OPERATIONS)}
             for ops in per_round]
    counts = [{op: ops[n]["counts"] for n, op in enumerate(OPERATIONS)} for ops in per_round]

    def median_of(source, op, keys):
        return statistics.median(sum(r[op].get(k, 0.0) for k in keys) for r in source)

    metrics = {}
    for name, (op, keys) in LAYER_TIMES.items():
        metrics[name] = (median_of(selfs, op, keys), "s")
    for name, (op, keys, unit) in LAYER_COUNTS.items():
        metrics[name] = (median_of(counts, op, keys), unit)
    rules, matches = metrics["analyzer.rules"][0], metrics["analyzer.pattern_matches"][0]
    metrics["analyzer.match_hit_ratio"] = (rules / matches if matches else 0.0, "ratio")

    # Each traced round is compared with the plain round just before it,
    # so that drift in the machine's speed cancels.
    metrics["trace.overhead_pct"] = (statistics.median(
        100 * (sum(t.values()) / sum(p.values()) - 1) for p, t in zip(plain, traced)), "%")
    # The layers' self times against the plain command: between 100 %
    # less the CLI's own share and 100 % plus that command's overhead.
    for op in ("compile", "verify"):
        metrics[f"trace.{op}_overhead_pct"] = (statistics.median(
            100 * (t[op] / p[op] - 1) for p, t in zip(plain, traced)), "%")
        metrics[f"trace.{op}_accounted_pct"] = (statistics.median(
            100 * sum(t for name, t in s[op].items() if name != f"op.{op}") / p[op]
            for p, s in zip(plain, selfs)), "%")
    for op in OPERATIONS:
        print(summarize(f"{op}_s untraced", [r[op] for r in plain]))
        print(summarize(f"{op}_s traced", [r[op] for r in traced]))
    tracer.dump(trace_path, {"workload": bench.workload.name, "rounds": len(traced)})
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    workload = workloads.GENERATORS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, work, cli)
        print(f"{workload.name} seed {args.seed}: {workload.notes}; {workload.cells} cells, "
              f"{workload.formulas} formulas, {len(workload.spec)} bytes of spec")
        bench.round()  # untimed; its output is checked in full
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = per_layer(bench, args.seconds, trace_path)
        else:
            metrics = end_to_end(bench, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
