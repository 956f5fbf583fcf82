"""Benchmark command for embdistill.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload builds its inputs from the seed (set-up, done
several times with the median reported), then repeats its timed pass until
``--seconds`` have elapsed, checking every pass's outputs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` sets up once
with tracing on, runs untraced and traced passes, and prints the
per-layer metrics derived from the spans.  The line before the last is a
JSON object with every workload metric by name, the checks, the input
descriptors and the machine; the last line is the result object.  Both
also go to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# BLAS is pinned to one thread before numpy loads, so a workload's time
# and memory belong to the one process that generates its load.
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS
# have gone into it (a cheap set-up is repeated more), at most
# SETUP_MAX_REPEATS times; setup_s is the median
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 40
# one traced pass keeps the span buffer (and file) to a few hundred
# thousand spans; its counts are exact and repeat from pass to pass
MAX_TRACED_PASSES = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="input size; smoke is for the benchmark's own tests")
    p.add_argument("--break-check", metavar="CHECK",
                   help="corrupt one output before its check, to test the check")
    return p.parse_args(argv)


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_PIN},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (a grid
    lane), from ru_maxrss (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Runner:
    """Runs passes and their checks, counting attempts and failures."""

    def __init__(self, workload, state, fault, tracer=None):
        self.workload = workload
        self.state = state
        self.fault = fault
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks: dict = {}

    def run(self, seconds: float, max_passes: int | None = None, label: str = "pass"):
        """Passes until ``seconds`` elapse (at least one); returns them."""
        passes = []
        deadline = time.perf_counter() + seconds
        while True:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.run_id = f"{label}-{len(passes) + 1}"
            start = time.perf_counter()
            try:
                p = self.workload.run_pass(self.state)
            except Exception:  # a failing pass is counted, then the run stops
                self.failed += 1
                self.problems.append(traceback.format_exc(limit=4))
                break
            p.timings["wall_s"] = time.perf_counter() - start
            self._check(p)
            passes.append(p)
            if time.perf_counter() >= deadline:
                break
            if max_passes is not None and len(passes) >= max_passes:
                break
        return passes

    def _check(self, p) -> None:
        if self.tracer is not None:
            with self.tracer.paused():
                results = self.workload.checks(self.state, p, self.fault)
        else:
            results = self.workload.checks(self.state, p, self.fault)
        p.artifacts = None
        bad = [c for c in results if not c.ok]
        for c in results:
            entry = self.checks.setdefault(c.name, {"passed": 0, "failed": 0, "detail": ""})
            entry["passed" if c.ok else "failed"] += 1
            entry["detail"] = c.detail
        if bad:
            self.failed += 1
            self.problems.extend(f"check {c.name} failed: {c.detail}" for c in bad)


def measured(value, unit, samples=None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def run_untraced(wl, args, details):
    times = []
    state = None
    while len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS):
        state = None
        gc.collect()
        shutil.rmtree(wl.workdir)
        os.makedirs(wl.workdir)
        start = time.perf_counter()
        state = wl.setup(args.seed)
        times.append(time.perf_counter() - start)
    runner = Runner(wl, state, args.break_check)
    passes = runner.run(args.seconds)
    named = {}
    if passes:
        named = {k: measured(v, u, n) for k, (v, u, n) in wl.summary(state, passes).items()}
        gaps = [p.outputs["max_logit_diff"] for p in passes if "max_logit_diff" in p.outputs]
        if gaps:
            named["max_logit_diff"] = measured(max(gaps), "logit", len(gaps))
    setup_s = float(np.median(times))
    named["setup_s"] = measured(setup_s, "s", len(times))
    named["peak_rss_mb"] = measured(peak_rss_mb(), "MB")
    named["error_rate"] = measured(runner.failed / runner.attempted, "fraction", runner.attempted)
    details.update(metrics=named, descriptors=state["descriptors"],
                   pass_wall_s=[p.timings["wall_s"] for p in passes])
    metrics = {}
    if passes:
        throughput, aux = (named[name]["value"] for name in wl.headline)
        metrics = {
            "setup_s": measured(setup_s, "s"),
            "throughput_per_s": measured(throughput, "1/s"),
            "aux_throughput_per_s": measured(aux, "1/s"),
            "peak_rss_mb": measured(named["peak_rss_mb"]["value"], "MB"),
        }
    return runner, metrics


def run_traced(wl, args, details):
    tr = tracing.Tracer(os.path.join(wl.workdir, "spool"))
    tr.install()
    state = wl.setup(args.seed)
    tr.uninstall()
    runner = Runner(wl, state, args.break_check, tr)
    plain = runner.run(args.seconds / 2.0, label="untraced")
    tr.install()
    traced = runner.run(args.seconds / 2.0, MAX_TRACED_PASSES)
    lane_spans = tr.collect_lanes()
    pass_spans = list(tr.spans)
    fired = {s[tracing.NAME] for s in pass_spans}
    memory_spans = []
    if any("traced_peak_mb" in metrics and name in fired
           for name, metrics, *_ in tracing.SPANS):
        tr.probe_memory = True
        runner.run(0.0, 1, label="memory-probe")
        lane_spans += tr.collect_lanes()
        memory_spans = tr.spans[len(pass_spans):]
    tr.uninstall()

    values = tracing.layer_metrics(pass_spans, max(1, len(traced)), memory_spans)
    gaps = [p.outputs["max_logit_diff"] for p in plain + traced if "max_logit_diff" in p.outputs]
    values["distillation.fold_model.max_logit_diff"] = max(gaps, default=0.0)
    overhead = 0.0
    if plain and traced:
        overhead = float(np.median([p.timings["wall_s"] for p in traced])
                         / np.median([p.timings["wall_s"] for p in plain]))
    values["trace.overhead_ratio"] = overhead
    values["trace.spans"] = len(tr.spans)
    values["trace.lane_spans"] = lane_spans

    lanes = max((s[tracing.COUNTS]["lanes"] for s in pass_spans
                 if s[tracing.NAME] == "training.grid_search"), default=1)
    missing = ""
    if lanes > 1 and not lane_spans:
        missing = (f"the {lanes} grid-lane processes recorded no spans: "
                   "training._run_grid_group, train_trial and every span under them "
                   "ran unrecorded")
    for error in tracing.coverage_errors(pass_spans, wl.name, tr.absent):
        runner.failed += 1
        runner.problems.append(f"span coverage: {error}")

    spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.jsonl.gz")
    tr.write(spans_path)
    details.update(
        descriptors=state["descriptors"],
        trace={
            "untraced_pass_s": [p.timings["wall_s"] for p in plain],
            "traced_pass_s": [p.timings["wall_s"] for p in traced],
            "overhead_ratio": overhead,
            "absent": tr.absent,
            "lane_spans_missing": missing,
            "spans_file": os.path.relpath(spans_path, ROOT),
        },
    )
    metrics = {name: measured(values.get(name, 0.0), unit)
               for name, unit, _ in tracing.layer_metric_specs()}
    return runner, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "embdistill", "__init__.py")):
        print(f"error: no embdistill package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](workloads.SIZES[args.size], workdir)
    # A single-process workload stays on one CPU: moving between CPUs
    # costs it warm caches, which shows as run-to-run spread.  The lanes
    # of a multi-lane workload need every CPU.
    if wl.lanes == 1:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    details = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds, "machine": machine(),
    }
    try:
        if args.trace:
            runner, metrics = run_traced(wl, args, details)
        else:
            runner, metrics = run_untraced(wl, args, details)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details["checks"] = runner.checks
    details["problems"] = runner.problems
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    stem = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
