"""Span tracing of the embdistill modules, applied from outside.

The package carries no tracing of its own, so the benchmark wraps a
fixed list of functions and methods at run time.  A module-level
function is replaced in *every* loaded module namespace that holds it
(``from .model import forward`` makes a second binding that would
otherwise bypass the wrapper); a method is replaced on its class.  A
listed name that no longer exists is reported as absent.

Spans are (id, parent, name, start_ns, end_ns, run, pid, counts) tuples
kept in memory and written out at the end.  Grid lanes started with
``fork`` inherit the wrappers; a lane process writes its spans to a
spool directory whenever its outermost span closes, and the parent
merges those files.  Lanes started any other way record nothing, which
the caller reports.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import gzip
import importlib
import json
import os
import resource
import sys
import time

PACKAGE = "embdistill"

# Workload names, used by the coverage rules below.
ENC = "encoding-phrases"
MATCH = "matching-sentences"
DEPLOY = "deploy-infer"
INGEST = "ingest-vectors"
TRAINING = {ENC, MATCH}

ID, PARENT, NAME, START, END, RUN, PID, COUNTS = range(8)
SETUP_RUN = "setup"


def _arg(args, kwargs, index, keyword):
    return args[index] if len(args) > index else kwargs[keyword]


# Counter hooks: (args, kwargs, result) -> counts recorded on the span.
def _samples_out(args, kwargs, result):
    return {"samples": len(result)}


def _vectors_out(args, kwargs, result):
    return {"vectors": result.matrix.shape[1]}


def _columns_in(args, kwargs, result):
    # args[0] is the EncoderLayer, args[1] the (n_embed, k) block
    return {"columns": _arg(args, kwargs, 1, "columns").shape[1]}


def _samples_in(args, kwargs, result):
    return {"samples": len(_arg(args, kwargs, 1, "samples"))}


def _bytes_copied(args, kwargs, result):
    return {"mb_copied": sum(a.nbytes for a in result) / 1e6}


def _embed_cols(args, kwargs, result):
    return {"embed_cols_per_update": len(_arg(args, kwargs, 1, "grads").embed_cols)}


def _lane_seconds(args, kwargs, result):
    jobs = args[5] if len(args) > 5 else kwargs.get("jobs", 1)
    seconds = sum(e.result.seconds for e in result.entries if e.result is not None)
    return {"trial_seconds": seconds, "lanes": max(1, int(jobs or 1))}


def _rows_out(args, kwargs, result):
    return {"rows": result.targets.shape[0]}


# metric suffix -> (unit, better, how it is derived from the spans)
KINDS = {
    "calls": ("count", "lower", "calls"),
    "busy_s": ("s", "lower", "busy"),
    "self_s": ("s", "lower", "self"),
    "samples": ("count", "higher", "sum"),
    "vectors": ("count", "higher", "sum"),
    "columns": ("count", "lower", "sum"),
    "rows": ("count", "higher", "sum"),
    "mb_copied": ("MB", "lower", "sum"),
    "traced_peak_mb": ("MB", "lower", "max"),
    "embed_cols_per_update": ("count", "higher", "per_call"),
    "lane_busy_share": ("ratio", "higher", "lane_share"),
    "max_logit_diff": ("logit", "lower", "external"),
}

# (span name, metric suffixes, counter hook, workloads it must fire on,
# workloads it must not fire on).  A span name is the module inside the
# package plus the attribute path.
SPANS = [
    ("data.read_tree_file", ("busy_s",), None, {INGEST}, set()),
    ("data.extract_samples", ("calls", "busy_s", "samples"), _samples_out,
     {ENC, MATCH, DEPLOY, INGEST}, set()),
    ("cli.cmd_prepare", ("busy_s",), None, {INGEST}, set()),
    ("embeddings.load_word2vec_text", ("busy_s", "vectors", "traced_peak_mb"), _vectors_out,
     {INGEST}, set()),
    ("embeddings.align_to_vocab", ("busy_s",), None, {INGEST}, set()),
    ("embeddings.save_table", ("busy_s",), None, {INGEST}, set()),
    ("embeddings.load_table", ("busy_s",), None, {INGEST}, set()),
    ("embeddings.EncoderLayer.encode_columns", ("calls", "busy_s", "columns"), _columns_in,
     {ENC}, {MATCH}),
    ("embeddings.fold", ("busy_s",), None, {ENC, DEPLOY}, set()),
    ("model.forward", ("calls", "busy_s", "self_s"), None, {ENC, MATCH, DEPLOY}, set()),
    ("model.backward_from_logit_grad", ("calls", "busy_s"), None, TRAINING, set()),
    ("model.predict", ("calls", "busy_s"), None, {ENC, MATCH, DEPLOY}, set()),
    ("model.evaluate_accuracy", ("busy_s", "samples"), _samples_in, {ENC, MATCH, DEPLOY}, set()),
    ("model.ClassifierModel.snapshot", ("calls", "busy_s", "mb_copied"), _bytes_copied,
     TRAINING, set()),
    ("model.save_model", ("busy_s",), None, {DEPLOY}, set()),
    ("model.load_model", ("busy_s",), None, {DEPLOY}, set()),
    ("ops.softmax_t", ("calls", "busy_s"), None, {ENC, MATCH, DEPLOY}, set()),
    ("ops.softmax_ce_backward", ("calls", "busy_s"), None, TRAINING, set()),
    ("ops.dropout_mask", ("calls", "busy_s"), None, TRAINING, set()),
    ("training.sgd_epoch", ("calls", "busy_s", "self_s"), None, TRAINING, set()),
    ("training.apply_update", ("calls", "busy_s", "embed_cols_per_update"), _embed_cols,
     TRAINING, set()),
    ("training.ModelFactory.build", ("calls", "busy_s"), None, TRAINING, set()),
    ("training.train_trial", ("calls", "busy_s"), None, TRAINING, set()),
    ("training.grid_search", ("busy_s", "lane_busy_share"), _lane_seconds, TRAINING, set()),
    ("training.multi_restart", ("busy_s",), None, TRAINING, set()),
    # the lane entry point: wrapped so lane spans nest under one span
    ("training._run_grid_group", (), None, set(), set()),
    ("distillation.generate_soft_targets", ("busy_s", "rows"), _rows_out, {MATCH}, set()),
    ("distillation.MatchingSoftmaxObjective.__call__", ("calls", "busy_s"), None,
     {MATCH}, {ENC}),
    ("distillation.fold_model", ("busy_s", "max_logit_diff"), None, {ENC, DEPLOY}, set()),
    ("distillation.run_regime", ("busy_s",), None, TRAINING, set()),
]

# Metrics of the trace itself: (name, unit, better).
TRACE_METRICS = [
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.lane_spans", "count", "higher"),
]


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    specs = [(f"{name}.{m}",) + KINDS[m][:2] for name, metrics, *_ in SPANS for m in metrics]
    return specs + TRACE_METRICS


def _resolve(name: str):
    """(owner, attribute, original) for a span name, or None when absent."""
    module_name, *path = name.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = vars(owner).get(path[-1])
    else:
        original = getattr(owner, path[-1], None)
    if not callable(original):
        return None
    return owner, path[-1], original


def _child_peak_mb(fn, args, kwargs) -> float:
    """Run ``fn`` once in a forked copy of this process and return how far
    the copy's peak resident set rose above its size at the fork."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            fn(*args, **kwargs)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            os.write(write_fd, str((after - before) / 1024.0).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    return float(text) if text else 0.0


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.pid = self.owner_pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.run_id = SETUP_RUN
        self.enabled = True
        # set for one pass: peak-memory spans then also run in a fork
        self.probe_memory = False
        self.absent: list[str] = []
        self._serial = 0
        self._lane_depth = 0
        self._lane_flushes = 0
        self._patches: list[tuple] = []

    def install(self) -> None:
        """Wrap every span name that exists; record the rest as absent."""
        self.absent = []
        for name, metrics, hook, _, _ in SPANS:
            found = _resolve(name)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original, hook, "traced_peak_mb" in metrics)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block run unrecorded (output checks)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def _wrap(self, name, fn, hook, peak):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if tracer.pid != os.getpid():
                tracer._enter_lane_process()
            counts = None
            if peak and tracer.probe_memory:
                counts = {"traced_peak_mb": _child_peak_mb(fn, args, kwargs)}
            span_id = (tracer.pid << 32) | tracer._serial
            tracer._serial += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            tracer._lane_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                tracer._lane_depth -= 1
            if hook is not None:
                counts = {**(counts or {}), **hook(args, kwargs, result)}
            tracer.spans.append(
                (span_id, parent, name, start, end, tracer.run_id, tracer.pid, counts)
            )
            if tracer.pid != tracer.owner_pid and tracer._lane_depth == 0:
                tracer._flush_lane()
            return result

        return wrapper

    def _enter_lane_process(self) -> None:
        """First wrapped call in a forked lane: drop the parent's spans but
        keep its open-span stack, so lane spans nest under grid_search."""
        self.pid = os.getpid()
        self.spans = []
        self._serial = 0
        self._lane_depth = 0
        self._lane_flushes = 0

    def _flush_lane(self) -> None:
        os.makedirs(self.spool_dir, exist_ok=True)
        stem = os.path.join(self.spool_dir, f"lane-{self.pid}-{self._lane_flushes}")
        self._lane_flushes += 1
        with open(stem + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
        os.replace(stem + ".tmp", stem + ".json")
        self.spans = []

    def collect_lanes(self) -> int:
        """Merge the spool files lane processes wrote; returns spans added."""
        added = 0
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "lane-*.json"))):
            with open(path, encoding="utf-8") as fh:
                rows = json.load(fh)
            os.remove(path)
            self.spans.extend(tuple(r) for r in rows)
            added += len(rows)
        return added

    def write(self, path: str) -> None:
        """Gzipped JSON lines: a header naming the fields, then one list per
        span; times are perf_counter nanoseconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write(json.dumps(["id", "parent", "name", "start_ns", "end_ns",
                                 "run", "pid", "counts"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _union_ns(intervals) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration (ns) minus the part of it its child spans cover.

    Children of one span can overlap when they ran in parallel lanes, so
    the covered part is the union of their intervals.
    """
    children: dict = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for s in spans:
        kids = [(max(a, s[START]), min(b, s[END]))
                for a, b in children.get(s[ID], ()) if b > s[START] and a < s[END]]
        out[s[ID]] = (s[END] - s[START]) - _union_ns(kids)
    return out


def layer_metrics(spans, passes: int, memory_spans=()) -> dict:
    """Per-layer values: spans of the set-up run count once, spans of the
    measured passes are averaged over ``passes``.

    ``memory_spans`` come from the pass that probed peak memory; they
    supply only the peaks.  "external" metrics are left to the caller.
    """
    selfs = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    values = {}
    for name, metrics, *_ in SPANS:
        own = by_name.get(name, [])
        for m in metrics:
            how = KINDS[m][2]
            if how == "external":
                continue
            if how == "max":
                values[f"{name}.{m}"] = max(
                    ((s[COUNTS] or {}).get(m, 0.0) for s in memory_spans if s[NAME] == name),
                    default=0.0)
                continue
            if how == "lane_share":
                grid = [s for s in own if s[RUN] != SETUP_RUN]
                capacity = sum(s[COUNTS]["lanes"] * (s[END] - s[START]) / 1e9 for s in grid)
                busy = sum(s[COUNTS]["trial_seconds"] for s in grid)
                values[f"{name}.{m}"] = busy / capacity if capacity else 0.0
                continue
            # set-up and pass totals stay apart so whole counts stay whole
            total = {True: 0, False: 0}
            calls = {True: 0, False: 0}
            for s in own:
                if how == "calls":
                    amount = 1
                elif how == "busy":
                    amount = (s[END] - s[START]) / 1e9
                elif how == "self":
                    amount = selfs[s[ID]] / 1e9
                else:
                    amount = (s[COUNTS] or {}).get(m, 0)
                in_setup = s[RUN] == SETUP_RUN
                total[in_setup] += amount
                calls[in_setup] += 1
            value = total[True] + total[False] / passes
            if how == "per_call":
                n = calls[True] + calls[False] / passes
                value = value / n if n else 0.0
            values[f"{name}.{m}"] = value
    return values


def coverage_errors(spans, workload: str, absent) -> list[str]:
    """Span names that exist but did not fire where they must, or fired
    where they must not."""
    fired = {s[NAME] for s in spans}
    errors = []
    for name, _, _, must, must_not in SPANS:
        if name in absent:
            continue
        if workload in must and name not in fired:
            errors.append(f"{name} never fired on {workload}")
        if workload in must_not and name in fired:
            errors.append(f"{name} fired on {workload}, where it must not")
    return errors
