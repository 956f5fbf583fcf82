"""Comparison report assembly and rendering.

The report mirrors the two headline tables of a regime comparison:
mean +- std test accuracy per regime (with the restart pick), and the
deployed parameter counts plus the measured relative inference time,
per-sample and, when the bench measured it, batched.
Output is a tab-separated file and an aligned-text twin; both are
deterministic functions of the saved result files.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import __version__
from .distillation import REGIME_TAGS

MISSING = "MISSING"

_LABELS = {
    "direct_small": "Direct small network",
    "matching_softmax": "Matching softmax",
    "encoding_distill": "Encoding distillation",
}


@dataclass
class ReportRow:
    regime: str
    mean_accuracy: float | None = None
    std_accuracy: float | None = None
    restart_accuracy: float | None = None
    deployed_parameters: int | None = None

    @property
    def available(self) -> bool:
        return self.mean_accuracy is not None


@dataclass
class ComparisonReport:
    rows: list[ReportRow]
    relative_time: float | None  # per-sample predict, small / large
    provenance: list[str]
    relative_time_batched: float | None = None  # batched evaluation sweep


def build_report(results: list[dict], bench: dict | None = None) -> ComparisonReport:
    """Assemble the report from per-regime result dicts and a bench dict.

    Regimes without a result file appear as explicitly marked missing
    rows; nothing is silently dropped.
    """
    by_tag = {}
    for res in results:
        by_tag[res["regime"]] = res

    provenance = [f"toolkit: embdistill {__version__}"]
    rows = []
    for tag in REGIME_TAGS:
        res = by_tag.get(tag)
        if res is None:
            rows.append(ReportRow(tag))
            continue
        agg = res["aggregate"]
        rows.append(
            ReportRow(
                regime=tag,
                mean_accuracy=agg["mean_accuracy"],
                std_accuracy=agg["std_accuracy"],
                restart_accuracy=agg["restart_test_accuracy"],
                deployed_parameters=res["deployed_parameters"],
            )
        )
        proto = res["protocol"]
        provenance.append(
            f"{tag}: seeds={list(agg['seeds'])}"
            f" lrs={list(proto['learning_rates'])}"
            f" decay_schemes={list(proto['decay_schemes'])}"
            f" dropouts={list(proto['dropout_rates'])}"
            f" batch={proto['batch_size']} epochs={proto['max_epochs']}"
        )

    relative_time = relative_time_batched = None
    if bench is not None:
        relative_time = bench["relative_time"]
        relative_time_batched = bench.get("relative_time_batched")
        provenance.append(
            f"bench: reps={bench['reps']} corpus={bench['corpus_size']} samples"
        )
    return ComparisonReport(rows, relative_time, provenance, relative_time_batched)


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f}"


def format_tsv(report: ComparisonReport) -> str:
    lines = [f"# {p}" for p in report.provenance]
    lines.append(
        "method\tmean_accuracy\tstd_accuracy\trestart_accuracy\tdeployed_parameters"
    )
    for row in report.rows:
        if row.available:
            lines.append(
                f"{row.regime}\t{_pct(row.mean_accuracy)}\t{_pct(row.std_accuracy)}"
                f"\t{_pct(row.restart_accuracy)}\t{row.deployed_parameters}"
            )
        else:
            lines.append(f"{row.regime}\t{MISSING}\t{MISSING}\t{MISSING}\t{MISSING}")
    if report.relative_time is not None:
        lines.append(f"relative_time\t{report.relative_time:.6f}")
    if report.relative_time_batched is not None:
        lines.append(f"relative_time_batched\t{report.relative_time_batched:.6f}")
    return "\n".join(lines) + "\n"


def format_text(report: ComparisonReport) -> str:
    lines = list(report.provenance)
    lines.append("")
    header = f"{'method':<24}{'mean acc (%)':<16}{'restart acc (%)':<18}{'deployed params':>16}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.rows:
        label = _LABELS[row.regime]
        if row.available:
            acc = f"{_pct(row.mean_accuracy)} ± {_pct(row.std_accuracy)}"
            lines.append(
                f"{label:<24}{acc:<16}{_pct(row.restart_accuracy):<18}"
                f"{row.deployed_parameters:>16,}"
            )
        else:
            lines.append(f"{label:<24}(missing)")
    if report.relative_time is not None:
        lines.append("")
        lines.append(
            "relative inference time, per-sample predict (small / large): "
            f"{report.relative_time:.2f}x"
        )
    if report.relative_time_batched is not None:
        lines.append(
            "relative inference time, batched evaluation (small / large): "
            f"{report.relative_time_batched:.2f}x"
        )
    return "\n".join(lines) + "\n"
