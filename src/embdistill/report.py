"""Comparison report rendering.

The report mirrors the two headline tables of a regime comparison:
mean +- std test accuracy per regime (with the restart pick), and the
deployed parameter counts plus the measured relative inference time,
per-sample and, when the bench measured it, batched.
Output is a tab-separated file and an aligned-text twin; both are
deterministic functions of the saved result files.
"""

from __future__ import annotations

from . import __version__
from .distillation import REGIME_TAGS

MISSING = "MISSING"

_LABELS = {
    "direct_small": "Direct small network",
    "matching_softmax": "Matching softmax",
    "encoding_distill": "Encoding distillation",
}


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f}"


def render_report(results: dict[str, dict], bench: dict | None = None) -> tuple[str, str]:
    """The report's tab-separated and aligned-text renderings, built from
    result dicts keyed by regime tag and an optional bench dict.

    Regimes without a result file appear as explicitly marked missing
    rows; nothing is silently dropped.
    """
    provenance = [f"toolkit: embdistill {__version__}"]
    tsv = ["method\tmean_accuracy\tstd_accuracy\trestart_accuracy\tdeployed_parameters"]
    header = f"{'method':<24}{'mean acc (%)':<16}{'restart acc (%)':<18}{'deployed params':>16}"
    txt = ["", header, "-" * len(header)]
    for tag in REGIME_TAGS:
        label = _LABELS[tag]
        res = results.get(tag)
        if res is None:
            tsv.append(f"{tag}\t{MISSING}\t{MISSING}\t{MISSING}\t{MISSING}")
            txt.append(f"{label:<24}(missing)")
            continue
        agg = res["aggregate"]
        mean, std = _pct(agg["mean_accuracy"]), _pct(agg["std_accuracy"])
        restart = _pct(agg["restart_test_accuracy"])
        params = res["deployed_parameters"]
        tsv.append(f"{tag}\t{mean}\t{std}\t{restart}\t{params}")
        txt.append(f"{label:<24}{f'{mean} ± {std}':<16}{restart:<18}{params:>16,}")
        proto = res["protocol"]
        provenance.append(
            f"{tag}: seeds={list(agg['seeds'])}"
            f" lrs={list(proto['learning_rates'])}"
            f" decay_schemes={list(proto['decay_schemes'])}"
            f" dropouts={list(proto['dropout_rates'])}"
            f" batch={proto['batch_size']} epochs={proto['max_epochs']}"
        )

    if bench is not None:
        relative_time = bench["relative_time"]
        batched = bench.get("relative_time_batched")
        provenance.append(f"bench: reps={bench['reps']} corpus={bench['corpus_size']} samples")
        if relative_time is not None:
            tsv.append(f"relative_time\t{relative_time:.6f}")
            txt += ["", "relative inference time, per-sample predict (small / large): "
                    f"{relative_time:.2f}x"]
        if batched is not None:
            tsv.append(f"relative_time_batched\t{batched:.6f}")
            txt.append("relative inference time, batched evaluation (small / large): "
                       f"{batched:.2f}x")
    tsv = [f"# {p}" for p in provenance] + tsv
    txt = provenance + txt
    return "\n".join(tsv) + "\n", "\n".join(txt) + "\n"
