"""Command-line entry points.

Subcommands: prepare, teacher, soft-targets, train, distill, fold,
eval, bench, compare.  A JSON config file (flat keys, same names as the
long flags) can supply any value; explicit flags win.  Exit codes: 0
success, 2 configuration problem, 3 data problem, 4 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .data import (
    ALL_PHRASES,
    N_CLASSES,
    DatasetSplits,
    SENTENCE_ONLY,
    SampleSet,
    build_vocab,
    extract_samples,
    read_tree_file,
)
from .distillation import (
    DIRECT_SMALL,
    ENCODING_DISTILL,
    MATCHING_SOFTMAX,
    REGIME_TAGS,
    Regime,
    RegimeOutcome,
    fold_model,
    generate_soft_targets,
    load_soft_targets,
    run_regime,
    save_soft_targets,
    train_teacher,
)
from .embeddings import (
    EmbeddingTable,
    Vocabulary,
    align_to_vocab,
    atomic_write,
    load_table,
    load_word2vec_text,
    open_text,
)
from .errors import ConfigError, DataError, DivergenceError
from .model import (
    ModelConfig,
    count_parameters,
    evaluate_accuracy,
    load_model,
    predict,
    save_model,
)
from .report import render_report
from .training import TrainConfig, TrainingProtocol

_SPLIT_FILES = {"train": "train.samples", "valid": "valid.samples", "test": "test.samples"}
_SENTENCE_TRAIN = "train_sentence.samples"


# ---------------------------------------------------------------------------
# config plumbing

def _load_config_file(path) -> dict:
    with open_text(path, ConfigError) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON config ({exc})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


def _merged(args, key: str, default=None):
    """Flag value if given, else config-file value, else default (a JSON
    null counts as not given)."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        value = getattr(args, "_config", {}).get(key)
    return default if value is None else value


def _require(args, key: str):
    value = _merged(args, key)
    if value is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return value


def _convert(value, kind, key: str):
    """``kind(value)``, the one conversion for flag strings and config-file
    values alike; a value that does not convert, a JSON boolean, a
    fractional number for an int, or a float that is not finite, is a
    ConfigError naming the option."""
    flag = f"--{key.replace('_', '-')}"
    try:
        out = kind(value)
        if isinstance(value, bool) or (kind is int and isinstance(value, float) and out != value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{flag}: cannot read {value!r} as {kind.__name__}") from None
    if kind is float and not np.isfinite(out):
        raise ConfigError(f"{flag}: {out} is not a finite number")
    return out


def _option(args, key: str, kind, default=None):
    """``_merged`` converted by ``kind``; None stays None."""
    value = _merged(args, key, default)
    return None if value is None else _convert(value, kind, key)


def _switch(args, key: str) -> bool:
    """An on/off flag, or a JSON true/false from the config file."""
    value = _merged(args, key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"--{key.replace('_', '-')}: expected true or false, got {value!r}")
    return value


def _list(args, key: str, kind, default: tuple) -> tuple:
    """A comma-separated flag value or a config-file list (else
    ``default``), each item converted by ``kind``."""
    value = _merged(args, key, default)
    if not isinstance(value, (list, tuple)):
        value = [v for v in str(value).split(",") if v != ""]
    return tuple(_convert(v, kind, key) for v in value)


def _out_dir(args) -> str:
    out = _require(args, "out")
    os.makedirs(out, exist_ok=True)
    return out


def _dump_json(payload: dict, path) -> None:
    with atomic_write(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# prepared-dataset cache

def _write_samples(path, samples) -> None:
    with atomic_write(path, "w") as fh:
        for s in samples:
            fh.write(f"{s.label}\t{' '.join(str(int(t)) for t in s.tokens)}\n")


def _read_samples(path, vocab_size: int) -> SampleSet:
    """Prepared samples whose token ids all index a ``vocab_size`` table
    and whose labels are classes 0..N_CLASSES-1."""
    tokens, lengths, labels, linenos = [], [], [], []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            try:
                label_text, tokens_text = line.split("\t")
                ids = [int(t) for t in tokens_text.split()]
                labels.append(int(label_text))
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed sample line") from None
            if not ids:
                raise DataError(f"{path}:{lineno}: sample without tokens")
            tokens.extend(ids)
            lengths.append(len(ids))
            linenos.append(lineno)
    if not lengths:
        raise DataError(f"{path}: no samples")
    lengths = np.array(lengths, dtype=np.intp)
    samples = SampleSet(np.array(tokens, dtype=np.intp), np.cumsum(lengths) - lengths,
                        lengths, np.array(labels, dtype=np.intp))
    # one vectorised range check; the first offending line is reported
    bad_token = (samples.tokens < 0) | (samples.tokens >= vocab_size)
    bad_label = (samples.labels < 0) | (samples.labels >= N_CLASSES)
    bad = bad_label | np.logical_or.reduceat(bad_token, samples.starts)
    if bad.any():
        i = int(bad.argmax())
        if bad_label[i]:
            raise DataError(
                f"{path}:{linenos[i]}: label {labels[i]} outside 0..{N_CLASSES - 1}"
            )
        ids = samples[i].tokens
        raise DataError(
            f"{path}:{linenos[i]}: token id {ids[(ids < 0) | (ids >= vocab_size)][0]} "
            f"outside the vocabulary of {vocab_size} tokens"
        )
    return samples


def _read_vocab_file(path) -> Vocabulary:
    """The prepared vocabulary, one token per line; blank lines are skipped."""
    words, seen = [], set()
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            word = raw.rstrip("\n")
            if not word:
                continue
            if word in seen:
                raise DataError(f"{path}:{lineno}: duplicate vocabulary token {word!r}")
            seen.add(word)
            words.append(word)
    return Vocabulary.from_words(words)


def _load_prepared(data_dir, train_file: str = "train.samples") -> DatasetSplits:
    vocab = _read_vocab_file(os.path.join(data_dir, "vocab.txt"))
    return DatasetSplits(
        train=_read_samples(os.path.join(data_dir, train_file), len(vocab)),
        valid=_read_samples(os.path.join(data_dir, "valid.samples"), len(vocab)),
        test=_read_samples(os.path.join(data_dir, "test.samples"), len(vocab)),
        vocab=vocab,
    )


def _prepared_split(data_dir, file_name: str, *models) -> SampleSet:
    """One prepared sample file, checked against the data's vocabulary
    and the vocabulary of every model that will read it."""
    vocab = _read_vocab_file(os.path.join(data_dir, "vocab.txt"))
    for model in models:
        words = model.embedding.vocab.words
        if words != vocab.words:
            first = next((i for i, (a, b) in enumerate(zip(words, vocab.words)) if a != b),
                         min(len(words), len(vocab)))
            raise ConfigError(
                f"model vocabulary ({len(words)} words) does not match prepared data "
                f"({len(vocab)} words): they first differ at position {first}"
            )
    return _read_samples(os.path.join(data_dir, file_name), len(vocab))


def cmd_prepare(args) -> int:
    mode = _merged(args, "mode", ALL_PHRASES)
    if mode not in (ALL_PHRASES, SENTENCE_ONLY):
        raise ConfigError(f"unknown mode {mode!r}")
    lowercase = _switch(args, "lowercase")

    # Parse everything before writing anything, so a bad line can never
    # leave a partial cache behind.
    train_trees = read_tree_file(_require(args, "train"))
    valid_trees = read_tree_file(_require(args, "valid"))
    test_trees = read_tree_file(_require(args, "test"))
    vocab = build_vocab(train_trees, lowercase)

    train_phrases = [
        s for t in train_trees for s in extract_samples(t, ALL_PHRASES, vocab, lowercase)
    ]
    train_sentences = [
        s for t in train_trees for s in extract_samples(t, SENTENCE_ONLY, vocab, lowercase)
    ]
    valid = [
        s for t in valid_trees for s in extract_samples(t, SENTENCE_ONLY, vocab, lowercase)
    ]
    test = [
        s for t in test_trees for s in extract_samples(t, SENTENCE_ONLY, vocab, lowercase)
    ]
    train = train_phrases if mode == ALL_PHRASES else train_sentences

    out = _out_dir(args)
    with atomic_write(os.path.join(out, "vocab.txt"), "w") as fh:
        fh.write("\n".join(vocab.words) + "\n")
    _write_samples(os.path.join(out, "train.samples"), train)
    _write_samples(os.path.join(out, _SENTENCE_TRAIN), train_sentences)
    _write_samples(os.path.join(out, "valid.samples"), valid)
    _write_samples(os.path.join(out, "test.samples"), test)
    _dump_json(
        {
            "mode": mode,
            "lowercase": lowercase,
            "vocab_size": len(vocab),
            "train_sentences": len(train_sentences),
            "train_phrases": len(train_phrases),
            "valid": len(valid),
            "test": len(test),
        },
        os.path.join(out, "meta.json"),
    )
    print(f"vocab: {len(vocab)} tokens (unknown token included)")
    print(f"train: {len(train_trees)} trees, {len(train_sentences)} sentence samples, "
          f"{len(train_phrases)} phrase samples")
    print(f"valid: {len(valid)} sentence samples")
    print(f"test: {len(test)} sentence samples")
    print(f"cached mode: {mode}")
    return 0


# ---------------------------------------------------------------------------
# embeddings on the task vocabulary

def _load_any_table(path) -> EmbeddingTable:
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"EMB1":
        return load_table(path)
    return load_word2vec_text(path)


def _task_table(args, vocab: Vocabulary, seed: int) -> EmbeddingTable | None:
    path = _merged(args, "embeddings")
    if path is None:
        return None
    pretrained = _load_any_table(path)
    rng = np.random.default_rng([seed, 2])
    scale = _option(args, "init_scale", float, 0.1)
    return align_to_vocab(pretrained, vocab, rng, scale)


# ---------------------------------------------------------------------------
# protocol assembly

def _protocol(args) -> TrainingProtocol:
    defaults = TrainingProtocol()
    protocol = TrainingProtocol(
        learning_rates=_list(args, "lr", float, defaults.learning_rates),
        decay_schemes=_list(args, "decay", str, defaults.decay_schemes),
        dropout_rates=_list(args, "dropout", float, defaults.dropout_rates),
        batch_size=_option(args, "batch_size", int, defaults.batch_size),
        max_epochs=_option(args, "epochs", int, defaults.max_epochs),
        patience=_option(args, "patience", int, defaults.patience),
        grid_seed=_option(args, "grid_seed", int, defaults.grid_seed),
        restart_seeds=_list(args, "seeds", int, defaults.restart_seeds),
    )
    if any(lr == 0 for lr in protocol.learning_rates):
        print("warning: learning rate 0 leaves parameters unchanged")
    return protocol


def _outcome_payload(outcome: RegimeOutcome, protocol: TrainingProtocol,
                     model_config: ModelConfig) -> dict:
    grid_rows = []
    for entry in outcome.grid.entries:
        row = {"config": asdict(entry.config), "skipped": entry.skipped}
        if entry.result is not None:
            row.update(
                best_valid_accuracy=entry.result.best_valid_accuracy,
                test_accuracy=entry.result.test_accuracy,
                best_epoch=entry.result.best_epoch,
                seconds=entry.result.seconds,
            )
        grid_rows.append(row)
    return {
        "regime": outcome.regime.tag,
        "toolkit_version": __version__,
        "temperature": outcome.regime.temperature,
        "model_config": asdict(model_config),
        "protocol": asdict(protocol),
        "best_config": asdict(outcome.grid.best_config),
        "grid": grid_rows,
        "aggregate": asdict(outcome.aggregate),
        "deployed_parameters": outcome.deployed_parameters,
    }


def _run_and_save_regime(args, regime: Regime, **regime_kwargs) -> int:
    data_dir = _require(args, "data")
    train_file = "train.samples"
    if _switch(args, "sentences_only"):
        train_file = _SENTENCE_TRAIN
    splits = _load_prepared(data_dir, train_file)
    protocol = _protocol(args)
    options = dict(
        n_hidden=_option(args, "hidden", int, 50),
        n_classes=_option(args, "classes", int, 5),
        jobs=_option(args, "jobs", int, 1),
        init_scale=_option(args, "init_scale", float, 0.1),
    )
    out = _out_dir(args)
    log_dir = os.path.join(out, "logs")
    os.makedirs(log_dir, exist_ok=True)

    outcome = run_regime(regime, splits, protocol, log_dir=log_dir, **options, **regime_kwargs)
    best_path = os.path.join(out, "best.mdl")
    save_model(outcome.best_model, best_path)
    if outcome.folded_model is not None:
        # fold from the saved file so the standalone fold command
        # reproduces this artifact byte for byte
        save_model(fold_model(load_model(best_path)), os.path.join(out, "folded.mdl"))
    _dump_json(
        _outcome_payload(outcome, protocol, outcome.best_model.config),
        os.path.join(out, "result.json"),
    )
    agg = outcome.aggregate
    print(f"regime: {regime.tag}")
    print(f"best config: lr={outcome.grid.best_config.learning_rate:g} "
          f"decay={outcome.grid.best_config.decay_scheme} "
          f"dropout={outcome.grid.best_config.dropout_rate:g}")
    print(f"test accuracy: {100 * agg.mean_accuracy:.1f} ± {100 * agg.std_accuracy:.1f} "
          f"(restart pick {100 * agg.restart_test_accuracy:.1f})")
    print(f"deployed parameters: {outcome.deployed_parameters}")
    return 0


def cmd_train(args) -> int:
    regime_name = _merged(args, "regime", "direct")
    seed = _option(args, "seed", int, 0)
    data_dir = _require(args, "data")
    vocab = _read_vocab_file(os.path.join(data_dir, "vocab.txt"))
    table = _task_table(args, vocab, seed)

    extra = {}
    if regime_name in ("direct", DIRECT_SMALL):
        regime, what = Regime(DIRECT_SMALL), "direct training"
    elif regime_name in ("matching-softmax", MATCHING_SOFTMAX):
        temperature = _option(args, "temperature", float, 2.0)
        regime, what = Regime(MATCHING_SOFTMAX, temperature), "matching softmax"
        extra["soft_targets"] = load_soft_targets(_require(args, "soft_targets"))
    else:
        raise ConfigError(f"unknown regime {regime_name!r} for train")
    embed_dim = _option(args, "embed_dim", int)
    if table is None and embed_dim is None:
        raise ConfigError(f"{what} needs --embeddings or --embed-dim")
    return _run_and_save_regime(args, regime, table=table, embed_dim=embed_dim, **extra)


def cmd_distill(args) -> int:
    seed = _option(args, "seed", int, 0)
    data_dir = _require(args, "data")
    vocab = _read_vocab_file(os.path.join(data_dir, "vocab.txt"))
    table = _task_table(args, vocab, seed)
    if table is None:
        raise ConfigError("distill needs --embeddings with the large pretrained table")
    regime = Regime(ENCODING_DISTILL)
    return _run_and_save_regime(
        args, regime, table=table, distill_dim=_option(args, "distill_dim", int, 50)
    )


def cmd_teacher(args) -> int:
    seed = _option(args, "seed", int, 0)
    data_dir = _require(args, "data")
    splits = _load_prepared(data_dir)
    table = _task_table(args, splits.vocab, seed)
    if table is None:
        raise ConfigError("teacher training needs --embeddings")
    cfg = TrainConfig(
        learning_rate=_option(args, "lr", float, 0.3),
        decay_scheme=_option(args, "decay", str, "constant"),
        batch_size=_option(args, "batch_size", int, 200),
        max_epochs=_option(args, "epochs", int, 30),
        dropout_rate=_option(args, "dropout", float, 0.0),
        seed=seed,
        patience=_option(args, "patience", int, 5),
    )
    if cfg.learning_rate == 0:
        print("warning: learning rate 0 leaves parameters unchanged")
    n_hidden = _option(args, "hidden", int, 200)
    n_classes = _option(args, "classes", int, 5)
    out = _out_dir(args)
    model, result = train_teacher(splits, table, cfg, n_hidden, n_classes)
    save_model(model, os.path.join(out, "teacher.mdl"))
    payload = asdict(result)
    payload["toolkit_version"] = __version__
    payload["parameters"] = count_parameters(model)
    _dump_json(payload, os.path.join(out, "teacher_result.json"))
    with atomic_write(os.path.join(out, "teacher.log"), "w") as fh:
        for epoch, (loss, acc) in enumerate(zip(result.train_losses, result.valid_accuracies)):
            fh.write(f"{epoch}\t{loss:.6f}\t{acc:.6f}\n")
    print(f"teacher validation accuracy: {100 * result.best_valid_accuracy:.1f}")
    print(f"teacher test accuracy: {100 * result.test_accuracy:.1f}")
    print(f"teacher parameters: {count_parameters(model)}")
    return 0


def cmd_soft_targets(args) -> int:
    data_dir = _require(args, "data")
    train_file = _SENTENCE_TRAIN if _switch(args, "sentences_only") else "train.samples"
    teacher = load_model(_require(args, "teacher"))
    samples = _prepared_split(data_dir, train_file, teacher)
    temperature = _option(args, "temperature", float, 2.0)
    targets = generate_soft_targets(teacher, samples, temperature)
    out = _out_dir(args)
    path = os.path.join(out, "soft_targets.sft")
    save_soft_targets(targets, path)
    print(f"wrote {len(targets)} soft targets at T={temperature:g} to {path}")
    return 0


def cmd_fold(args) -> int:
    model = load_model(_require(args, "model"))
    folded = fold_model(model)
    out_path = _require(args, "out")
    save_model(folded, out_path)
    print(f"folded parameters: {count_parameters(folded)} "
          f"(was {count_parameters(model)})")
    return 0


def cmd_eval(args) -> int:
    model = load_model(_require(args, "model"))
    data_dir = _require(args, "data")
    split = _merged(args, "split", "test")
    if split not in _SPLIT_FILES:
        raise ConfigError(f"unknown split {split!r}, expected one of {sorted(_SPLIT_FILES)}")
    samples = _prepared_split(data_dir, _SPLIT_FILES[split], model)
    acc = evaluate_accuracy(model, samples)
    print(f"{split} accuracy: {acc:.6f} ({len(samples)} samples)")
    return 0


# Each slot of a rep's palindromes runs sweeps for about this long.
_MIN_REP_SECONDS = 0.1


def _predict_each(model, samples) -> np.ndarray:
    """The deployed use: one ``predict`` call per sample, each timed."""
    clock = time.perf_counter
    seconds = np.empty(len(samples))
    for i, s in enumerate(samples):
        start = clock()
        predict(model, s)
        seconds[i] = clock() - start
    return seconds


def _evaluate_all(model, samples) -> np.ndarray:
    """One batched ``evaluate_accuracy`` sweep, timed as a whole."""
    start = time.perf_counter()
    evaluate_accuracy(model, samples)
    return np.array([time.perf_counter() - start])


def _fastest_seconds(sweep, large, small, samples, reps: int) -> tuple[float, float]:
    """Seconds per sweep of each model: the fastest run of every part a
    sweep times, over all its sweeps, summed over the parts.

    Warm-up sweeps double as probes that size the repetitions; sweeps
    then run in palindrome order (large, small, small, large).  The
    host's speed drifts over milliseconds to seconds, so a whole sweep
    rarely runs at full speed, while each short part (one ``predict``
    call) does in some sweep; a stall shows in no part's fastest run.
    """
    probe = min(sweep(large, samples).sum(), sweep(small, samples).sum())
    loops = max(1, int(np.ceil(_MIN_REP_SECONDS / max(probe, 1e-9))))
    best = [np.inf, np.inf]  # large, small
    for _ in range(reps * loops):
        for which in (0, 1, 1, 0):
            best[which] = np.minimum(best[which], sweep((large, small)[which], samples))
    return float(best[0].sum()), float(best[1].sum())


def cmd_bench(args) -> int:
    reps = _option(args, "reps", int, 5)
    if reps < 3:
        raise ConfigError(f"bench needs reps >= 3, got {reps}")
    data_dir = _require(args, "data")
    split = _merged(args, "split", "test")
    if split not in _SPLIT_FILES:
        raise ConfigError(f"unknown split {split!r}")
    large = load_model(_require(args, "large"))
    small = load_model(_require(args, "small"))
    samples = _prepared_split(data_dir, _SPLIT_FILES[split], large, small)
    # per-sample predict is what a deployed model serves (its Samples
    # are built once, outside the timing); a batched evaluate_accuracy
    # sweep shows the layer math without most of the per-call
    # interpreter overhead
    large_sec, small_sec = _fastest_seconds(_predict_each, large, small, list(samples), reps)
    large_batched, small_batched = _fastest_seconds(
        _evaluate_all, large, small, samples, reps
    )
    payload = {
        "large_seconds": large_sec,
        "small_seconds": small_sec,
        "relative_time": small_sec / large_sec,
        "large_seconds_batched": large_batched,
        "small_seconds_batched": small_batched,
        "relative_time_batched": small_batched / large_batched,
        "reps": reps,
        "corpus_size": len(samples),
        "large_parameters": count_parameters(large),
        "small_parameters": count_parameters(small),
    }
    out = _merged(args, "out")
    if out is not None:
        _dump_json(payload, out)
    print(f"large: {large_sec:.4f}s  small: {small_sec:.4f}s  "
          f"relative time: {payload['relative_time']:.4f}x per-sample predict, "
          f"{payload['relative_time_batched']:.4f}x batched "
          f"(fastest of {reps} reps over {len(samples)} samples)")
    return 0


def _read_json(path) -> dict:
    """A JSON object from a result or bench file."""
    with open_text(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object")
    return payload


def cmd_compare(args) -> int:
    result_paths = _merged(args, "results")
    if not result_paths:
        raise ConfigError("compare needs at least one result file")
    results = {}
    for path in result_paths:
        res = _read_json(path)
        tag = res.get("regime")
        if tag not in REGIME_TAGS:
            raise DataError(
                f"{path}: unknown regime {tag!r}, expected one of {', '.join(REGIME_TAGS)}"
            )
        if tag in results:
            raise ConfigError(f"duplicate result for regime {tag!r}")
        results[tag] = res
    bench = None
    bench_path = _merged(args, "bench")
    if bench_path is not None:
        bench = _read_json(bench_path)
    try:
        tsv, txt = render_report(results, bench)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"malformed result or bench file ({type(exc).__name__}: {exc})"
        ) from None
    out = _out_dir(args)
    with atomic_write(os.path.join(out, "report.tsv"), "w") as fh:
        fh.write(tsv)
    with atomic_write(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(txt)
    print(txt, end="")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--seed", help="base seed")
    p.add_argument("--jobs", help="max concurrent grid lanes")
    p.add_argument("--out", help="output directory (or file for fold/bench)")


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", help="learning rate (train/distill: comma-separated grid)")
    p.add_argument("--decay", help="decay scheme (train/distill: comma-separated list)")
    p.add_argument("--dropout", help="dropout rate (train/distill: comma-separated grid)")
    p.add_argument("--batch-size")
    p.add_argument("--epochs")
    p.add_argument("--patience")
    p.add_argument("--hidden", help="hidden layer width")
    p.add_argument("--classes", help="number of classes")


def _add_protocol_flags(p: argparse.ArgumentParser) -> None:
    _add_training_flags(p)
    p.add_argument("--grid-seed")
    p.add_argument("--seeds", help="comma-separated restart seeds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embdistill",
        description="Distill task knowledge from large word embeddings into small ones.",
    )
    parser.add_argument("--version", action="version", version=f"embdistill {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="parse tree files and cache vocab/splits")
    p.add_argument("--train")
    p.add_argument("--valid")
    p.add_argument("--test")
    p.add_argument("--mode", help="all_phrases (default) or sentence_only")
    p.add_argument("--lowercase", action="store_const", const=True)
    _add_common(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("teacher", help="train the large-scale teacher model")
    p.add_argument("--data")
    p.add_argument("--embeddings")
    _add_training_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_teacher)

    p = sub.add_parser("soft-targets", help="cache teacher distributions for training")
    p.add_argument("--data")
    p.add_argument("--teacher")
    p.add_argument("--temperature")
    p.add_argument("--sentences-only", action="store_const", const=True)
    _add_common(p)
    p.set_defaults(func=cmd_soft_targets)

    p = sub.add_parser("train", help="run a small-model regime (direct or matching-softmax)")
    p.add_argument("--data")
    p.add_argument("--regime", help="direct (default) or matching-softmax")
    p.add_argument("--embeddings", help="small pretrained vectors")
    p.add_argument("--embed-dim", help="random-vector width when no file")
    p.add_argument("--init-scale")
    p.add_argument("--soft-targets", help="cache from the soft-targets command")
    p.add_argument("--temperature")
    p.add_argument("--sentences-only", action="store_const", const=True)
    _add_protocol_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("distill", help="run the encoding regime on large embeddings")
    p.add_argument("--data")
    p.add_argument("--embeddings", help="large pretrained vectors")
    p.add_argument("--distill-dim")
    p.add_argument("--init-scale")
    _add_protocol_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("fold", help="bake a model's encoder into a small table")
    p.add_argument("--model")
    _add_common(p)
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("eval", help="accuracy of a saved model on a split")
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--split", help="train, valid or test (default)")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="relative inference time of two saved models")
    p.add_argument("--large")
    p.add_argument("--small")
    p.add_argument("--data")
    p.add_argument("--split", help="train, valid or test (default)")
    p.add_argument("--reps")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", help="emit the regime comparison report")
    p.add_argument("--results", nargs="+", help="result.json files, one per regime")
    p.add_argument("--bench", help="bench output for the relative-time row")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _load_config_file(args.config) if getattr(args, "config", None) else {}
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
