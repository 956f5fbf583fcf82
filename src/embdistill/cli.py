"""Command-line entry points.

Subcommands: prepare, teacher, soft-targets, train, distill, fold,
eval, bench, compare.  Each command declares its options once, in one
table; a JSON config file (flat keys, the long flag names with ``_``
for ``-``) can supply any of them, and explicit flags win.  Exit codes:
0 success, 2 configuration problem, 3 data problem, 4 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from . import __version__
from .data import ALL_PHRASES, N_CLASSES, SENTENCE_ONLY, DatasetSplits, SampleSet, read_splits
from .distillation import (
    DEFAULT_TEMPERATURE,
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
# options

def _load_config_file(path) -> dict:
    with open_text(path, ConfigError) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON config ({exc})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


class _Option(NamedTuple):
    """One option of a command.  ``kind`` is int, float, str, bool (an
    on/off flag) or a one-item list such as ``[float]``: a list of that
    kind, given as a JSON list or as one comma-separated flag word (several
    words with ``nargs="+"``).  An option without a default is read as
    required (``opts[key]``) or optional (``opts.get(key)``).  A number
    below ``least``, when set, is refused."""

    kind: object
    default: object = None
    help: str | None = None
    nargs: str | None = None
    least: int | None = None


class _Options(dict):
    """A command's converted option values; a required option nobody
    gave is reported where the command reads it."""

    def __missing__(self, key):
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")


def _convert(value, kind, key: str, least=None):
    """``kind(value)``, the one conversion for flag strings and config-file
    values alike; a value that does not convert, a non-string for a string
    option, a JSON boolean, a fractional number for an int, a float that
    is not finite, or a number below ``least``, is a ConfigError naming
    the option.  An on/off option takes only true or false."""
    flag = f"--{key.replace('_', '-')}"
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{flag}: expected true or false, got {value!r}")
        return value
    try:
        out = kind(value)
        if (isinstance(value, bool) or (kind is str and not isinstance(value, str))
                or (kind is int and isinstance(value, float) and out != value)):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{flag}: cannot read {value!r} as {kind.__name__}") from None
    if kind is float and not np.isfinite(out):
        raise ConfigError(f"{flag}: {out} is not a finite number")
    if least is not None and out < least:
        raise ConfigError(f"{flag}: must be >= {least}, got {out}")
    return out


def _read_options(args) -> _Options:
    """Every option in the command's table: the flag if given, else
    the config-file value (a JSON null counts as not given), else the
    default, each converted by ``_convert``.  A config key the command
    does not declare is a ConfigError naming the file and the key."""
    table = args.table
    config = _load_config_file(args.config) if args.config else {}
    for key in config:
        if key not in table:
            raise ConfigError(f"{args.config}: {args.command} has no option {key!r}")
    opts = _Options()
    for key, opt in table.items():
        value = getattr(args, key)
        if value is None:
            value = config.get(key)
        if value is None:
            value = opt.default
        if value is None:
            continue
        if isinstance(opt.kind, list):
            if isinstance(value, str):
                value = [value] if opt.nargs else [v for v in value.split(",") if v != ""]
            elif not isinstance(value, (list, tuple)):
                value = [value]
            opts[key] = tuple(_convert(v, opt.kind[0], key, opt.least) for v in value)
        else:
            opts[key] = _convert(value, opt.kind, key, opt.least)
    return opts


def _out_dir(opts) -> str:
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _dump_json(payload: dict, path) -> None:
    with atomic_write(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# prepared-dataset cache

def _write_samples(path, samples: SampleSet, id_text: np.ndarray) -> None:
    """One ``label<TAB>id id …`` line per sample, written in one call;
    ``id_text[i]`` is ``str(i)``, made once for every file of a vocabulary."""
    ids = id_text[samples.tokens].tolist()
    text = "".join([f"{label}\t{' '.join(ids[start:start + length])}\n" for label, start, length
                    in zip(samples.labels.tolist(), samples.starts.tolist(),
                           samples.lengths.tolist())])
    with atomic_write(path, "w") as fh:
        fh.write(text)


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
    index: dict[str, int] = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            word = raw.rstrip("\n")
            if not word:
                continue
            if word in index:
                raise DataError(f"{path}:{lineno}: duplicate vocabulary token {word!r}")
            index[word] = len(index)
    return Vocabulary.from_index(index)


def _load_prepared(data_dir, sentences_only: bool = False) -> DatasetSplits:
    vocab = _read_vocab_file(os.path.join(data_dir, "vocab.txt"))
    train_file = _SENTENCE_TRAIN if sentences_only else "train.samples"
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


def cmd_prepare(opts) -> int:
    mode = opts["mode"]
    if mode not in (ALL_PHRASES, SENTENCE_ONLY):
        raise ConfigError(f"unknown mode {mode!r}")
    lowercase = opts["lowercase"]

    # Parse everything before writing anything, so a bad line can never
    # leave a partial cache behind.
    splits, sentences = read_splits(opts["train"], opts["valid"], opts["test"], lowercase)

    out = _out_dir(opts)
    with atomic_write(os.path.join(out, "vocab.txt"), "w") as fh:
        fh.write("\n".join(splits.vocab.words) + "\n")
    id_text = np.array(list(map(str, range(len(splits.vocab)))), dtype=object)
    _write_samples(os.path.join(out, "train.samples"),
                   splits.train if mode == ALL_PHRASES else sentences, id_text)
    _write_samples(os.path.join(out, _SENTENCE_TRAIN), sentences, id_text)
    _write_samples(os.path.join(out, "valid.samples"), splits.valid, id_text)
    _write_samples(os.path.join(out, "test.samples"), splits.test, id_text)
    _dump_json(
        {
            "mode": mode,
            "lowercase": lowercase,
            "vocab_size": len(splits.vocab),
            "train_sentences": len(sentences),
            "train_phrases": len(splits.train),
            "valid": len(splits.valid),
            "test": len(splits.test),
        },
        os.path.join(out, "meta.json"),
    )
    print(f"vocab: {len(splits.vocab)} tokens (unknown token included)")
    print(f"train: {len(sentences)} trees, {len(sentences)} sentence samples, "
          f"{len(splits.train)} phrase samples")
    print(f"valid: {len(splits.valid)} sentence samples")
    print(f"test: {len(splits.test)} sentence samples")
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


def _task_table(opts, vocab: Vocabulary) -> EmbeddingTable | None:
    path = opts.get("embeddings")
    if path is None:
        return None
    pretrained = _load_any_table(path)
    rng = np.random.default_rng([opts["seed"], 2])
    return align_to_vocab(pretrained, vocab, rng, opts["init_scale"])


# ---------------------------------------------------------------------------
# protocol assembly

def _protocol(opts) -> TrainingProtocol:
    protocol = TrainingProtocol(
        learning_rates=opts["lr"],
        decay_schemes=opts["decay"],
        dropout_rates=opts["dropout"],
        batch_size=opts["batch_size"],
        max_epochs=opts["epochs"],
        patience=opts["patience"],
        grid_seed=opts["grid_seed"],
        restart_seeds=opts["seeds"],
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


def _run_and_save_regime(opts, regime: Regime, splits: DatasetSplits, **regime_kwargs) -> int:
    protocol = _protocol(opts)
    out = opts["out"]
    # run_regime makes the log directory, and so ``out``, after its checks
    outcome = run_regime(regime, splits, protocol, log_dir=os.path.join(out, "logs"),
                         n_hidden=opts["hidden"], n_classes=opts["classes"], jobs=opts["jobs"],
                         init_scale=opts["init_scale"], **regime_kwargs)
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


def cmd_train(opts) -> int:
    regime_name = opts["regime"]
    if regime_name in ("direct", DIRECT_SMALL):
        regime, what = Regime(DIRECT_SMALL), "direct training"
        for key in ("soft_targets", "temperature"):
            if key in opts:
                raise ConfigError(f"--{key.replace('_', '-')}: {what} reads no soft targets")
    elif regime_name in ("matching-softmax", MATCHING_SOFTMAX):
        regime = Regime(MATCHING_SOFTMAX, opts.get("temperature", DEFAULT_TEMPERATURE))
        what = "matching softmax"
    else:
        raise ConfigError(f"unknown regime {regime_name!r} for train")
    embed_dim = opts.get("embed_dim")
    if embed_dim is not None and "embeddings" in opts:
        raise ConfigError("--embed-dim: the --embeddings file sets the vector width")
    if embed_dim is not None and not opts["init_scale"] > 0:
        raise ConfigError(f"--init-scale: must be > 0 for random vectors, "
                          f"got {opts['init_scale']}")
    splits = _load_prepared(opts["data"], opts["sentences_only"])
    table = _task_table(opts, splits.vocab)
    soft_targets = None if regime.tag == DIRECT_SMALL else load_soft_targets(opts["soft_targets"])
    if table is None and embed_dim is None:
        raise ConfigError(f"{what} needs --embeddings or --embed-dim")
    return _run_and_save_regime(opts, regime, splits, table=table, embed_dim=embed_dim,
                                soft_targets=soft_targets)


def cmd_distill(opts) -> int:
    splits = _load_prepared(opts["data"], opts["sentences_only"])
    table = _task_table(opts, splits.vocab)
    if table is None:
        raise ConfigError("distill needs --embeddings with the large pretrained table")
    if opts["distill_dim"] >= table.dim:
        raise ConfigError(f"--distill-dim: {opts['distill_dim']} must be smaller than "
                          f"the vector width {table.dim}")
    return _run_and_save_regime(opts, Regime(ENCODING_DISTILL), splits, table=table,
                                distill_dim=opts["distill_dim"])


def cmd_teacher(opts) -> int:
    splits = _load_prepared(opts["data"])
    table = _task_table(opts, splits.vocab)
    if table is None:
        raise ConfigError("teacher training needs --embeddings")
    cfg = TrainConfig(
        learning_rate=opts["lr"],
        decay_scheme=opts["decay"],
        batch_size=opts["batch_size"],
        max_epochs=opts["epochs"],
        dropout_rate=opts["dropout"],
        seed=opts["seed"],
        patience=opts["patience"],
    )
    if cfg.learning_rate == 0:
        print("warning: learning rate 0 leaves parameters unchanged")
    model, result = train_teacher(splits, table, cfg, opts["hidden"], opts["classes"])
    out = _out_dir(opts)
    save_model(model, os.path.join(out, "teacher.mdl"))
    payload = asdict(result)
    payload["toolkit_version"] = __version__
    payload["parameters"] = count_parameters(model)
    _dump_json(payload, os.path.join(out, "teacher_result.json"))
    print(f"teacher validation accuracy: {100 * result.best_valid_accuracy:.1f}")
    print(f"teacher test accuracy: {100 * result.test_accuracy:.1f}")
    print(f"teacher parameters: {count_parameters(model)}")
    return 0


def cmd_soft_targets(opts) -> int:
    data_dir = opts["data"]
    train_file = _SENTENCE_TRAIN if opts["sentences_only"] else "train.samples"
    teacher = load_model(opts["teacher"])
    samples = _prepared_split(data_dir, train_file, teacher)
    temperature = opts["temperature"]
    targets = generate_soft_targets(teacher, samples, temperature)
    out = _out_dir(opts)
    path = os.path.join(out, "soft_targets.sft")
    save_soft_targets(targets, path)
    print(f"wrote {len(targets)} soft targets at T={temperature:g} to {path}")
    return 0


def cmd_fold(opts) -> int:
    model = load_model(opts["model"])
    folded = fold_model(model)
    save_model(folded, opts["out"])
    print(f"folded parameters: {count_parameters(folded)} "
          f"(was {count_parameters(model)})")
    return 0


def _split_file(opts) -> str:
    """The prepared file of ``--split``; checked before any file is read."""
    split = opts["split"]
    if split not in _SPLIT_FILES:
        raise ConfigError(f"unknown split {split!r}, expected one of {sorted(_SPLIT_FILES)}")
    return _SPLIT_FILES[split]


def cmd_eval(opts) -> int:
    split_file = _split_file(opts)
    model = load_model(opts["model"])
    samples = _prepared_split(opts["data"], split_file, model)
    acc = evaluate_accuracy(model, samples)
    print(f"{opts['split']} accuracy: {acc:.6f} ({len(samples)} samples)")
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


def cmd_bench(opts) -> int:
    split_file = _split_file(opts)
    reps = opts["reps"]
    large = load_model(opts["large"])
    small = load_model(opts["small"])
    samples = _prepared_split(opts["data"], split_file, large, small)
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
    out = opts.get("out")
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


def cmd_compare(opts) -> int:
    result_paths = opts.get("results")
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
    bench_path = opts.get("bench")
    if bench_path is not None:
        bench = _read_json(bench_path)
    try:
        tsv, txt = render_report(results, bench)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"malformed result or bench file ({type(exc).__name__}: {exc})"
        ) from None
    out = _out_dir(opts)
    with atomic_write(os.path.join(out, "report.tsv"), "w") as fh:
        fh.write(tsv)
    with atomic_write(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(txt)
    print(txt, end="")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _commands() -> dict:
    """Each command's function, help and option table.  Built with the
    parser, not at import, so the ``cmd_*`` functions bound in this
    module at that time are the ones that run."""
    grid, trial = TrainingProtocol(), TrainConfig(learning_rate=0.3)
    data = _Option(str, help="prepared data directory")
    out = _Option(str, help="output directory")
    seed = _Option(int, trial.seed, "base seed", least=0)
    init_scale = _Option(float, 0.1, "scale of random vectors for words the table lacks")
    temperature = _Option(float, DEFAULT_TEMPERATURE, "softmax temperature")
    sentences_only = _Option(bool, False, "train on whole sentences, not every phrase")
    classes = _Option(int, 5, "number of classes", least=1)
    split = _Option(str, "test", "train, valid or test (default)")
    regime_options = {
        "data": data,
        "lr": _Option([float], grid.learning_rates, "comma-separated learning-rate grid"),
        "decay": _Option([str], grid.decay_schemes, "comma-separated decay schemes"),
        "dropout": _Option([float], grid.dropout_rates, "comma-separated dropout grid"),
        "batch_size": _Option(int, grid.batch_size, least=1),
        "epochs": _Option(int, grid.max_epochs, least=1),
        "patience": _Option(int, grid.patience, least=1),
        "grid_seed": _Option(int, grid.grid_seed, least=0),
        "seeds": _Option([int], grid.restart_seeds, "comma-separated restart seeds", least=0),
        "hidden": _Option(int, 50, "hidden layer width", least=1),
        "classes": classes, "init_scale": init_scale, "sentences_only": sentences_only,
        "seed": seed, "jobs": _Option(int, 1, "max processes for lanes and restarts", least=1),
        "out": out,
    }
    return {
        "prepare": (cmd_prepare, "parse tree files and cache vocab/splits", {
            "train": _Option(str), "valid": _Option(str), "test": _Option(str),
            "mode": _Option(str, ALL_PHRASES, "all_phrases (default) or sentence_only"),
            "lowercase": _Option(bool, False),
            "out": out,
        }),
        "teacher": (cmd_teacher, "train the large-scale teacher model", {
            "data": data, "embeddings": _Option(str), "init_scale": init_scale,
            "lr": _Option(float, trial.learning_rate, "learning rate"),
            "decay": _Option(str, trial.decay_scheme, "decay scheme"),
            "dropout": _Option(float, trial.dropout_rate, "dropout rate"),
            "batch_size": _Option(int, trial.batch_size, least=1),
            "epochs": _Option(int, trial.max_epochs, least=1),
            "patience": _Option(int, trial.patience, least=1),
            "hidden": _Option(int, 200, "hidden layer width", least=1),
            "classes": classes, "seed": seed, "out": out,
        }),
        "soft-targets": (cmd_soft_targets, "cache teacher distributions for training", {
            "data": data, "teacher": _Option(str), "temperature": temperature,
            "sentences_only": sentences_only, "out": out,
        }),
        "train": (cmd_train, "run a small-model regime (direct or matching-softmax)", {
            "regime": _Option(str, "direct", "direct (default) or matching-softmax"),
            "embeddings": _Option(str, help="small pretrained vectors"),
            "embed_dim": _Option(int, help="random-vector width when no file", least=1),
            "soft_targets": _Option(str, help="cache from the soft-targets command"),
            "temperature": _Option(float, help="matching-softmax temperature (default 2)"),
            **regime_options,
        }),
        "distill": (cmd_distill, "run the encoding regime on large embeddings", {
            "embeddings": _Option(str, help="large pretrained vectors"),
            "distill_dim": _Option(int, 50, least=1),
            **regime_options,
        }),
        "fold": (cmd_fold, "bake a model's encoder into a small table", {
            "model": _Option(str), "out": _Option(str, help="output model file"),
        }),
        "eval": (cmd_eval, "accuracy of a saved model on a split", {
            "model": _Option(str), "data": data, "split": split,
        }),
        "bench": (cmd_bench, "relative inference time of two saved models", {
            "large": _Option(str), "small": _Option(str), "data": data, "split": split,
            "reps": _Option(int, 5, least=3),
            "out": _Option(str, help="output JSON file"),
        }),
        "compare": (cmd_compare, "emit the regime comparison report", {
            "results": _Option([str], help="result.json files, one per regime", nargs="+"),
            "bench": _Option(str, help="bench output for the relative-time row"),
            "out": out,
        }),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embdistill",
        description="Distill task knowledge from large word embeddings into small ones.",
    )
    parser.add_argument("--version", action="version", version=f"embdistill {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, table) in _commands().items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of this command's options; flags win")
        for key, opt in table.items():
            flag = f"--{key.replace('_', '-')}"
            if opt.kind is bool:
                p.add_argument(flag, action="store_const", const=True, help=opt.help)
            else:
                p.add_argument(flag, nargs=opt.nargs, help=opt.help)
        p.set_defaults(func=func, table=table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_read_options(args))
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
