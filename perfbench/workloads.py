"""The four benchmark workloads: inputs made from a seed, one timed pass,
and the checks on what the pass produced.

Every input is generated in-process.  Labels come from a fixed 5-way
linear probe of the mean 300-dim vector of a phrase (the label is the
number of positive probe outputs plus noise, capped at 4), so accuracy
means something: the large table carries the whole signal.

The package is driven only through its public entry points.
"""

from __future__ import annotations

import io
import os
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from embdistill import cli, data, distillation, embeddings, model, training

BATCH = 200
N_CLASSES = 5
LABEL_NOISE = 0.4
# test accuracy on encoding-phrases must beat the majority class by this
ACCURACY_MARGIN = 0.05
# folded and unfolded models agree to float64 rounding
FOLD_TOLERANCE = 1e-9
# the evaluation sweep goes over the test set this many times, each call
# timed alone, and the table round trip is repeated
EVAL_REPEATS = 5
ROUNDTRIPS = 5
# three epochs of the reduced grid learn well past the majority class on
# sentences of at most four tokens (phrase and sentence labels alike);
# matching-sentences has no accuracy check and trains two, to keep its
# passes short
ENC_EPOCHS = 3
MATCH_EPOCHS = 2
ENC_MAX_LEN = 4
# the word2vec file holds this many times the task vocabulary
FILE_FACTOR = 3

# Input sizes.  "full" is paper scale (|V| = 20k, 300-dim table, batch
# 200); "smoke" only exercises every code path, for the benchmark's own
# tests.
SIZES = {
    "full": dict(
        vocab=20000, big_dim=300, small_dim=50, hidden=50, teacher_hidden=200,
        enc_sentences=750, match_sentences=400, eval_sentences=500,
        deploy_sentences=1000, ingest_sentences=1000, ingest_eval=300,
    ),
    "smoke": dict(
        vocab=400, big_dim=30, small_dim=8, hidden=8, teacher_hidden=12,
        enc_sentences=600, match_sentences=40, eval_sentences=200,
        deploy_sentences=40, ingest_sentences=60, ingest_eval=20,
    ),
}


# ---------------------------------------------------------------------------
# input generation

@dataclass
class Task:
    """Vocabulary, the large pretrained table and the labelling probe."""

    vocab: embeddings.Vocabulary
    table: embeddings.EmbeddingTable
    probe: np.ndarray
    rng: np.random.Generator

    @classmethod
    def make(cls, seed: int, vocab_size: int, big_dim: int) -> "Task":
        rng = np.random.default_rng([seed, 7])
        vocab = embeddings.Vocabulary.from_words([f"w{i}" for i in range(vocab_size)])
        table = embeddings.EmbeddingTable(
            vocab, rng.uniform(-0.5, 0.5, size=(big_dim, len(vocab)))
        )
        return cls(vocab, table, rng.normal(size=(N_CLASSES, big_dim)), rng)

    @property
    def n_words(self) -> int:
        return len(self.vocab) - 1  # without the unknown token

    def label(self, vector_sum: np.ndarray, count: int) -> int:
        u = self.probe @ (vector_sum / count) + LABEL_NOISE * self.rng.normal(size=N_CLASSES)
        return min(int((u > 0).sum()), N_CLASSES - 1)

    def tree(self, ids: np.ndarray) -> data.LabeledTree:
        """Random binary tree over the tokens, every node probe-labelled."""

        def build(lo: int, hi: int):
            if hi - lo == 1:
                vec = self.table.matrix[:, ids[lo]]
                word = self.vocab.words[ids[lo]]
                return data.LabeledTree(self.label(vec, 1), (), word), vec
            cut = int(self.rng.integers(lo + 1, hi))
            left, lsum = build(lo, cut)
            right, rsum = build(cut, hi)
            vec = lsum + rsum
            return data.LabeledTree(self.label(vec, hi - lo), (left, right)), vec

        return build(0, len(ids))[0]

    def sentences(self, n: int, zipf: bool, max_len: int = 40) -> list[data.LabeledTree]:
        """``n`` trees over sentences of 1..max_len tokens, drawn uniformly
        or with Zipf (rank^-1) token frequencies.

        Every length occurs equally often (in random order), so the token
        count, which the timings scale with, does not vary with the seed.
        """
        lengths = self.rng.permutation(np.resize(np.arange(1, max_len + 1), n))
        if zipf:
            p = 1.0 / np.arange(1, self.n_words + 1)
            ids = self.rng.choice(self.n_words, size=int(lengths.sum()), p=p / p.sum())
        else:
            ids = self.rng.integers(0, self.n_words, size=int(lengths.sum()))
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        return [self.tree(ids[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def fresh(path: str) -> str:
    """Remove ``path`` before it is written again.

    Rewriting a file in place truncates it, and ext4 then starts writing
    the new data back to disk when it is closed; that disk traffic would
    land in the timings.  A new file stays in the page cache.
    """
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)
    return path


def extract(trees, mode: str, vocab) -> list[data.Sample]:
    return [s for t in trees for s in data.extract_samples(t, mode, vocab)]


def descriptors(samples, vocab_size: int, seed: int, **dims) -> dict:
    """Input properties the timings depend on: sample length and how much
    a 200-sample batch shares tokens (distinct tokens / tokens)."""
    lengths = np.array([s.tokens.size for s in samples])
    order = np.random.default_rng([seed, 9]).permutation(len(samples))
    shares = []
    for start in range(0, len(order), BATCH):
        toks = np.concatenate([samples[i].tokens for i in order[start:start + BATCH]])
        shares.append(np.unique(toks).size / toks.size)
    return {
        "samples": len(samples),
        "mean_tokens_per_sample": float(lengths.mean()),
        "distinct_per_token_in_batch": float(np.mean(shares)),
        "vocab_size": vocab_size,
        **dims,
    }


def protocol(epochs: int) -> training.TrainingProtocol:
    """The reduced grid: two learning rates, one schedule, one dropout
    rate (nonzero, so dropout runs), two restarts, and no early stop."""
    return training.TrainingProtocol(
        learning_rates=(1.0, 0.3),
        decay_schemes=(training.DECAY_CONSTANT,),
        dropout_rates=(0.1,),
        batch_size=BATCH,
        max_epochs=epochs,
        patience=epochs + 1,
        restart_seeds=(0, 1),
    )


def logit_gap(a, b, samples) -> float:
    """Largest difference of centred logits between two models.

    Centred log-probabilities at T=1 equal centred logits, so this goes
    through ``generate_soft_targets`` only.
    """
    la = np.log(distillation.generate_soft_targets(a, samples, 1.0).targets)
    lb = np.log(distillation.generate_soft_targets(b, samples, 1.0).targets)
    la -= la.mean(axis=1, keepdims=True)
    lb -= lb.mean(axis=1, keepdims=True)
    return float(np.abs(la - lb).max())


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Pass:
    """One timed operation: wall seconds of the parts that are timed,
    plus whatever the checks need."""

    timings: dict
    outputs: dict = field(default_factory=dict)
    # large objects (models, tables) the checks need; dropped after them
    artifacts: dict | None = None


class Workload:
    name = ""
    why = ""
    lanes = 1
    # The summary metrics reported as throughput_per_s and
    # aux_throughput_per_s.  They are "_best" figures: every pass repeats
    # the same work, and the host's CPU runs at about half speed in
    # windows of milliseconds to seconds whose share drifts from minute to
    # minute, so the fastest of many short repeats (summed per part where
    # a pass has several) is the cost of the work itself, where a median
    # follows the drift.  The medians are reported next to them.
    headline = ("", "")

    def __init__(self, size: dict, workdir: str):
        self.size = size
        self.workdir = workdir

    def setup(self, seed: int):
        raise NotImplementedError

    def run_pass(self, st) -> Pass:
        raise NotImplementedError

    def checks(self, st, p: Pass, fault: str | None) -> list[Check]:
        raise NotImplementedError

    def summary(self, st, passes: list[Pass]) -> dict:
        """Workload metrics by name: {name: (value, unit, samples)}."""
        raise NotImplementedError



def _median(values) -> float:
    return float(np.median(values))


class _Training(Workload):
    """Shared by the two training workloads: one pass is one full
    ``run_regime`` call, then an ``evaluate_accuracy`` sweep."""

    def regime_kwargs(self, st) -> dict:
        raise NotImplementedError

    def run_pass(self, st) -> Pass:
        start = time.perf_counter()
        outcome = distillation.run_regime(
            st["regime"], st["splits"], st["protocol"], n_hidden=self.size["hidden"],
            jobs=self.lanes, **self.regime_kwargs(st),
        )
        regime_s = time.perf_counter() - start
        eval_s = []
        for _ in range(EVAL_REPEATS):
            start = time.perf_counter()
            model.evaluate_accuracy(outcome.best_model, st["splits"].test)
            eval_s.append(time.perf_counter() - start)
        trials = [e.result for e in outcome.grid.entries if e.result is not None]
        trials += outcome.aggregate.trials
        trained = sum(len(t.train_losses) for t in trials) * len(st["splits"].train)
        return Pass(
            {"regime_s": regime_s, "eval_s": eval_s},
            {"trained": trained, "test_accuracy": outcome.aggregate.mean_accuracy},
            {"outcome": outcome, "trials": trials},
        )

    def checks(self, st, p: Pass, fault) -> list[Check]:
        losses = [loss for t in p.artifacts["trials"] for loss in t.train_losses]
        if fault == "finite_loss":
            losses[0] = float("nan")
        out = [Check("finite_loss", bool(np.all(np.isfinite(losses))),
                     f"{len(losses)} epoch losses")]
        accuracy = p.outputs["test_accuracy"]
        first = st.setdefault("first_accuracy", accuracy)
        out.append(Check("deterministic_accuracy", accuracy == first,
                         f"{accuracy} vs first pass {first}"))
        return out

    def summary(self, st, passes) -> dict:
        n = len(passes)
        trained = passes[0].outputs["trained"]  # the same on every pass
        regime = [p.timings["regime_s"] for p in passes]
        tests = len(st["splits"].test)
        sweeps = [t for p in passes for t in p.timings["eval_s"]]
        return {
            "train_samples_per_s": (trained / _median(regime), "1/s", n),
            "train_samples_per_s_best": (trained / min(regime), "1/s", n),
            "regime_s": (_median(regime), "s", n),
            "eval_samples_per_s": (tests / _median(sweeps), "1/s", len(sweeps)),
            "eval_samples_per_s_best": (tests / min(sweeps), "1/s", len(sweeps)),
            "test_accuracy": (passes[0].outputs["test_accuracy"], "fraction", 1),
        }

    headline = ("train_samples_per_s_best", "eval_samples_per_s_best")


class EncodingPhrases(_Training):
    name = "encoding-phrases"
    why = ("encoding regime on short Zipf phrases that share tokens: the 300-dim "
           "table, the encoder, snapshots and the fold dominate")

    def setup(self, seed):
        size = self.size
        task = Task.make(seed, size["vocab"], size["big_dim"])
        train = extract(task.sentences(size["enc_sentences"], True, ENC_MAX_LEN),
                        data.ALL_PHRASES, task.vocab)
        valid = extract(task.sentences(size["eval_sentences"], True, ENC_MAX_LEN),
                        data.SENTENCE_ONLY, task.vocab)
        test = extract(task.sentences(size["eval_sentences"], True, ENC_MAX_LEN),
                       data.SENTENCE_ONLY, task.vocab)
        return {
            "task": task,
            "splits": data.DatasetSplits(train, valid, test, task.vocab),
            "protocol": protocol(ENC_EPOCHS),
            "regime": distillation.Regime(distillation.ENCODING_DISTILL),
            "descriptors": descriptors(
                train, len(task.vocab), seed, big_dim=size["big_dim"],
                distill_dim=size["small_dim"], hidden=size["hidden"], lanes=self.lanes),
        }

    def regime_kwargs(self, st):
        return {"table": st["task"].table, "distill_dim": self.size["small_dim"]}

    def checks(self, st, p, fault):
        out = super().checks(st, p, fault)
        outcome = p.artifacts["outcome"]
        test = st["splits"].test
        accuracy = p.outputs["test_accuracy"]
        counts = np.bincount([s.label for s in test], minlength=N_CLASSES)
        floor = counts.max() / len(test) + ACCURACY_MARGIN
        out.append(Check("accuracy_above_chance", accuracy > floor,
                         f"test accuracy {accuracy:.4f}, majority class + margin {floor:.4f}"))
        folded = outcome.folded_model
        if fault == "fold_argmax":
            folded = distillation.fold_model(outcome.best_model)
            folded.out_b[:] = np.arange(N_CLASSES) * 100.0
        same = all(model.predict(outcome.best_model, s) == model.predict(folded, s)
                   for s in test)
        gap = logit_gap(outcome.best_model, folded, test)
        p.outputs["max_logit_diff"] = gap
        out.append(Check("fold_argmax", same and gap < FOLD_TOLERANCE,
                         f"max logit difference {gap:.3g} over {len(test)} sentences"))
        return out


class MatchingSentences(_Training):
    name = "matching-sentences"
    why = ("matching softmax on long sentences with little token sharing, two "
           "grid lanes: per-token loops, the mixed objective and the lane pool dominate")
    lanes = 2

    def setup(self, seed):
        size = self.size
        task = Task.make(seed, size["vocab"], size["big_dim"])
        train = extract(task.sentences(size["match_sentences"], zipf=False),
                        data.SENTENCE_ONLY, task.vocab)
        valid = extract(task.sentences(size["eval_sentences"], zipf=False),
                        data.SENTENCE_ONLY, task.vocab)
        test = extract(task.sentences(size["eval_sentences"], zipf=False),
                       data.SENTENCE_ONLY, task.vocab)
        splits = data.DatasetSplits(train, valid, test, task.vocab)
        teacher, _ = distillation.train_teacher(
            splits, task.table,
            training.TrainConfig(learning_rate=0.3, max_epochs=1, seed=seed),
            n_hidden=size["teacher_hidden"],
        )
        soft = distillation.generate_soft_targets(
            teacher, train, distillation.DEFAULT_TEMPERATURE
        )
        return {
            "task": task,
            "splits": splits,
            "protocol": protocol(MATCH_EPOCHS),
            "regime": distillation.Regime(distillation.MATCHING_SOFTMAX),
            "soft": soft,
            "descriptors": descriptors(
                train, len(task.vocab), seed, small_dim=size["small_dim"],
                hidden=size["hidden"], teacher_dim=size["big_dim"],
                teacher_hidden=size["teacher_hidden"], lanes=self.lanes),
        }

    def regime_kwargs(self, st):
        return {"embed_dim": self.size["small_dim"], "soft_targets": st["soft"]}

    def checks(self, st, p, fault):
        out = super().checks(st, p, fault)
        rows = st["soft"].targets.copy()
        if fault == "soft_rows":
            rows[0] *= 1.5
        worst = float(np.abs(rows.sum(axis=1) - 1.0).max())
        out.append(Check("soft_rows_sum_to_one", worst < 1e-9,
                         f"largest row-sum error {worst:.3g} over {len(rows)} rows"))
        return out


class DeployInfer(Workload):
    name = "deploy-infer"
    why = ("closed-loop predict on one held-out sentence at a time with models "
           "loaded from MDL1: the deployed, read-only inference path")

    def setup(self, seed):
        size = self.size
        task = Task.make(seed, size["vocab"], size["big_dim"])
        rng = np.random.default_rng([seed, 3])
        test = extract(task.sentences(size["deploy_sentences"], zipf=False),
                       data.SENTENCE_ONLY, task.vocab)
        teacher = model.ClassifierModel.initialize(
            model.ModelConfig(size["big_dim"], size["teacher_hidden"], N_CLASSES),
            task.table, rng,
        )
        encoder_model = model.ClassifierModel.initialize(
            model.ModelConfig(size["big_dim"], size["hidden"], N_CLASSES,
                              n_distill=size["small_dim"], regime=model.REGIME_ENCODING),
            task.table, rng,
        )
        folded = distillation.fold_model(encoder_model)
        teacher_path = os.path.join(self.workdir, "teacher.mdl")
        folded_path = os.path.join(self.workdir, "folded.mdl")
        model.save_model(teacher, teacher_path)
        model.save_model(folded, folded_path)
        return {
            "test": test,
            "encoder_model": encoder_model,
            "folded_in_memory": folded,
            "teacher": model.load_model(teacher_path),
            "folded": model.load_model(folded_path),
            "descriptors": descriptors(
                test, len(task.vocab), seed, teacher_dim=size["big_dim"],
                teacher_hidden=size["teacher_hidden"], folded_dim=size["small_dim"],
                folded_hidden=size["hidden"], lanes=self.lanes),
        }

    def run_pass(self, st) -> Pass:
        folded, teacher = st["folded"], st["teacher"]
        clock = time.perf_counter_ns
        folded_ns, teacher_ns = [], []
        for s in st["test"]:
            t0 = clock()
            model.predict(folded, s)
            t1 = clock()
            model.predict(teacher, s)
            t2 = clock()
            folded_ns.append(t1 - t0)
            teacher_ns.append(t2 - t1)
        start = time.perf_counter()
        model.evaluate_accuracy(folded, st["test"])
        return Pass(
            {"eval_s": time.perf_counter() - start},
            {"folded_ns": np.array(folded_ns), "teacher_ns": np.array(teacher_ns)},
        )

    def checks(self, st, p, fault):
        test, folded = st["test"], st["folded"]
        path = os.path.join(self.workdir, "check.mdl")
        blobs = []
        for _ in range(2):
            model.save_model(folded, fresh(path))
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        if fault == "mdl_bytes":
            blobs[1] = blobs[1][:-1] + bytes([blobs[1][-1] ^ 1])
        out = [Check("mdl_bytes_stable", blobs[0] == blobs[1],
                     f"{len(blobs[0])} bytes per save")]
        # MDL1 stores f32: the loaded table is the in-memory fold, rounded
        in_memory = st["folded_in_memory"]
        rounded = in_memory.embedding.matrix.astype(np.float32).astype(float)
        out.append(Check("mdl_roundtrip", np.array_equal(folded.embedding.matrix, rounded),
                         "loaded folded table equals the f32-rounded fold"))
        unfolded = st["encoder_model"]
        same = sum(model.predict(unfolded, s) == model.predict(in_memory, s) for s in test)
        gap = logit_gap(unfolded, in_memory, test)
        p.outputs["max_logit_diff"] = gap
        out.append(Check("fold_argmax", same == len(test) and gap < FOLD_TOLERANCE,
                         f"{same}/{len(test)} argmax agree, max logit difference {gap:.3g}"))
        return out

    def summary(self, st, passes) -> dict:
        # one row per pass, one column per sentence
        folded = np.stack([p.outputs["folded_ns"] for p in passes]) / 1e3
        teacher = np.stack([p.outputs["teacher_ns"] for p in passes]) / 1e3
        n = len(st["test"])
        sweeps = [p.timings["eval_s"] for p in passes]
        return {
            "predict_us_p50": (float(np.percentile(folded, 50)), "us", folded.size),
            "predict_us_p99": (float(np.percentile(folded, 99)), "us", folded.size),
            "teacher_predict_us_p50": (float(np.percentile(teacher, 50)), "us", teacher.size),
            # each sentence's fastest call over the passes, summed over the
            # sentences: a stall shows in the p99, not in these
            "predict_per_s_best": (n * 1e6 / folded.min(axis=0).sum(), "1/s", folded.size),
            "teacher_predict_per_s_best": (
                n * 1e6 / teacher.min(axis=0).sum(), "1/s", teacher.size),
            "eval_samples_per_s": (n / _median(sweeps), "1/s", len(passes)),
            "eval_samples_per_s_best": (n / min(sweeps), "1/s", len(passes)),
        }

    headline = ("predict_per_s_best", "teacher_predict_per_s_best")


def _write_vectors(path, words, codes, grid) -> None:
    """word2vec text: header, then one fixed-width row per word."""
    body = grid[codes].reshape(len(words), -1)
    with open(path, "wb") as fh:
        fh.write(f"{len(words)} {codes.shape[1]}\n".encode())
        for word, row in zip(words, body):
            fh.write(word.encode() + row.tobytes() + b"\n")


def _serialize(tree) -> str:
    if tree.is_leaf:
        return f"({tree.label} {tree.token})"
    return f"({tree.label} {' '.join(_serialize(c) for c in tree.children)})"


class IngestVectors(Workload):
    name = "ingest-vectors"
    why = ("prepare tree files and load, align and round-trip a word2vec file 3x "
           "the task vocabulary: data parsing and embedding I/O, no training")

    # vector values are multiples of 0.001 in [-0.5, 0.5], each written
    # as 8 bytes (" " + "%7.3f")
    _STEPS = 1001

    def setup(self, seed):
        size = self.size
        task = Task.make(seed, size["vocab"], size["big_dim"])
        rng = np.random.default_rng([seed, 5])
        paths = {}
        for split, n in (("train", size["ingest_sentences"]),
                         ("valid", size["ingest_eval"]), ("test", size["ingest_eval"])):
            trees = task.sentences(n, zipf=False)
            if split == "train":
                sentences = extract(trees, data.SENTENCE_ONLY, task.vocab)
            paths[split] = os.path.join(self.workdir, f"{split}.txt")
            with open(paths[split], "w", encoding="utf-8") as fh:
                for tree in trees:
                    fh.write(_serialize(tree) + "\n")
        # the file holds 90% of the task words plus unrelated words, 3x in all
        chosen = np.sort(rng.permutation(task.n_words)[: task.n_words * 9 // 10])
        kept = [task.vocab.words[i] for i in chosen]
        extra = [f"x{i}" for i in range(FILE_FACTOR * task.n_words - len(kept))]
        pool = kept + extra
        words = [pool[i] for i in rng.permutation(len(pool))]
        codes = rng.integers(0, self._STEPS, size=(len(words), size["big_dim"]))
        text = [f"{(c - 500) / 1000:7.3f}" for c in range(self._STEPS)]
        grid = np.frombuffer("".join(" " + t for t in text).encode(), dtype=np.uint8)
        grid = grid.reshape(self._STEPS, 8)
        paths["vectors"] = os.path.join(self.workdir, "vectors.txt")
        _write_vectors(paths["vectors"], words, codes, grid)
        # the expected unknown vector: mean of every file vector, parsed
        # the way the loader parses them
        values = np.array(text, dtype=np.float32).astype(float)
        unk = values[codes].mean(axis=0)
        return {
            "paths": paths,
            "n_vectors": len(words),
            "sentences": size["ingest_sentences"] + 2 * size["ingest_eval"],
            "expected_unk": unk,
            "seed": seed,
            # over the training sentences; prepare also extracts every phrase
            "descriptors": descriptors(
                sentences, len(task.vocab), seed, dim=size["big_dim"],
                file_vectors=len(words), task_words_in_file=len(kept),
                vector_file_mb=os.path.getsize(paths["vectors"]) / 1e6, lanes=self.lanes),
        }

    def run_pass(self, st) -> Pass:
        paths = st["paths"]
        prepared = os.path.join(self.workdir, "prepared")
        table_path = os.path.join(self.workdir, "aligned.emb")
        fresh(prepared)
        fresh(table_path)
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            code = cli.main(["prepare", "--train", paths["train"], "--valid", paths["valid"],
                             "--test", paths["test"], "--out", prepared])
        load = time.perf_counter()
        with open(os.path.join(prepared, "vocab.txt"), encoding="utf-8") as fh:
            vocab = embeddings.Vocabulary.from_words(fh.read().split())
        pretrained = embeddings.load_word2vec_text(paths["vectors"])
        align = time.perf_counter()
        aligned = embeddings.align_to_vocab(
            pretrained, vocab, np.random.default_rng([st["seed"], 2])
        )
        save = time.perf_counter()
        embeddings.save_table(aligned, table_path)
        loaded = embeddings.load_table(table_path)
        end = time.perf_counter()
        trips = []
        for _ in range(ROUNDTRIPS):
            fresh(table_path)
            trip = time.perf_counter()
            embeddings.save_table(aligned, table_path)
            loaded = embeddings.load_table(table_path)
            trips.append(time.perf_counter() - trip)
        return Pass(
            {"ingest_s": end - start, "prepare_s": load - start, "load_s": align - load,
             "align_s": save - align, "save_load_s": end - save, "roundtrip_s": trips},
            {"code": code, "vectors": pretrained.matrix.shape[1],
             "columns": aligned.matrix.shape[1]},
            {"aligned": aligned, "loaded": loaded},
        )

    def checks(self, st, p, fault):
        aligned, loaded = p.artifacts["aligned"], p.artifacts["loaded"]
        unk = aligned.matrix[:, aligned.vocab.unk_index].copy()
        if fault == "unk_mean":
            unk[0] += 1e-3
        unk_err = float(np.abs(unk - st["expected_unk"]).max())
        trip_err = float(np.abs(loaded.matrix - aligned.matrix.astype(np.float32)).max())
        return [
            Check("prepare_exit_code", p.outputs["code"] == 0, f"exit {p.outputs['code']}"),
            Check("vector_count", p.outputs["vectors"] == st["n_vectors"] + 1,
                  f"{p.outputs['vectors']} columns with the unknown token"),
            Check("unk_is_file_mean", unk_err < 1e-9, f"max deviation {unk_err:.3g}"),
            Check("table_roundtrip",
                  loaded.vocab.words == aligned.vocab.words and trip_err == 0.0,
                  f"max deviation from f32 {trip_err:.3g}"),
        ]

    def summary(self, st, passes) -> dict:
        n = len(passes)
        ingest = _median([p.timings["ingest_s"] for p in passes])
        # the fastest of each part, summed
        best = sum(min(p.timings[part] for p in passes)
                   for part in ("prepare_s", "load_s", "align_s", "save_load_s"))
        trip = _median([t for p in passes for t in p.timings["roundtrip_s"]])
        columns = passes[0].outputs["columns"]
        prepare = [p.timings["prepare_s"] for p in passes]
        return {
            "ingest_s": (ingest, "s", n),
            "ingest_s_best": (best, "s", n),
            "vectors_per_s_best": (st["n_vectors"] / best, "1/s", n),
            "prepare_s": (_median(prepare), "s", n),
            "prepare_sentences_per_s_best": (st["sentences"] / min(prepare), "1/s", n),
            "roundtrip_s": (trip, "s", ROUNDTRIPS * n),
            "roundtrip_columns_per_s": (columns / trip, "1/s", ROUNDTRIPS * n),
        }

    headline = ("vectors_per_s_best", "prepare_sentences_per_s_best")


WORKLOADS = {w.name: w for w in (EncodingPhrases, MatchingSentences, DeployInfer, IngestVectors)}
