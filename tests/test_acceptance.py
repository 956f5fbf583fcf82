"""Acceptance gate: one test per release criterion.

Each test prints a single ``criterion N PASS`` line (visible with
``pytest -s``); a failing criterion shows up as an ordinary pytest
failure.  Criterion 6 trains twenty models and dominates the runtime
(about two minutes on one laptop core).
"""

import json
import time

import numpy as np
import pytest

from embdistill.cli import main as cli_main
from embdistill.data import Sample, parse_tree
from embdistill.distillation import (
    DIRECT_SMALL,
    ENCODING_DISTILL,
    MatchingSoftmaxObjective,
    Regime,
    SoftTargetSet,
    fold_model,
    run_regime,
)
from embdistill.embeddings import (
    EmbeddingTable,
    Vocabulary,
    load_table,
    load_word2vec_text,
    save_table,
)
from embdistill.model import (
    ClassifierModel,
    ModelConfig,
    count_parameters,
    evaluate_accuracy,
    forward,
    predict,
)
from embdistill.ops import cross_entropy, one_hot, softmax_t
from embdistill.training import (
    ModelFactory,
    TrainConfig,
    TrainingProtocol,
    train_trial,
)

from conftest import write_toy_corpus, write_vectors
from helpers import (
    FD_STEP,
    FD_TOL,
    central_difference,
    check_model_gradients,
    count_nodes,
    lookup,
    random_tree,
    rel_error,
    serialize_tree,
    soft_target,
    synthetic_probe_task,
    tiny_model,
    toy_separable_task,
)


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(100)

    # elementary operations, 20 random points each; the affine layer on
    # (k, cols) batches, the shape training sends it
    from embdistill.ops import affine_backward, affine_forward, softmax_ce_backward, tanh_backward

    for i in range(20):
        k = 1 + i % 3
        w, x, b = rng.normal(size=(4, 3)), rng.normal(size=(k, 3)), rng.normal(size=4)
        probe = rng.normal(size=(k, 4))
        gw, gx, gb = affine_backward(w, x, b, probe)
        assert np.all(rel_error(gw, central_difference(lambda v: np.sum(probe * affine_forward(v, x, b)), w.copy())) < FD_TOL)
        assert np.all(rel_error(gx, central_difference(lambda v: np.sum(probe * affine_forward(w, v, b)), x.copy())) < FD_TOL)
        assert np.all(rel_error(gb, central_difference(lambda v: np.sum(probe * affine_forward(w, x, v)), b.copy())) < FD_TOL)

        t = rng.normal(size=5)
        tp = rng.normal(size=5)
        ana = tanh_backward(np.tanh(t), tp)
        assert np.all(rel_error(ana, central_difference(lambda v: tp @ np.tanh(v), t.copy())) < FD_TOL)

        z = rng.normal(size=5)
        target = soft_target(rng, 5)
        for temp in (1.0, 2.0):
            ana = softmax_ce_backward(z, target, temp)
            num = central_difference(lambda v: cross_entropy(softmax_t(v, temp), target), z.copy(), FD_STEP)
            assert np.all(rel_error(ana, num) < FD_TOL)

    # full tiny classifier on a batch of one and a batch of three:
    # with/without encoder, T in {1,2}, hard and soft targets
    for with_encoder in (False, True):
        model = tiny_model(
            rng, vocab_size=7, n_embed=5, n_distill=3 if with_encoder else 0,
            n_hidden=4, n_classes=4,
        )
        for size in (1, 3):
            batch = [Sample(rng.integers(0, 7, size=int(n)), 1)
                     for n in rng.integers(1, 6, size=size)]
            for temp in (1.0, 2.0):
                hard = one_hot(rng.integers(0, 4, size=size), 4)
                soft = np.array([soft_target(rng, 4) for _ in batch])
                for target in (hard, soft):
                    check_model_gradients(model, batch, target, temp)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    print(f"criterion 1 PASS: gradient suite ({elapsed:.1f}s)")


def test_criterion_2_temperature_softening():
    y = softmax_t(np.log([0.95, 0.04, 0.01]), 3.0)
    expected = np.array([0.64, 0.22, 0.14])
    assert np.all(np.abs(y - expected) <= 0.005)
    print(f"criterion 2 PASS: softmax_t at T=3 gives {np.round(y, 3)}")


def test_criterion_3_lookup_identity():
    rng = np.random.default_rng(101)
    vocab = Vocabulary.from_words([f"w{i}" for i in range(99)])
    table = EmbeddingTable(vocab, rng.normal(size=(32, 100)))
    for i in range(100):
        assert np.array_equal(lookup(table, i), table.matrix @ one_hot(i, 100))
    print("criterion 3 PASS: lookup equals one-hot multiply for all 100 words")


def test_criterion_4_fold_equivalence():
    rng = np.random.default_rng(102)
    model = tiny_model(rng, vocab_size=60, n_embed=12, n_distill=5, n_hidden=6, n_classes=5)
    folded = fold_model(model)
    worst = 0.0
    for _ in range(50):
        sample = Sample(rng.integers(0, 60, size=int(rng.integers(1, 12))), 0)
        _, live = forward(model, [sample])
        _, via_fold = forward(folded, [sample])
        worst = max(worst, float(np.max(np.abs(live.logits - via_fold.logits))))
        assert predict(model, sample) == predict(folded, sample)
    assert worst < 1e-5
    print(f"criterion 4 PASS: fold equivalence (max logit diff {worst:.2e})")


def test_criterion_5_deployment_compression():
    rng = np.random.default_rng(103)
    vocab = Vocabulary.from_words([f"w{i}" for i in range(20_999)])
    big = EmbeddingTable(vocab, rng.uniform(-0.1, 0.1, size=(300, 21_000)))
    teacher = ClassifierModel.initialize(
        ModelConfig(n_embed=300, n_hidden=200, n_classes=5), big, rng
    )
    student = ClassifierModel.initialize(
        ModelConfig(n_embed=300, n_hidden=50, n_classes=5, n_distill=50, regime="encoding"),
        EmbeddingTable(vocab, big.matrix.copy()),
        rng,
    )
    folded = fold_model(student)
    ratio = count_parameters(folded) / count_parameters(teacher)
    assert ratio <= 0.20
    print(
        f"criterion 5 PASS: deployed/teacher parameters = "
        f"{count_parameters(folded)}/{count_parameters(teacher)} = {ratio:.3f}"
    )


def test_criterion_6_synthetic_distillation_experiment():
    started = time.perf_counter()
    splits, table = synthetic_probe_task()
    protocol = TrainingProtocol(
        learning_rates=(1.0, 0.3),
        decay_schemes=("constant",),
        dropout_rates=(0.0,),
        batch_size=200,
        max_epochs=12,
        patience=4,
        grid_seed=0,
        restart_seeds=(0, 1, 2, 3, 4),
    )
    direct = run_regime(
        Regime(DIRECT_SMALL), splits, protocol, n_hidden=50, n_classes=5, embed_dim=50
    )
    encoding = run_regime(
        Regime(ENCODING_DISTILL), splits, protocol,
        n_hidden=50, n_classes=5, table=table, distill_dim=50,
    )
    elapsed = time.perf_counter() - started

    direct_accs = [t.test_accuracy for t in direct.aggregate.trials]
    encoding_accs = [t.test_accuracy for t in encoding.aggregate.trials]
    wins = sum(1 for e, d in zip(encoding_accs, direct_accs) if e > d)
    margin = encoding.aggregate.mean_accuracy - direct.aggregate.mean_accuracy

    assert encoding.aggregate.mean_accuracy >= direct.aggregate.mean_accuracy - 0.005
    assert wins >= 3
    assert elapsed < 600.0, f"experiment took {elapsed:.0f}s"
    print(
        f"criterion 6 PASS: encoding {100 * encoding.aggregate.mean_accuracy:.1f} vs "
        f"direct {100 * direct.aggregate.mean_accuracy:.1f} "
        f"(margin {100 * margin:+.1f} points, {wins}/5 seed wins, {elapsed:.0f}s)"
    )


class _PerfectTeacherObjective:
    """Soft-target objective plus a per-step identity check, on every
    sample of the batch, against 2x the plain loss (valid because the
    teacher emits the one-hot truth at T=1)."""

    def __init__(self, targets: SoftTargetSet, n_classes: int):
        self.inner = MatchingSoftmaxObjective(targets)
        self.n_classes = n_classes
        self.max_gap = 0.0
        self.steps = 0

    def __call__(self, model, samples, indices, rng):
        losses, grads = self.inner(model, samples, indices, rng)
        y, _ = forward(model, samples)
        labels = [s.label for s in samples]
        standard = cross_entropy(y, one_hot(labels, self.n_classes))
        self.max_gap = max(self.max_gap, float(np.max(np.abs(losses - 2.0 * standard))))
        self.steps += 1
        return losses, grads


def test_criterion_7_matching_softmax_sanity():
    rng = np.random.default_rng(104)
    splits, vocab = toy_separable_task(rng, n_train=120, n_eval=40)
    rows = np.zeros((len(splits.train), 5))
    for i, s in enumerate(splits.train):
        rows[i, s.label] = 1.0
    targets = SoftTargetSet(1.0, rows)

    factory = ModelFactory(ModelConfig(n_embed=6, n_hidden=5, n_classes=5), vocab=vocab)
    cfg = TrainConfig(learning_rate=0.5, max_epochs=10, batch_size=16, seed=0, patience=10)

    _, standard_result = train_trial(factory, splits, cfg)
    checker = _PerfectTeacherObjective(targets, 5)
    _, mixed_result = train_trial(factory, splits, cfg, objective=checker)

    assert checker.steps > 0
    assert checker.max_gap < 1e-9, f"max |mixed - 2*standard| = {checker.max_gap:.2e}"
    gap = abs(mixed_result.test_accuracy - standard_result.test_accuracy)
    assert gap <= 0.01
    print(
        f"criterion 7 PASS: perfect-teacher mixed training matches standard "
        f"({100 * mixed_result.test_accuracy:.1f} vs {100 * standard_result.test_accuracy:.1f}, "
        f"loss gap {checker.max_gap:.1e} over {checker.steps} steps)"
    )


def _scrub_seconds(obj):
    if isinstance(obj, dict):
        return {k: (0.0 if k == "seconds" else _scrub_seconds(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_scrub_seconds(v) for v in obj]
    return obj


def test_criterion_8_command_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    words = write_toy_corpus(corpus, n_train=40, n_eval=16)
    write_vectors(corpus / "vecs.txt", words, dim=8)

    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    artifacts = {}
    for tag in ("a", "b"):
        data = tmp_path / f"data_{tag}"
        run("prepare", "--train", corpus / "train.txt", "--valid", corpus / "valid.txt",
            "--test", corpus / "test.txt", "--out", data)
        out = tmp_path / f"run_{tag}"
        run("train", "--data", data, "--regime", "direct",
            "--embeddings", corpus / "vecs.txt", "--hidden", "4",
            "--lr", "0.5", "--decay", "constant", "--dropout", "0.0",
            "--epochs", "2", "--batch-size", "8", "--seeds", "0,1",
            "--out", out)
        report = tmp_path / f"report_{tag}"
        run("compare", "--results", out / "result.json", "--out", report)
        artifacts[tag] = (data, out, report)

    (data_a, out_a, rep_a), (data_b, out_b, rep_b) = artifacts["a"], artifacts["b"]
    for name in ("vocab.txt", "train.samples", "valid.samples", "test.samples"):
        assert (data_a / name).read_bytes() == (data_b / name).read_bytes()
    assert (out_a / "best.mdl").read_bytes() == (out_b / "best.mdl").read_bytes()
    ra = _scrub_seconds(json.loads((out_a / "result.json").read_text()))
    rb = _scrub_seconds(json.loads((out_b / "result.json").read_text()))
    assert ra == rb
    assert (rep_a / "report.tsv").read_bytes() == (rep_b / "report.tsv").read_bytes()
    assert (rep_a / "report.txt").read_bytes() == (rep_b / "report.txt").read_bytes()
    print("criterion 8 PASS: prepare/train/compare reruns are bit-identical")


def test_criterion_9_data_format_suite(tmp_path):
    rng = np.random.default_rng(105)
    for _ in range(1000):
        tree = random_tree(rng)
        line = serialize_tree(tree)
        parsed = parse_tree(line)
        assert parsed == tree
        from embdistill.data import ALL_PHRASES, SENTENCE_ONLY, build_vocab, extract_samples

        vocab = build_vocab([parsed])
        assert len(extract_samples(parsed, ALL_PHRASES, vocab)) == count_nodes(tree)
        assert len(extract_samples(parsed, SENTENCE_ONLY, vocab)) == 1

    src = tmp_path / "vecs.txt"
    rows = ["40 7"]
    for i in range(40):
        rows.append(f"tok{i} " + " ".join(f"{v:.8g}" for v in rng.normal(size=7)))
    src.write_text("\n".join(rows) + "\n")
    loaded = load_word2vec_text(src)
    native = tmp_path / "vecs.emb"
    save_table(loaded, native)
    reloaded = load_table(native)
    assert np.array_equal(
        loaded.matrix.astype(np.float32), reloaded.matrix.astype(np.float32)
    )
    assert reloaded.vocab.words == loaded.vocab.words
    print("criterion 9 PASS: 1000-tree round-trip, node counts, table format exactness")
