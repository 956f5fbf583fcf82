import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from embdistill import training
from embdistill.data import DatasetSplits, Sample
from embdistill.distillation import (
    DIRECT_SMALL,
    ENCODING_DISTILL,
    MATCHING_SOFTMAX,
    MatchingSoftmaxObjective,
    Regime,
    SoftTargetSet,
    run_regime,
)
from embdistill.embeddings import init_random_table
from embdistill.errors import ConfigError, DataError, DivergenceError
from embdistill.model import ClassifierModel, ModelConfig, evaluate_accuracy, forward, backward
from embdistill.ops import cross_entropy, one_hot, softmax_t
from embdistill.training import (
    DECAY_SCHEMES,
    ModelFactory,
    TrainConfig,
    TrainingProtocol,
    apply_update,
    decay,
    grid_search,
    multi_restart,
    sgd_epoch,
    standard_objective,
    train_trial,
)

from helpers import (
    FD_STEP,
    FD_TOL,
    dense_gradients,
    rel_error,
    soft_target,
    synthetic_probe_task,
    tiny_model,
    toy_separable_task,
)


class TestDecay:
    def test_constant(self):
        for epoch in (0, 5, 100):
            assert decay(0.3, "constant", epoch) == 0.3

    def test_halving_every_three(self):
        assert decay(1.0, "halve_every_3", 0) == 1.0
        assert decay(1.0, "halve_every_3", 2) == 1.0
        assert decay(1.0, "halve_every_3", 3) == 0.5
        assert decay(1.0, "halve_every_3", 6) == 0.25

    def test_inverse(self):
        assert decay(3.0, "inverse", 0) == 3.0
        assert decay(3.0, "inverse", 10) == pytest.approx(1.5)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            decay(1.0, "cosine", 0)


class TestTrainConfig:
    def test_negative_lr_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-0.1)

    def test_nan_lr_rejected(self):
        with pytest.raises(ConfigError, match="learning rate must be >= 0"):
            TrainConfig(learning_rate=float("nan"))

    def test_zero_lr_tolerated(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_bad_scheme(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=1.0, decay_scheme="nope")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            TrainConfig(learning_rate=1.0, seed=-1)


class TestTrainingProtocol:
    @pytest.mark.parametrize("fields", [{"grid_seed": -1}, {"restart_seeds": (0, -2, 1)}])
    def test_negative_seed_rejected(self, fields):
        with pytest.raises(ConfigError, match="seeds must be >= 0, got -"):
            TrainingProtocol(**fields)

    @pytest.mark.parametrize("fields, message", [
        ({"learning_rates": (0.3, -1.0)}, "learning rate must be >= 0, got -1.0"),
        ({"dropout_rates": (0.0, 1.5)}, r"dropout_rate must be in \[0, 1\), got 1.5"),
    ])
    def test_every_grid_point_is_checked_on_construction(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            TrainingProtocol(**fields)


def tiny_factory(rng_seed=0, n_classes=5, vocab_size=21, n_embed=6, n_hidden=5):
    del rng_seed
    config = ModelConfig(n_embed=n_embed, n_hidden=n_hidden, n_classes=n_classes)
    splits, vocab = toy_separable_task(np.random.default_rng(123), n_classes=n_classes)
    return ModelFactory(config, vocab=vocab), splits


class TestSgdEpoch:
    def test_zero_lr_leaves_parameters_unchanged(self):
        factory, splits = tiny_factory()
        model = factory.build(0)
        before = model.snapshot()
        loss = sgd_epoch(model, splits.train, 0.0, 16, np.random.default_rng(0))
        assert np.isfinite(loss) and loss > 0
        for a, b in zip(before, model.snapshot()):
            assert np.array_equal(a, b)

    def test_single_sample_step_equals_lr_times_gradient(self):
        factory, splits = tiny_factory()
        model = factory.build(0)
        batch = splits.train[:1]
        ref = factory.build(0)
        y, cache = forward(ref, batch)
        grads = dense_gradients(ref, backward(ref, cache, one_hot(batch.labels, 5)))
        before = {name: a.copy() for name, a in model.named_parameters()}
        lr = 0.25
        sgd_epoch(model, batch, lr, 1, np.random.default_rng(0))
        for name, after in model.named_parameters():
            assert np.array_equal(after, before[name] - lr * grads[name]), name

    def test_same_seed_identical_trajectories(self):
        factory, splits = tiny_factory()
        m1, m2 = factory.build(3, 0.2), factory.build(3, 0.2)
        l1 = sgd_epoch(m1, splits.train, 0.5, 8, np.random.default_rng(7))
        l2 = sgd_epoch(m2, splits.train, 0.5, 8, np.random.default_rng(7))
        assert l1 == l2
        for (_, a), (_, b) in zip(m1.named_parameters(), m2.named_parameters()):
            assert np.array_equal(a, b)

    def test_epoch_drops_out_at_the_model_rate_with_its_generator(self):
        factory, splits = tiny_factory()
        model, hand = factory.build(2, 0.3), factory.build(2, 0.3)
        loss = sgd_epoch(model, splits.train, 0.5, 8, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        order = rng.permutation(len(splits.train))
        losses, masks = [], 0
        for start in range(0, len(order), 8):
            batch = splits.train[order[start : start + 8]]
            y, cache = forward(hand, batch, rng=rng)
            masks += cache.mask is not None
            targets = one_hot(batch.labels, 5)
            losses.append(cross_entropy(y, targets))
            apply_update(hand, backward(hand, cache, targets), 0.5)
        assert masks == len(losses)
        assert loss == float(np.mean(np.concatenate(losses)))
        for (name, a), (_, b) in zip(model.named_parameters(), hand.named_parameters()):
            assert np.array_equal(a, b), name

    def test_embedding_updates_are_sparse(self):
        factory, splits = tiny_factory()
        model = factory.build(0)
        batch = splits.train[:2]
        touched = set(int(t) for s in batch for t in s.tokens)
        before = model.embedding.matrix.copy()
        sgd_epoch(model, batch, 0.5, len(batch), np.random.default_rng(0))
        for col in range(before.shape[1]):
            if col not in touched:
                assert np.array_equal(model.embedding.matrix[:, col], before[:, col])
            else:
                assert not np.array_equal(model.embedding.matrix[:, col], before[:, col])

    def test_divergence_aborts_with_diagnostic(self):
        factory, splits = tiny_factory()
        model = factory.build(0)
        rng = np.random.default_rng(0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="lr="):
                for _ in range(5):
                    sgd_epoch(model, splits.train, 1e200, 8, rng)

    def test_empty_set_is_data_error(self):
        factory, splits = tiny_factory()
        with pytest.raises(DataError, match="empty"):
            sgd_epoch(factory.build(0), splits.train[:0], 0.1, 5, np.random.default_rng(0))

    def test_version_bumps_per_batch(self):
        factory, splits = tiny_factory()
        model = factory.build(0)
        v0 = model.version
        sgd_epoch(model, splits.train[:20], 0.1, 5, np.random.default_rng(0))
        assert model.version == v0 + 4


def mixed_batch():
    """Samples of lengths 3, 1 and 5 with token 1 repeated inside the first
    sample and again in the third."""
    return [
        Sample(np.array([1, 3, 1]), 0),
        Sample(np.array([3]), 2),
        Sample(np.array([0, 2, 4, 1, 5]), 1),
    ]


class TestBatchObjectives:
    @pytest.mark.parametrize("n_distill", [0, 3])
    def test_standard_objective_is_the_mean_of_per_sample_losses(self, n_distill):
        rng = np.random.default_rng(40)
        model = tiny_model(rng, vocab_size=7, n_embed=5, n_distill=n_distill, n_classes=3)
        samples = mixed_batch()
        losses, grads = standard_objective(model, samples, np.arange(3), None)
        assert losses.shape == (3,)
        mean = None
        for i, sample in enumerate(samples):
            y, cache = forward(model, [sample])
            target = one_hot([sample.label], 3)
            assert abs(losses[i] - cross_entropy(y, target)[0]) < 1e-12
            g = dense_gradients(model, backward(model, cache, target))
            mean = g if mean is None else {k: mean[k] + g[k] for k in g}
        for name, g in dense_gradients(model, grads).items():
            assert np.max(np.abs(g - mean[name] / 3)) < 1e-12, name

    def test_matching_objective_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        model = tiny_model(rng, vocab_size=7, n_embed=5, n_hidden=4, n_classes=4)
        samples = mixed_batch()
        # the batch is training samples 4, 0 and 2 of a five-row target set
        teacher = np.array([soft_target(rng, 4) for _ in range(5)])
        indices = np.array([4, 0, 2])
        objective = MatchingSoftmaxObjective(SoftTargetSet(2.0, teacher))
        losses, grads = objective(model, samples, indices, None)
        hard = one_hot([s.label for s in samples], 4)

        def mean_mixed_loss():
            y1, cache = forward(model, samples)
            soft = softmax_t(cache.logits, 2.0)
            return float(np.mean(cross_entropy(y1, hard) + cross_entropy(soft, teacher[indices])))

        assert abs(np.mean(losses) - mean_mixed_loss()) < 1e-12
        analytic = dense_gradients(model, grads)
        for name, param in model.named_parameters():
            flat, ana = param.ravel(), analytic[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + FD_STEP
                up = mean_mixed_loss()
                flat[i] = orig - FD_STEP
                down = mean_mixed_loss()
                flat[i] = orig
                numeric = (up - down) / (2 * FD_STEP)
                assert rel_error(ana[i], numeric) < FD_TOL, f"{name}[{i}]"

    def test_apply_update_moves_exactly_the_batch_rows(self):
        rng = np.random.default_rng(42)
        model = tiny_model(rng, vocab_size=9, n_distill=3)
        model.embedding.matrix = np.asfortranarray(model.embedding.matrix)
        samples = mixed_batch()
        _, grads = standard_objective(model, samples, np.arange(3), None)
        dense = dense_gradients(model, grads)
        before = {name: a.copy() for name, a in model.named_parameters()}
        apply_update(model, grads, 0.5)
        for name, after in model.named_parameters():
            assert np.array_equal(after, before[name] - 0.5 * dense[name]), name
        untouched = [6, 7, 8]
        assert np.array_equal(model.embedding.matrix[:, untouched],
                              before["embedding"][:, untouched])
        assert model.embedding.matrix.flags.f_contiguous


class TestTrainTrial:
    def test_bit_identical_across_runs(self):
        factory, splits = tiny_factory()
        cfg = TrainConfig(learning_rate=0.5, max_epochs=4, batch_size=16,
                          dropout_rate=0.1, seed=11, patience=3)
        _, r1 = train_trial(factory, splits, cfg)
        _, r2 = train_trial(factory, splits, cfg)
        assert r1.train_losses == r2.train_losses
        assert r1.valid_accuracies == r2.valid_accuracies
        assert r1.best_epoch == r2.best_epoch
        assert r1.test_accuracy == r2.test_accuracy

    def test_best_epoch_is_argmax_of_validation(self):
        factory, splits = tiny_factory()
        cfg = TrainConfig(learning_rate=0.5, max_epochs=6, batch_size=16, seed=0)
        _, result = train_trial(factory, splits, cfg)
        assert result.best_valid_accuracy == max(result.valid_accuracies)
        assert result.valid_accuracies.index(max(result.valid_accuracies)) == result.best_epoch

    def test_returned_model_reproduces_reported_test_accuracy(self):
        factory, splits = tiny_factory()
        cfg = TrainConfig(learning_rate=0.5, max_epochs=5, batch_size=16, seed=2)
        model, result = train_trial(factory, splits, cfg)
        assert evaluate_accuracy(model, splits.test) == result.test_accuracy
        assert evaluate_accuracy(model, splits.valid) == result.best_valid_accuracy

    def test_test_split_is_evaluated_once_per_trial(self, monkeypatch):
        factory, splits = tiny_factory()
        cfg = TrainConfig(learning_rate=0.5, max_epochs=6, batch_size=16, seed=2)
        tested = []

        def counting(model, samples):
            tested.append(samples is splits.test)
            return evaluate_accuracy(model, samples)

        monkeypatch.setattr(training, "evaluate_accuracy", counting)
        _, result = train_trial(factory, splits, cfg)
        accs = result.valid_accuracies
        improvements = sum(acc > max(accs[:i], default=-1.0) for i, acc in enumerate(accs))
        assert improvements >= 2  # a per-improvement evaluation would show
        assert sum(tested) == 1

    def test_one_epoch_trial_copies_nothing(self, monkeypatch):
        splits, table = synthetic_probe_task(seed=9, vocab_size=4000, big_dim=100,
                                             seq_len=4, n_train=600)
        factory = ModelFactory(ModelConfig(n_embed=100, n_hidden=20, n_classes=5, n_distill=10),
                               table=table)
        taken = _spy_on_snapshots(monkeypatch)
        tracemalloc.start()
        try:
            train_trial(factory, splits, TrainConfig(learning_rate=1.0, max_epochs=1,
                                                     batch_size=50, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert taken == []
        # the trial's table and the batches' gathered rows
        assert peak < 1.5 * table.matrix.nbytes

    def test_best_last_epoch_returns_the_trained_model(self, monkeypatch):
        factory, splits = tiny_factory()
        built = []
        build = ModelFactory.build
        monkeypatch.setattr(ModelFactory, "build",
                            lambda *args: built.append(build(*args)) or built[-1])
        taken = _spy_on_snapshots(monkeypatch)
        cfg = TrainConfig(learning_rate=0.5, max_epochs=3, batch_size=16, seed=2)
        model, result = train_trial(factory, splits, cfg)
        assert result.valid_accuracies == sorted(set(result.valid_accuracies))  # rising
        assert len(taken) == 2  # opening epochs 1 and 2, none after the last
        assert model is built[0]

    def test_earlier_best_epoch_returns_the_snapshot_arrays(self, monkeypatch):
        factory, splits = tiny_factory()
        taken = _spy_on_snapshots(monkeypatch)
        cfg = TrainConfig(learning_rate=0.5, max_epochs=6, batch_size=16, seed=2)
        model, result = train_trial(factory, splits, cfg)
        assert 0 < result.best_epoch < len(result.valid_accuracies) - 1
        assert all(a is b for (_, a), b in zip(model.named_parameters(), taken[-1]))
        assert model.embedding.matrix.flags.f_contiguous

    def test_improving_epochs_overwrite_one_snapshot(self, monkeypatch):
        factory, splits = tiny_factory()
        cfg = TrainConfig(learning_rate=0.5, max_epochs=6, batch_size=16, seed=2)
        taken = _spy_on_snapshots(monkeypatch)
        train_trial(factory, splits, cfg)
        assert len(taken) >= 2
        assert all(saved is taken[0] for saved in taken)

    @pytest.mark.parametrize("n_distill", [0, 3])
    def test_reused_snapshot_gives_the_bits_of_fresh_copies(self, n_distill):
        _, splits = tiny_factory()
        config = ModelConfig(n_embed=6, n_hidden=5, n_classes=5, n_distill=n_distill)
        factory = ModelFactory(config, vocab=splits.vocab)
        # 3 epochs end on the best one; of 6, the best is epoch 2
        for max_epochs, best_epoch in ((3, 2), (6, 2)):
            cfg = TrainConfig(learning_rate=0.5, max_epochs=max_epochs, batch_size=16,
                              dropout_rate=0.2, seed=2)
            reused, r1 = train_trial(factory, splits, cfg)
            fresh, r2 = _snapshot_then_restore(factory, splits, cfg)
            assert r1.best_epoch == best_epoch
            assert dataclasses.replace(r1, seconds=0.0) == r2
            for (name, a), (_, b) in zip(reused.named_parameters(), fresh.named_parameters()):
                assert np.array_equal(a, b), name

    def test_traced_peak_holds_the_table_twice_not_three_times(self):
        splits, table = synthetic_probe_task(seed=9, vocab_size=4000, big_dim=100,
                                             seq_len=4, n_train=600)
        config = ModelConfig(n_embed=100, n_hidden=20, n_classes=5, n_distill=10)
        factory = ModelFactory(config, table=table)
        cfg = TrainConfig(learning_rate=1.0, max_epochs=6, batch_size=50, seed=1)
        tracemalloc.start()
        try:
            _, result = train_trial(factory, splits, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        accs = result.valid_accuracies
        later = [i for i in range(1, len(accs)) if accs[i] > max(accs[:i])]
        assert len(later) >= 2  # fresh snapshots would overlap the one before
        # the trial's table, its one snapshot and the batches' gathered rows
        table_bytes = table.matrix.nbytes
        assert peak < 2.5 * table_bytes

    def test_early_stopping_respects_patience(self):
        factory, splits = tiny_factory()
        cfg = TrainConfig(learning_rate=1e-9, max_epochs=30, batch_size=16,
                          seed=0, patience=2)
        _, result = train_trial(factory, splits, cfg)
        # no improvement after the first epoch, so it stops at patience
        assert len(result.valid_accuracies) <= 1 + 2 + 1

    @pytest.mark.parametrize("lr", [1e40, 1e300])
    def test_parameters_beyond_float32_diverge(self, lr):
        factory, splits = tiny_factory()
        # one update, whose batch loss is finite
        cfg = TrainConfig(learning_rate=lr, max_epochs=1, batch_size=len(splits.train), seed=0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="parameter embedding is not finite"):
            train_trial(factory, splits, cfg)

    def test_trial_log_format(self, tmp_path):
        factory, splits = tiny_factory()
        cfg = TrainConfig(learning_rate=0.5, decay_scheme="halve_every_3",
                          max_epochs=4, batch_size=16, seed=0)
        log = tmp_path / "trial.log"
        train_trial(factory, splits, cfg, log_path=log)
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 4
        for epoch, line in enumerate(lines):
            fields = line.split("\t")
            assert len(fields) == 5
            assert int(fields[0]) == epoch
            float(fields[1]), float(fields[2]), float(fields[4])
            assert float(fields[3]) == decay(0.5, "halve_every_3", epoch)


def _spy_on_snapshots(monkeypatch) -> list:
    """Record every ``ClassifierModel.snapshot`` result; returns the list."""
    taken = []
    snapshot = ClassifierModel.snapshot

    def spy(model, *args, **kwargs):
        taken.append(snapshot(model, *args, **kwargs))
        return taken[-1]

    monkeypatch.setattr(ClassifierModel, "snapshot", spy)
    return taken


def _snapshot_then_restore(factory, splits, cfg):
    """``train_trial`` without a log, as a fresh copy of every improving
    epoch, copied back into the trained model at the end."""
    model = factory.build(cfg.seed, cfg.dropout_rate)
    rng = np.random.default_rng([cfg.seed, 1])
    losses, accs, best, saved = [], [], -1, None
    for epoch in range(cfg.max_epochs):
        lr = decay(cfg.learning_rate, cfg.decay_scheme, epoch)
        losses.append(sgd_epoch(model, splits.train, lr, cfg.batch_size, rng))
        accs.append(evaluate_accuracy(model, splits.valid))
        if accs[-1] > max(accs[:-1], default=-1.0):
            best, saved = epoch, [np.copy(a) for _, a in model.named_parameters()]
        if epoch - best >= cfg.patience:
            break
    final_train_accuracy = evaluate_accuracy(model, splits.train)
    for (_, a), b in zip(model.named_parameters(), saved):
        np.copyto(a, b)
    test_accuracy = evaluate_accuracy(model, splits.test)
    return model, training.TrialResult(cfg, losses, accs, best, test_accuracy,
                                       final_train_accuracy, 0.0, cfg.seed)


def _one_blas_thread_objective(model, samples, indices, rng):
    """The standard objective, in a process that must run one BLAS thread."""
    assert training._OPENBLAS.scipy_openblas_get_num_threads64_() == 1
    return standard_objective(model, samples, indices, rng)


def _spy_on_fork(monkeypatch) -> list:
    """Count the calling process's forks; returns the list of child pids."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _without_seconds(entries) -> list:
    """Grid entries with each trial's wall time zeroed, the one field that
    differs between two runs of the same grid."""
    return [
        dataclasses.replace(e, result=e.result and dataclasses.replace(e.result, seconds=0.0))
        for e in entries
    ]


class TestGridSearch:
    def test_single_point_grid_returns_it(self):
        factory, splits = tiny_factory()
        protocol = TrainingProtocol(
            learning_rates=(0.5,), decay_schemes=("constant",), dropout_rates=(0.0,),
            batch_size=16, max_epochs=3,
        )
        grid = grid_search(factory, splits, protocol)
        assert len(grid.entries) == 1
        assert grid.best_config.learning_rate == 0.5

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected_before_training(self, jobs, monkeypatch):
        factory, splits = tiny_factory()
        monkeypatch.setattr("embdistill.training.train_trial", None)  # never reached
        with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
            grid_search(factory, splits, TrainingProtocol(), jobs=jobs)

    def test_better_trained_configuration_wins(self):
        factory, splits = tiny_factory()
        protocol = TrainingProtocol(
            learning_rates=(1e-7, 0.5), decay_schemes=("constant",),
            dropout_rates=(0.0,), batch_size=16, max_epochs=6,
        )
        grid = grid_search(factory, splits, protocol)
        assert grid.best_config.learning_rate == 0.5

    def test_ties_break_to_smaller_lr_then_dropout(self):
        factory, splits = tiny_factory()
        # learning is effectively frozen, so all accuracies coincide
        protocol = TrainingProtocol(
            learning_rates=(0.3, 0.1), decay_schemes=("constant",),
            dropout_rates=(0.2, 0.0), batch_size=16, max_epochs=2,
        )
        scaled = dataclasses.replace(protocol, learning_rates=(3e-12, 1e-12))
        grid = grid_search(factory, splits, scaled)
        accs = [e.result.best_valid_accuracy for e in grid.entries if e.result]
        assert len(set(accs)) == 1
        assert grid.best_config.learning_rate == 1e-12
        assert grid.best_config.dropout_rate == 0.0

    def test_underfit_prunes_higher_dropout_at_same_lr(self):
        rng = np.random.default_rng(5)
        factory, splits = tiny_factory()
        # destroy the signal so nothing can beat chance
        scrambled = [Sample(s.tokens, int(rng.integers(0, 5))) for s in splits.train]
        splits = DatasetSplits(scrambled, splits.valid, splits.test, splits.vocab)
        protocol = TrainingProtocol(
            learning_rates=(1e-9,), decay_schemes=("constant",),
            dropout_rates=(0.0, 0.2, 0.4), batch_size=16, max_epochs=2,
        )
        grid = grid_search(factory, splits, protocol)
        ran = [e for e in grid.entries if e.result is not None]
        skipped = [e for e in grid.entries if e.skipped]
        assert len(ran) == 1 and ran[0].config.dropout_rate == 0.0
        assert len(skipped) == 2
        assert all("underfit" in e.skipped for e in skipped)
        assert [e.config.dropout_rate for e in skipped] == [0.2, 0.4]

    def test_all_diverged_raises_with_details(self):
        factory, splits = tiny_factory()
        protocol = TrainingProtocol(
            learning_rates=(1e200,), decay_schemes=("constant",),
            dropout_rates=(0.0,), batch_size=8, max_epochs=3,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="every grid trial failed"):
                grid_search(factory, splits, protocol)

    def test_parallel_jobs_match_sequential(self):
        factory, splits = tiny_factory()
        protocol = TrainingProtocol(
            learning_rates=(0.5, 0.1), decay_schemes=("constant",),
            dropout_rates=(0.0,), batch_size=16, max_epochs=3,
        )
        seq = grid_search(factory, splits, protocol, jobs=1)
        par = grid_search(factory, splits, protocol, jobs=2)
        assert seq.best_config == par.best_config
        assert [e.result.best_valid_accuracy for e in seq.entries] == [
            e.result.best_valid_accuracy for e in par.entries
        ]

    def test_one_lane_runs_without_a_pool(self, monkeypatch):
        factory, splits = tiny_factory()
        protocol = TrainingProtocol(
            learning_rates=(0.5,), decay_schemes=("constant",),
            dropout_rates=(0.0, 0.2), batch_size=16, max_epochs=2,
        )
        forks = _spy_on_fork(monkeypatch)
        grid = grid_search(factory, splits, protocol, jobs=4)
        assert forks == []
        assert len(grid.entries) == 2

    def test_pool_has_one_worker_per_lane(self, monkeypatch):
        # two lanes: the caller runs one, a single forked copy the other
        factory, splits = tiny_factory()
        protocol = TrainingProtocol(
            learning_rates=(0.5, 0.1), decay_schemes=("constant",),
            dropout_rates=(0.0,), batch_size=16, max_epochs=2,
        )
        forks = _spy_on_fork(monkeypatch)
        grid = grid_search(factory, splits, protocol, jobs=8)
        assert len(forks) == 1
        assert len(grid.entries) == 2

    @pytest.mark.parametrize("failing_lr", [0.1, 0.5], ids=["forked-lane", "callers-lane"])
    def test_lane_error_reaches_the_caller_and_every_copy_is_reaped(
        self, failing_lr, monkeypatch
    ):
        # at jobs=2 the caller runs the lr=0.5 lane and a forked copy the lr=0.1 one
        factory, splits = tiny_factory()
        protocol = TrainingProtocol(
            learning_rates=(0.5, 0.1), decay_schemes=("constant",),
            dropout_rates=(0.0,), batch_size=16, max_epochs=1,
        )
        real_train_trial = training.train_trial

        def train_trial_failing_at_lr(factory, splits, cfg, *args):
            if cfg.learning_rate == failing_lr:
                raise DataError(f"bad lane at lr={cfg.learning_rate}")
            return real_train_trial(factory, splits, cfg, *args)

        monkeypatch.setattr(training, "train_trial", train_trial_failing_at_lr)
        forks = _spy_on_fork(monkeypatch)
        with pytest.raises(DataError, match=f"^bad lane at lr={failing_lr}$") as raised:
            grid_search(factory, splits, protocol, jobs=2)
        assert type(raised.value) is DataError
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_copy_that_dies_without_a_result_is_an_error(self, monkeypatch):
        factory, splits = tiny_factory()
        protocol = TrainingProtocol(
            learning_rates=(0.5, 0.1), decay_schemes=("constant",),
            dropout_rates=(0.0,), batch_size=16, max_epochs=1,
        )
        real_train_trial = training.train_trial

        def train_trial_dying_at_lr(factory, splits, cfg, *args):
            if cfg.learning_rate == 0.1:  # the forked copy's lane
                os._exit(1)
            return real_train_trial(factory, splits, cfg, *args)

        monkeypatch.setattr(training, "train_trial", train_trial_dying_at_lr)
        with pytest.raises(RuntimeError, match="exited without a result"):
            grid_search(factory, splits, protocol, jobs=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_round_robin_lanes_match_serial_entries(self):
        # 4 lanes on 3 processes: the caller runs lanes 0 and 3
        factory, splits = tiny_factory()
        protocol = TrainingProtocol(
            learning_rates=(0.5, 0.1), decay_schemes=("constant", "inverse"),
            dropout_rates=(0.0, 0.2), batch_size=16, max_epochs=2,
        )
        serial = grid_search(factory, splits, protocol, jobs=1)
        forked = grid_search(factory, splits, protocol, jobs=3)
        assert _without_seconds(forked.entries) == _without_seconds(serial.entries)
        assert forked.best_config == serial.best_config

    @pytest.mark.skipif(training._OPENBLAS is None, reason="numpy links no bundled OpenBLAS")
    def test_forked_lanes_keep_the_bits_of_one_process(self):
        # a 300->50 encoder on about 360 distinct words a batch: a shape whose
        # GEMM bits depend on the BLAS thread count, so a lane left on two
        # threads changes the second epoch's loss
        splits, table = synthetic_probe_task(
            seed=3, vocab_size=2000, seq_len=2, n_train=400, n_valid=100, n_test=100)
        config = ModelConfig(n_embed=300, n_hidden=50, n_classes=5, n_distill=50,
                             regime="encoding")
        factory = ModelFactory(config, table=table)
        protocol = TrainingProtocol(
            learning_rates=(0.3, 0.1), decay_schemes=("constant",),
            dropout_rates=(0.1,), batch_size=200, max_epochs=2,
        )
        blas = training._OPENBLAS
        before = blas.scipy_openblas_get_num_threads64_()
        results = []
        try:
            for jobs in (1, 2):
                # every grid starts from a process that runs two BLAS threads
                blas.scipy_openblas_set_num_threads64_(2)
                results.append(grid_search(factory, splits, protocol, jobs=jobs))
        finally:
            blas.scipy_openblas_set_num_threads64_(before)
        serial, forked = results
        assert all(e.result is not None for e in serial.entries)
        assert _without_seconds(forked.entries) == _without_seconds(serial.entries)

    @pytest.mark.skipif(training._OPENBLAS is None, reason="numpy links no bundled OpenBLAS")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lanes_run_one_blas_thread(self, jobs):
        # the lanes start from a process that runs two BLAS threads
        factory, splits = tiny_factory()
        protocol = TrainingProtocol(
            learning_rates=(0.5, 0.1), decay_schemes=("constant",),
            dropout_rates=(0.0,), batch_size=16, max_epochs=1,
        )
        blas = training._OPENBLAS
        before = blas.scipy_openblas_get_num_threads64_()
        blas.scipy_openblas_set_num_threads64_(2)
        try:
            grid = grid_search(factory, splits, protocol, _one_blas_thread_objective, jobs=jobs)
        finally:
            blas.scipy_openblas_set_num_threads64_(before)
        assert len(grid.entries) == 2


class TestMultiRestart:
    def test_degenerate_task_zero_std(self):
        rng = np.random.default_rng(6)
        splits, vocab = toy_separable_task(rng, n_classes=2, n_train=40, n_eval=16)
        one_class = DatasetSplits(
            [Sample(s.tokens, 0) for s in splits.train],
            [Sample(s.tokens, 0) for s in splits.valid],
            [Sample(s.tokens, 0) for s in splits.test],
            vocab,
        )
        factory = ModelFactory(ModelConfig(n_embed=4, n_hidden=3, n_classes=2), vocab=vocab)
        cfg = TrainConfig(learning_rate=0.5, max_epochs=3, batch_size=8)
        agg, _ = multi_restart(factory, one_class, cfg, seeds=(0, 1, 2, 3, 4))
        assert agg.std_accuracy == 0.0
        assert agg.mean_accuracy == 1.0

    def test_statistics_recompute_exactly(self):
        factory, splits = tiny_factory()
        cfg = TrainConfig(learning_rate=0.5, max_epochs=3, batch_size=16)
        agg, best_model = multi_restart(factory, splits, cfg, seeds=(0, 1, 2, 3, 4))
        accs = np.array([t.test_accuracy for t in agg.trials])
        assert abs(agg.mean_accuracy - accs.mean()) < 1e-12
        assert abs(agg.std_accuracy - accs.std()) < 1e-12
        assert min(accs) <= agg.mean_accuracy <= max(accs)
        assert agg.seeds == [0, 1, 2, 3, 4]
        # restart pick: test accuracy of the best-validation seed
        by_seed = {t.seed: t for t in agg.trials}
        best_seed = max(agg.trials, key=lambda t: (t.best_valid_accuracy, -t.seed)).seed
        assert agg.restart_seed == best_seed
        assert agg.restart_test_accuracy == by_seed[best_seed].test_accuracy
        assert evaluate_accuracy(best_model, splits.valid) == by_seed[best_seed].best_valid_accuracy

    def test_duplicate_seeds_rejected(self):
        factory, splits = tiny_factory()
        cfg = TrainConfig(learning_rate=0.5, max_epochs=2, batch_size=16)
        with pytest.raises(ConfigError, match="distinct"):
            multi_restart(factory, splits, cfg, seeds=(0, 0, 1, 2, 3))


def _record_callers_seeds(monkeypatch) -> list:
    """The seed of every trial the calling process trains; a forked copy's
    calls land in its own copy of the list."""
    seeds = []
    real_train_trial = training.train_trial

    def recording_train_trial(factory, splits, cfg, *args):
        seeds.append(cfg.seed)
        return real_train_trial(factory, splits, cfg, *args)

    monkeypatch.setattr(training, "train_trial", recording_train_trial)
    return seeds


def _probe_regime_inputs(tag):
    """The 300->50 encoder shape of the forked-lanes bits test, or a
    matching-softmax regime on the same task, with restart seeds whose
    best validation accuracy sits at position 1 and is tied later on."""
    splits, table = synthetic_probe_task(
        seed=3, vocab_size=2000, seq_len=2, n_train=400, n_valid=100, n_test=100)
    protocol = TrainingProtocol(
        learning_rates=(0.3, 0.1), decay_schemes=("constant",), dropout_rates=(0.1,),
        batch_size=200, max_epochs=2, restart_seeds=(5, 4, 7, 6),
    )
    if tag == ENCODING_DISTILL:
        return splits, protocol, dict(table=table, distill_dim=50)
    rows = np.full((len(splits.train), 5), 0.05)
    rows[np.arange(len(splits.train)), splits.train.labels] = 0.8
    return splits, protocol, dict(embed_dim=50, soft_targets=SoftTargetSet(2.0, rows))


def _regime_bits(outcome) -> tuple:
    """Everything a regime run returns, but wall times and model versions."""
    aggregate = dataclasses.replace(outcome.aggregate, trials=[
        dataclasses.replace(t, seconds=0.0) for t in outcome.aggregate.trials])
    models = [m for m in (outcome.best_model, outcome.folded_model) if m is not None]
    params = [(name, a.tobytes(), a.flags.f_contiguous)
              for m in models for name, a in m.named_parameters()]
    return _without_seconds(outcome.grid.entries), aggregate, params, outcome.deployed_parameters


class TestRegimeLanes:
    """A regime forks its lane processes once; they run the grid lanes and
    then the restarts."""

    @pytest.mark.skipif(training._OPENBLAS is None, reason="numpy links no bundled OpenBLAS")
    @pytest.mark.parametrize("tag", [ENCODING_DISTILL, MATCHING_SOFTMAX])
    def test_jobs_keep_the_bits_of_one_process(self, tag, monkeypatch):
        splits, protocol, inputs = _probe_regime_inputs(tag)
        callers_seeds = _record_callers_seeds(monkeypatch)
        blas = training._OPENBLAS
        before = blas.scipy_openblas_get_num_threads64_()
        runs = {}
        try:
            for jobs in (1, 2, 3):
                # every regime starts from a process that runs two BLAS threads
                blas.scipy_openblas_set_num_threads64_(2)
                callers_seeds.clear()
                outcome = run_regime(Regime(tag), splits, protocol, n_hidden=50, n_classes=5,
                                     jobs=jobs, **inputs)
                runs[jobs] = outcome, list(callers_seeds)
        finally:
            blas.scipy_openblas_set_num_threads64_(before)
        serial, _ = runs[1]
        assert serial.aggregate.restart_seed == 4
        assert all(e.result is not None for e in serial.grid.entries)
        for jobs in (2, 3):
            outcome, callers = runs[jobs]
            assert _regime_bits(outcome) == _regime_bits(serial)
            assert 4 not in callers  # the winning restart ran in a forked copy
        assert 4 in runs[1][1]

    def test_one_fork_serves_the_grid_and_the_restarts(self, monkeypatch):
        splits, _ = toy_separable_task(np.random.default_rng(8), n_train=80, n_eval=24)
        protocol = TrainingProtocol(
            learning_rates=(0.5, 0.1), decay_schemes=("constant",), dropout_rates=(0.0,),
            batch_size=16, max_epochs=2, restart_seeds=(5, 6, 7, 8, 9),
        )
        callers_seeds = _record_callers_seeds(monkeypatch)
        forks = _spy_on_fork(monkeypatch)
        # grid seed 0 for each lane the caller runs, then its restart seeds
        for jobs, n_forks, callers in ((1, 0, [0, 0, 5, 6, 7, 8, 9]), (2, 1, [0, 5, 7, 9])):
            forks.clear()
            callers_seeds.clear()
            outcome = run_regime(Regime(DIRECT_SMALL), splits, protocol, n_hidden=5,
                                 embed_dim=4, jobs=jobs)
            assert len(forks) == n_forks
            assert callers_seeds == callers
            assert [t.seed for t in outcome.aggregate.trials] == [5, 6, 7, 8, 9]

    def test_jobs_below_one_rejected_before_output(self, tmp_path, monkeypatch):
        splits, _ = toy_separable_task(np.random.default_rng(8), n_train=30, n_eval=10)
        forks = _spy_on_fork(monkeypatch)
        with pytest.raises(ConfigError, match="jobs must be >= 1, got 0"):
            run_regime(Regime(DIRECT_SMALL), splits, TrainingProtocol(), n_hidden=5,
                       embed_dim=4, jobs=0, log_dir=tmp_path / "logs")
        assert not (tmp_path / "logs").exists()
        assert forks == []


def _run_two_lane_regime(monkeypatch, learning_rates=(0.5, 0.1), fail_at=None, failure=None):
    """A direct regime at jobs=2: the caller runs the first lane and
    restart seeds 5 and 7, one forked copy the second lane and seed 6.
    ``failure(cfg)`` runs in place of the restart trial of seed ``fail_at``."""
    splits, _ = toy_separable_task(np.random.default_rng(8), n_train=40, n_eval=16)
    protocol = TrainingProtocol(
        learning_rates=learning_rates, decay_schemes=("constant",), dropout_rates=(0.0,),
        batch_size=16, max_epochs=1, restart_seeds=(5, 6, 7),
    )
    real_train_trial = training.train_trial

    def train_trial_failing_at_seed(factory, splits, cfg, *args):
        if cfg.seed == fail_at:
            failure(cfg)
        return real_train_trial(factory, splits, cfg, *args)

    monkeypatch.setattr(training, "train_trial", train_trial_failing_at_seed)
    return run_regime(Regime(DIRECT_SMALL), splits, protocol, n_hidden=5, embed_dim=4, jobs=2)


class TestRegimeLanesAreReaped:
    """Whatever stops a regime, no lane process outlives it."""

    def test_every_grid_trial_diverging_while_copies_wait(self, monkeypatch):
        forks = _spy_on_fork(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="every grid trial failed"):
            _run_two_lane_regime(monkeypatch, learning_rates=(1e40, 1e300))
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("seed", [6, 7], ids=["forked-share", "callers-share"])
    def test_restart_error_reaches_the_caller(self, seed, monkeypatch):
        def fail(cfg):
            raise DataError(f"bad restart at seed {cfg.seed}")

        forks = _spy_on_fork(monkeypatch)
        with pytest.raises(DataError, match=f"^bad restart at seed {seed}$") as raised:
            _run_two_lane_regime(monkeypatch, fail_at=seed, failure=fail)
        assert type(raised.value) is DataError
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_copy_error_is_raised_from_the_copys_traceback(self, monkeypatch):
        def fail(cfg):
            raise DataError(f"bad restart at seed {cfg.seed}")

        with pytest.raises(DataError, match="^bad restart at seed 6$") as raised:
            _run_two_lane_regime(monkeypatch, fail_at=6, failure=fail)
        assert type(raised.value) is DataError
        cause = raised.value.__cause__
        assert "in train_trial_failing_at_seed" in str(cause)
        assert type(cause) is training.RemoteTraceback
        assert str(cause).endswith("DataError: bad restart at seed 6\n")

    def test_failed_fork_closes_its_pipes(self, monkeypatch):
        factory, splits = tiny_factory()

        def fork():
            raise OSError("no fork here")

        monkeypatch.setattr(os, "fork", fork)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="no fork here"):
            training.LaneProcesses(2, factory, splits, None, None)
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_copy_that_dies_in_its_restarts_is_an_error(self, monkeypatch):
        forks = _spy_on_fork(monkeypatch)
        with pytest.raises(RuntimeError, match="exited without a result"):
            _run_two_lane_regime(monkeypatch, fail_at=6, failure=lambda cfg: os._exit(1))
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestModelFactory:
    def test_same_seed_same_model(self):
        factory, _ = tiny_factory()
        m1, m2 = factory.build(9), factory.build(9)
        for (_, a), (_, b) in zip(m1.named_parameters(), m2.named_parameters()):
            assert np.array_equal(a, b)

    def test_pretrained_table_is_copied(self):
        rng = np.random.default_rng(7)
        model0 = tiny_model(rng)
        factory = ModelFactory(model0.config, table=model0.embedding)
        built = factory.build(0)
        built.embedding.matrix[:] = 0.0
        assert model0.embedding.matrix.any()

    def test_built_tables_are_word_major(self):
        rng = np.random.default_rng(8)
        model0 = tiny_model(rng)  # C-ordered table
        built = ModelFactory(model0.config, table=model0.embedding).build(0)
        assert built.embedding.matrix.flags.f_contiguous
        assert np.array_equal(built.embedding.matrix, model0.embedding.matrix)
        factory, _ = tiny_factory()
        assert factory.build(0).embedding.matrix.flags.f_contiguous

    def test_random_table_draw_is_unchanged_by_the_layout(self):
        factory, _ = tiny_factory()
        table = init_random_table(factory.vocab, 6, 0.1, np.random.default_rng(3))
        draw = np.random.default_rng(3).uniform(-0.1, 0.1, size=(6, len(factory.vocab)))
        assert table.matrix.flags.f_contiguous
        assert np.array_equal(table.matrix, draw)

    def test_random_tables_differ_across_seeds(self):
        factory, _ = tiny_factory()
        m1, m2 = factory.build(0), factory.build(1)
        assert not np.array_equal(m1.embedding.matrix, m2.embedding.matrix)
