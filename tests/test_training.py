import concurrent.futures
import dataclasses
import tracemalloc

import numpy as np
import pytest

from embdistill import training
from embdistill.data import DatasetSplits, Sample
from embdistill.distillation import MatchingSoftmaxObjective, SoftTargetSet
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

    def test_improving_epochs_overwrite_one_snapshot(self, monkeypatch):
        factory, splits = tiny_factory()
        cfg = TrainConfig(learning_rate=0.5, max_epochs=6, batch_size=16, seed=2)
        taken = []
        snapshot = ClassifierModel.snapshot

        def spy(model, *args, **kwargs):
            taken.append(snapshot(model, *args, **kwargs))
            return taken[-1]

        monkeypatch.setattr(ClassifierModel, "snapshot", spy)
        train_trial(factory, splits, cfg)
        assert len(taken) >= 2
        assert all(saved is taken[0] for saved in taken)

    @pytest.mark.parametrize("n_distill", [0, 3])
    def test_reused_snapshot_gives_the_bits_of_fresh_copies(self, n_distill, monkeypatch):
        _, splits = tiny_factory()
        config = ModelConfig(n_embed=6, n_hidden=5, n_classes=5, n_distill=n_distill)
        factory = ModelFactory(config, vocab=splits.vocab)
        cfg = TrainConfig(learning_rate=0.5, max_epochs=6, batch_size=16,
                          dropout_rate=0.2, seed=2)
        reused, r1 = train_trial(factory, splits, cfg)
        snapshot = ClassifierModel.snapshot
        monkeypatch.setattr(ClassifierModel, "snapshot", lambda model, into=None: snapshot(model))
        fresh, r2 = train_trial(factory, splits, cfg)
        assert r1.best_epoch > 0
        assert dataclasses.replace(r1, seconds=0.0) == dataclasses.replace(r2, seconds=0.0)
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


def _one_blas_thread_objective(model, samples, indices, rng):
    """The standard objective, in a process that must run one BLAS thread."""
    assert training._OPENBLAS.scipy_openblas_get_num_threads64_() == 1
    return standard_objective(model, samples, indices, rng)


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
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # never reached
        grid = grid_search(factory, splits, protocol, jobs=4)
        assert len(grid.entries) == 2

    def test_pool_has_one_worker_per_lane(self, monkeypatch):
        factory, splits = tiny_factory()
        protocol = TrainingProtocol(
            learning_rates=(0.5, 0.1), decay_schemes=("constant",),
            dropout_rates=(0.0,), batch_size=16, max_epochs=2,
        )
        asked = []

        class InlineExecutor(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                asked.append(max_workers)
                super().__init__(max_workers=1)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        grid = grid_search(factory, splits, protocol, jobs=8)
        assert asked == [2]
        assert len(grid.entries) == 2

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
