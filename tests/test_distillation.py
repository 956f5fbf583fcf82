import hashlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embdistill.data import Sample
from embdistill.distillation import (
    DIRECT_SMALL,
    ENCODING_DISTILL,
    MATCHING_SOFTMAX,
    MatchingSoftmaxObjective,
    Regime,
    SoftTargetSet,
    fold_model,
    generate_soft_targets,
    load_soft_targets,
    mixed_loss,
    run_regime,
    save_soft_targets,
    train_teacher,
)
from embdistill.embeddings import EmbeddingTable
from embdistill.errors import ConfigError, FormatError
from embdistill.model import (
    ModelConfig,
    backward,
    evaluate_accuracy,
    forward,
    load_model,
    save_model,
)
from embdistill.ops import cross_entropy, one_hot, softmax_ce_backward
from embdistill.training import TrainConfig, TrainingProtocol, train_trial, ModelFactory

from helpers import dense_gradients, f32_blocks, tiny_model, toy_separable_task


def params_hash(model) -> str:
    h = hashlib.md5()
    for _, a in model.named_parameters():
        h.update(a.tobytes())
    return h.hexdigest()


def onehot_rows(samples, n_classes) -> np.ndarray:
    rows = np.zeros((len(samples), n_classes))
    for i, s in enumerate(samples):
        rows[i, s.label] = 1.0
    return rows


SMALL_PROTOCOL = TrainingProtocol(
    learning_rates=(0.5,),
    decay_schemes=("constant",),
    dropout_rates=(0.0,),
    batch_size=16,
    max_epochs=4,
    patience=3,
)


class TestRegime:
    def test_unknown_tag(self):
        with pytest.raises(ConfigError):
            Regime("fancy")

    def test_matching_softmax_needs_softening(self):
        with pytest.raises(ConfigError, match="> 1"):
            Regime(MATCHING_SOFTMAX, temperature=1.0)
        assert Regime(MATCHING_SOFTMAX, temperature=2.0).temperature == 2.0


class TestSoftTargetSet:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sums to"):
            SoftTargetSet(2.0, np.array([[0.5, 0.2]]))

    @pytest.mark.parametrize("row, value", [([1.5, -0.5, 0.0], "1.5"),
                                            ([0.501, 0.5, -0.001], "-0.001")])
    def test_entries_outside_unit_interval_rejected(self, row, value):
        with pytest.raises(ConfigError, match=f"row 1 has value {value} outside"):
            SoftTargetSet(2.0, np.array([[0.5, 0.5, -0.0], row]))

    def test_cache_with_entries_outside_unit_interval_is_format_error(self, tmp_path):
        path = tmp_path / "t.sft"
        path.write_bytes(b"SFT1" + struct.pack("<IIf", 1, 2, 2.0) + struct.pack("<2f", 1.5, -0.5))
        with pytest.raises(FormatError, match=f"{path}: soft target row 0 has value 1.5"):
            load_soft_targets(path)

    @pytest.mark.parametrize("row, total", [((0.0, 0.0), "0.0"), ((-1.0, 0.0), "-1.0"),
                                            ((0.5, 1.5), "2.0")])
    def test_cache_row_sums_are_checked_before_renormalizing(self, tmp_path, row, total):
        path = tmp_path / "t.sft"
        path.write_bytes(b"SFT1" + struct.pack("<IIf", 1, 2, 2.0) + struct.pack("<2f", *row))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=f"{path}: soft target row 0 sums to {total},"):
                load_soft_targets(path)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 6), n_classes=st.integers(1, 5),
           temperature=st.floats(2.0**-4, 16.0, width=32), data=st.data())
    def test_roundtrip_property(self, tmp_path_factory, n, n_classes, temperature, data):
        weights = data.draw(f32_blocks((n, n_classes), 2.0**-8, 1.0))
        rows = weights / weights.sum(axis=1, keepdims=True)
        path = tmp_path_factory.mktemp("sft") / "t.sft"
        save_soft_targets(SoftTargetSet(temperature, rows), path)
        loaded = load_soft_targets(path)
        assert loaded.temperature == temperature and loaded.targets.shape == rows.shape
        assert np.all(np.abs(loaded.targets - rows) <= 1e-6)
        blob = path.read_bytes()
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")])
        with pytest.raises(FormatError):
            load_soft_targets(path)

    def test_cache_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.random((7, 5)) + 0.1
        rows /= rows.sum(axis=1, keepdims=True)
        targets = SoftTargetSet(2.0, rows)
        path = tmp_path / "t.sft"
        save_soft_targets(targets, path)
        loaded = load_soft_targets(path)
        assert loaded.temperature == 2.0
        assert np.all(np.abs(loaded.targets - rows) < 1e-6)
        # cached bytes are a fixed point
        path2 = tmp_path / "t2.sft"
        save_soft_targets(loaded, path2)
        assert np.array_equal(
            load_soft_targets(path2).targets, loaded.targets
        )

    def test_truncated_cache(self, tmp_path):
        path = tmp_path / "t.sft"
        save_soft_targets(SoftTargetSet(1.0, np.full((2, 2), 0.5)), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_soft_targets(path)

    def test_blocks_longer_than_the_file_are_never_read(self, tmp_path):
        # 2^32-1 rows, then 2^32-1 x 2^32-1, whose product a u64 cannot hold
        path = tmp_path / "huge.sft"
        for n_classes in (1, 2**32 - 1):
            path.write_bytes(b"SFT1" + struct.pack("<IIf", 2**32 - 1, n_classes, 2.0) + bytes(8))
            with pytest.raises(FormatError, match="truncated while reading target rows"):
                load_soft_targets(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.sft"
        path.write_bytes(b"JUNK" + b"\x00" * 12)
        with pytest.raises(FormatError, match="magic"):
            load_soft_targets(path)


class TestGenerateSoftTargets:
    def _teacher_and_samples(self, seed=0):
        rng = np.random.default_rng(seed)
        teacher = tiny_model(rng, vocab_size=10, n_embed=6, n_hidden=5, n_classes=5)
        samples = [Sample(rng.integers(0, 10, size=4), int(rng.integers(0, 5))) for _ in range(12)]
        return teacher, samples

    def test_huge_temperature_approaches_uniform(self):
        teacher, samples = self._teacher_and_samples()
        targets = generate_soft_targets(teacher, samples, 1000.0)
        spread = targets.targets.max(axis=1) - targets.targets.min(axis=1)
        assert np.all(spread < 0.01)

    def test_temperature_one_is_ordinary_distribution(self):
        teacher, samples = self._teacher_and_samples()
        targets = generate_soft_targets(teacher, samples, 1.0)
        for row, sample in zip(targets.targets, samples):
            y, _ = forward(teacher, sample, temperature=1.0)
            assert np.array_equal(row, y)

    def test_stored_targets_match_recomputation(self, tmp_path):
        teacher, samples = self._teacher_and_samples()
        targets = generate_soft_targets(teacher, samples, 2.0)
        path = tmp_path / "t.sft"
        save_soft_targets(targets, path)
        loaded = load_soft_targets(path)
        recomputed = generate_soft_targets(teacher, samples, 2.0)
        assert np.all(np.abs(loaded.targets - recomputed.targets) < 1e-6)

    def test_teacher_unchanged_by_generation(self):
        teacher, samples = self._teacher_and_samples()
        before = params_hash(teacher)
        generate_soft_targets(teacher, samples, 2.0)
        assert params_hash(teacher) == before


class TestMixedLoss:
    def test_degenerate_perfect_case(self):
        t = one_hot(0, 4)
        assert mixed_loss(t, t, t, t) == 0.0

    def test_uniform_soft_term_is_log_n(self):
        u = np.full(5, 0.2)
        t = one_hot(2, 5)
        hard = cross_entropy(u, t)
        total = mixed_loss(u, u, t, u)
        assert total - hard == pytest.approx(np.log(5), abs=1e-12)

    def test_decomposes_into_two_cross_entropies(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y1 = rng.random(5) + 0.05
            y1 /= y1.sum()
            yt = rng.random(5) + 0.05
            yt /= yt.sum()
            teacher = rng.random(5) + 0.05
            teacher /= teacher.sum()
            t = one_hot(int(rng.integers(0, 5)), 5)
            expect = cross_entropy(y1, t) + cross_entropy(yt, teacher)
            assert mixed_loss(y1, yt, t, teacher) == pytest.approx(expect, abs=1e-9)


class TestMatchingSoftmaxObjective:
    def test_perfect_teacher_t1_doubles_loss_and_gradient(self):
        rng = np.random.default_rng(2)
        model = tiny_model(rng, vocab_size=10, n_embed=5, n_hidden=4, n_classes=5)
        samples = [Sample(rng.integers(0, 10, size=3), int(rng.integers(0, 5))) for _ in range(6)]
        targets = SoftTargetSet(1.0, onehot_rows(samples, 5))
        objective = MatchingSoftmaxObjective(targets)
        indices = np.arange(len(samples))
        losses, grads = objective(model, samples, indices, None)
        y, cache = forward(model, samples)
        t = onehot_rows(samples, 5)
        for i in indices:
            std_loss = cross_entropy(y[i], t[i])
            assert losses[i] == pytest.approx(2.0 * std_loss, abs=1e-9)
        std = backward(model, cache, t)
        assert np.allclose(grads.out_w, 2.0 * std.out_w, atol=1e-12)
        assert np.allclose(grads.hidden_w, 2.0 * std.hidden_w, atol=1e-12)
        dz_mixed = softmax_ce_backward(cache.logits, t, 1.0) * 2.0
        dz_api = softmax_ce_backward(cache.logits, t, 1.0) + softmax_ce_backward(
            cache.logits, targets.targets[indices], 1.0
        )
        assert np.array_equal(dz_mixed, dz_api)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        model = tiny_model(rng, vocab_size=8, n_embed=5, n_hidden=4, n_classes=4)
        sample = Sample(np.array([1, 6, 2]), 2)
        teacher_row = np.array([0.1, 0.5, 0.2, 0.2])
        targets = SoftTargetSet(2.0, teacher_row[None, :])
        objective = MatchingSoftmaxObjective(targets)
        _, grads = objective(model, [sample], np.array([0]), None)

        def loss_fn():
            y1, cache = forward(model, sample)
            from embdistill.ops import softmax_t

            return cross_entropy(y1, one_hot(2, 4)) + cross_entropy(
                softmax_t(cache.logits, 2.0), teacher_row
            )

        step = 1e-3
        analytic = dense_gradients(model, grads)
        for name, param in model.named_parameters():
            flat = param.ravel()
            aflat = analytic[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss_fn()
                flat[i] = orig - step
                down = loss_fn()
                flat[i] = orig
                num = (up - down) / (2 * step)
                assert abs(aflat[i] - num) / max(abs(num), abs(aflat[i]), 1.0) < 1e-4


class TestTeacher:
    def test_teacher_fits_separable_toy_task(self):
        rng = np.random.default_rng(4)
        splits, vocab = toy_separable_task(rng, n_train=120, n_eval=30)
        table = EmbeddingTable(
            vocab, np.random.default_rng(5).uniform(-0.1, 0.1, size=(12, len(vocab)))
        )
        cfg = TrainConfig(learning_rate=0.5, max_epochs=12, batch_size=16, patience=12)
        teacher, result = train_teacher(splits, table, cfg, n_hidden=8, n_classes=5)
        assert evaluate_accuracy(teacher, splits.train) == 1.0
        assert result.best_valid_accuracy >= 0.9

    def test_saved_teacher_reproduces_soft_targets(self, tmp_path):
        rng = np.random.default_rng(6)
        teacher = tiny_model(rng, vocab_size=9, n_embed=5, n_hidden=4, n_classes=5)
        samples = [Sample(rng.integers(0, 9, size=3), 0) for _ in range(5)]
        path = tmp_path / "teacher.mdl"
        save_model(teacher, path)
        t1 = generate_soft_targets(load_model(path), samples, 2.0)
        t2 = generate_soft_targets(load_model(path), samples, 2.0)
        assert np.array_equal(t1.targets, t2.targets)

    def test_teacher_frozen_during_student_training(self):
        rng = np.random.default_rng(7)
        splits, vocab = toy_separable_task(rng, n_train=60, n_eval=20)
        table = EmbeddingTable(vocab, rng.uniform(-0.1, 0.1, size=(8, len(vocab))))
        cfg = TrainConfig(learning_rate=0.5, max_epochs=3, batch_size=16)
        teacher, _ = train_teacher(splits, table, cfg, n_hidden=6, n_classes=5)
        before = params_hash(teacher)

        targets = generate_soft_targets(teacher, splits.train, 2.0)
        factory = ModelFactory(
            ModelConfig(n_embed=4, n_hidden=4, n_classes=5, regime="matching_softmax"),
            vocab=vocab,
        )
        student_cfg = TrainConfig(learning_rate=0.5, max_epochs=3, batch_size=16)
        train_trial(factory, splits, student_cfg, MatchingSoftmaxObjective(targets))
        assert params_hash(teacher) == before


class TestRunRegime:
    def test_direct_regime_produces_five_seed_aggregate(self):
        rng = np.random.default_rng(8)
        splits, vocab = toy_separable_task(rng, n_train=80, n_eval=24)
        outcome = run_regime(
            Regime(DIRECT_SMALL), splits, SMALL_PROTOCOL,
            n_hidden=5, n_classes=5, embed_dim=4,
        )
        assert len(outcome.aggregate.trials) == 5
        assert outcome.folded_model is None
        assert outcome.deployed_parameters > 0
        assert 0.0 <= outcome.aggregate.mean_accuracy <= 1.0

    def test_encoding_regime_folds_for_deployment(self):
        rng = np.random.default_rng(9)
        splits, vocab = toy_separable_task(rng, n_train=80, n_eval=24)
        table = EmbeddingTable(vocab, rng.uniform(-0.3, 0.3, size=(10, len(vocab))))
        outcome = run_regime(
            Regime(ENCODING_DISTILL), splits, SMALL_PROTOCOL,
            n_hidden=5, n_classes=5, table=table, distill_dim=4,
        )
        assert outcome.folded_model is not None
        from embdistill.model import count_parameters

        assert outcome.deployed_parameters == count_parameters(outcome.folded_model)
        assert outcome.deployed_parameters < count_parameters(outcome.best_model)
        sample = splits.test[0]
        _, live = forward(outcome.best_model, sample)
        _, folded = forward(outcome.folded_model, sample)
        assert np.max(np.abs(live.logits - folded.logits)) < 1e-5

    def test_matching_softmax_with_perfect_teacher_not_worse_than_direct(self):
        rng = np.random.default_rng(10)
        splits, vocab = toy_separable_task(rng, n_train=100, n_eval=30)
        targets = SoftTargetSet(2.0, onehot_rows(splits.train, 5))
        direct = run_regime(
            Regime(DIRECT_SMALL), splits, SMALL_PROTOCOL,
            n_hidden=5, n_classes=5, embed_dim=4,
        )
        matched = run_regime(
            Regime(MATCHING_SOFTMAX, 2.0), splits, SMALL_PROTOCOL,
            n_hidden=5, n_classes=5, embed_dim=4, soft_targets=targets,
        )
        assert matched.aggregate.mean_accuracy >= direct.aggregate.mean_accuracy - 1e-9

    @pytest.mark.parametrize("width", [0, -1])
    def test_encoding_width_below_one_rejected_before_training(self, width, monkeypatch):
        rng = np.random.default_rng(9)
        splits, vocab = toy_separable_task(rng, n_train=30, n_eval=10)
        table = EmbeddingTable(vocab, rng.uniform(-0.3, 0.3, size=(10, len(vocab))))
        monkeypatch.setattr("embdistill.distillation.grid_search", None)  # never reached
        with pytest.raises(ConfigError, match=f"distilled width >= 1, got {width}"):
            run_regime(Regime(ENCODING_DISTILL), splits, SMALL_PROTOCOL,
                       n_hidden=5, n_classes=5, table=table, distill_dim=width)

    def test_matching_softmax_requires_aligned_targets(self):
        rng = np.random.default_rng(11)
        splits, vocab = toy_separable_task(rng, n_train=30, n_eval=10)
        short = SoftTargetSet(2.0, onehot_rows(splits.train[:-1], 5))
        with pytest.raises(ConfigError, match="soft-target rows"):
            run_regime(
                Regime(MATCHING_SOFTMAX, 2.0), splits, SMALL_PROTOCOL,
                n_hidden=4, n_classes=5, embed_dim=4, soft_targets=short,
            )

    def test_encoding_regime_requires_table(self):
        rng = np.random.default_rng(12)
        splits, _ = toy_separable_task(rng, n_train=20, n_eval=8)
        with pytest.raises(ConfigError, match="table"):
            run_regime(
                Regime(ENCODING_DISTILL), splits, SMALL_PROTOCOL,
                n_hidden=4, n_classes=5, distill_dim=3,
            )


class TestEncodingDominance:
    def test_near_full_width_encoder_with_identity_init_trains_at_least_as_well(self):
        # same starting function for both models: the direct table is the
        # encoding model's table pushed through the identity-like encoder
        rng = np.random.default_rng(13)
        splits, vocab = toy_separable_task(rng, n_train=100, n_eval=30)
        n_embed, n_distill = 6, 5
        big = EmbeddingTable(vocab, rng.uniform(-0.3, 0.3, size=(n_embed, len(vocab))))

        enc_cfg = ModelConfig(
            n_embed=n_embed, n_hidden=5, n_classes=5, n_distill=n_distill, regime="encoding"
        )
        enc_model = ModelFactory(enc_cfg, table=big).build(0)
        ident = np.zeros((n_distill, n_embed))
        ident[:, :n_distill] = np.eye(n_distill)
        enc_model.encoder.w_encode[:] = ident
        enc_model.encoder.b_encode[:] = 0.0

        small = EmbeddingTable(vocab, np.tanh(ident @ big.matrix))
        dir_cfg = ModelConfig(n_embed=n_distill, n_hidden=5, n_classes=5)
        dir_model = ModelFactory(dir_cfg, table=small).build(0)
        np.copyto(dir_model.hidden_w, enc_model.hidden_w)
        np.copyto(dir_model.out_w, enc_model.out_w)

        from embdistill.training import sgd_epoch

        enc_loss = dir_loss = None
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(15):
            enc_loss = sgd_epoch(enc_model, splits.train, 0.5, 16, rng_a)
            dir_loss = sgd_epoch(dir_model, splits.train, 0.5, 16, rng_b)
        assert enc_loss <= dir_loss + 1e-9
