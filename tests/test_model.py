import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embdistill.model
from embdistill.data import Sample, SampleSet
from embdistill.embeddings import (
    EmbeddingTable,
    EncoderLayer,
    Vocabulary,
    load_table,
    save_table,
)
from embdistill.errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    StaleCacheError,
)
from embdistill.model import (
    ClassifierModel,
    ModelConfig,
    _sample_logits,
    backward,
    backward_from_logit_grad,
    class_distributions,
    count_parameters,
    evaluate_accuracy,
    forward,
    load_model,
    parameter_shapes,
    predict,
    save_model,
)
from embdistill.distillation import fold_model
from embdistill.ops import dropout_mask, glorot, one_hot, softmax_ce_backward, softmax_t

from helpers import (
    check_model_gradients,
    dense_gradients,
    encoder_models,
    f32_blocks,
    models_without_encoder,
    soft_target,
    tiny_model,
    vocabularies,
)


class TestModelConfig:
    def test_distill_must_be_smaller(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_embed=4, n_hidden=3, n_classes=2, n_distill=4)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_embed=4, n_hidden=3, n_classes=2, dropout_rate=1.0)

    def test_unknown_regime(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_embed=4, n_hidden=3, n_classes=2, regime="who")


def zero_model(n_classes=5, dim=4, n_hidden=3, vocab_size=6):
    vocab = Vocabulary.from_words([f"w{i}" for i in range(vocab_size - 1)])
    table = EmbeddingTable(vocab, np.zeros((dim, vocab_size)))
    config = ModelConfig(n_embed=dim, n_hidden=n_hidden, n_classes=n_classes)
    return ClassifierModel(
        config, table, None,
        np.zeros((n_hidden, dim)), np.zeros(n_hidden),
        np.zeros((n_classes, n_hidden)), np.zeros(n_classes),
    )


class TestForward:
    def test_zero_parameters_give_uniform_distribution(self):
        model = zero_model(n_classes=5)
        y, _ = forward(model, [Sample(np.array([0, 1, 2]), 0)])
        assert np.allclose(y, 0.2, atol=1e-12)

    def test_single_word_pool_is_that_vector(self):
        rng = np.random.default_rng(0)
        model = tiny_model(rng)
        _, cache = forward(model, [Sample(np.array([2]), 0)])
        assert np.array_equal(cache.pool[0], model.embedding.matrix[:, 2])

    def test_matches_op_composition_oracle(self):
        rng = np.random.default_rng(1)
        model = tiny_model(rng, vocab_size=5, n_embed=4, n_distill=3, n_hidden=3, n_classes=5)
        sample = Sample(np.array([0, 3, 3, 1]), 2)
        for temp in (1.0, 2.0):
            y, _ = forward(model, [sample], temperature=temp)
            cols = model.embedding.matrix[:, sample.tokens]
            enc = np.tanh(model.encoder.w_encode @ cols + model.encoder.b_encode[:, None])
            pool = enc.mean(axis=1)
            h = np.tanh(model.hidden_w @ pool + model.hidden_b)
            z = model.out_w @ h + model.out_b
            assert np.all(np.abs(y[0] - softmax_t(z, temp)) < 1e-6)

    def test_empty_sample_rejected(self):
        rng = np.random.default_rng(2)
        model = tiny_model(rng)
        bad = Sample(np.array([0]), 0)
        bad.tokens = np.array([], dtype=np.intp)  # bypass Sample's own check
        with pytest.raises(DataError, match="empty"):
            forward(model, [bad])
        with pytest.raises(DataError, match="empty"):
            predict(model, bad)

    def test_token_order_invariance(self):
        rng = np.random.default_rng(3)
        model = tiny_model(rng, n_distill=3)
        tokens = np.array([1, 4, 2, 0, 2])
        y1, _ = forward(model, [Sample(tokens, 0)])
        y2, _ = forward(model, [Sample(tokens[::-1].copy(), 0)])
        assert np.allclose(y1, y2, atol=1e-12)

    def test_dropout_only_in_train_mode(self):
        # train mode is a forward pass given a generator
        rng = np.random.default_rng(4)
        model = tiny_model(rng)
        model.config.dropout_rate = 0.5
        sample = [Sample(np.array([0, 1]), 0)]
        y_eval, cache = forward(model, sample)
        assert cache.mask is None
        _, cache_train = forward(model, sample, rng=np.random.default_rng(0))
        assert cache_train.mask is not None
        # eval path is deterministic
        y_eval2, _ = forward(model, sample)
        assert np.array_equal(y_eval, y_eval2)

    def test_no_generator_builds_no_mask(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dropout_mask called")

        model = tiny_model(np.random.default_rng(5), n_distill=3)
        model.config.dropout_rate = 0.5
        monkeypatch.setattr(embdistill.model, "dropout_mask", refuse)
        samples = mixed_batch()
        for s in (samples, samples[:1]):
            _, cache = forward(model, s, temperature=2.0)
            assert cache.mask is None and cache.hidden is cache.hidden_act
        predict(model, samples)
        predict(model, samples[0])
        class_distributions(model, samples)
        with pytest.raises(AssertionError, match="dropout_mask called"):
            forward(model, samples, rng=np.random.default_rng(0))

    def test_zero_rate_builds_no_mask_with_a_generator(self):
        model = tiny_model(np.random.default_rng(5))
        generator = np.random.default_rng(0)
        state = generator.bit_generator.state
        _, cache = forward(model, mixed_batch(), rng=generator)
        assert cache.mask is None
        assert generator.bit_generator.state == state


class TestBackward:
    def test_zero_gradient_when_target_equals_output(self):
        rng = np.random.default_rng(6)
        model = tiny_model(rng)
        sample = SampleSet.of([Sample(np.array([0, 2]), 1)])
        y, cache = forward(model, sample)
        grads = backward(model, cache, y.copy())
        assert np.allclose(grads.out_w, 0.0, atol=1e-12)
        assert np.allclose(grads.out_b, 0.0, atol=1e-12)

    def test_untouched_words_have_no_gradient(self):
        rng = np.random.default_rng(7)
        model = tiny_model(rng, vocab_size=8)
        sample = SampleSet.of([Sample(np.array([1, 3, 3]), 0)])
        _, cache = forward(model, sample)
        grads = backward(model, cache, one_hot([0], model.config.n_classes))
        assert set(grads.embed_cols) == {1, 3}

    def test_duplicate_tokens_accumulate(self):
        rng = np.random.default_rng(8)
        model = tiny_model(rng)
        a, cache_a = forward(model, [Sample(np.array([2, 2]), 0)])
        grads = backward(model, cache_a, one_hot([0], model.config.n_classes))
        assert list(grads.embed_cols) == [2]

    def test_gradients_match_finite_differences_direct(self):
        rng = np.random.default_rng(9)
        model = tiny_model(rng, vocab_size=6, n_embed=4, n_hidden=4, n_classes=3)
        sample = Sample(np.array([0, 2, 4]), 1)
        check_model_gradients(model, sample, one_hot(1, 3), temperature=1.0)

    def test_gradients_match_finite_differences_encoder_soft(self):
        rng = np.random.default_rng(10)
        model = tiny_model(rng, vocab_size=7, n_embed=5, n_distill=3, n_hidden=4, n_classes=4)
        sample = Sample(np.array([1, 1, 5]), 2)
        check_model_gradients(model, sample, soft_target(rng, 4), temperature=2.0)

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(11)
        model = tiny_model(rng)
        sample = [Sample(np.array([0]), 0)]
        _, cache = forward(model, sample)
        model.restore(model.snapshot())  # bumps the version
        with pytest.raises(StaleCacheError):
            backward(model, cache, one_hot([0], model.config.n_classes))


def mixed_batch():
    """Three samples of different lengths; token 1 repeats inside the
    first sample and again in the third, token 3 in the first two."""
    return [
        Sample(np.array([1, 3, 1]), 0),
        Sample(np.array([3]), 2),
        Sample(np.array([0, 2, 4, 1, 5]), 1),
    ]


def soft_rows(rng, n_rows, n_classes):
    return np.array([soft_target(rng, n_classes) for _ in range(n_rows)])


class TestBatchEngine:
    @pytest.mark.parametrize("n_distill", [0, 3])
    def test_batch_mean_gradients_match_finite_differences(self, n_distill):
        rng = np.random.default_rng(30)
        model = tiny_model(rng, vocab_size=7, n_embed=5, n_distill=n_distill,
                           n_hidden=4, n_classes=4)
        samples = mixed_batch()
        hard = one_hot([s.label for s in samples], 4)
        check_model_gradients(model, samples, hard, temperature=1.0)
        check_model_gradients(model, samples, soft_rows(rng, 3, 4), temperature=2.0)

    @pytest.mark.parametrize("n_distill", [0, 3])
    def test_batch_equals_rows_and_mean_of_samples(self, n_distill):
        rng = np.random.default_rng(31)
        model = tiny_model(rng, vocab_size=7, n_embed=5, n_distill=n_distill,
                           n_hidden=4, n_classes=4)
        samples = mixed_batch()
        targets = soft_rows(rng, 3, 4)

        def grads_at_t2(cache, rows):  # as MatchingSoftmaxObjective composes them
            dz = softmax_ce_backward(cache.logits, rows, 2.0) / len(cache.samples)
            return dense_gradients(model, backward_from_logit_grad(model, cache, dz))

        y, cache = forward(model, samples, temperature=2.0)
        batch_grads = grads_at_t2(cache, targets)
        mean = {name: np.zeros_like(g) for name, g in batch_grads.items()}
        for i, sample in enumerate(samples):
            y_i, cache_i = forward(model, [sample], temperature=2.0)
            assert y_i.shape == (1, 4) and cache_i.logits.shape == (1, 4)
            assert np.max(np.abs(cache.logits[i] - cache_i.logits[0])) < 1e-12
            assert np.max(np.abs(y[i] - y_i[0])) < 1e-12
            grads_i = grads_at_t2(cache_i, targets[i : i + 1])
            for name, g in grads_i.items():
                mean[name] += g / len(samples)
        for name, g in batch_grads.items():
            assert np.max(np.abs(g - mean[name])) < 1e-12, name

    def test_batch_embedding_gradient_is_one_block_over_distinct_tokens(self):
        rng = np.random.default_rng(32)
        model = tiny_model(rng, vocab_size=8, n_distill=3)
        samples = mixed_batch()
        _, cache = forward(model, samples)
        grads = backward(model, cache, one_hot([s.label for s in samples], 3))
        assert grads.embed_ids.tolist() == [0, 1, 2, 3, 4, 5]
        assert grads.embed_rows.shape == (6, model.embedding.dim)
        assert set(grads.embed_cols) == {0, 1, 2, 3, 4, 5}
        assert np.array_equal(grads.embed_cols[3], grads.embed_rows[3])

    def test_direct_model_sample_result_does_not_depend_on_its_batch(self):
        # long samples: summation order matters from 8 tokens on
        rng = np.random.default_rng(33)
        model = tiny_model(rng, vocab_size=50, n_embed=12, n_hidden=9, n_classes=5)
        samples = [Sample(rng.integers(0, 50, size=int(n)), 0) for n in (1, 30, 9, 17, 40)]
        _, cache = forward(model, samples)
        for i, sample in enumerate(samples):
            assert np.array_equal(cache.logits[i], _sample_logits(model, sample))
        assert predict(model, samples).tolist() == [predict(model, s) for s in samples]

    def test_batch_dropout_mask_equals_stacked_sample_masks(self):
        rng = np.random.default_rng(34)
        model = tiny_model(rng, n_hidden=6)
        samples = mixed_batch()
        model.config.dropout_rate = 0.4
        _, cache = forward(model, samples, rng=np.random.default_rng(5))
        per_sample = np.random.default_rng(5)
        stacked = [dropout_mask(6, 0.4, per_sample) for _ in samples]
        assert np.array_equal(cache.mask, np.stack(stacked))
        one = np.random.default_rng(5)
        _, alone = forward(model, samples[:1], rng=one)
        assert np.array_equal(alone.mask, stacked[:1])

    def test_empty_batch_rejected(self):
        model = tiny_model(np.random.default_rng(35))
        for empty in ([], SampleSet.of([Sample(np.array([1]), 0)])[:0]):
            with pytest.raises(DataError, match="empty"):
                forward(model, empty)

    def test_chunked_prediction_over_many_samples(self):
        rng = np.random.default_rng(36)
        model = tiny_model(rng, vocab_size=20, n_distill=3)
        samples = [Sample(rng.integers(0, 20, size=int(rng.integers(1, 6))), 0)
                   for _ in range(450)]
        labels = predict(model, samples)
        assert labels.shape == (450,)
        for i in (0, 199, 200, 449):
            assert labels[i] == predict(model, samples[i])


class TestLoneSample:
    """``predict`` on a lone Sample runs its own short path up to the
    logits; on a model without an encoder it must give the bits of the
    sample's row in any batch."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_forward_and_predict_equal_the_sample_row_of_its_set(self, data):
        model = data.draw(models_without_encoder())
        assert model.encoder is None
        token_lists = data.draw(st.lists(
            st.lists(st.integers(0, len(model.embedding.vocab) - 1), min_size=1, max_size=45),
            min_size=1, max_size=12,
        ))
        samples = SampleSet.of([Sample(np.array(t), 0) for t in token_lists])
        logits = forward(model, samples)[1].logits
        for i in range(len(samples)):
            alone = _sample_logits(model, samples[i])
            assert alone.shape == logits[i].shape
            assert np.array_equal(alone, logits[i])
            assert predict(model, samples[i]) == int(logits[i].argmax())

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_encoder_model_argmax_equals_its_batch_argmax(self, data):
        # a lone sample encodes only its own distinct tokens, so its
        # logits may differ from its batch row in the last bits
        model = data.draw(encoder_models())
        token_lists = data.draw(st.lists(
            st.lists(st.integers(0, len(model.embedding.vocab) - 1), min_size=1, max_size=45),
            min_size=1, max_size=12,
        ))
        samples = SampleSet.of([Sample(np.array(t), 0) for t in token_lists])
        logits = forward(model, samples)[1].logits
        top_two = np.sort(logits, axis=1)[:, -2:]
        clear = top_two[:, 1] - top_two[:, 0] > 1e-9
        batch = predict(model, samples)
        for i in range(len(samples)):
            assert np.max(np.abs(_sample_logits(model, samples[i]) - logits[i])) < 1e-9
            if clear[i]:
                assert predict(model, samples[i]) == batch[i]

    def test_one_column_table_adds_rows_in_order(self):
        # numpy sums a one-column block pairwise; a batch adds row by row
        rng = np.random.default_rng(41)
        model = tiny_model(rng, vocab_size=20, n_embed=1)
        samples = [Sample(rng.integers(0, 20, size=30), 0), Sample(np.array([3]), 0)]
        _, cache = forward(model, samples)
        assert np.array_equal(_sample_logits(model, samples[0]), cache.logits[0])

    def test_predict_builds_no_sample_set(self, monkeypatch):
        rng = np.random.default_rng(40)
        direct = tiny_model(rng)
        folded = fold_model(tiny_model(rng, n_distill=3))
        sample = Sample(np.array([0, 3, 3, 1]), 0)
        expected = [predict(direct, sample), predict(folded, sample)]

        def refuse(cls, samples):
            raise AssertionError("SampleSet.of called")

        monkeypatch.setattr(SampleSet, "of", classmethod(refuse))
        assert [predict(direct, sample), predict(folded, sample)] == expected

    def test_predict_runs_no_softmax_and_builds_no_forward_cache(self, monkeypatch):
        rng = np.random.default_rng(42)
        encoder = tiny_model(rng, n_distill=3)
        encoder.config.dropout_rate = 0.5
        models = [tiny_model(rng), fold_model(encoder), encoder]
        sample = Sample(np.array([0, 3, 3, 1]), 0)
        expected = [predict(m, sample) for m in models]

        def refuse(*args, **kwargs):
            raise AssertionError("batch machinery called")

        for name in ("softmax_t", "ForwardCache", "_pool", "_dense", "affine_forward",
                     "dropout_mask"):
            monkeypatch.setattr(f"embdistill.model.{name}", refuse)
        assert [predict(m, sample) for m in models] == expected


class TestLargestLogit:
    def test_predict_picks_the_largest_logit_where_probabilities_tie(self):
        # the logits differ by 5e-324, so the softmax rounds all five to 0.2
        model = zero_model(n_classes=5)
        model.out_b[:] = [0.0, 5e-324, 0.0, 0.0, 0.0]
        samples = [Sample(np.array([0, 1]), 1), Sample(np.array([2]), 1)]
        assert np.all(class_distributions(model, samples) == 0.2)
        assert [predict(model, s) for s in samples] == [1, 1]
        assert predict(model, samples).tolist() == [1, 1]
        assert evaluate_accuracy(model, samples) == 1.0


class TestWordMajorLayout:
    def _model(self):
        rng = np.random.default_rng(37)
        model = tiny_model(rng, n_distill=3)
        model.embedding.matrix = np.asfortranarray(model.embedding.matrix)
        return model

    def test_snapshot_and_restore_keep_the_table_fortran_ordered(self):
        model = self._model()
        saved = model.snapshot()
        assert saved[0].flags.f_contiguous
        model.restore(saved)
        assert model.embedding.matrix.flags.f_contiguous

    def test_snapshot_into_an_earlier_one_overwrites_and_returns_it(self):
        model = self._model()
        saved = model.snapshot()
        arrays = list(saved)
        for _, param in model.named_parameters():
            param += 1.0
        assert model.snapshot(into=saved) is saved
        assert all(a is b for a, b in zip(saved, arrays))
        for a, fresh in zip(saved, model.snapshot()):
            assert np.array_equal(a, fresh)
        assert saved[0].flags.f_contiguous

    def test_loaded_and_folded_tables_are_word_major(self, tmp_path):
        model = self._model()
        save_model(model, tmp_path / "m.mdl")
        assert load_model(tmp_path / "m.mdl").embedding.matrix.flags.f_contiguous
        assert fold_model(model).embedding.matrix.flags.f_contiguous


class TestFoldEquivalence:
    def test_predictions_agree_between_live_and_folded(self):
        rng = np.random.default_rng(12)
        model = tiny_model(rng, vocab_size=40, n_embed=8, n_distill=4, n_hidden=5, n_classes=5)
        folded = fold_model(model)
        assert folded.encoder is None
        assert folded.embedding.dim == 4
        for _ in range(50):
            length = int(rng.integers(1, 9))
            sample = Sample(rng.integers(0, 40, size=length), 0)
            _, live_cache = forward(model, [sample])
            _, fold_cache = forward(folded, [sample])
            assert np.max(np.abs(live_cache.logits - fold_cache.logits)) < 1e-5
            assert predict(model, sample) == predict(folded, sample)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_folded_logits_match_the_encoder_model(self, data):
        model = data.draw(encoder_models())
        folded = fold_model(model)
        token_lists = data.draw(st.lists(
            st.lists(st.integers(0, len(model.embedding.vocab) - 1), min_size=1, max_size=45),
            min_size=1, max_size=12,
        ))
        samples = SampleSet.of([Sample(np.array(t), 0) for t in token_lists])

        def centred(z):
            return z - z.mean(axis=-1, keepdims=True)

        live = centred(forward(model, samples)[1].logits)
        assert np.max(np.abs(live - centred(forward(folded, samples)[1].logits))) < 1e-9
        top_two = np.sort(live, axis=1)[:, -2:]
        clear = top_two[:, 1] - top_two[:, 0] > 1e-9
        assert np.array_equal(predict(model, samples)[clear], predict(folded, samples)[clear])
        for i in range(len(samples)):
            alone = centred(_sample_logits(model, samples[i]))
            assert np.max(np.abs(alone - centred(_sample_logits(folded, samples[i])))) < 1e-9
            if clear[i]:
                assert predict(model, samples[i]) == predict(folded, samples[i])

    def test_fold_requires_encoder(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ConfigError):
            fold_model(tiny_model(rng))


class TestCountParameters:
    def test_hand_counted_direct_model(self):
        model = zero_model(n_classes=2, dim=4, n_hidden=3, vocab_size=10)
        # 10*4 table + (4*3 + 3) hidden + (3*2 + 2) output
        assert count_parameters(model) == 63

    def test_folding_removes_table_and_encoder(self):
        rng = np.random.default_rng(14)
        v = 120
        model = tiny_model(rng, vocab_size=v, n_embed=30, n_distill=5, n_hidden=5, n_classes=5)
        folded = fold_model(model)
        diff = count_parameters(model) - count_parameters(folded)
        # big table + encoder (weights and bias) replaced by the small table
        assert diff == v * 30 + 5 * 30 + 5 - v * 5

    def test_teacher_scale_versus_folded_ratio(self):
        rng = np.random.default_rng(15)
        vocab = Vocabulary.from_words([f"w{i}" for i in range(999)])
        teacher = ClassifierModel.initialize(
            ModelConfig(n_embed=300, n_hidden=200, n_classes=5),
            EmbeddingTable(vocab, rng.normal(size=(300, 1000)).astype(np.float32).astype(float)),
            rng,
        )
        student = ClassifierModel.initialize(
            ModelConfig(n_embed=300, n_hidden=50, n_classes=5, n_distill=50, regime="encoding"),
            EmbeddingTable(vocab, rng.normal(size=(300, 1000)).astype(np.float32).astype(float)),
            rng,
        )
        folded = fold_model(student)
        ratio = count_parameters(folded) / count_parameters(teacher)
        assert ratio < 0.20


class TestSaveLoad:
    def _model(self, rng, **kw):
        return tiny_model(rng, **kw)

    def test_roundtrip_is_f32_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        model = self._model(rng, n_distill=3)
        path = tmp_path / "m.mdl"
        save_model(model, path)
        loaded = load_model(path)
        for (name, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert np.array_equal(a.astype(np.float32), b.astype(np.float32)), name
        assert loaded.config == model.config
        assert loaded.embedding.vocab.words == model.embedding.vocab.words
        # a second save is byte-identical
        path2 = tmp_path / "m2.mdl"
        save_model(loaded, path2)
        save_model(load_model(path2), tmp_path / "m3.mdl")
        assert (tmp_path / "m2.mdl").read_bytes() == (tmp_path / "m3.mdl").read_bytes()

    def test_folded_model_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        folded = fold_model(self._model(rng, n_distill=3))
        path = tmp_path / "f.mdl"
        save_model(folded, path)
        loaded = load_model(path)
        assert loaded.embedding.dim == 3
        assert loaded.encoder is None

    def test_model_on_a_reloaded_folded_table_roundtrip(self, tmp_path):
        # the folded table as a plain table, through EMB1 and back
        rng = np.random.default_rng(21)
        folded = fold_model(self._model(rng, n_embed=6, n_distill=2))
        save_table(folded.embedding, tmp_path / "small.emb")
        model = ClassifierModel(
            folded.config, load_table(tmp_path / "small.emb"), None,
            folded.hidden_w, folded.hidden_b, folded.out_w, folded.out_b,
        )
        save_model(model, tmp_path / "m.mdl")
        loaded = load_model(tmp_path / "m.mdl")
        assert loaded.config == model.config and loaded.encoder is None
        for (name, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert np.array_equal(a.astype(np.float32), b), name
        save_model(loaded, tmp_path / "again.mdl")
        assert (tmp_path / "again.mdl").read_bytes() == (tmp_path / "m.mdl").read_bytes()

    def test_table_dim_must_fit_the_config(self):
        rng = np.random.default_rng(22)
        model = self._model(rng, n_embed=6, n_distill=2)
        table = EmbeddingTable(model.embedding.vocab, np.zeros((4, len(model.embedding.vocab))))
        with pytest.raises(DimensionError, match="table dim 4"):
            ClassifierModel(model.config, table, None, np.zeros((4, 4)), model.hidden_b,
                            model.out_w, model.out_b)
        small = EmbeddingTable(model.embedding.vocab, model.embedding.matrix[:2])
        with pytest.raises(DimensionError, match="table dim 2"):
            ClassifierModel(model.config, small, model.encoder, model.hidden_w,
                            model.hidden_b, model.out_w, model.out_b)

    def test_encoder_width_must_fit_the_config(self):
        # save_model would write this model, and load_model reject the file
        rng = np.random.default_rng(23)
        model = self._model(rng, n_embed=5, n_distill=3)
        encoder = EncoderLayer(glorot(2, 5, rng), np.zeros(2))
        with pytest.raises(DimensionError,
                           match=r"encoder_w has shape \(2, 5\), expected \(3, 5\)"):
            ClassifierModel(model.config, model.embedding, encoder, np.zeros((4, 2)),
                            model.hidden_b, model.out_w, model.out_b)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab=vocabularies(),
        n_embed=st.integers(2, 7),
        n_hidden=st.integers(1, 5),
        n_classes=st.integers(1, 5),
        kind=st.sampled_from(["direct", "encoder", "folded"]),
        data=st.data(),
    )
    def test_layout_roundtrip_and_truncation(self, tmp_path_factory, seed, vocab,
                                              n_embed, n_hidden, n_classes, kind, data):
        n_distill = 0 if kind == "direct" else data.draw(st.integers(1, n_embed - 1))
        model = tiny_model(np.random.default_rng(seed), n_embed=n_embed, n_distill=n_distill,
                           n_hidden=n_hidden, n_classes=n_classes, vocab=vocab)
        if kind == "folded":
            model = fold_model(model)
        params = model.named_parameters()
        assert parameter_shapes(model.config, len(vocab), model.embedding.dim,
                                model.encoder is not None) == [(n, a.shape) for n, a in params]
        for name, a in params:
            a[...] = data.draw(f32_blocks(a.shape), label=name)

        path = tmp_path_factory.mktemp("layout") / "m.mdl"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.embedding.vocab.words == vocab.words
        for (name, a), (_, b) in zip(params, loaded.named_parameters()):
            assert b.shape == a.shape and np.array_equal(b, a), name

        # the parameter blocks end the file, in layout order
        blob = path.read_bytes()
        start = len(blob) - 4 * sum(a.size for _, a in params)
        for name, a in params:
            cut = data.draw(st.integers(start, start + 4 * a.size - 1), label=name)
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError, match=f"truncated while reading {name}$"):
                load_model(path)
            start += 4 * a.size

    def test_truncated_file_is_rejected(self, tmp_path):
        rng = np.random.default_rng(18)
        model = self._model(rng)
        path = tmp_path / "m.mdl"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_model(path)

    def test_blocks_longer_than_the_file_are_never_read(self, tmp_path):
        # a 2^32-1 n_embed: a 17 GB table block in a 45-byte file
        path = tmp_path / "huge.mdl"
        config = struct.pack("<5I3Bf", 2**32 - 1, 0, 1, 1, 1, 0, 0, 0, 0.0)
        path.write_bytes(b"MDL1" + struct.pack("<I", 1) + config
                         + struct.pack("<I", 5) + b"<unk>" + bytes(8))
        with pytest.raises(FormatError, match="truncated while reading embedding"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mdl"
        path.write_bytes(b"WHAT" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    def test_unsupported_format_version(self, tmp_path):
        rng = np.random.default_rng(20)
        path = tmp_path / "m.mdl"
        save_model(self._model(rng), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # format version field
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_model(path)


class TestEvaluate:
    def test_accuracy_counts_argmax_hits(self):
        model = zero_model(n_classes=2, dim=3, n_hidden=2, vocab_size=4)
        model.out_b[0] = 1.0  # always predicts class 0
        samples = [Sample(np.array([0]), 0), Sample(np.array([1]), 1), Sample(np.array([2]), 0)]
        assert evaluate_accuracy(model, samples) == pytest.approx(2 / 3)

    def test_empty_eval_set_rejected(self):
        model = zero_model()
        with pytest.raises(DataError):
            evaluate_accuracy(model, [])
