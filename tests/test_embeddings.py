import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embdistill.embeddings import (
    UNK_TOKEN,
    EmbeddingTable,
    EncoderLayer,
    Vocabulary,
    align_to_vocab,
    fold,
    init_random_table,
    load_table,
    load_word2vec_text,
    save_table,
)
from embdistill.errors import ConfigError, DimensionError, FormatError, ParseError
from embdistill.ops import glorot, one_hot

from helpers import encode, f32_blocks, lookup, vocabularies


def random_table(rng, vocab_size=10, dim=4):
    vocab = Vocabulary.from_words([f"w{i}" for i in range(vocab_size - 1)])
    return EmbeddingTable(vocab, rng.normal(size=(dim, vocab_size)))


class TestVocabulary:
    def test_unk_appended(self):
        v = Vocabulary.from_words(["a", "b"])
        assert v.words == ["a", "b", UNK_TOKEN]
        assert v.unk_index == 2

    def test_from_index_keeps_the_dict(self):
        index = {"b": 0, "a": 1}
        v = Vocabulary.from_index(index)
        assert v.index is index and v.words == ["b", "a", UNK_TOKEN] and v.unk_index == 2
        assert Vocabulary.from_index({UNK_TOKEN: 0, "x": 1}).words == [UNK_TOKEN, "x"]

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            Vocabulary.from_words(["a", "b", "a"])

    def test_oov_maps_to_unk(self):
        v = Vocabulary.from_words(["a"])
        assert v.to_index("a") == 0
        assert v.to_index("zebra") == v.unk_index

    def test_bijection(self):
        v = Vocabulary.from_words(["x", "y", "z"])
        assert sorted(v.index.values()) == list(range(len(v)))


class TestLookup:
    def test_equals_one_hot_multiply_exactly(self):
        rng = np.random.default_rng(0)
        table = random_table(rng, vocab_size=100, dim=7)
        for i in range(100):
            direct = lookup(table, i)
            via_matmul = table.matrix @ one_hot(i, 100)
            assert np.array_equal(direct, via_matmul)

    def test_hand_readable(self):
        vocab = Vocabulary.from_words(["a"])  # a, <unk>
        table = EmbeddingTable(vocab, np.array([[1.0, 3.0], [2.0, 4.0]]))
        assert np.array_equal(lookup(table, 1), [3.0, 4.0])

    def test_out_of_range(self):
        rng = np.random.default_rng(1)
        table = random_table(rng)
        with pytest.raises(IndexError):
            lookup(table, len(table.vocab))
        with pytest.raises(IndexError):
            lookup(table, -1)

    def test_returns_copy(self):
        rng = np.random.default_rng(2)
        table = random_table(rng)
        v = lookup(table, 0)
        v[:] = 0.0
        assert table.matrix[:, 0].any()


class TestEncoderLayer:
    def test_zero_layer_encodes_to_zero(self):
        rng = np.random.default_rng(3)
        table = random_table(rng, dim=4)
        enc = EncoderLayer(np.zeros((2, 4)), np.zeros(2))
        assert np.array_equal(encode(enc, table, 3), np.zeros(2))

    def test_must_reduce_dimensionality(self):
        with pytest.raises(ConfigError, match="reduce"):
            EncoderLayer(np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ConfigError, match="reduce"):
            EncoderLayer(np.zeros((5, 4)), np.zeros(5))

    def test_bias_lives_in_small_space(self):
        with pytest.raises(DimensionError):
            EncoderLayer(np.zeros((2, 4)), np.zeros(4))

    def test_matches_tanh_affine_oracle(self):
        rng = np.random.default_rng(4)
        table = random_table(rng, dim=5)
        enc = EncoderLayer(rng.normal(size=(3, 5)), rng.normal(size=3))
        for i in range(len(table.vocab)):
            expected = np.tanh(enc.w_encode @ table.matrix[:, i] + enc.b_encode)
            assert np.all(np.abs(encode(enc, table, i) - expected) < 1e-6)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(5)
        table = random_table(rng, dim=4)
        enc = EncoderLayer(rng.normal(size=(2, 6)), np.zeros(2))
        with pytest.raises(DimensionError):
            encode(enc, table, 0)


class TestFold:
    def test_fold_matches_encode_for_every_word(self):
        rng = np.random.default_rng(6)
        table = random_table(rng, vocab_size=30, dim=6)
        enc = EncoderLayer(glorot(3, 6, rng), np.zeros(3))
        folded = fold(enc, table)
        assert folded.dim == 3 and folded.vocab is table.vocab
        for i in range(len(table.vocab)):
            assert np.all(np.abs(lookup(folded, i) - encode(enc, table, i)) < 1e-6)

    def test_storage_shrinks_by_dim_ratio(self):
        rng = np.random.default_rng(7)
        vocab = Vocabulary.from_words([f"w{i}" for i in range(999)])
        table = EmbeddingTable(vocab, rng.normal(size=(300, 1000)))
        enc = EncoderLayer(glorot(50, 300, rng), np.zeros(50))
        folded = fold(enc, table)
        assert folded.matrix.size == 50 * 1000
        assert table.matrix.size == 300 * 1000
        assert table.matrix.size // folded.matrix.size == 6


class TestWord2vecText:
    def test_two_vector_file_with_unk_mean(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\na 1 2 3\nb 4 5 6\n")
        table = load_word2vec_text(path)
        assert len(table.vocab) == 3
        assert table.dim == 3
        assert table.vocab.words == ["a", "b", UNK_TOKEN]
        assert np.array_equal(lookup(table, 0), [1.0, 2.0, 3.0])
        assert np.array_equal(lookup(table, table.vocab.unk_index), [2.5, 3.5, 4.5])

    def test_no_trailing_newline(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 2\nq 0.5 -0.5")
        table = load_word2vec_text(path)
        assert np.array_equal(lookup(table, 0), [0.5, -0.5])

    def test_crlf_tolerated(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"1 2\r\nq 0.5 -0.5\r\n")
        table = load_word2vec_text(path)
        assert np.array_equal(lookup(table, 0), [0.5, -0.5])

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 2\na 1 2\nb 3 4\n")
        with pytest.raises(ParseError, match="declares 3"):
            load_word2vec_text(path)

    def test_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\na 1 2 3\nb 4 5\n")
        with pytest.raises(ParseError, match=":3:"):
            load_word2vec_text(path)

    def test_duplicate_word(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 2\na 1 2\na 3 4\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_word2vec_text(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 2\na 1 oops\n")
        with pytest.raises(ParseError, match="non-numeric"):
            load_word2vec_text(path)

    def test_roundtrip_through_native_format_is_f32_exact(self, tmp_path):
        # values chosen to exercise f32 rounding of decimal text
        src = tmp_path / "vecs.txt"
        src.write_text("3 2\na 0.1 -0.2\nb 1e-8 3.14159265\nc 42 -0.333333\n")
        loaded = load_word2vec_text(src)
        native = tmp_path / "vecs.emb"
        save_table(loaded, native)
        reloaded = load_table(native)
        assert reloaded.vocab.words == loaded.vocab.words
        assert np.array_equal(
            loaded.matrix.astype(np.float32), reloaded.matrix.astype(np.float32)
        )
        # native bytes are a fixed point of save/load
        native2 = tmp_path / "vecs2.emb"
        save_table(reloaded, native2)
        assert native.read_bytes() == native2.read_bytes()


_TOKEN_CHARS = "abcxyzABZ019_-.éß語"


@st.composite
def word2vec_files(draw):
    """A word2vec text file's bytes and the tokens and float values in it."""
    dim = draw(st.integers(1, 6))
    tokens = draw(st.lists(st.text(_TOKEN_CHARS, min_size=1, max_size=6),
                           min_size=1, max_size=12, unique=True))
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), UNK_TOKEN)
    values = draw(st.lists(
        st.lists(st.one_of(st.floats(-1e6, 1e6), st.integers(-999, 999).map(float)),
                 min_size=dim, max_size=dim),
        min_size=len(tokens), max_size=len(tokens)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"{len(tokens)} {dim}"] + [
        " ".join([token] + [repr(v) for v in row]) for token, row in zip(tokens, values)
    ]
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text.encode("utf-8"), tokens, np.array(values).T


def _vector_file(tmp_path, count, dim, unk_at=None):
    """A file of ``count`` random vectors, the unknown token at ``unk_at``."""
    rng = np.random.default_rng(13)
    lines = [f"{count} {dim}"]
    for i, row in enumerate(rng.normal(size=(count, dim))):
        token = UNK_TOKEN if i == unk_at else f"w{i}"
        lines.append(token + " " + " ".join(f"{v:.6f}" for v in row))
    path = tmp_path / "vecs.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestWord2vecStreaming:
    """The streaming loader: its values, its memory and its error order."""

    @settings(max_examples=150, deadline=None)
    @given(word2vec_files())
    def test_float32_values_and_unk_mean_bit_for_bit(self, tmp_path_factory, case):
        blob, tokens, values = case
        path = tmp_path_factory.mktemp("w2v") / "vecs.txt"
        path.write_bytes(blob)
        table = load_word2vec_text(path)
        expected = np.ascontiguousarray(values.astype(np.float32).astype(float))
        if UNK_TOKEN not in tokens:
            tokens = tokens + [UNK_TOKEN]
            expected = np.hstack([expected, expected.mean(axis=1, keepdims=True)])
        assert table.vocab.words == tokens
        assert table.matrix.flags.c_contiguous
        assert np.array_equal(table.matrix, expected)

    @pytest.mark.parametrize("unk_at", [None, 1234])
    def test_traced_peak_is_about_the_returned_table(self, tmp_path, unk_at):
        path = _vector_file(tmp_path, 3000, 100, unk_at)
        tracemalloc.start()
        try:
            table = load_word2vec_text(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 3,000 token strings, their set, list and vocabulary index
        tokens = 3000 * 200
        assert peak <= 1.5 * table.matrix.nbytes + tokens

    def test_surplus_line_stops_at_the_count(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 2\na 1 2\nb oops\n")
        with pytest.raises(ParseError, match="declares 1 vectors, file has more"):
            load_word2vec_text(path)

    def test_trailing_blank_line_is_a_surplus_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 2\na 1 2\n\n")
        with pytest.raises(ParseError, match="declares 1 vectors, file has more"):
            load_word2vec_text(path)

    def test_blank_line_inside_the_data(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 2\na 1 2\n\nb 3 4\n")
        with pytest.raises(ParseError, match="vecs.txt:3: expected token plus 2 values, got 0"):
            load_word2vec_text(path)

    @pytest.mark.parametrize("declared", [2, 4])
    def test_bad_line_within_the_count_wins_over_a_wrong_count(self, tmp_path, declared):
        # the file holds three vectors, the second one malformed
        path = tmp_path / "vecs.txt"
        path.write_text(f"{declared} 2\na 1 2\nb 1 oops\nc 5 6\n")
        with pytest.raises(ParseError, match=r"vecs.txt:3: non-numeric"):
            load_word2vec_text(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    @pytest.mark.parametrize("unk", [False, True])
    def test_non_finite_value_names_the_first_such_line(self, tmp_path, value, unk):
        path = tmp_path / "vecs.txt"
        first = UNK_TOKEN if unk else "a"
        path.write_text(f"4 2\n{first} 1 2\nb 3 {value}\nc -1e39 nan\nd 5 6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=r"vecs.txt:3: non-finite vector value"):
                load_word2vec_text(path)

    def test_largest_float32_values_load_without_warnings(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 1\na 3.4e38\nb 3.4e38\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load_word2vec_text(path)
        assert np.isfinite(table.matrix).all()

    @pytest.mark.parametrize("count", ["100000000000000", "1" + "0" * 30])
    def test_header_too_large_to_hold(self, tmp_path, count):
        path = tmp_path / "vecs.txt"
        path.write_text(f"{count} 300\na {' '.join(['1'] * 300)}\n")
        with pytest.raises(ParseError, match=f"vecs.txt:1: header declares {count} vectors"):
            load_word2vec_text(path)


def _long_file_lines(count=1500, dim=40):
    """The header and vector lines of a file of about 560 KB of text, so
    the reader takes several blocks of lines to read it."""
    rng = np.random.default_rng(14)
    return [f"{count} {dim}"] + [
        f"w{i} " + " ".join(f"{v:.6f}" for v in row)
        for i, row in enumerate(rng.normal(size=(count, dim)))
    ]


def _per_line_parse(lines):
    """The reference: every vector line parsed alone, the unknown token
    the mean of the file's vectors, as a (dim, count + 1) matrix."""
    rows = [np.array(line.split()[1:], dtype=np.float32) for line in lines[1:]]
    values = np.ascontiguousarray(np.array(rows).astype(float).T)
    return np.hstack([values, values.mean(axis=1, keepdims=True)])


class TestWord2vecBlocks:
    """A file several reading blocks long loads and fails as a
    line-by-line parse does; line 1401 sits past the first block."""

    def _write(self, tmp_path, lines):
        path = tmp_path / "vecs.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_values_and_unk_mean_bit_for_bit(self, tmp_path):
        lines = _long_file_lines()
        table = load_word2vec_text(self._write(tmp_path, lines))
        assert table.vocab.words == [f"w{i}" for i in range(1500)] + [UNK_TOKEN]
        assert table.matrix.flags.c_contiguous
        assert np.array_equal(table.matrix, _per_line_parse(lines))

    def test_underscore_value_in_a_later_block(self, tmp_path):
        lines = _long_file_lines()
        lines[1400] = lines[1400].rsplit(" ", 1)[0] + " 1_0"
        table = load_word2vec_text(self._write(tmp_path, lines))
        assert table.matrix[39, 1399] == 10.0
        lines[1400] = lines[1400][:-3] + "10"
        assert np.array_equal(table.matrix, _per_line_parse(lines))

    @pytest.mark.parametrize("line, text, message", [
        (1400, "w1399 1 2", "vecs.txt:1401: expected token plus 40 values, got 3 fields"),
        (1400, "w1399" + " 1" * 39 + " oops", "vecs.txt:1401: non-numeric vector value"),
        (1401, "w1399" + " 1" * 40, "vecs.txt:1402: duplicate word 'w1399'"),
        (1400, "w5" + " 1" * 40, "vecs.txt:1401: duplicate word 'w5'"),
    ])
    def test_bad_line_in_a_later_block_names_its_line(self, tmp_path, line, text, message):
        lines = _long_file_lines()
        lines[line] = text
        with pytest.raises(ParseError, match=message):
            load_word2vec_text(self._write(tmp_path, lines))

    def test_surplus_line_in_a_later_block(self, tmp_path):
        lines = _long_file_lines()
        lines[0] = "1499 40"
        with pytest.raises(ParseError, match="declares 1499 vectors, file has more"):
            load_word2vec_text(self._write(tmp_path, lines))

    def test_file_ends_mid_block_short_of_its_count(self, tmp_path):
        lines = _long_file_lines()
        lines[0] = "1600 40"
        with pytest.raises(ParseError, match="declares 1600 vectors, file has 1500$"):
            load_word2vec_text(self._write(tmp_path, lines))


class TestNativeTableFormat:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_table(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(8)
        table = random_table(rng)
        path = tmp_path / "t.emb"
        save_table(table, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(FormatError, match="truncated"):
            load_table(path)

    def test_trailing_data(self, tmp_path):
        rng = np.random.default_rng(9)
        table = random_table(rng)
        path = tmp_path / "t.emb"
        save_table(table, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_table(path)

    def test_blocks_longer_than_the_file_are_never_read(self, tmp_path):
        # 29 bytes that declare a 2^32-1 dim, then a 2^32-1 byte token
        path = tmp_path / "huge.emb"
        unk = struct.pack("<I", 5) + b"<unk>"
        path.write_bytes(b"EMB1" + struct.pack("<II", 1, 2**32 - 1) + unk + bytes(8))
        with pytest.raises(FormatError, match=f"{path}: truncated while reading matrix"):
            load_table(path)
        path.write_bytes(b"EMB1" + struct.pack("<III", 1, 2, 2**32 - 1) + bytes(13))
        with pytest.raises(FormatError, match="truncated while reading token 0"):
            load_table(path)

    @settings(max_examples=40, deadline=None)
    @given(vocab=vocabularies(), dim=st.integers(1, 6), data=st.data())
    def test_roundtrip_and_truncation(self, tmp_path_factory, vocab, dim, data):
        matrix = data.draw(f32_blocks((dim, len(vocab))))
        path = tmp_path_factory.mktemp("emb") / "t.emb"
        save_table(EmbeddingTable(vocab, matrix), path)
        loaded = load_table(path)
        assert loaded.vocab.words == vocab.words and np.array_equal(loaded.matrix, matrix)
        blob = path.read_bytes()
        save_table(loaded, path)
        assert path.read_bytes() == blob
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")])
        with pytest.raises(FormatError):
            load_table(path)

    def test_unicode_tokens_roundtrip(self, tmp_path):
        vocab = Vocabulary.from_words(["été", "naïve"])
        table = EmbeddingTable(vocab, np.ones((2, 3), dtype=np.float32).astype(float))
        path = tmp_path / "t.emb"
        save_table(table, path)
        assert load_table(path).vocab.words == vocab.words


class TestInitRandomTable:
    def test_range(self):
        rng = np.random.default_rng(10)
        vocab = Vocabulary.from_words([f"w{i}" for i in range(50)])
        table = init_random_table(vocab, 8, 0.1, rng)
        assert np.all(np.abs(table.matrix) <= 0.1)

    def test_determinism(self):
        vocab = Vocabulary.from_words(["a", "b"])
        t1 = init_random_table(vocab, 4, 0.5, np.random.default_rng(42))
        t2 = init_random_table(vocab, 4, 0.5, np.random.default_rng(42))
        assert np.array_equal(t1.matrix, t2.matrix)

    def test_mean_near_zero(self):
        rng = np.random.default_rng(11)
        vocab = Vocabulary.from_words([f"w{i}" for i in range(999)])
        table = init_random_table(vocab, 1000, 0.1, rng)  # 1e6 draws
        assert abs(table.matrix.mean()) < 0.001

    def test_invalid_scale(self):
        vocab = Vocabulary.from_words(["a"])
        with pytest.raises(ConfigError):
            init_random_table(vocab, 4, 0.0, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="init scale must be > 0"):
            init_random_table(vocab, 4, float("nan"), np.random.default_rng(0))


class TestAlignToVocab:
    def test_hits_misses_and_unk(self):
        rng = np.random.default_rng(12)
        pre_vocab = Vocabulary.from_words(["known", "other"])
        pretrained = EmbeddingTable(pre_vocab, np.arange(9.0).reshape(3, 3))
        task_vocab = Vocabulary.from_words(["known", "novel"])
        aligned = align_to_vocab(pretrained, task_vocab, rng, scale=0.1)
        assert aligned.matrix.flags.f_contiguous  # word-major, like tables that train
        assert np.array_equal(aligned.matrix[:, 0], pretrained.matrix[:, 0])
        assert np.all(np.abs(aligned.matrix[:, 1]) <= 0.1)
        assert np.array_equal(
            aligned.matrix[:, task_vocab.unk_index],
            pretrained.matrix[:, pre_vocab.unk_index],
        )

    def test_same_values_as_one_draw_per_missing_word(self):
        # the reference: words in vocabulary order, one uniform draw per
        # word the pretrained table lacks
        rng = np.random.default_rng(15)
        pretrained = random_table(rng, vocab_size=30, dim=6)
        words = [f"w{i}" for i in range(0, 40, 2)] + [UNK_TOKEN] + ["x", "y"]
        task_vocab = Vocabulary.from_words(words)
        aligned = align_to_vocab(pretrained, task_vocab, np.random.default_rng(16), scale=0.3)
        reference = np.random.default_rng(16)
        for i, word in enumerate(task_vocab.words):
            if word in pretrained.vocab.index:
                expected = pretrained.matrix[:, pretrained.vocab.index[word]]
            else:
                expected = reference.uniform(-0.3, 0.3, size=6)
            assert np.array_equal(aligned.matrix[:, i], expected), word
