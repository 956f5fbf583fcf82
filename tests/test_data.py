import gc
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embdistill import data
from embdistill.data import (
    ALL_PHRASES,
    DatasetSplits,
    LabeledTree,
    SENTENCE_ONLY,
    Sample,
    SampleSet,
    build_vocab,
    extract_samples,
    load_splits,
    parse_tree,
    read_splits,
    read_tree_file,
)
from embdistill.embeddings import UNK_TOKEN, Vocabulary
from embdistill.errors import ConfigError, DataError, ParseError

from helpers import (
    count_nodes,
    labeled_trees,
    leaf_tokens,
    preorder_nodes,
    random_tree,
    serialize_tree,
)


class TestParseTree:
    def test_two_leaf_tree(self):
        tree = parse_tree("(3 (2 A) (4 B))")
        assert tree.label == 3
        assert not tree.is_leaf
        assert len(tree.children) == 2
        assert tree.children[0] == LabeledTree(2, (), "A")
        assert tree.children[1] == LabeledTree(4, (), "B")

    def test_single_leaf(self):
        assert parse_tree("(1 X)") == LabeledTree(1, (), "X")

    def test_unbalanced(self):
        with pytest.raises(ParseError, match="unbalanced"):
            parse_tree("(3 (2 A) (4 B)")

    def test_non_integer_label(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_tree("(x A)")

    def test_label_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse_tree("(7 A)")
        with pytest.raises(ParseError, match="outside"):
            parse_tree("(-1 A)")

    def test_empty_node(self):
        with pytest.raises(ParseError, match="empty node"):
            parse_tree("(3)")

    def test_trailing_text(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_tree("(1 X) junk")

    def test_error_reports_byte_offset(self):
        # the multibyte token shifts byte offsets past char offsets
        line = "(3 (2 été) (9 B))"
        with pytest.raises(ParseError) as err:
            parse_tree(line)
        reported = int(str(err.value).split("byte ")[1].split(":")[0])
        assert reported == line.encode("utf-8").index(b"9")

    # every error kind with its whole message; "été" is 5 bytes in 3
    # characters, so a character offset past it would read 2 short
    @pytest.mark.parametrize("line, message", [
        ("", "byte 0: expected '('"),
        (" \t", "byte 2: expected '('"),
        ("été (1 a)", "byte 0: expected '('"),
        ("(3 (2 été)\t( (1 b)))", "byte 15: missing label"),
        ("(+3 (2 été)\t(x b))", "byte 15: non-integer label 'x'"),
        ("(3 (2 été) (+7 b))", "byte 14: label 7 outside 0..4"),
        ("(3 (2 été) (-1 b))", "byte 14: label -1 outside 0..4"),
        ("(3 (2 été) (1", "byte 15: unbalanced parentheses (unexpected end of line)"),
        ("(3 (2 été) (1\t)", "byte 16: empty node (no token or children)"),
        ("(3 (2 été b))", "byte 12: unbalanced parentheses (expected ')')"),
        ("(3 (2 été) (1 b)", "byte 18: unbalanced parentheses (expected ')')"),
        ("(3 (2 été) (1 b))\t(2 c)", "byte 20: trailing text after tree"),
    ])
    def test_error_message_names_the_offending_byte(self, line, message):
        with pytest.raises(ParseError) as err:
            parse_tree(line)
        assert str(err.value) == message

    def test_tabs_separate_and_int_reads_the_label(self):
        tree = parse_tree("(+3\t(2 été)\t(04 b))")
        assert tree == LabeledTree(3, (LabeledTree(2, (), "été"), LabeledTree(4, (), "b")))

    def test_multiway_node(self):
        tree = parse_tree("(2 (0 a) (1 b) (4 c))")
        assert [c.token for c in tree.children] == ["a", "b", "c"]

    def test_deep_nesting(self):
        tree = parse_tree("(3 (2 (1 deep)))")
        assert tree.children[0].children[0].token == "deep"

    def test_roundtrip_on_generated_trees(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tree = random_tree(rng)
            assert parse_tree(serialize_tree(tree)) == tree

    @settings(max_examples=200, deadline=None)
    @given(labeled_trees)
    def test_serialised_tree_parses_back(self, tree):
        assert parse_tree(serialize_tree(tree)) == tree

    def test_nesting_deeper_than_the_interpreter_stack(self):
        depth = 5000
        tree = parse_tree("(0 " * (depth - 1) + "(1 deep)" + ")" * (depth - 1))
        for _ in range(depth - 1):
            assert tree.label == 0 and len(tree.children) == 1
            tree = tree.children[0]
        assert tree == LabeledTree(1, (), "deep")

    def test_deep_line_error_names_its_byte(self):
        line = "(0 " * 4999 + "(1 deep)" + ")" * 4998  # one ')' short
        with pytest.raises(ParseError, match=f"byte {len(line)}: unbalanced"):
            parse_tree(line)


class TestExtractSamples:
    def setup_method(self):
        self.tree = parse_tree("(3 (2 A) (4 B))")
        self.vocab = build_vocab([self.tree])

    def test_all_phrases_enumerates_nodes(self):
        samples = extract_samples(self.tree, ALL_PHRASES, self.vocab)
        assert len(samples) == 3
        got = [(list(s.tokens), s.label) for s in samples]
        a, b = self.vocab.to_index("A"), self.vocab.to_index("B")
        assert got == [([a, b], 3), ([a], 2), ([b], 4)]

    def test_sentence_only_single_sample(self):
        samples = extract_samples(self.tree, SENTENCE_ONLY, self.vocab)
        assert len(samples) == 1
        assert samples[0].label == 3
        assert list(samples[0].tokens) == [self.vocab.to_index("A"), self.vocab.to_index("B")]

    def test_balanced_seven_node_tree(self):
        tree = parse_tree("(3 (2 (1 a) (2 b)) (4 (3 c) (4 d)))")
        assert count_nodes(tree) == 7
        samples = extract_samples(tree, ALL_PHRASES, build_vocab([tree]))
        assert len(samples) == 7

    def test_sample_count_equals_node_count_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tree = random_tree(rng)
            vocab = build_vocab([tree])
            assert len(extract_samples(tree, ALL_PHRASES, vocab)) == count_nodes(tree)
            assert len(extract_samples(tree, SENTENCE_ONLY, vocab)) == 1

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            extract_samples(self.tree, "phrases", self.vocab)

    def test_oov_maps_to_unk(self):
        other = parse_tree("(1 Z)")
        samples = extract_samples(other, SENTENCE_ONLY, self.vocab)
        assert list(samples[0].tokens) == [self.vocab.unk_index]

    @settings(max_examples=200, deadline=None)
    @given(labeled_trees, st.booleans())
    def test_each_sample_is_its_nodes_leaves_in_preorder(self, tree, lowercase):
        vocab = build_vocab([tree], lowercase)

        def ids(tokens):
            return [vocab.to_index(t.lower() if lowercase else t) for t in tokens]

        expected = [(ids(leaf_tokens(node)), node.label) for node in preorder_nodes(tree)]
        samples = extract_samples(tree, ALL_PHRASES, vocab, lowercase)
        assert [(s.tokens.tolist(), s.label) for s in samples] == expected
        [sentence] = extract_samples(tree, SENTENCE_ONLY, vocab, lowercase)
        assert (sentence.tokens.tolist(), sentence.label) == expected[0]

    def test_phrases_of_a_tree_deeper_than_the_interpreter_stack(self):
        depth = 5000
        tree = parse_tree("(0 " * (depth - 1) + "(1 deep)" + ")" * (depth - 1))
        samples = extract_samples(tree, ALL_PHRASES, build_vocab([tree]))
        assert [s.label for s in samples] == [0] * (depth - 1) + [1]
        assert all(s.tokens.tolist() == [0] for s in samples)

    def test_duplicate_phrases_kept(self):
        tree = parse_tree("(2 (1 same) (1 same))")
        samples = extract_samples(tree, ALL_PHRASES, build_vocab([tree]))
        assert len(samples) == 3
        assert [s.label for s in samples[1:]] == [1, 1]


class TestBuildVocab:
    def test_first_occurrence_order(self):
        trees = [parse_tree("(1 (2 A) (3 B))"), parse_tree("(0 A)")]
        vocab = build_vocab(trees)
        assert vocab.words == ["A", "B", UNK_TOKEN]

    def test_empty_training_set(self):
        vocab = build_vocab([])
        assert vocab.words == [UNK_TOKEN]

    def test_lowercase_folds_tokens(self):
        trees = [parse_tree("(1 (2 The) (3 the))")]
        vocab = build_vocab(trees, lowercase=True)
        assert vocab.words == ["the", UNK_TOKEN]


class TestLoadSplits:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_phrase_mode_counts(self, tmp_path):
        train = tmp_path / "train.txt"
        valid = tmp_path / "valid.txt"
        test = tmp_path / "test.txt"
        train_lines = ["(3 (2 A) (4 B))", "(1 X)", "(2 (1 a) (2 b) (3 c))"]
        self._write(train, train_lines)
        self._write(valid, ["(3 (2 A) (4 B))"])
        self._write(test, ["(0 X)"])
        splits = load_splits(train, valid, test, ALL_PHRASES)
        expected = sum(count_nodes(parse_tree(t)) for t in train_lines)
        assert len(splits.train) == expected
        assert len(splits.valid) == 1
        assert len(splits.test) == 1

    def test_valid_and_test_are_sentences_only(self, tmp_path):
        train = tmp_path / "train.txt"
        other = tmp_path / "other.txt"
        self._write(train, ["(3 (2 A) (4 B))"])
        self._write(other, ["(3 (2 A) (4 B))", "(1 (0 A) (2 B))"])
        splits = load_splits(train, other, other, ALL_PHRASES)
        # one sample per tree, never per node
        assert len(splits.valid) == 2
        assert len(splits.test) == 2

    def test_one_read_gives_phrases_and_sentences(self, tmp_path):
        paths = [tmp_path / f"{name}.txt" for name in ("train", "valid", "test")]
        self._write(paths[0], ["(3 (2 A) (4 (1 B) (0 c)))", "(1 X)", "(2 (1 a) (2 A))"])
        self._write(paths[1], ["(3 (2 A) (4 Z))"])
        self._write(paths[2], ["(0 X)", "(1 (0 B) (1 q))"])
        splits, sentences = read_splits(*paths, ALL_PHRASES, lowercase=True)
        for mode, train in ((ALL_PHRASES, splits.train), (SENTENCE_ONLY, sentences)):
            loaded = load_splits(*paths, mode, lowercase=True)
            assert loaded.vocab.words == splits.vocab.words
            for got, want in ((train, loaded.train), (splits.valid, loaded.valid),
                              (splits.test, loaded.test)):
                assert got.tokens.tolist() == want.tokens.tolist()
                assert got.lengths.tolist() == want.lengths.tolist()
                assert got.labels.tolist() == want.labels.tolist()
        # a tree's sentence is its first phrase, the root
        roots = np.cumsum([0, 5, 1])
        assert [s.tokens.tolist() for s in sentences] == [
            splits.train[int(i)].tokens.tolist() for i in roots]

    def test_unknown_mode(self, tmp_path):
        path = tmp_path / "t.txt"
        self._write(path, ["(1 X)"])
        with pytest.raises(ConfigError, match="unknown sample mode"):
            load_splits(path, path, path, "phrases")

    def test_builds_no_per_phrase_sample(self, tmp_path, monkeypatch):
        paths = [tmp_path / f"{name}.txt" for name in ("train", "valid", "test")]
        self._write(paths[0], ["(3 (2 A) (4 (1 B) (0 c)))", "(1 X)"])
        self._write(paths[1], ["(3 (2 A) (4 Z))"])
        self._write(paths[2], ["(0 X)"])

        def refuse(*args):
            raise AssertionError("a per-phrase Sample was built")

        monkeypatch.setattr(data, "Sample", refuse)
        splits, sentences = read_splits(*paths, ALL_PHRASES)
        assert splits.train.lengths.tolist() == [3, 1, 2, 1, 1, 1]
        assert sentences.labels.tolist() == [3, 1]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(labeled_trees, max_size=4), st.lists(labeled_trees, max_size=3),
           st.lists(labeled_trees, max_size=3), st.booleans(), st.booleans())
    def test_equals_extraction_tree_by_tree(self, train, valid, test, lowercase, supplied):
        vocab = build_vocab(valid, lowercase) if supplied else None
        index = dict(vocab.index) if supplied else None
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("train", "valid", "test")]
            for path, trees in zip(paths, (train, valid, test)):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(serialize_tree(t) + "\n" for t in trees)
            expected_vocab = vocab or build_vocab(train, lowercase)

            def expected(trees, mode):
                return SampleSet.of([s for t in trees
                                     for s in extract_samples(t, mode, expected_vocab, lowercase)])

            for mode in (ALL_PHRASES, SENTENCE_ONLY):
                splits, sentences = read_splits(*paths, mode, lowercase, vocab)
                assert splits.vocab.words == expected_vocab.words
                assert_same_set(splits.train, expected(train, mode))
                assert_same_set(sentences, expected(train, SENTENCE_ONLY))
                assert_same_set(splits.valid, expected(valid, SENTENCE_ONLY))
                assert_same_set(splits.test, expected(test, SENTENCE_ONLY))
        if supplied:  # only looked up, never extended
            assert vocab.index == index and vocab.words == list(index)

    def test_collector_state_is_restored(self, tmp_path):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        self._write(good, ["(1 X)"])
        self._write(bad, ["(1 X"])
        with pytest.raises(ParseError):
            read_splits(good, bad, good)
        assert gc.isenabled()
        gc.disable()
        try:
            read_splits(good, good, good)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_windows_line_endings(self, tmp_path):
        unix = tmp_path / "unix.txt"
        dos = tmp_path / "dos.txt"
        unix.write_text("(3 (2 A) (4 B))\n(1 X)\n")
        dos.write_bytes(b"(3 (2 A) (4 B))\r\n(1 X)\r\n")
        assert read_tree_file(unix) == read_tree_file(dos)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(OSError, match="nope.txt"):
            read_tree_file(missing)

    def test_parse_error_carries_file_and_line(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("(1 X)\n(3 (2 A)\n")
        with pytest.raises(ParseError, match=r"bad.txt:2"):
            read_tree_file(bad)

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("(1 X)\n\n(2 Y)\n")
        assert len(read_tree_file(f)) == 2


def random_samples(rng, n, max_len=6):
    return [Sample(rng.integers(0, 50, size=int(rng.integers(1, max_len + 1))),
                   int(rng.integers(0, 5))) for _ in range(n)]


def assert_same_set(a: SampleSet, b: SampleSet):
    for name in ("tokens", "starts", "lengths", "labels"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype == np.intp, name
        assert np.array_equal(x, y), name


class TestSampleSet:
    def test_gather_equals_list_assembly(self):
        rng = np.random.default_rng(0)
        samples = random_samples(rng, 40)
        samples[3] = Sample(np.array([7]), 2)
        full = SampleSet.of(samples)
        for indices in (rng.permutation(40)[:17], np.array([3, 3, 0, 3, 39, 0]),
                        np.array([3]), np.arange(40)):
            # the mini-batch as it was built from a list of Samples
            picked = [samples[i] for i in indices]
            lengths = np.array([s.tokens.size for s in picked])
            starts = np.zeros_like(lengths)
            np.cumsum(lengths[:-1], out=starts[1:])
            listed = SampleSet(np.concatenate([s.tokens for s in picked]), starts, lengths,
                               np.array([s.label for s in picked]))
            assert_same_set(full[indices], listed)
            assert_same_set(full[indices], SampleSet.of(picked))
        assert_same_set(full[5:12], SampleSet.of(samples[5:12]))
        assert_same_set(full[::-3], SampleSet.of(samples[::-3]))

    def test_iteration_and_indexing_give_the_input_samples(self):
        samples = random_samples(np.random.default_rng(1), 25)
        full = SampleSet.of(samples)
        assert len(full) == 25
        for got, want in zip(full, samples, strict=True):
            assert np.array_equal(got.tokens, want.tokens) and got.label == want.label
        assert np.array_equal(full[-1].tokens, samples[-1].tokens)
        assert full[np.int64(4)].label == samples[4].label
        assert SampleSet.of(full) is full

    def test_pickle_round_trip_is_equal(self):
        full = SampleSet.of(random_samples(np.random.default_rng(2), 30))
        for s in (full, full[np.array([4, 4, 9])]):
            assert_same_set(pickle.loads(pickle.dumps(s)), s)

    def test_splits_from_lists_equal_splits_from_sets(self):
        rng = np.random.default_rng(3)
        parts = [random_samples(rng, n) for n in (20, 7, 9)]
        vocab = Vocabulary.from_words([f"w{i}" for i in range(49)])
        from_lists = DatasetSplits(*parts, vocab)
        from_sets = DatasetSplits(*(SampleSet.of(p) for p in parts), vocab)
        for name in ("train", "valid", "test"):
            assert isinstance(getattr(from_lists, name), SampleSet)
            assert_same_set(getattr(from_lists, name), getattr(from_sets, name))

    def test_empty_sample_rejected_empty_set_allowed(self):
        bad = Sample(np.array([0]), 0)
        bad.tokens = np.array([], dtype=np.intp)  # bypass Sample's own check
        with pytest.raises(DataError, match="empty sample"):
            SampleSet.of([Sample(np.array([1]), 0), bad])
        empty = SampleSet.of([])
        assert len(empty) == 0 and empty.tokens.dtype == np.intp
        assert len(SampleSet.of(random_samples(np.random.default_rng(4), 5))[2:2]) == 0
