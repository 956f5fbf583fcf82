"""Labeled sentiment trees and the samples extracted from them.

Tree files hold one s-expression per line, e.g. ``(3 (2 A) (4 B))``:
every node carries an integer sentiment label 0-4, leaves carry a
token.  Training can use every labeled node as a sample (phrase
enrichment); validation and test always use whole sentences only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import Vocabulary, open_text
from .errors import ConfigError, DataError, ParseError

N_CLASSES = 5

SENTENCE_ONLY = "sentence_only"
ALL_PHRASES = "all_phrases"
_MODES = (SENTENCE_ONLY, ALL_PHRASES)


@dataclass
class LabeledTree:
    label: int
    children: tuple["LabeledTree", ...] = ()
    token: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    def leaf_tokens(self) -> list[str]:
        """Tokens of the leaves, left to right."""
        if self.is_leaf:
            return [self.token]
        out: list[str] = []
        for child in self.children:
            out.extend(child.leaf_tokens())
        return out

    def nodes(self) -> list["LabeledTree"]:
        """All nodes in preorder (node before its children)."""
        out = [self]
        for child in self.children:
            out.extend(child.nodes())
        return out


@dataclass
class Sample:
    """A word-index sequence with a class label."""

    tokens: np.ndarray
    label: int

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.intp)
        if self.tokens.ndim != 1 or self.tokens.size == 0:
            raise DataError("sample must contain at least one token")


@dataclass(eq=False)
class SampleSet:
    """A data split or a mini-batch: samples laid end to end, no padding,
    in four intp arrays.

    Sample i is ``Sample(tokens[starts[i]:][:lengths[i]], labels[i])``;
    ``set[slice]`` or ``set[index array]`` gathers a new SampleSet.
    """

    tokens: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray

    @classmethod
    def of(cls, samples) -> "SampleSet":
        """The set of a sequence of Samples or of one Sample; a SampleSet
        comes back unchanged."""
        if isinstance(samples, SampleSet):
            return samples
        if isinstance(samples, Sample):
            if samples.tokens.size == 0:
                raise DataError("empty sample: a sample needs at least one token")
            return cls(samples.tokens, np.zeros(1, dtype=np.intp),
                       np.array([samples.tokens.size]), np.array([samples.label]))
        n = len(samples)
        lengths = np.fromiter((s.tokens.size for s in samples), np.intp, n)
        if n and lengths.min() == 0:
            raise DataError("empty sample: a sample needs at least one token")
        tokens = np.concatenate([s.tokens for s in samples]) if n else lengths[:0]
        labels = np.fromiter((s.label for s in samples), np.intp, n)
        return cls(tokens, np.cumsum(lengths) - lengths, lengths, labels)

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            start = self.starts[key]
            return Sample(self.tokens[start : start + self.lengths[key]], int(self.labels[key]))
        lengths = self.lengths[key]
        starts = np.cumsum(lengths) - lengths
        # every gathered token's position in this set
        where = np.repeat(self.starts[key] - starts, lengths)
        where += np.arange(where.size)
        return SampleSet(self.tokens[where], starts, lengths, self.labels[key])


@dataclass
class DatasetSplits:
    train: SampleSet
    valid: SampleSet
    test: SampleSet
    vocab: Vocabulary

    def __post_init__(self):
        self.train = SampleSet.of(self.train)
        self.valid = SampleSet.of(self.valid)
        self.test = SampleSet.of(self.test)


def _byte_offset(line: str, pos: int) -> int:
    return len(line[:pos].encode("utf-8"))


def parse_tree(line: str) -> LabeledTree:
    """Parse one s-expression tree.

    Grammar: tree = "(" label (token | tree+) ")" with integer labels in
    0..4 and tokens free of whitespace and parentheses.  Errors report
    the byte offset of the offending position.
    """
    pos = 0
    n = len(line)

    def fail(msg: str, at: int):
        raise ParseError(f"byte {_byte_offset(line, at)}: {msg}")

    def skip_spaces():
        nonlocal pos
        while pos < n and line[pos] in " \t":
            pos += 1

    def parse_node() -> LabeledTree:
        nonlocal pos
        if pos >= n or line[pos] != "(":
            fail("expected '('", pos)
        pos += 1
        skip_spaces()
        start = pos
        while pos < n and line[pos] not in " \t()":
            pos += 1
        label_text = line[start:pos]
        if not label_text:
            fail("missing label", start)
        try:
            label = int(label_text)
        except ValueError:
            fail(f"non-integer label {label_text!r}", start)
        if not 0 <= label < N_CLASSES:
            fail(f"label {label} outside 0..{N_CLASSES - 1}", start)
        skip_spaces()
        if pos >= n:
            fail("unbalanced parentheses (unexpected end of line)", pos)
        if line[pos] == "(":
            children = []
            while pos < n and line[pos] == "(":
                children.append(parse_node())
                skip_spaces()
            if pos >= n or line[pos] != ")":
                fail("unbalanced parentheses (expected ')')", pos)
            pos += 1
            return LabeledTree(label, tuple(children))
        if line[pos] == ")":
            fail("empty node (no token or children)", pos)
        start = pos
        while pos < n and line[pos] not in " \t()":
            pos += 1
        token = line[start:pos]
        skip_spaces()
        if pos >= n or line[pos] != ")":
            fail("unbalanced parentheses (expected ')')", pos)
        pos += 1
        return LabeledTree(label, (), token)

    skip_spaces()
    tree = parse_node()
    skip_spaces()
    if pos != n:
        fail("trailing text after tree", pos)
    return tree


def read_tree_file(path) -> list[LabeledTree]:
    """Parse a file with one tree per line; blank lines are skipped.

    DOS line endings are tolerated.  Parse errors gain file and line
    context.
    """
    trees = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            try:
                trees.append(parse_tree(line))
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    return trees


def build_vocab(train_trees, lowercase: bool = False) -> Vocabulary:
    """Vocabulary of training leaf tokens in first-occurrence order, plus UNK."""
    words: list[str] = []
    seen: set[str] = set()
    for tree in train_trees:
        for token in tree.leaf_tokens():
            if lowercase:
                token = token.lower()
            if token not in seen:
                seen.add(token)
                words.append(token)
    return Vocabulary.from_words(words)


def extract_samples(
    tree: LabeledTree, mode: str, vocab: Vocabulary, lowercase: bool = False
) -> list[Sample]:
    """Samples from one tree.

    ``sentence_only`` yields a single sample (root label over the leaf
    tokens); ``all_phrases`` yields one sample per node, preorder,
    keeping duplicates.  Out-of-vocabulary tokens map to UNK.
    """
    if mode not in _MODES:
        raise ConfigError(f"unknown sample mode {mode!r}, expected one of {_MODES}")
    nodes = tree.nodes() if mode == ALL_PHRASES else [tree]
    samples = []
    for node in nodes:
        tokens = node.leaf_tokens()
        if lowercase:
            tokens = [t.lower() for t in tokens]
        samples.append(Sample(np.array([vocab.to_index(t) for t in tokens]), node.label))
    return samples


def load_splits(
    train_path,
    valid_path,
    test_path,
    mode: str = ALL_PHRASES,
    lowercase: bool = False,
    vocab: Vocabulary | None = None,
) -> DatasetSplits:
    """Assemble train/valid/test splits from three tree files.

    The training file uses the requested phrase mode; validation and
    test are always whole sentences.  The vocabulary is built from the
    training trees unless one is supplied.
    """
    train_trees = read_tree_file(train_path)
    valid_trees = read_tree_file(valid_path)
    test_trees = read_tree_file(test_path)
    if vocab is None:
        vocab = build_vocab(train_trees, lowercase)
    train = [s for t in train_trees for s in extract_samples(t, mode, vocab, lowercase)]
    valid = [s for t in valid_trees for s in extract_samples(t, SENTENCE_ONLY, vocab, lowercase)]
    test = [s for t in test_trees for s in extract_samples(t, SENTENCE_ONLY, vocab, lowercase)]
    return DatasetSplits(train, valid, test, vocab)
