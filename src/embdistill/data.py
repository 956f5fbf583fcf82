"""Labeled sentiment trees and the samples extracted from them.

Tree files hold one s-expression per line, e.g. ``(3 (2 A) (4 B))``:
every node carries an integer sentiment label 0-4, leaves carry a
token.  Training can use every labeled node as a sample (phrase
enrichment); validation and test always use whole sentences only.
"""

from __future__ import annotations

import re
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

    def walk(self) -> tuple[list[str], list[list]]:
        """The leaf tokens, left to right, and each node's ``[label, start,
        end]`` in preorder: a node covers ``tokens[start:end]``.  One pass,
        without recursion."""
        tokens, spans, stack = [], [], [self]
        while stack:
            node = stack.pop()
            if isinstance(node, list):  # a span whose subtree is walked
                node[2] = len(tokens)
            elif node.token is not None:
                spans.append([node.label, len(tokens), len(tokens) + 1])
                tokens.append(node.token)
            else:
                spans.append([node.label, len(tokens), None])
                stack.append(spans[-1])
                stack += node.children[::-1]
        return tokens, spans


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
        """The set of a sequence of Samples; a SampleSet comes back
        unchanged."""
        if isinstance(samples, SampleSet):
            return samples
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


_SPACES = re.compile(r"[ \t]*")
_WORD = re.compile(r"[^ \t()]*")  # a label or a token


def parse_tree(line: str) -> LabeledTree:
    """Parse one s-expression tree.

    Grammar: tree = "(" label (token | tree+) ")" with integer labels in
    0..4 and tokens free of whitespace and parentheses.  Errors report
    the byte offset of the offending position.  Nodes are parsed in a
    loop, not by recursion, so nesting depth is not bounded by the stack.
    """
    n = len(line)

    def fail(msg: str, at: int):
        raise ParseError(f"byte {len(line[:at].encode('utf-8'))}: {msg}")

    def close(pos: int) -> int:
        pos = _SPACES.match(line, pos).end()
        if pos >= n or line[pos] != ")":
            fail("unbalanced parentheses (expected ')')", pos)
        return pos + 1

    opened: list[tuple[int, list]] = []  # label and children of each open node
    pos = _SPACES.match(line).end()
    while True:
        if pos >= n or line[pos] != "(":
            fail("expected '('", pos)
        start = _SPACES.match(line, pos + 1).end()
        pos = _WORD.match(line, start).end()
        label_text = line[start:pos]
        if not label_text:
            fail("missing label", start)
        try:
            label = int(label_text)
        except ValueError:
            fail(f"non-integer label {label_text!r}", start)
        if not 0 <= label < N_CLASSES:
            fail(f"label {label} outside 0..{N_CLASSES - 1}", start)
        pos = _SPACES.match(line, pos).end()
        if pos >= n:
            fail("unbalanced parentheses (unexpected end of line)", pos)
        if line[pos] == "(":
            opened.append((label, []))
            continue
        if line[pos] == ")":
            fail("empty node (no token or children)", pos)
        start, pos = pos, _WORD.match(line, pos).end()
        tree = LabeledTree(label, (), line[start:pos])
        pos = close(pos)
        # attach the finished node; close each parent it completes
        while opened:
            opened[-1][1].append(tree)
            pos = _SPACES.match(line, pos).end()
            if pos < n and line[pos] == "(":
                break
            pos = close(pos)
            label, children = opened.pop()
            tree = LabeledTree(label, tuple(children))
        else:
            break
    pos = _SPACES.match(line, pos).end()
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
    index: dict[str, int] = {}
    for tree in train_trees:
        for token in tree.walk()[0]:
            index.setdefault(token.lower() if lowercase else token, len(index))
    return Vocabulary.from_index(index)


def extract_samples(
    tree: LabeledTree, mode: str, vocab: Vocabulary, lowercase: bool = False
) -> list[Sample]:
    """Samples from one tree.

    ``sentence_only`` yields a single sample (root label over the leaf
    tokens); ``all_phrases`` yields one sample per node, preorder,
    keeping duplicates, so the first is the sentence.  Out-of-vocabulary
    tokens map to UNK.  The tree is walked once and each token looked up
    once: every sample is a slice of the tree's one id array.
    """
    if mode not in _MODES:
        raise ConfigError(f"unknown sample mode {mode!r}, expected one of {_MODES}")
    tokens, spans = tree.walk()
    ids = np.array([vocab.to_index(t.lower() if lowercase else t) for t in tokens], np.intp)
    if mode == SENTENCE_ONLY:
        spans = spans[:1]
    return [Sample(ids[start:end], label) for label, start, end in spans]


def read_splits(
    train_path,
    valid_path,
    test_path,
    mode: str = ALL_PHRASES,
    lowercase: bool = False,
    vocab: Vocabulary | None = None,
) -> tuple[DatasetSplits, SampleSet]:
    """Read three tree files once: the splits, the training set in the
    requested phrase mode, and the training sentences, each its tree's
    first sample, the root.  Validation and test are always sentences.
    The vocabulary is built from the training trees unless supplied."""
    train_trees = read_tree_file(train_path)
    valid_trees = read_tree_file(valid_path)
    test_trees = read_tree_file(test_path)
    if vocab is None:
        vocab = build_vocab(train_trees, lowercase)
    per_tree = [extract_samples(t, mode, vocab, lowercase) for t in train_trees]
    train = [s for samples in per_tree for s in samples]
    valid = [extract_samples(t, SENTENCE_ONLY, vocab, lowercase)[0] for t in valid_trees]
    test = [extract_samples(t, SENTENCE_ONLY, vocab, lowercase)[0] for t in test_trees]
    sentences = SampleSet.of([samples[0] for samples in per_tree])
    return DatasetSplits(train, valid, test, vocab), sentences


def load_splits(
    train_path,
    valid_path,
    test_path,
    mode: str = ALL_PHRASES,
    lowercase: bool = False,
    vocab: Vocabulary | None = None,
) -> DatasetSplits:
    """The splits ``read_splits`` reads."""
    return read_splits(train_path, valid_path, test_path, mode, lowercase, vocab)[0]
