"""Labeled sentiment trees and the samples extracted from them.

Tree files hold one s-expression per line, e.g. ``(3 (2 A) (4 B))``:
every node carries an integer sentiment label 0-4, leaves carry a
token.  Training can use every labeled node as a sample (phrase
enrichment); validation and test always use whole sentences only.
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .embeddings import Vocabulary, open_text
from .errors import ConfigError, DataError, ParseError

N_CLASSES = 5

SENTENCE_ONLY = "sentence_only"
ALL_PHRASES = "all_phrases"
_MODES = (SENTENCE_ONLY, ALL_PHRASES)


@dataclass(slots=True)
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
    ``set[slice]`` or ``set[index array]`` gathers a new SampleSet laid
    end to end, also from a set whose samples overlap.
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


_TOKENS = re.compile(r"[()]|[^ \t()]+")  # a parenthesis, a label or a token
_LABELS = {str(label): label for label in range(N_CLASSES)}


def parse_tree(line: str) -> LabeledTree:
    """Parse one s-expression tree.

    Grammar: tree = "(" label (token | tree+) ")" with integer labels in
    0..4 and tokens free of parentheses, spaces and tabs, which separate
    them.  Errors report the byte offset of the offending position.  The
    line is split into tokens once and nodes are built in a loop, not by
    recursion, so nesting depth is not bounded by the stack.
    """
    toks = _TOKENS.findall(line)
    toks.append("")  # the end of the line

    def fail(msg: str, i: int):
        # token i's character offset; the end of the line has no match
        at = next(islice(_TOKENS.finditer(line), i, None), None)
        at = len(line) if at is None else at.start()
        raise ParseError(f"byte {len(line[:at].encode('utf-8'))}: {msg}")

    opened: list[tuple[int, list]] = []  # label and children of each open node
    i = 0
    while True:
        if toks[i] != "(":
            fail("expected '('", i)
        i += 1
        label = _LABELS.get(toks[i])
        if label is None:  # not a plain digit: int() decides
            label_text = toks[i]
            if label_text in ("(", ")", ""):
                fail("missing label", i)
            try:
                label = int(label_text)
            except ValueError:
                fail(f"non-integer label {label_text!r}", i)
            if not 0 <= label < N_CLASSES:
                fail(f"label {label} outside 0..{N_CLASSES - 1}", i)
        i += 1
        tok = toks[i]
        if tok == "(":
            opened.append((label, []))
            continue
        if tok == ")":
            fail("empty node (no token or children)", i)
        if not tok:
            fail("unbalanced parentheses (unexpected end of line)", i)
        tree = LabeledTree(label, (), tok)
        i += 1
        # close the finished node, then each parent it completes
        while True:
            if toks[i] != ")":
                fail("unbalanced parentheses (expected ')')", i)
            i += 1
            if not opened:
                if toks[i]:
                    fail("trailing text after tree", i)
                return tree
            opened[-1][1].append(tree)
            if toks[i] == "(":
                break
            label, children = opened.pop()
            tree = LabeledTree(label, tuple(children))


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


def _ids_and_spans(tree: LabeledTree, vocab: Vocabulary, lowercase: bool):
    """The tree's leaf token ids, left to right, and each node's ``[label,
    start, end]`` in preorder: one walk, each token looked up once."""
    tokens, spans = tree.walk()
    if lowercase:
        tokens = [t.lower() for t in tokens]
    index, unk = vocab.index, vocab.unk_index
    return [index.get(t, unk) for t in tokens], spans


def extract_samples(
    tree: LabeledTree, mode: str, vocab: Vocabulary, lowercase: bool = False
) -> list[Sample]:
    """Samples from one tree.

    ``sentence_only`` yields a single sample (root label over the leaf
    tokens); ``all_phrases`` yields one sample per node, preorder,
    keeping duplicates, so the first is the sentence.  Out-of-vocabulary
    tokens map to UNK.  Every sample is a slice of the tree's one id
    array.
    """
    _check_mode(mode)
    ids, spans = _ids_and_spans(tree, vocab, lowercase)
    ids = np.array(ids, np.intp)
    if mode == SENTENCE_ONLY:
        spans = spans[:1]
    return [Sample(ids[start:end], label) for label, start, end in spans]


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ConfigError(f"unknown sample mode {mode!r}, expected one of {_MODES}")


def _phrases(trees, vocab: Vocabulary, lowercase: bool) -> tuple[SampleSet, np.ndarray]:
    """Every node of ``trees`` as a sample, in preorder, tree after tree,
    and each tree's root's index.  The set's tokens are the trees' ids
    laid end to end and each sample is a span of them, so samples
    overlap: indexing the set gathers a packed one."""
    ids, spans, offsets, counts = [], [], [], []
    for tree in trees:
        tree_ids, tree_spans = _ids_and_spans(tree, vocab, lowercase)
        offsets.append(len(ids))
        counts.append(len(tree_spans))
        ids += tree_ids
        spans += tree_spans
    labels, starts, ends = np.array(spans, np.intp).reshape(-1, 3).T
    lengths = ends - starts
    # each tree's spans index its own ids: shift them into the concatenation
    counts = np.array(counts, np.intp)
    starts = starts + np.repeat(np.array(offsets, np.intp), counts)
    # copied labels are contiguous, like a gathered set's
    phrases = SampleSet(np.array(ids, np.intp), starts, lengths, labels.copy())
    return phrases, np.cumsum(counts) - counts


def read_splits(
    train_path,
    valid_path,
    test_path,
    lowercase: bool = False,
    vocab: Vocabulary | None = None,
) -> tuple[DatasetSplits, SampleSet]:
    """Read three tree files once: the splits, whose training set holds
    every phrase, and the training sentences, the training set gathered
    at each tree's root.  Validation and test are always sentences.  The
    vocabulary is built from the training trees unless supplied; a
    supplied one is only looked up."""
    with _gc_paused():
        train_trees = read_tree_file(train_path)
        valid_trees = read_tree_file(valid_path)
        test_trees = read_tree_file(test_path)
        if vocab is None:
            vocab = build_vocab(train_trees, lowercase)
        phrases, roots = _phrases(train_trees, vocab, lowercase)
        valid, test = (p[r] for p, r in (_phrases(valid_trees, vocab, lowercase),
                                         _phrases(test_trees, vocab, lowercase)))
    return DatasetSplits(phrases[:], valid, test, vocab), phrases[roots]


@contextmanager
def _gc_paused():
    """Trees, walks and spans hold no reference cycles, so the cyclic
    collector would scan the many objects they make and free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()

