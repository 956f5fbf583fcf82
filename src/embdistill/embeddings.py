"""Vocabulary, embedding look-up tables, and the encoding layer.

A table stores one column per vocabulary word, so looking a word up is
the same thing as multiplying the matrix by that word's one-hot vector.
Tables that train are kept Fortran-ordered (word-major): ``matrix.T`` is
then a C-contiguous (|V|, dim) block whose rows are word vectors, which
is what batched gathers and row updates read and write.
The encoding layer squashes those columns into a lower-dimensional
space; ``fold`` bakes the layer into a small replacement table so the
large table and the layer itself can be dropped at deployment.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, ParseError
from .ops import affine_forward, glorot, tanh_forward

UNK_TOKEN = "<unk>"

_EMB_MAGIC = b"EMB1"


@dataclass
class Vocabulary:
    """Ordered distinct tokens with a reserved unknown token."""

    words: list[str]
    index: dict[str, int] = field(repr=False)
    unk_index: int

    @classmethod
    def from_words(cls, words) -> "Vocabulary":
        """Build from distinct tokens, appending UNK_TOKEN if absent."""
        out: list[str] = []
        seen: set[str] = set()
        for w in words:
            if w in seen:
                raise ConfigError(f"duplicate vocabulary token {w!r}")
            seen.add(w)
            out.append(w)
        if UNK_TOKEN not in seen:
            out.append(UNK_TOKEN)
        index = {w: i for i, w in enumerate(out)}
        return cls(out, index, index[UNK_TOKEN])

    def __len__(self) -> int:
        return len(self.words)

    def to_index(self, token: str) -> int:
        """Index of ``token``, falling back to the unknown token."""
        return self.index.get(token, self.unk_index)


@dataclass
class EmbeddingTable:
    """Look-up table: ``matrix`` is (dim, |V|), column i belongs to word i."""

    vocab: Vocabulary
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[1] != len(self.vocab):
            raise DimensionError(
                f"embedding matrix has shape {self.matrix.shape}, "
                f"vocabulary has {len(self.vocab)} words"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class DistilledTable(EmbeddingTable):
    """A small table whose columns were produced by folding an encoder."""


@dataclass
class EncoderLayer:
    """Trainable affine map plus tanh squashing big word vectors to small ones.

    ``w_encode`` is (n_distill, n_embed) with n_distill < n_embed;
    ``b_encode`` lives in the small space.
    """

    w_encode: np.ndarray
    b_encode: np.ndarray

    def __post_init__(self):
        if self.w_encode.ndim != 2:
            raise DimensionError("encoder weight must be a matrix")
        n_distill, n_embed = self.w_encode.shape
        if n_distill >= n_embed:
            raise ConfigError(
                f"encoder must reduce dimensionality, got {n_embed} -> {n_distill}"
            )
        if self.b_encode.shape != (n_distill,):
            raise DimensionError(
                f"encoder bias has dim {self.b_encode.shape[0]}, "
                f"expected {n_distill}"
            )

    @property
    def n_distill(self) -> int:
        return self.w_encode.shape[0]

    @property
    def n_embed(self) -> int:
        return self.w_encode.shape[1]

    @classmethod
    def initialize(cls, n_distill: int, n_embed: int, rng: np.random.Generator):
        return cls(glorot(n_distill, n_embed, rng), np.zeros(n_distill))

    def encode_columns(self, columns: np.ndarray) -> np.ndarray:
        """Apply the layer to every column of a (n_embed, k) block.

        The (n_distill, k) result is Fortran-ordered: its transpose holds
        one encoded word per row.
        """
        encoded = columns.T @ self.w_encode.T
        encoded += self.b_encode
        return np.tanh(encoded, out=encoded).T


def lookup(table: EmbeddingTable, word_index: int) -> np.ndarray:
    """Column ``word_index`` of the table; identical to matrix @ one_hot."""
    if not 0 <= word_index < len(table.vocab):
        raise IndexError(
            f"word index {word_index} outside vocabulary of size {len(table.vocab)}"
        )
    return table.matrix[:, word_index].copy()


def encode(enc: EncoderLayer, table: EmbeddingTable, word_index: int) -> np.ndarray:
    """Small vector for one word: tanh(W_encode @ column + b_encode)."""
    if enc.n_embed != table.dim:
        raise DimensionError(
            f"encoder expects {enc.n_embed}-dim vectors, table has dim {table.dim}"
        )
    return tanh_forward(affine_forward(enc.w_encode, lookup(table, word_index), enc.b_encode))


def fold(enc: EncoderLayer, table: EmbeddingTable) -> DistilledTable:
    """Precompute the encoder output for every word.

    The result replaces both the large table and the encoder at
    inference time; only the small columns are kept.
    """
    if enc.n_embed != table.dim:
        raise DimensionError(
            f"encoder expects {enc.n_embed}-dim vectors, table has dim {table.dim}"
        )
    return DistilledTable(table.vocab, enc.encode_columns(table.matrix))


def init_random_table(
    vocab: Vocabulary, dim: int, scale: float, rng: np.random.Generator
) -> EmbeddingTable:
    """Word-major table with i.i.d. uniform entries in [-scale, scale]."""
    if scale <= 0:
        raise ConfigError(f"init scale must be > 0, got {scale}")
    draw = rng.uniform(-scale, scale, size=(dim, len(vocab)))
    return EmbeddingTable(vocab, np.asfortranarray(draw))


def align_to_vocab(
    pretrained: EmbeddingTable,
    vocab: Vocabulary,
    rng: np.random.Generator,
    scale: float = 0.1,
) -> EmbeddingTable:
    """Re-index a pretrained table onto a task vocabulary.

    Task words found in the pretrained table keep their vectors; missing
    words get uniform +-scale vectors so they stay trainable; the task
    UNK column is the pretrained UNK (the mean vector).  The result is
    word-major, like every table that trains.
    """
    matrix = np.empty((pretrained.dim, len(vocab)), order="F")
    for i, word in enumerate(vocab.words):
        if i == vocab.unk_index:
            matrix[:, i] = pretrained.matrix[:, pretrained.vocab.unk_index]
        elif word in pretrained.vocab.index:
            matrix[:, i] = pretrained.matrix[:, pretrained.vocab.index[word]]
        else:
            matrix[:, i] = rng.uniform(-scale, scale, size=pretrained.dim)
    return EmbeddingTable(vocab, matrix)


def load_word2vec_text(path) -> EmbeddingTable:
    """Read a word2vec text file: header "<count> <dim>", then one word per line.

    Vector values are parsed as float32 (the format's native precision).
    The unknown token gets the mean of all loaded vectors unless the file
    itself provides one.
    """
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [ln.rstrip("\r") for ln in lines]
    if not lines:
        raise ParseError(f"{path}:1: empty file")

    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"{path}:1: header must be '<count> <dim>', got {lines[0]!r}")
    try:
        count, dim = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"{path}:1: non-integer header {lines[0]!r}") from None
    if count < 1 or dim < 1:
        raise ParseError(f"{path}:1: header counts must be positive")
    if len(lines) - 1 != count:
        raise ParseError(
            f"{path}: header declares {count} vectors, file has {len(lines) - 1}"
        )

    words: list[str] = []
    seen: set[str] = set()
    vectors = np.empty((dim, count), dtype=np.float32)
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != dim + 1:
            raise ParseError(
                f"{path}:{lineno}: expected token plus {dim} values, got {len(parts)} fields"
            )
        token = parts[0]
        if token in seen:
            raise ParseError(f"{path}:{lineno}: duplicate word {token!r}")
        seen.add(token)
        try:
            vectors[:, len(words)] = np.array(parts[1:], dtype=np.float32)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric vector value") from None
        words.append(token)

    matrix = vectors.astype(float)
    if UNK_TOKEN not in seen:
        unk = matrix.mean(axis=1, keepdims=True)
        matrix = np.hstack([matrix, unk])
    return EmbeddingTable(Vocabulary.from_words(words), matrix)


def save_table(table: EmbeddingTable, path) -> None:
    """Write the native binary table format.

    Layout: magic "EMB1", u32 LE |V|, u32 LE dim, then each token as
    u32 LE byte length + UTF-8 bytes, then dim x |V| little-endian f32
    values in column-major order.
    """
    with open(path, "wb") as fh:
        fh.write(_EMB_MAGIC)
        fh.write(struct.pack("<II", len(table.vocab), table.dim))
        for word in table.vocab.words:
            enc = word.encode("utf-8")
            fh.write(struct.pack("<I", len(enc)))
            fh.write(enc)
        fh.write(table.matrix.astype("<f4").tobytes(order="F"))


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated table file while reading {what}")
    return buf


def load_table(path) -> EmbeddingTable:
    """Read the native binary table format written by ``save_table``."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != _EMB_MAGIC:
            raise FormatError(f"{path}: not a native embedding table (bad magic)")
        vocab_size, dim = struct.unpack("<II", _read_exact(fh, 8, "header"))
        words = []
        for i in range(vocab_size):
            (length,) = struct.unpack("<I", _read_exact(fh, 4, f"token {i} length"))
            words.append(_read_exact(fh, length, f"token {i}").decode("utf-8"))
        data = np.frombuffer(
            _read_exact(fh, 4 * dim * vocab_size, "matrix"), dtype="<f4"
        )
        if fh.read(1):
            raise FormatError(f"{path}: trailing data after table")
    matrix = data.reshape((dim, vocab_size), order="F").astype(float)
    if UNK_TOKEN not in words:
        raise FormatError(f"{path}: stored vocabulary lacks the unknown token")
    return EmbeddingTable(Vocabulary.from_words(words), matrix)
