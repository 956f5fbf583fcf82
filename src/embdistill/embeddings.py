"""Vocabulary, embedding look-up tables, and the encoding layer.

A table stores one column per vocabulary word, so looking a word up is
the same thing as multiplying the matrix by that word's one-hot vector.
Tables that train are kept Fortran-ordered (word-major): ``matrix.T`` is
then a C-contiguous (|V|, dim) block whose rows are word vectors, which
is what batched gathers and row updates read and write.
The encoding layer squashes those columns into a lower-dimensional
space; ``fold`` bakes the layer into a small replacement table so the
large table and the layer itself can be dropped at deployment.
The binary block format of the MDL1, EMB1 and SFT1 artifacts and the
file helpers every artifact and text input goes through live here too.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, ParseError

UNK_TOKEN = "<unk>"

_EMB_MAGIC = b"EMB1"
_U32 = struct.Struct("<I")  # a token's byte length
_BLOCK_CHARS = 1 << 18  # the text of one block of word2vec lines, about 256 KB


@dataclass
class Vocabulary:
    """Ordered distinct tokens with a reserved unknown token."""

    words: list[str]
    index: dict[str, int] = field(repr=False)
    unk_index: int

    @classmethod
    def from_words(cls, words) -> "Vocabulary":
        """Build from distinct tokens, appending UNK_TOKEN if absent."""
        index: dict[str, int] = {}
        for w in words:
            if w in index:
                raise ConfigError(f"duplicate vocabulary token {w!r}")
            index[w] = len(index)
        return cls.from_index(index)

    @classmethod
    def from_index(cls, index: dict[str, int]) -> "Vocabulary":
        """Build from a ``{token: position}`` dict whose positions count
        up from 0 in insertion order, appending UNK_TOKEN if absent.  The
        dict becomes the vocabulary's index; it is not checked again."""
        index.setdefault(UNK_TOKEN, len(index))
        return cls(list(index), index, index[UNK_TOKEN])

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
    def n_embed(self) -> int:
        return self.w_encode.shape[1]

    def encode_columns(self, columns: np.ndarray) -> np.ndarray:
        """Apply the layer to every column of a (n_embed, k) block.

        The (n_distill, k) result is Fortran-ordered: its transpose holds
        one encoded word per row.
        """
        encoded = columns.T @ self.w_encode.T
        encoded += self.b_encode
        return np.tanh(encoded, out=encoded).T


def fold(enc: EncoderLayer, table: EmbeddingTable) -> EmbeddingTable:
    """Precompute the encoder output for every word.

    The result replaces both the large table and the encoder at
    inference time; only the small columns are kept.
    """
    if enc.n_embed != table.dim:
        raise DimensionError(
            f"encoder expects {enc.n_embed}-dim vectors, table has dim {table.dim}"
        )
    return EmbeddingTable(table.vocab, enc.encode_columns(table.matrix))


def init_random_table(
    vocab: Vocabulary, dim: int, scale: float, rng: np.random.Generator
) -> EmbeddingTable:
    """Word-major table with i.i.d. uniform entries in [-scale, scale]."""
    if not scale > 0:
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
    columns = np.array([pretrained.vocab.index.get(w, -1) for w in vocab.words])
    columns[vocab.unk_index] = pretrained.vocab.unk_index
    found = columns >= 0
    matrix = np.empty((pretrained.dim, len(vocab)), order="F")
    matrix[:, found] = pretrained.matrix[:, columns[found]]
    # one draw in vocabulary order: the values of one draw per missing word
    draw = rng.uniform(-scale, scale, size=(len(vocab) - found.sum(), pretrained.dim))
    matrix[:, ~found] = draw.T
    return EmbeddingTable(vocab, matrix)


def load_word2vec_text(path) -> EmbeddingTable:
    """Read a word2vec text file: header "<count> <dim>", then one word per line.

    Vector values are parsed as float32 (the format's native precision).
    The unknown token gets the mean of all loaded vectors unless the file
    itself provides one.  The file is read in blocks of whole lines straight
    into the returned (dim, |V|) float64 matrix, so memory stays about the
    size of that matrix; a value that is not finite is a ParseError.
    """
    # a value past float32's range parses to inf, and inf and -inf average
    # to nan, without a warning: non-finite values are rejected below
    with open_text(path) as fh, np.errstate(over="ignore", invalid="ignore"):
        header = fh.readline()
        if not header:
            raise ParseError(f"{path}:1: empty file")
        header = header.rstrip("\n")
        head = header.split()
        if len(head) != 2:
            raise ParseError(f"{path}:1: header must be '<count> <dim>', got {header!r}")
        try:
            count, dim = int(head[0]), int(head[1])
        except ValueError:
            raise ParseError(f"{path}:1: non-integer header {header!r}") from None
        if count < 1 or dim < 1:
            raise ParseError(f"{path}:1: header counts must be positive")
        try:
            # one spare column for the unknown token
            matrix = np.empty((dim, count + 1))
        except (MemoryError, ValueError):
            raise ParseError(
                f"{path}:1: header declares {count} vectors of dim {dim}, too many to hold"
            ) from None

        index: dict[str, int] = {}  # word -> column, in file order
        while lines := fh.readlines(_BLOCK_CHARS):
            n, k = len(index), len(lines)
            pairs = [line.split(None, 1) for line in lines]
            block_index = {pair[0]: i for i, pair in enumerate(pairs, start=n) if pair}
            # one C-reader call a block; it rounds to float32 as the per-line parse does
            block = None
            if (n + k <= count and all(len(pair) == 2 for pair in pairs)
                    and len(block_index) == k and index.keys().isdisjoint(block_index)):
                with suppress(ValueError):
                    block = np.loadtxt([pair[1] for pair in pairs], dtype=np.float32,
                                       comments=None, ndmin=2)
            if block is not None and block.shape == (k, dim):
                matrix[:, n:n + k] = block.T
                index |= block_index
                continue
            # else the per-line parse: it names a bad line and takes what float() takes
            for lineno, line in enumerate(lines, start=n + 2):
                if len(index) == count:
                    raise ParseError(f"{path}: header declares {count} vectors, file has more")
                parts = line.split()
                if len(parts) != dim + 1:
                    raise ParseError(
                        f"{path}:{lineno}: expected token plus {dim} values, "
                        f"got {len(parts)} fields"
                    )
                token = parts[0]
                if token in index:
                    raise ParseError(f"{path}:{lineno}: duplicate word {token!r}")
                try:
                    matrix[:, len(index)] = np.array(parts[1:], dtype=np.float32)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: non-numeric vector value") from None
                index[token] = len(index)
        if len(index) != count:
            raise ParseError(f"{path}: header declares {count} vectors, file has {len(index)}")

        # float32 values cannot add up past the float64 range, so a row's
        # mean is finite exactly when all its values are
        unk = matrix[:, :count].mean(axis=1)
        if not np.isfinite(unk).all():
            column = np.flatnonzero(~np.isfinite(matrix[:, :count]).all(axis=0))[0]
            raise ParseError(f"{path}:{column + 2}: non-finite vector value")

    if UNK_TOKEN in index:
        # drop the spare column in place, with no second copy of the
        # table: row r moves r places to the left
        flat = matrix.reshape(-1)
        for r in range(1, dim):
            flat[r * count:(r + 1) * count] = flat[r * (count + 1):r * (count + 1) + count]
        matrix = flat[: dim * count].reshape(dim, count)
    else:
        matrix[:, count] = unk
    return EmbeddingTable(Vocabulary.from_index(index), matrix)


def save_table(table: EmbeddingTable, path) -> None:
    """Write the native binary table format.

    Layout: magic "EMB1", u32 LE |V|, u32 LE dim, the vocabulary block,
    then dim x |V| little-endian f32 values in column-major order.
    """
    with atomic_write(path) as fh:
        fh.write(_EMB_MAGIC)
        fh.write(struct.pack("<II", len(table.vocab), table.dim))
        write_vocabulary(fh, table.vocab)
        write_floats(fh, table.matrix, order="F")


def load_table(path) -> EmbeddingTable:
    """Read the native binary table format written by ``save_table``."""
    with ArtifactReader(path, _EMB_MAGIC, "native embedding table") as reader:
        vocab_size, dim = reader.unpack("<II", "header")
        vocab = reader.vocabulary(vocab_size)
        return EmbeddingTable(vocab, reader.floats((dim, vocab_size), "matrix", order="F"))


# ---------------------------------------------------------------------------
# file helpers


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Write through a temporary file next to ``path``: it replaces
    ``path`` when the block succeeds and is removed when it fails, so
    ``path`` never holds a partly written artifact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@contextmanager
def open_text(path, error=ParseError):
    """Open a UTF-8 text input; bytes that are not UTF-8 raise ``error``
    naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


# ---------------------------------------------------------------------------
# the binary block format shared by the MDL1, EMB1 and SFT1 artifacts:
# a 4-byte magic, fixed little-endian header fields, then blocks


def write_vocabulary(fh, vocab: Vocabulary) -> None:
    """The vocabulary block: each token as u32 LE byte length + UTF-8 bytes."""
    for word in vocab.words:
        enc = word.encode("utf-8")
        fh.write(_U32.pack(len(enc)))
        fh.write(enc)


def write_floats(fh, a: np.ndarray, order: str = "C") -> None:
    """An f32 block: every value of ``a`` as little-endian f32, in ``order``."""
    fh.write(a.astype("<f4").tobytes(order=order))


class ArtifactReader:
    """Checked reads of one binary artifact, used as a context manager.

    Creating the reader opens the file and checks its magic; leaving the
    ``with`` block checks that nothing follows the last block and closes
    the file.  Every problem, a ConfigError raised while the block builds
    the artifact included, is a FormatError that names the file.  A block
    longer than the bytes left in the file is never read, so a damaged
    header cannot ask for more memory than the file holds.
    """

    def __init__(self, path, magic: bytes, kind: str):
        self.path = path
        self._fh = open(path, "rb")
        self._left = os.fstat(self._fh.fileno()).st_size - len(magic)
        if self._fh.read(len(magic)) != magic:
            self._fh.close()
            raise self.error(f"not a {kind} (bad magic)")

    def __enter__(self) -> "ArtifactReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._fh:
            if isinstance(exc, ConfigError):
                raise self.error(str(exc)) from None
            if exc is None and self._left:
                raise self.error("trailing data after the last block")

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self.path}: {message}")

    def read(self, n: int, what: str) -> bytes:
        """Exactly the next ``n`` bytes."""
        if n > self._left:
            raise self.error(f"truncated while reading {what}")
        self._left -= n
        return self._fh.read(n)

    def unpack(self, fmt: str, what: str) -> tuple:
        """The next ``struct`` record of format ``fmt``."""
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def vocabulary(self, size: int) -> Vocabulary:
        """A vocabulary block of ``size`` distinct UTF-8 tokens, the
        unknown token among them."""
        read = self._fh.read  # runs |V| times: two reads and one decode a token
        left = self._left
        words = []
        for i in range(size):
            if left < 4:
                raise self.error(f"truncated while reading token {i}")
            (length,) = _U32.unpack(read(4))
            left -= 4 + length
            if left < 0:
                raise self.error(f"truncated while reading token {i}")
            token = read(length)
            try:
                words.append(token.decode("utf-8"))
            except UnicodeDecodeError:
                raise self.error(f"token {i} is not UTF-8") from None
        self._left = left
        vocab = Vocabulary.from_words(words)
        if len(vocab) != size:
            raise self.error("stored vocabulary lacks the unknown token")
        return vocab

    def floats(self, shape: tuple[int, ...], what: str, order: str = "C") -> np.ndarray:
        """An f32 block of ``shape``, stored in ``order``, as float64."""
        block = np.frombuffer(self.read(4 * math.prod(shape), what), dtype="<f4")
        return block.reshape(shape, order=order).astype(float)
