"""The sentence classifier: word vectors, mean pooling, one hidden layer,
temperature softmax.

When an encoder is attached, every word vector passes through it before
pooling, so the big look-up table and the encoder train jointly with
the classifier.  A folded model carries a small table instead and no
encoder; predictions are identical.

Forward and backward passes work on a batch, a ``SampleSet`` or anything
``SampleSet.of`` takes.  A lone ``Sample`` goes to ``predict`` only,
which runs just the gather, the row sum and the two dense layers.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .data import Sample, SampleSet
from .embeddings import (
    ArtifactReader,
    EmbeddingTable,
    EncoderLayer,
    atomic_write,
    write_floats,
    write_vocabulary,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    StaleCacheError,
)
from .ops import (
    affine_backward,
    affine_forward,
    dropout_mask,
    glorot,
    softmax_ce_backward,
    softmax_t,
    tanh_backward,
)

REGIME_DIRECT = "direct"
REGIME_ENCODING = "encoding"
REGIME_MATCHING = "matching_softmax"
REGIMES = (REGIME_DIRECT, REGIME_ENCODING, REGIME_MATCHING)

_MDL_MAGIC = b"MDL1"
_MDL_VERSION = 1
_MDL_CONFIG = "<5I3Bf"  # see save_model

# Prediction, evaluation and soft-target generation run this many
# samples per forward pass, which bounds their temporaries.
EVAL_CHUNK = 200


@dataclass
class ModelConfig:
    n_embed: int
    n_hidden: int
    n_classes: int
    n_distill: int = 0  # 0 means no encoder
    dropout_rate: float = 0.0
    regime: str = REGIME_DIRECT

    def __post_init__(self):
        for name in ("n_embed", "n_hidden", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_distill < 0:
            raise ConfigError("n_distill must be >= 0")
        if self.n_distill and self.n_distill >= self.n_embed:
            raise ConfigError(
                f"n_distill ({self.n_distill}) must be smaller than "
                f"n_embed ({self.n_embed})"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}, expected one of {REGIMES}")


def parameter_shapes(
    config: ModelConfig, n_words: int, table_dim: int, has_encoder: bool
) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter of a model, in ``named_parameters``
    order, which is also the order of the MDL1 parameter blocks.

    The table is (table_dim, n_words); an encoder maps its columns to
    ``config.n_distill`` values, which the hidden layer then reads.
    """
    shapes = [("embedding", (table_dim, n_words))]
    in_dim = table_dim
    if has_encoder:
        shapes += [("encoder_w", (config.n_distill, table_dim)),
                   ("encoder_b", (config.n_distill,))]
        in_dim = config.n_distill
    return shapes + [
        ("hidden_w", (config.n_hidden, in_dim)),
        ("hidden_b", (config.n_hidden,)),
        ("out_w", (config.n_classes, config.n_hidden)),
        ("out_b", (config.n_classes,)),
    ]


class ClassifierModel:
    """Mean-pooling sentence classifier with optional embedding encoder.

    ``version`` increments on every parameter update; backward passes
    refuse caches minted under an older version.
    """

    def __init__(
        self,
        config: ModelConfig,
        embedding: EmbeddingTable,
        encoder: EncoderLayer | None,
        hidden_w: np.ndarray,
        hidden_b: np.ndarray,
        out_w: np.ndarray,
        out_b: np.ndarray,
    ):
        self.config = config
        self.embedding = embedding
        self.encoder = encoder
        self.hidden_w = hidden_w
        self.hidden_b = hidden_b
        self.out_w = out_w
        self.out_b = out_b
        self.version = 0

        if embedding.dim != config.n_embed and (
            encoder is not None or embedding.dim != config.n_distill
        ):
            raise DimensionError(
                f"table dim {embedding.dim} is neither n_embed {config.n_embed} "
                f"nor, without an encoder, n_distill {config.n_distill}"
            )
        layout = parameter_shapes(config, len(embedding.vocab), embedding.dim, encoder is not None)
        for (name, param), (_, shape) in zip(self.named_parameters(), layout):
            if param.shape != shape:
                raise DimensionError(f"{name} has shape {param.shape}, expected {shape}")

    @classmethod
    def initialize(
        cls, config: ModelConfig, embedding: EmbeddingTable, rng: np.random.Generator
    ) -> "ClassifierModel":
        """Fresh model: glorot-uniform weights, zero biases.

        An encoder is created when ``config.n_distill`` is nonzero and
        the table is still ``n_embed`` wide; a distilled table needs none.
        """
        has_encoder = bool(config.n_distill) and embedding.dim == config.n_embed
        layout = parameter_shapes(config, len(embedding.vocab), embedding.dim, has_encoder)
        arrays = {name: glorot(*shape, rng) if len(shape) == 2 else np.zeros(shape)
                  for name, shape in layout[1:]}
        return cls.from_arrays(config, embedding, **arrays)

    @classmethod
    def from_arrays(
        cls, config: ModelConfig, embedding: EmbeddingTable, **arrays: np.ndarray
    ) -> "ClassifierModel":
        """The model on ``embedding`` whose other parameters are
        ``arrays``, named as in ``named_parameters``."""
        encoder = None
        if "encoder_w" in arrays:
            encoder = EncoderLayer(arrays.pop("encoder_w"), arrays.pop("encoder_b"))
        return cls(config, embedding, encoder, **arrays)

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        """All trainable arrays, embedding matrix included."""
        params = [("embedding", self.embedding.matrix)]
        if self.encoder is not None:
            params += [("encoder_w", self.encoder.w_encode), ("encoder_b", self.encoder.b_encode)]
        return params + [(name, getattr(self, name))
                         for name in ("hidden_w", "hidden_b", "out_w", "out_b")]

    def snapshot(self, into: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """A copy of every parameter, written over ``into`` (an earlier
        snapshot of this model) when it is given."""
        if into is None:
            # np.copy keeps each array's memory layout (the table is word-major)
            return [np.copy(a) for _, a in self.named_parameters()]
        for saved, (_, a) in zip(into, self.named_parameters()):
            np.copyto(saved, a)
        return into

    def restore(self, arrays: list[np.ndarray]) -> None:
        for (_, a), saved in zip(self.named_parameters(), arrays):
            np.copyto(a, saved)
        self.version += 1


@dataclass
class ForwardCache:
    """Intermediate values one backward pass needs.

    ``samples`` is the SampleSet ``forward`` made of its input, and
    per-sample arrays have one row per sample.  ``rows`` and ``encoded``
    are set only when an encoder runs: the table rows and encodings of
    the batch's distinct tokens, ids ascending.
    """

    samples: SampleSet
    rows: np.ndarray | None      # (distinct tokens, table_dim)
    encoded: np.ndarray | None   # (distinct tokens, n_distill)
    pool: np.ndarray
    hidden_act: np.ndarray       # tanh output before dropout
    mask: np.ndarray | None
    hidden: np.ndarray           # after dropout
    logits: np.ndarray
    model_version: int


@dataclass
class Gradients:
    """Gradients for every trainable parameter of one model.

    The embedding gradient is one block: a row for each distinct token of
    the batch, ids ascending.  Words that did not appear have no row.
    """

    hidden_w: np.ndarray
    hidden_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    encoder_w: np.ndarray | None
    encoder_b: np.ndarray | None
    embed_ids: np.ndarray
    embed_rows: np.ndarray       # (len(embed_ids), table_dim)

    @property
    def embed_cols(self) -> Mapping[int, np.ndarray]:
        """Read-only {token id: gradient of its vector} view of the block."""
        return MappingProxyType(dict(zip(self.embed_ids.tolist(), self.embed_rows)))


def _segment_sums(
    rows: np.ndarray, index: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """One sum per segment: segment i adds ``rows[index[starts[i] + j]]``
    for j < lengths[i], in j order.

    That is the order in which ``ndarray.sum(axis=0)`` adds the rows of
    a block more than one column wide (a one-column block it adds
    pairwise), and a segment's sum is the same bits alone or among any
    others.  All segments add their j-th row in one step, longest
    segments first.  (``np.add.reduceat`` adds pairwise with one strided
    pass per column: three times the cost of a row sum for one 300-dim
    sentence, and a pass per column even for segments of one row.)
    """
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    position = np.arange(lengths[0])[:, None]
    present = position < lengths  # (positions, segments)
    gathered = rows.take(index[(starts[order] + position)[present]], axis=0)
    counts = np.count_nonzero(present, axis=1)
    sums = gathered[: counts[0]]
    end = counts[0]
    for k in counts[1:].tolist():
        sums[:k] += gathered[end : end + k]
        end += k
    out = np.empty_like(sums)
    out[order] = sums
    return out


def _pool(model: ClassifierModel, samples) -> tuple:
    """Mean pooling of a batch: the cache's samples, rows, encoded and pool."""
    samples = SampleSet.of(samples)
    if len(samples) == 0:
        raise DataError("cannot classify an empty batch")
    table = model.embedding.matrix.T  # one word vector per row
    tokens = samples.tokens
    rows = encoded = None
    if model.encoder is not None:
        # every distinct token is encoded once
        ids, tokens = np.unique(tokens, return_inverse=True)
        rows = table[ids]
        table = encoded = model.encoder.encode_columns(rows.T).T
    pool = _segment_sums(table, tokens, samples.starts, samples.lengths)
    pool /= samples.lengths[:, None]
    return samples, rows, encoded, pool


def _dense(model: ClassifierModel, pool, rng=None) -> tuple:
    """Hidden and output layers: the cache's hidden_act, mask, hidden and
    logits.  Dropout at ``model.config.dropout_rate`` runs exactly when a
    generator is given."""
    hidden_act = np.tanh(affine_forward(model.hidden_w, pool, model.hidden_b))
    hidden, mask = hidden_act, None
    if rng is not None and model.config.dropout_rate > 0.0:
        mask = dropout_mask(hidden_act.shape, model.config.dropout_rate, rng)
        hidden = hidden_act * mask
    return hidden_act, mask, hidden, affine_forward(model.out_w, hidden, model.out_b)


def forward(
    model: ClassifierModel,
    samples,
    temperature: float = 1.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Class distributions for a batch plus the cache for backward.

    ``samples`` is a SampleSet or a sequence of samples (``y`` is
    (samples, classes)); a lone Sample goes to ``predict``.  Given a
    generator, the pass drops out hidden units at
    ``model.config.dropout_rate``; without one it is the deterministic
    evaluation pass.
    """
    pooled = _pool(model, samples)
    dense = _dense(model, pooled[3], rng)
    return softmax_t(dense[3], temperature), ForwardCache(*pooled, *dense, model.version)


def _sum_by_token(batch: SampleSet, per_sample: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Give every token occurrence its sample's row of ``per_sample`` and
    add the rows of equal tokens: (distinct ids ascending, summed rows)."""
    owner = np.repeat(np.arange(len(batch)), batch.lengths)
    order = np.argsort(batch.tokens, kind="stable")
    ordered = batch.tokens[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(first, append=ordered.size)
    return ordered[first], _segment_sums(per_sample, owner[order], first, sizes)


def backward_from_logit_grad(
    model: ClassifierModel, cache: ForwardCache, dz: np.ndarray
) -> Gradients:
    """Propagate a logit-space gradient down to every parameter.

    ``dz`` has one row per sample of the batch.  The result
    is the gradient of sum_i dz_i . logits_i, so a caller after the batch
    mean passes ``dz`` divided by the batch size.
    """
    if cache.model_version != model.version:
        raise StaleCacheError(
            "backward called with a cache from a previous parameter state"
        )
    batch = cache.samples
    out_w, d_hidden, out_b = affine_backward(model.out_w, cache.hidden, model.out_b, dz)
    if cache.mask is not None:
        d_hidden = d_hidden * cache.mask
    d_pre_hidden = tanh_backward(cache.hidden_act, d_hidden)
    hidden_w, d_pool, hidden_b = affine_backward(
        model.hidden_w, cache.pool, model.hidden_b, d_pre_hidden
    )

    # mean pooling spreads a sample's gradient evenly over its tokens
    ids, d_rows = _sum_by_token(batch, d_pool / batch.lengths[:, None])
    encoder_w = encoder_b = None
    if model.encoder is not None:
        encoder_w, d_rows, encoder_b = affine_backward(
            model.encoder.w_encode, cache.rows, model.encoder.b_encode,
            tanh_backward(cache.encoded, d_rows),
        )
    return Gradients(hidden_w, hidden_b, out_w, out_b, encoder_w, encoder_b, ids, d_rows)


def backward(model: ClassifierModel, cache: ForwardCache, target: np.ndarray) -> Gradients:
    """Gradients of the batch mean of cross_entropy(softmax(logits), target).

    ``target`` holds one distribution per sample, shaped like
    ``cache.logits``: one-hot or any distribution summing to 1.  The
    softened teacher term of matching softmax builds its own logit
    gradient and calls ``backward_from_logit_grad``.
    """
    dz = softmax_ce_backward(cache.logits, target, 1.0)
    return backward_from_logit_grad(model, cache, dz / len(cache.samples))


def class_distributions(
    model: ClassifierModel, samples, temperature: float = 1.0
) -> np.ndarray:
    """Evaluation-mode distributions, (samples, classes), computed
    EVAL_CHUNK samples at a time."""
    out = np.empty((len(samples), model.config.n_classes))
    for start in range(0, len(samples), EVAL_CHUNK):
        # index the result, so no chunk's cache outlives its forward pass
        y = forward(model, samples[start : start + EVAL_CHUNK], temperature)[0]
        out[start : start + len(y)] = y
    return out


def _sample_logits(model: ClassifierModel, sample: Sample) -> np.ndarray:
    """One sample's logits without batch bookkeeping or dropout: its rows
    add in ``_segment_sums``' order, as ``sum(axis=0)`` does unless the
    block is one column wide, so a model without an encoder gives the
    bits of the sample's row in any batch."""
    tokens = sample.tokens
    if tokens.size == 0:
        raise DataError("empty sample: a sample needs at least one token")
    table = model.embedding.matrix.T
    if model.encoder is not None:
        ids, tokens = np.unique(tokens, return_inverse=True)
        table = model.encoder.encode_columns(table[ids].T).T
    gathered = table.take(tokens, axis=0)
    pool = gathered.sum(axis=0) if gathered.shape[1] > 1 else np.cumsum(gathered, axis=0)[-1]
    pool /= tokens.size
    return model.out_w.dot(np.tanh(model.hidden_w.dot(pool) + model.hidden_b)) + model.out_b


def predict(model: ClassifierModel, samples):
    """Class with the largest logit for one Sample, or an array of them
    for a sequence.  A lone Sample stops at its logits: no softmax, no
    ForwardCache."""
    if isinstance(samples, Sample):
        return int(_sample_logits(model, samples).argmax())
    out = np.empty(len(samples), dtype=np.intp)
    for start in range(0, len(samples), EVAL_CHUNK):
        logits = forward(model, samples[start : start + EVAL_CHUNK])[1].logits
        out[start : start + len(logits)] = logits.argmax(axis=1)
    return out


def evaluate_accuracy(model: ClassifierModel, samples) -> float:
    """Fraction of samples whose argmax prediction matches the label.

    Runs with dropout off and temperature 1.
    """
    samples = SampleSet.of(samples)
    if len(samples) == 0:
        raise DataError("cannot evaluate on an empty sample list")
    return int(np.count_nonzero(predict(model, samples) == samples.labels)) / len(samples)


def count_parameters(model: ClassifierModel) -> int:
    """Total stored values; a folded model no longer counts the big table."""
    return sum(a.size for _, a in model.named_parameters())


_REGIME_CODES = {tag: i for i, tag in enumerate(REGIMES)}


def save_model(model: ClassifierModel, path) -> None:
    """Write the native binary model format.

    Layout: magic "MDL1", u32 format version, config block (u32 dims:
    n_embed, n_distill, n_hidden, n_classes, |V|; u8 regime code, u8
    has_encoder, u8 distilled_table (1 when the table is n_distill wide);
    f32 dropout), the vocabulary block, then one little-endian f32 block
    per parameter in ``parameter_shapes`` order: the table column-major,
    the others row-major.
    """
    cfg = model.config
    with atomic_write(path) as fh:
        fh.write(_MDL_MAGIC)
        fh.write(struct.pack("<I", _MDL_VERSION))
        fh.write(struct.pack(
            _MDL_CONFIG, cfg.n_embed, cfg.n_distill, cfg.n_hidden, cfg.n_classes,
            len(model.embedding.vocab), _REGIME_CODES[cfg.regime], model.encoder is not None,
            model.embedding.dim != cfg.n_embed, cfg.dropout_rate,
        ))
        write_vocabulary(fh, model.embedding.vocab)
        for name, a in model.named_parameters():
            write_floats(fh, a, order="F" if name == "embedding" else "C")


def load_model(path) -> ClassifierModel:
    """Read a model written by ``save_model``."""
    with ArtifactReader(path, _MDL_MAGIC, "native model file") as reader:
        (version,) = reader.unpack("<I", "format version")
        if version != _MDL_VERSION:
            raise reader.error(f"unsupported model format version {version}")
        (n_embed, n_distill, n_hidden, n_classes, vocab_size,
         regime_code, has_encoder, distilled, dropout) = reader.unpack(_MDL_CONFIG, "config block")
        if regime_code >= len(REGIMES):
            raise reader.error(f"unknown regime code {regime_code}")
        config = ModelConfig(n_embed, n_hidden, n_classes, n_distill,
                             float(np.float32(dropout)), REGIMES[regime_code])
        vocab = reader.vocabulary(vocab_size)
        layout = parameter_shapes(config, vocab_size, n_distill if distilled else n_embed,
                                  bool(has_encoder))
        arrays = {name: reader.floats(shape, name, order="F" if name == "embedding" else "C")
                  for name, shape in layout}
        embedding = EmbeddingTable(vocab, arrays.pop("embedding"))
        return ClassifierModel.from_arrays(config, embedding, **arrays)
