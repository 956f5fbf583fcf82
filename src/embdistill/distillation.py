"""The three training regimes under comparison.

* ``direct_small``: train the small classifier as-is on the labels.
* ``matching_softmax``: additionally match a frozen teacher's softened
  output distribution, mixed 1:1 with the ground-truth loss.
* ``encoding_distill``: keep the large embedding table, learn an
  encoding layer that squashes it to the small width, train everything
  jointly on the labels, then fold the encoder away for deployment.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .embeddings import ArtifactReader, EmbeddingTable, atomic_write, fold, write_floats
from .errors import ConfigError
from .model import (
    ClassifierModel,
    ModelConfig,
    REGIME_DIRECT,
    REGIME_ENCODING,
    backward_from_logit_grad,
    class_distributions,
    count_parameters,
    forward,
)
from .ops import cross_entropy, one_hot, softmax_ce_backward, softmax_t
from .training import (
    AggregateResult,
    GridSearchResult,
    ModelFactory,
    TrainConfig,
    TrainingProtocol,
    TrialResult,
    grid_search,
    multi_restart,
    train_trial,
)

DIRECT_SMALL = "direct_small"
MATCHING_SOFTMAX = "matching_softmax"
ENCODING_DISTILL = "encoding_distill"
REGIME_TAGS = (DIRECT_SMALL, MATCHING_SOFTMAX, ENCODING_DISTILL)

DEFAULT_TEMPERATURE = 2.0

_SFT_MAGIC = b"SFT1"


@dataclass
class Regime:
    """One comparison arm; temperature only matters for soft-target matching."""

    tag: str
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        if self.tag not in REGIME_TAGS:
            raise ConfigError(f"unknown regime {self.tag!r}, expected one of {REGIME_TAGS}")
        if self.tag == MATCHING_SOFTMAX and not self.temperature > 1.0:
            raise ConfigError(
                "matching softmax needs a softening temperature > 1, "
                f"got {self.temperature}"
            )


@dataclass
class SoftTargetSet:
    """Teacher distributions, one row per training sample, at one temperature."""

    temperature: float
    targets: np.ndarray  # (n_samples, n_classes)

    def __post_init__(self):
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.targets.ndim != 2:
            raise ConfigError("soft targets must be a (samples, classes) matrix")
        sums = self.targets.sum(axis=1)
        if self.targets.size and not np.all(np.abs(sums - 1.0) <= 1e-6):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise ConfigError(
                f"soft target row {worst} sums to {sums[worst]}, expected 1"
            )
        outside = ~((self.targets >= 0) & (self.targets <= 1))
        if outside.any():
            row, col = np.argwhere(outside)[0]
            raise ConfigError(
                f"soft target row {row} has value {self.targets[row, col]} outside [0, 1]"
            )

    def __len__(self) -> int:
        return self.targets.shape[0]


def save_soft_targets(targets: SoftTargetSet, path) -> None:
    """Binary cache: magic "SFT1", u32 sample count, u32 n_classes,
    f32 temperature, then count x n_classes little-endian f32 rows."""
    with atomic_write(path) as fh:
        fh.write(_SFT_MAGIC)
        fh.write(struct.pack("<IIf", *targets.targets.shape, targets.temperature))
        write_floats(fh, targets.targets)


def load_soft_targets(path) -> SoftTargetSet:
    with ArtifactReader(path, _SFT_MAGIC, "soft-target cache") as reader:
        n, c, temperature = reader.unpack("<IIf", "header")
        targets = SoftTargetSet(float(temperature), reader.floats((n, c), "target rows"))
        targets.targets /= targets.targets.sum(axis=1, keepdims=True)  # undo f32 rounding
        return targets


def generate_soft_targets(
    teacher: ClassifierModel, samples, temperature: float
) -> SoftTargetSet:
    """Teacher output distribution per sample at the given temperature.

    The teacher stays frozen; targets are computed once, up front, a
    chunk of samples per forward pass.
    """
    if not temperature > 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    return SoftTargetSet(temperature, class_distributions(teacher, samples, temperature))


def mixed_loss(
    y_student_t1: np.ndarray,
    y_student_temp: np.ndarray,
    t_onehot: np.ndarray,
    y_teacher_temp: np.ndarray,
) -> float | np.ndarray:
    """1:1 mixture of ground-truth and teacher-matching cross-entropy
    (one value per row for a batch)."""
    return cross_entropy(y_student_t1, t_onehot) + cross_entropy(
        y_student_temp, y_teacher_temp
    )


@dataclass
class MatchingSoftmaxObjective:
    """Training objective for soft-target matching: per-sample losses and
    the gradients of their mean over a batch.

    Both branches share one forward pass: the ground-truth term reads
    the logits at temperature 1, the teacher term at the soft-target
    temperature, and the logit gradients simply add.
    """

    soft_targets: SoftTargetSet

    def __call__(self, model, samples, indices, rng):
        y1, cache = forward(model, samples, temperature=1.0, rng=rng)
        temp = self.soft_targets.temperature
        y_temp = softmax_t(cache.logits, temp)
        targets = one_hot(cache.samples.labels, model.config.n_classes)
        teacher_rows = self.soft_targets.targets[indices]
        losses = mixed_loss(y1, y_temp, targets, teacher_rows)
        dz = softmax_ce_backward(cache.logits, targets, 1.0) + softmax_ce_backward(
            cache.logits, teacher_rows, temp
        )
        return losses, backward_from_logit_grad(model, cache, dz / len(cache.samples))


def _check_labels(splits, n_classes: int) -> None:
    """Every label in the splits must be one of the model's classes."""
    largest = max((int(s.labels.max()) for s in (splits.train, splits.valid, splits.test)
                   if len(s)), default=0)
    if largest >= n_classes:
        raise ConfigError(f"the model has {n_classes} classes, but the data has label {largest}")


def train_teacher(
    splits,
    table: EmbeddingTable,
    train_config: TrainConfig,
    n_hidden: int = 200,
    n_classes: int = 5,
) -> tuple[ClassifierModel, TrialResult]:
    """Train the large-scale model that will supply soft targets."""
    _check_labels(splits, n_classes)
    config = ModelConfig(
        n_embed=table.dim,
        n_hidden=n_hidden,
        n_classes=n_classes,
        regime=REGIME_DIRECT,
    )
    factory = ModelFactory(config, table=table)
    return train_trial(factory, splits, train_config)


@dataclass
class RegimeOutcome:
    regime: Regime
    grid: GridSearchResult
    aggregate: AggregateResult
    best_model: ClassifierModel
    folded_model: ClassifierModel | None
    deployed_parameters: int


def fold_model(model: ClassifierModel) -> ClassifierModel:
    """Replace table+encoder with the folded small table.

    Predictions are unchanged; only the deployed parameter count drops.
    """
    if model.encoder is None:
        raise ConfigError("model has no encoder to fold")
    folded_table = fold(model.encoder, model.embedding)
    # the dense layers after the table and the encoder carry over
    dense = {name: a.copy() for name, a in model.named_parameters()[3:]}
    return ClassifierModel(model.config, folded_table, None, **dense)


def run_regime(
    regime: Regime,
    splits,
    protocol: TrainingProtocol,
    *,
    n_hidden: int,
    n_classes: int = 5,
    table: EmbeddingTable | None = None,
    embed_dim: int | None = None,
    distill_dim: int | None = None,
    soft_targets: SoftTargetSet | None = None,
    init_scale: float = 0.1,
    jobs: int = 1,
    log_dir=None,
) -> RegimeOutcome:
    """Full protocol for one regime: grid search, then restart averaging.

    ``direct_small`` and ``matching_softmax`` train at the small width
    (a pretrained small table when given, else per-seed random vectors);
    ``encoding_distill`` trains encoder, classifier, and the large table
    jointly, then folds for deployment accounting.
    """
    vocab = splits.vocab
    _check_labels(splits, n_classes)
    if regime.tag == ENCODING_DISTILL:
        if table is None:
            raise ConfigError("encoding regime needs the pretrained large table")
        if distill_dim is None or distill_dim < 1:
            raise ConfigError(f"encoding regime needs a distilled width >= 1, got {distill_dim}")
        config = ModelConfig(
            n_embed=table.dim,
            n_hidden=n_hidden,
            n_classes=n_classes,
            n_distill=distill_dim,
            regime=REGIME_ENCODING,
        )
        factory = ModelFactory(config, table=table)
        objective = None
    else:
        dim = table.dim if table is not None else embed_dim
        if dim is None:
            raise ConfigError("small regimes need a table or an embedding width")
        model_regime = REGIME_DIRECT if regime.tag == DIRECT_SMALL else regime.tag
        config = ModelConfig(
            n_embed=dim,
            n_hidden=n_hidden,
            n_classes=n_classes,
            regime=model_regime,
        )
        factory = ModelFactory(config, table=table, vocab=vocab, init_scale=init_scale)
        if regime.tag == MATCHING_SOFTMAX:
            if soft_targets is None:
                raise ConfigError("matching softmax needs precomputed soft targets")
            if len(soft_targets) != len(splits.train):
                raise ConfigError(
                    f"{len(soft_targets)} soft-target rows for "
                    f"{len(splits.train)} training samples"
                )
            if abs(soft_targets.temperature - regime.temperature) > 1e-6:
                raise ConfigError(
                    f"soft targets were generated at T={soft_targets.temperature}, "
                    f"regime expects T={regime.temperature}"
                )
            objective = MatchingSoftmaxObjective(soft_targets)
        else:
            objective = None

    grid = grid_search(factory, splits, protocol, objective, log_dir, jobs)
    aggregate, best_model = multi_restart(
        factory, splits, grid.best_config, protocol.restart_seeds, objective, log_dir
    )
    folded = fold_model(best_model) if regime.tag == ENCODING_DISTILL else None
    deployed = count_parameters(folded if folded is not None else best_model)
    return RegimeOutcome(regime, grid, aggregate, best_model, folded, deployed)
