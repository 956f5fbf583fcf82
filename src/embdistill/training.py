"""Mini-batch SGD, decay schedules, grid search, and restart averaging.

The search protocol follows a fixed recipe: learning rate from a small
geometric grid, three decay schedules per rate, dropout swept in steps
of 0.1, selection by validation accuracy, then five reruns of the
winning configuration under different seeds.

Every trial is fully determined by (configuration, seed, data): model
initialization draws from ``default_rng([seed, 0])`` and the training
loop (shuffling, dropout) from ``default_rng([seed, 1])``.  So trials
can run in any process: with more than one job, ``LaneProcesses`` forks
copies of the caller once per search, and the grid lanes and then the
restarts are dealt round-robin over the caller and its copies, with the
results of one process.

An objective is called once per mini-batch as
``objective(model, samples, indices, rng)``, where ``samples`` is the
mini-batch SampleSet and ``indices`` are its samples' positions in the
training set; it returns the per-sample losses and the gradients of
their mean.  Its forward pass takes ``rng``, so it drops out at the
model's own ``config.dropout_rate``.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import SampleSet
from .embeddings import EmbeddingTable, Vocabulary, atomic_write, init_random_table
from .errors import ConfigError, DataError, DivergenceError
from .model import (
    ClassifierModel,
    Gradients,
    ModelConfig,
    backward,
    evaluate_accuracy,
    forward,
)
from .ops import cross_entropy, one_hot

DECAY_CONSTANT = "constant"
DECAY_HALVE_EVERY_3 = "halve_every_3"
DECAY_INVERSE = "inverse"
DECAY_SCHEMES = (DECAY_CONSTANT, DECAY_HALVE_EVERY_3, DECAY_INVERSE)

# A configuration underfits when its final training accuracy is below
# chance plus this margin; stronger regularization at the same learning
# rate is then pointless and gets skipped.
UNDERFIT_MARGIN = 0.05


# A trial sets its process's BLAS to one thread: more buy nothing at the
# engine's shapes, grid lanes' threads compete for the same cores, and a
# product's bits can depend on the thread count.  Only numpy's bundled
# OpenBLAS is set (its setter resolved here, once); another BLAS is not.
_OPENBLAS = next((lib for lib in map(ctypes.CDLL, Path(np.__file__).parents[1].glob(
    "numpy.libs/libscipy_openblas*")) if hasattr(lib, "scipy_openblas_set_num_threads64_")),
    None)


def decay(lr0: float, scheme: str, epoch: int) -> float:
    """Learning rate for a 0-based epoch under the named schedule."""
    if scheme == DECAY_CONSTANT:
        return lr0
    if scheme == DECAY_HALVE_EVERY_3:
        return lr0 * 0.5 ** (epoch // 3)
    if scheme == DECAY_INVERSE:
        return lr0 / (1.0 + 0.1 * epoch)
    raise ConfigError(f"unknown decay scheme {scheme!r}, expected one of {DECAY_SCHEMES}")


@dataclass
class TrainConfig:
    learning_rate: float
    decay_scheme: str = DECAY_CONSTANT
    batch_size: int = 200
    max_epochs: int = 30
    dropout_rate: float = 0.0
    seed: int = 0
    patience: int = 5

    def __post_init__(self):
        # 0 is tolerated so a dry run can leave parameters untouched.
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.decay_scheme not in DECAY_SCHEMES:
            raise ConfigError(
                f"unknown decay scheme {self.decay_scheme!r}, "
                f"expected one of {DECAY_SCHEMES}"
            )


@dataclass
class TrialResult:
    """Outcome of one training run."""

    config: TrainConfig
    train_losses: list[float]
    valid_accuracies: list[float]
    best_epoch: int
    test_accuracy: float
    final_train_accuracy: float
    seconds: float
    seed: int

    @property
    def best_valid_accuracy(self) -> float:
        return self.valid_accuracies[self.best_epoch]


def standard_objective(model, samples, indices, rng):
    """Cross-entropy against the one-hot labels at temperature 1."""
    y, cache = forward(model, samples, temperature=1.0, rng=rng)
    targets = one_hot(cache.samples.labels, model.config.n_classes)
    return cross_entropy(y, targets), backward(model, cache, targets)


def apply_update(model: ClassifierModel, grads: Gradients, lr: float) -> None:
    """One SGD step.  The table moves only on the rows the batch touched,
    in one indexed update of its word-major view."""
    for name, param in model.named_parameters()[1:]:
        param -= lr * getattr(grads, name)
    model.embedding.matrix.T[grads.embed_ids] -= lr * grads.embed_rows
    model.version += 1


def sgd_epoch(
    model: ClassifierModel,
    samples,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
    objective=None,
) -> float:
    """One pass over the samples; returns the mean per-sample loss.

    Samples are shuffled with the supplied generator, which also draws
    the dropout masks at ``model.config.dropout_rate``; each mini-batch
    applies the *mean* gradient (so the learning-rate grid keeps its
    meaning across batch sizes).
    """
    if not lr >= 0:
        raise ConfigError(f"learning rate must be >= 0, got {lr}")
    if batch_size < 1:
        raise ConfigError("batch size must be >= 1")
    if objective is None:
        objective = standard_objective
    samples = SampleSet.of(samples)
    if len(samples) == 0:
        raise DataError("cannot train on an empty sample set")
    order = rng.permutation(len(samples))
    losses = []
    for batch_index, start in enumerate(range(0, len(order), batch_size)):
        indices = order[start : start + batch_size]
        batch_losses, grads = objective(model, samples[indices], indices, rng)
        if not np.isfinite(batch_losses.sum()):
            raise DivergenceError(
                f"non-finite loss in batch {batch_index} (lr={lr})"
            )
        apply_update(model, grads, lr)
        losses.append(batch_losses)
    return float(np.mean(np.concatenate(losses)))


@dataclass
class ModelFactory:
    """Builds a fresh, seeded model per trial.

    A pretrained table is copied for every build (training mutates it),
    word-major; without one, a uniform random table over ``vocab`` is
    drawn from the seed, so restarts also re-draw the embeddings.
    """

    config: ModelConfig
    table: EmbeddingTable | None = None
    vocab: Vocabulary | None = None
    init_scale: float = 0.1

    def __post_init__(self):
        if self.table is None and self.vocab is None:
            raise ConfigError("model factory needs a pretrained table or a vocabulary")
        if self.table is not None and self.table.dim != self.config.n_embed:
            raise ConfigError(
                f"table dim {self.table.dim} does not match n_embed {self.config.n_embed}"
            )

    def build(self, seed: int, dropout_rate: float | None = None) -> ClassifierModel:
        rng = np.random.default_rng([seed, 0])
        config = self.config
        if dropout_rate is not None:
            config = replace(config, dropout_rate=dropout_rate)
        if self.table is not None:
            matrix = np.array(self.table.matrix, order="F")
            table = EmbeddingTable(self.table.vocab, matrix)
        else:
            table = init_random_table(self.vocab, config.n_embed, self.init_scale, rng)
        return ClassifierModel.initialize(config, table, rng)

    def rebuild(self, dropout_rate: float, arrays: dict) -> ClassifierModel:
        """The model a build at ``dropout_rate`` makes, holding ``arrays``
        (named as in ``named_parameters``) in place of its own."""
        arrays = dict(arrays)
        vocab = self.vocab if self.table is None else self.table.vocab
        table = EmbeddingTable(vocab, arrays.pop("embedding"))
        return ClassifierModel.from_arrays(replace(self.config, dropout_rate=dropout_rate),
                                           table, **arrays)


def train_trial(
    factory: ModelFactory,
    splits,
    cfg: TrainConfig,
    objective=None,
    log_path=None,
) -> tuple[ClassifierModel, TrialResult]:
    """Train one configuration to its early-stopping point.

    An epoch that follows the best epoch so far first copies the
    parameters into the trial's one snapshot buffer, so a best last epoch
    is never copied, and each process of a regime run holds at most four
    copies of the table: the caller's, the best restart's, the trial's
    and its snapshot.  Returns the trained model if its last epoch is the
    best, else one built on the snapshot, with the test accuracy of that
    model (so a later ``eval`` reproduces it).  The optional log gets one
    tab-separated line per epoch: epoch, train_loss, valid_acc, lr,
    seconds (the copy that opens the epoch included).
    """
    if _OPENBLAS is not None:
        _OPENBLAS.scipy_openblas_set_num_threads64_(ctypes.c_int(1))
    model = factory.build(cfg.seed, cfg.dropout_rate)
    train_rng = np.random.default_rng([cfg.seed, 1])
    started = time.perf_counter()

    train_losses: list[float] = []
    valid_accs: list[float] = []
    best_epoch = -1
    best_valid = -1.0
    best_state = None
    log_lines = []

    for epoch in range(cfg.max_epochs):
        lr = decay(cfg.learning_rate, cfg.decay_scheme, epoch)
        epoch_start = time.perf_counter()
        if epoch and best_epoch == epoch - 1:  # this epoch would train over the best
            best_state = model.snapshot(into=best_state)
        loss = sgd_epoch(model, splits.train, lr, cfg.batch_size, train_rng, objective)
        valid_acc = evaluate_accuracy(model, splits.valid)
        train_losses.append(loss)
        valid_accs.append(valid_acc)
        if valid_acc > best_valid:
            best_valid = valid_acc
            best_epoch = epoch
        log_lines.append(
            f"{epoch}\t{loss:.6f}\t{valid_acc:.6f}\t{lr:.6g}"
            f"\t{time.perf_counter() - epoch_start:.3f}"
        )
        if epoch - best_epoch >= cfg.patience:
            break

    final_train_acc = evaluate_accuracy(model, splits.train)
    if best_epoch < epoch:
        names = [name for name, _ in model.named_parameters()]
        model = factory.rebuild(cfg.dropout_rate, dict(zip(names, best_state)))
    # sgd_epoch checks each batch's loss before its update, never the
    # parameters after the last one; MDL1 stores float32
    limit = np.finfo(np.float32).max
    for name, param in model.named_parameters():
        if not (param.min() >= -limit and param.max() <= limit):
            raise DivergenceError(
                f"parameter {name} is not finite or exceeds the float32 range "
                f"(lr={cfg.learning_rate})"
            )
    test_accuracy = evaluate_accuracy(model, splits.test)
    seconds = time.perf_counter() - started
    if log_path is not None:
        with atomic_write(log_path, "w") as fh:
            fh.write("\n".join(log_lines) + "\n")
    return model, TrialResult(
        config=cfg, train_losses=train_losses, valid_accuracies=valid_accs, best_epoch=best_epoch,
        test_accuracy=test_accuracy, final_train_accuracy=final_train_acc, seconds=seconds,
        seed=cfg.seed)


@dataclass
class TrainingProtocol:
    """The full hyperparameter recipe for one comparison run."""

    learning_rates: tuple = (3.0, 1.0, 0.3, 0.1, 0.03)
    decay_schemes: tuple = DECAY_SCHEMES
    dropout_rates: tuple = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    batch_size: int = 200
    max_epochs: int = 30
    patience: int = 5
    grid_seed: int = 0
    restart_seeds: tuple = (0, 1, 2, 3, 4)

    def __post_init__(self):
        for name in ("learning_rates", "decay_schemes", "dropout_rates", "restart_seeds"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} contains duplicates: {values}")
        for seed in (self.grid_seed, *self.restart_seeds):
            if seed < 0:
                raise ConfigError(f"seeds must be >= 0, got {seed}")
        self.grid_lanes()  # each grid point's TrainConfig checks its values

    def grid_lanes(self) -> list[list[TrainConfig]]:
        """The grid's points in (lr, scheme) lanes, lr then scheme in
        protocol order, dropout ascending within a lane."""
        return [
            [
                TrainConfig(learning_rate=lr, decay_scheme=scheme, batch_size=self.batch_size,
                            max_epochs=self.max_epochs, dropout_rate=rate,
                            seed=self.grid_seed, patience=self.patience)
                for rate in sorted(self.dropout_rates)
            ]
            for lr in self.learning_rates
            for scheme in self.decay_schemes
        ]


@dataclass
class GridEntry:
    config: TrainConfig
    result: TrialResult | None
    skipped: str | None = None


@dataclass
class GridSearchResult:
    entries: list[GridEntry]
    best_config: TrainConfig
    best_result: TrialResult


def _run_grid_group(factory, splits, configs, objective, log_dir) -> list[GridEntry]:
    """One (lr, scheme) lane: dropout ascending with underfit pruning."""
    chance = 1.0 / factory.config.n_classes
    entries: list[GridEntry] = []
    prune_from: float | None = None
    for cfg in configs:
        if prune_from is not None and cfg.dropout_rate > prune_from:
            entries.append(
                GridEntry(cfg, None, f"skipped: underfit at dropout={prune_from}")
            )
            continue
        log_path = None
        if log_dir is not None:
            log_path = (
                f"{log_dir}/trial_lr{cfg.learning_rate:g}_{cfg.decay_scheme}"
                f"_d{cfg.dropout_rate:g}.log"
            )
        try:
            _, result = train_trial(factory, splits, cfg, objective, log_path)
        except DivergenceError as exc:
            entries.append(GridEntry(cfg, None, f"diverged: {exc}"))
            continue
        entries.append(GridEntry(cfg, result))
        if result.final_train_accuracy < chance + UNDERFIT_MARGIN:
            prune_from = cfg.dropout_rate
    return entries


class RemoteTraceback(Exception):
    """A forked copy's formatted traceback: the cause of the error it sent."""


class LaneProcesses:
    """The processes that run a search's trials: the caller and ``n - 1``
    forked copies of it, made once and used for the grid lanes and then
    for the restarts.

    A copy inherits the factory, splits, objective and log directory at
    the fork, so nothing of them is pickled; it then serves requests from
    a pipe until the caller closes it.  A request carries only a share of
    grid lanes (``TrainConfig`` lists) or of restart seeds, and the copy
    pickles back the share's result, or the exception that stopped it and
    its traceback's text, which the caller raises it from.  ``close``
    (also on leaving a ``with`` block) ends and reaps every copy, also
    when the caller's own share raised.  At ``n = 1`` nothing forks.
    """

    def __init__(self, n: int, factory: ModelFactory, splits, objective, log_dir):
        self.factory = factory
        self.splits = splits
        self.objective = objective
        self.log_dir = log_dir
        self.copies = []  # (pid, request writer, reply reader) per copy, in copy order
        try:
            for _ in range(1, n):
                self.copies.append(self._fork())
        except BaseException:
            self.close()
            raise
        self.n = n

    def __enter__(self) -> "LaneProcesses":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _fork(self) -> tuple:
        fds = [*os.pipe()]
        try:
            fds += os.pipe()
            pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        request_fd, request_w, reply_r, reply_fd = fds
        if pid == 0:
            try:
                os.close(request_w)
                os.close(reply_r)
                # so each copy's pipes end when the caller closes them,
                # not only once the later copies have exited
                for _, requests, replies in self.copies:
                    requests.close()
                    replies.close()
                self._serve(request_fd, reply_fd)
            finally:
                os._exit(0)
        os.close(request_fd)
        os.close(reply_fd)
        return pid, os.fdopen(request_w, "wb"), os.fdopen(reply_r, "rb")

    def _serve(self, request_fd: int, reply_fd: int) -> None:
        with os.fdopen(request_fd, "rb") as requests, os.fdopen(reply_fd, "wb") as replies:
            while True:
                try:
                    method, share, args = pickle.load(requests)
                except EOFError:
                    return
                try:
                    reply = getattr(self, method)(share, *args), None
                except BaseException as exc:
                    reply = exc, traceback.format_exc()
                # protocol 5 streams an array's buffer as it is, without a
                # copy on either side of the pipe
                pickle.dump(reply, replies, protocol=5)
                replies.flush()

    def _receive(self, pid, replies):
        try:
            reply, remote_traceback = pickle.load(replies)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(f"lane process {pid} exited without a result") from None
        if remote_traceback is not None:
            raise reply from RemoteTraceback(remote_traceback)
        return reply

    def deal(self, method: str, items: list, *args):
        """Run the named share method on ``items`` dealt round-robin: the
        caller runs items 0, n, 2n, … and copy k items k, k + n, ….
        Yields each share's result in process order, the caller's first;
        a copy's result is read off its pipe only when it is asked for."""
        for k, (_, requests, _) in enumerate(self.copies, 1):
            pickle.dump((method, items[k::self.n], args), requests)
            requests.flush()
        yield getattr(self, method)(items[::self.n], *args)
        for pid, _, replies in self.copies:
            yield self._receive(pid, replies)

    def close(self) -> None:
        for _, requests, replies in self.copies:
            with contextlib.suppress(BrokenPipeError):  # a request to a dead copy
                requests.close()  # the copy's requests end
            replies.close()  # a copy still writing gets a broken pipe
        for pid, _, _ in self.copies:
            os.waitpid(pid, 0)
        self.copies = []

    # The share methods look ``_run_grid_group`` and ``train_trial`` up at
    # each call, so a wrapper installed on the module runs in every process.

    def grid_share(self, lanes: list) -> list[list[GridEntry]]:
        return [_run_grid_group(self.factory, self.splits, lane, self.objective, self.log_dir)
                for lane in lanes]

    def restart_share(self, seeds: list, config: TrainConfig) -> tuple:
        """One trial of ``config`` per seed: the trials, and the parameter
        arrays of the first with the highest validation accuracy (None
        without seeds).  Arrays, not the model: the caller has the
        vocabulary."""
        trials: list[TrialResult] = []
        best_arrays = None
        for seed in seeds:
            log_path = None if self.log_dir is None else f"{self.log_dir}/restart_seed{seed}.log"
            model, result = train_trial(self.factory, self.splits, replace(config, seed=seed),
                                        self.objective, log_path)
            if all(result.best_valid_accuracy > t.best_valid_accuracy for t in trials):
                best_arrays = dict(model.named_parameters())
            trials.append(result)
            del model  # only the best restart's tables live through the next trial
        return trials, best_arrays


def grid_search(
    factory: ModelFactory,
    splits,
    protocol: TrainingProtocol,
    objective=None,
    log_dir=None,
    jobs: int = 1,
    lanes: LaneProcesses | None = None,
) -> GridSearchResult:
    """Train one trial per grid point and pick the validation winner.

    Ties break toward the smaller learning rate, then smaller dropout,
    then the protocol's scheme order.  Diverged points are recorded, not
    fatal; if nothing converges a DivergenceError lists every failure.
    Grid points run in the protocol's ``grid_lanes``.  The lanes are
    dealt round-robin over the processes of ``lanes`` when given (a
    regime's, which go on to run its restarts), else over
    ``min(jobs, lanes)`` processes made for this call: the caller runs a
    share itself and the rest run in forked copies of it (the paper
    grid's 15 lanes split 8/7 over 2).  The entries come back in lane
    order, the same as at ``jobs=1``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    groups = protocol.grid_lanes()
    own = LaneProcesses(min(jobs, len(groups)), factory, splits, objective, log_dir) \
        if lanes is None else contextlib.nullcontext(lanes)
    with own as lanes:
        per_group = [None] * len(groups)
        for k, share in enumerate(lanes.deal("grid_share", groups)):
            per_group[k::lanes.n] = share
    entries = [e for group in per_group for e in group]

    converged = [e for e in entries if e.result is not None]
    if not converged:
        details = "; ".join(f"{e.config.learning_rate:g}: {e.skipped}" for e in entries)
        raise DivergenceError(f"every grid trial failed ({details})")
    scheme_order = {s: i for i, s in enumerate(protocol.decay_schemes)}
    best = min(converged, key=lambda e: (
        -e.result.best_valid_accuracy,
        e.config.learning_rate,
        e.config.dropout_rate,
        scheme_order[e.config.decay_scheme],
    ))
    return GridSearchResult(entries, best.config, best.result)


@dataclass
class AggregateResult:
    """Restart statistics for one selected configuration.

    ``mean_accuracy``/``std_accuracy`` summarize test accuracy over the
    seeds (population std); ``restart_test_accuracy`` is the test
    accuracy of the seed with the highest validation accuracy.
    """

    mean_accuracy: float
    std_accuracy: float
    restart_seed: int
    restart_test_accuracy: float
    seeds: list[int]
    trials: list[TrialResult] = field(repr=False)


def multi_restart(
    factory: ModelFactory,
    splits,
    config: TrainConfig,
    seeds=(0, 1, 2, 3, 4),
    objective=None,
    log_dir=None,
    lanes: LaneProcesses | None = None,
) -> tuple[AggregateResult, ClassifierModel]:
    """Rerun the chosen configuration once per seed and aggregate.

    Returns the statistics and the model of the best-validation seed,
    the first in ``seeds`` order on a tie (the restart that deployment
    would keep).  The seeds are dealt round-robin over the processes of
    ``lanes`` when given (5 seeds split 3/2 over 2), else run in the
    caller; each process sends back its trials and only its share's best
    parameters, read once the caller's own share is done.
    """
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"restart seeds must be distinct, got {seeds}")
    if not seeds:
        raise ConfigError("at least one restart seed is required")

    if lanes is None:
        lanes = LaneProcesses(1, factory, splits, objective, log_dir)
    trials: list[TrialResult] = [None] * len(seeds)

    def rank(i):
        return trials[i].best_valid_accuracy, -i

    best = best_arrays = None
    for k, (share, arrays) in enumerate(lanes.deal("restart_share", seeds, config)):
        trials[k::lanes.n] = share
        top = max(range(k, len(seeds), lanes.n), key=rank, default=None)
        if top is not None and (best is None or rank(top) > rank(best)):
            best, best_arrays = top, arrays
    best_model = factory.rebuild(config.dropout_rate, best_arrays)

    accs = np.array([t.test_accuracy for t in trials])
    aggregate = AggregateResult(
        mean_accuracy=float(accs.mean()),
        std_accuracy=float(accs.std()),
        restart_seed=seeds[best],
        restart_test_accuracy=trials[best].test_accuracy,
        seeds=seeds,
        trials=trials,
    )
    return aggregate, best_model
