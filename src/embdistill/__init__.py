"""embdistill: compress task knowledge from large word embeddings into
small ones through a trainable encoding layer, and compare against
direct small-embedding training and soft-target matching."""

__version__ = "0.1.0"

from .embeddings import (  # noqa: F401
    DistilledTable,
    EmbeddingTable,
    EncoderLayer,
    Vocabulary,
    fold,
    init_random_table,
    load_table,
    load_word2vec_text,
    save_table,
)
from .model import (  # noqa: F401
    ClassifierModel,
    ModelConfig,
    count_parameters,
    evaluate_accuracy,
    forward,
    load_model,
    predict,
    save_model,
)
from .training import (  # noqa: F401
    AggregateResult,
    ModelFactory,
    TrainConfig,
    TrainingProtocol,
    TrialResult,
    decay,
    grid_search,
    multi_restart,
    sgd_epoch,
    train_trial,
)
from .distillation import (  # noqa: F401
    Regime,
    SoftTargetSet,
    fold_model,
    generate_soft_targets,
    mixed_loss,
    run_regime,
    train_teacher,
)
