"""Shared test utilities: independent oracles, generators, toy tasks.

The gradient checks here are deliberately independent of the library's
backward passes: they perturb parameters one scalar at a time and take
central differences of the evaluation-mode loss.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embdistill.data import DatasetSplits, LabeledTree, Sample, SampleSet
from embdistill.embeddings import EmbeddingTable, EncoderLayer, Vocabulary
from embdistill.errors import DimensionError
from embdistill.model import ClassifierModel, ModelConfig, backward_from_logit_grad, forward
from embdistill.ops import affine_forward, cross_entropy, softmax_ce_backward

FD_STEP = 1e-3
FD_TOL = 1e-4


def rel_error(a, b) -> np.ndarray:
    """|a-b| scaled by max(|a|, |b|, 1): relative for large values,
    absolute for small ones, so near-zero gradients do not explode."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.ones_like(a)])


def central_difference(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Coordinate-wise central differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f(x)
        flat[i] = orig - step
        down = f(x)
        flat[i] = orig
        g[i] = (up - down) / (2.0 * step)
    return grad


def lookup(table: EmbeddingTable, word_index: int) -> np.ndarray:
    """Column ``word_index`` of the table; identical to matrix @ one_hot."""
    if not 0 <= word_index < len(table.vocab):
        raise IndexError(
            f"word index {word_index} outside vocabulary of size {len(table.vocab)}"
        )
    return table.matrix[:, word_index].copy()


def encode(enc: EncoderLayer, table: EmbeddingTable, word_index: int) -> np.ndarray:
    """Small vector for one word, the per-word oracle for the encoder:
    tanh(W_encode @ column + b_encode)."""
    if enc.n_embed != table.dim:
        raise DimensionError(
            f"encoder expects {enc.n_embed}-dim vectors, table has dim {table.dim}"
        )
    return np.tanh(affine_forward(enc.w_encode, lookup(table, word_index), enc.b_encode))


def model_loss(model: ClassifierModel, sample, target, temperature: float) -> float:
    """Evaluation-mode scalar loss the gradient checks differentiate: the
    loss of one sample, or the mean loss of a batch (one target row per
    sample)."""
    y, _ = forward(model, sample, temperature)
    return float(np.mean(cross_entropy(y, target)))


def dense_gradients(model: ClassifierModel, grads) -> dict[str, np.ndarray]:
    """Expand a Gradients object to one dense array per parameter name."""
    out = {name: getattr(grads, name) for name, _ in model.named_parameters()[1:]}
    emb = np.zeros_like(model.embedding.matrix)
    for col, g in grads.embed_cols.items():
        emb[:, col] += g
    out["embedding"] = emb
    return out


def check_model_gradients(
    model: ClassifierModel,
    sample,
    target,
    temperature: float,
    step: float = FD_STEP,
    tol: float = FD_TOL,
) -> float:
    """Compare every trainable scalar's analytic gradient with central
    finite differences of the batch-mean loss.  ``sample`` is a batch
    with one target row per sample, or a lone Sample with a 1-D target,
    checked as a batch of one.  Returns the worst relative error."""
    if isinstance(sample, Sample):
        sample, target = SampleSet.of([sample]), target[None]
    _, cache = forward(model, sample, temperature)
    # the logit gradient at T, composed as MatchingSoftmaxObjective does
    dz = softmax_ce_backward(cache.logits, target, temperature) / len(cache.samples)
    analytic = dense_gradients(model, backward_from_logit_grad(model, cache, dz))
    worst = 0.0
    for name, param in model.named_parameters():
        flat = param.ravel()
        ana = analytic[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = model_loss(model, sample, target, temperature)
            flat[i] = orig - step
            down = model_loss(model, sample, target, temperature)
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            err = float(rel_error(ana[i], numeric))
            worst = max(worst, err)
            assert err < tol, (
                f"{name}[{i}]: analytic {ana[i]:.8g} vs numeric {numeric:.8g} "
                f"(rel err {err:.3g}, T={temperature})"
            )
    return worst


def tiny_model(
    rng: np.random.Generator,
    vocab_size: int = 6,
    n_embed: int = 5,
    n_distill: int = 0,
    n_hidden: int = 4,
    n_classes: int = 3,
    vocab: Vocabulary | None = None,
) -> ClassifierModel:
    from embdistill.model import ModelConfig

    if vocab is None:
        vocab = Vocabulary.from_words([f"w{i}" for i in range(vocab_size - 1)])
    vocab_size = len(vocab)
    table = EmbeddingTable(vocab, rng.normal(scale=0.5, size=(n_embed, vocab_size)))
    config = ModelConfig(
        n_embed=n_embed,
        n_hidden=n_hidden,
        n_classes=n_classes,
        n_distill=n_distill,
        regime="encoding" if n_distill else "direct",
    )
    return ClassifierModel.initialize(config, table, rng)


def soft_target(rng: np.random.Generator, n: int) -> np.ndarray:
    t = rng.random(n) + 0.05
    return t / t.sum()


@st.composite
def _drawn_models(draw, encoder: bool):
    """A model at a drawn size, its table word-major or not, its table and
    output weights at a drawn scale so that some logits are large.  With
    ``encoder``, an encoding model (an n_distill + 1 wide table); else a
    direct model or a folded-shaped one (an n_distill-wide table and no
    encoder)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vocab_size = draw(st.integers(2, 30))
    dim = draw(st.integers(1, 12))
    n_hidden = draw(st.integers(1, 8))
    n_classes = draw(st.integers(2, 6))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    vocab = Vocabulary.from_words([f"w{i}" for i in range(vocab_size - 1)])
    matrix = rng.normal(scale=scale, size=(dim + 1 if encoder else dim, vocab_size))
    if draw(st.booleans()):
        matrix = np.asfortranarray(matrix)
    if encoder or draw(st.booleans()):
        config = ModelConfig(dim + 1, n_hidden, n_classes, n_distill=dim, regime="encoding")
    else:
        config = ModelConfig(dim, n_hidden, n_classes)
    model = ClassifierModel.initialize(config, EmbeddingTable(vocab, matrix), rng)
    model.out_w *= scale
    return model


def models_without_encoder():
    return _drawn_models(False)


def encoder_models():
    return _drawn_models(True)


# ---------------------------------------------------------------------------
# labeled-tree generation (round-trip oracle)

def serialize_tree(tree: LabeledTree) -> str:
    if tree.is_leaf:
        return f"({tree.label} {tree.token})"
    inner = " ".join(serialize_tree(c) for c in tree.children)
    return f"({tree.label} {inner})"


_TOKENS = ["cat", "dog", "ran", "the", "fast", "xyz", "a1", "éclair"]


def random_tree(rng: np.random.Generator, depth: int = 0, max_depth: int = 4) -> LabeledTree:
    label = int(rng.integers(0, 5))
    if depth >= max_depth or rng.random() < 0.4:
        token = _TOKENS[int(rng.integers(0, len(_TOKENS)))]
        return LabeledTree(label, (), token)
    n_children = int(rng.integers(1, 4))
    children = tuple(random_tree(rng, depth + 1, max_depth) for _ in range(n_children))
    return LabeledTree(label, children)


def count_nodes(tree: LabeledTree) -> int:
    return 1 + sum(count_nodes(c) for c in tree.children)


def leaf_tokens(tree: LabeledTree) -> list[str]:
    """Reference: the tokens of the leaves, left to right, by recursion."""
    if tree.is_leaf:
        return [tree.token]
    return [token for child in tree.children for token in leaf_tokens(child)]


def preorder_nodes(tree: LabeledTree) -> list[LabeledTree]:
    """Reference: every node in preorder (node before its children), by
    recursion."""
    return [tree] + [node for child in tree.children for node in preorder_nodes(child)]


# tokens hold no whitespace, control character or parenthesis
token_strings = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                                      blacklist_characters="()"), min_size=1, max_size=6)
labeled_trees = st.recursive(
    st.builds(lambda label, token: LabeledTree(label, (), token),
              st.integers(0, 4), token_strings),
    lambda children: st.builds(lambda label, kids: LabeledTree(label, tuple(kids)),
                               st.integers(0, 4), st.lists(children, min_size=1, max_size=4)),
    max_leaves=24,
)


# ---------------------------------------------------------------------------
# artifact contents shared by the MDL1, EMB1 and SFT1 round trips

def vocabularies(min_size: int = 0, max_size: int = 8):
    """Vocabularies of distinct tokens, the unknown token appended."""
    return st.lists(token_strings, min_size=min_size, max_size=max_size, unique=True).map(
        Vocabulary.from_words)


def f32_blocks(shape, min_value=None, max_value=None):
    """float64 arrays of ``shape`` whose every value is a finite float32,
    so an f32 block stores them exactly."""
    return arrays(np.float64, shape, elements=st.floats(
        min_value, max_value, width=32, allow_nan=False, allow_infinity=False))


# ---------------------------------------------------------------------------
# toy tasks

def toy_separable_task(
    rng: np.random.Generator,
    n_classes: int = 5,
    words_per_class: int = 4,
    n_train: int = 150,
    n_eval: int = 50,
    length: int = 4,
) -> tuple[DatasetSplits, Vocabulary]:
    """Sentences drawn entirely from one class's private word pool.

    Perfectly separable: word identity determines the label, so any
    model that learns per-word features reaches 100%.
    """
    words = [f"w{c}_{i}" for c in range(n_classes) for i in range(words_per_class)]
    vocab = Vocabulary.from_words(words)

    def make(n):
        samples = []
        for _ in range(n):
            c = int(rng.integers(0, n_classes))
            base = c * words_per_class
            toks = base + rng.integers(0, words_per_class, size=length)
            samples.append(Sample(toks, c))
        return samples

    splits = DatasetSplits(make(n_train), make(n_eval), make(n_eval), vocab)
    return splits, vocab


def synthetic_probe_task(
    seed: int = 7,
    vocab_size: int = 2000,
    big_dim: int = 300,
    seq_len: int = 8,
    n_train: int = 3000,
    n_valid: int = 500,
    n_test: int = 500,
    noise: float = 0.4,
) -> tuple[DatasetSplits, EmbeddingTable]:
    """Labels come from the sign pattern of a fixed 5-way linear probe of
    the mean large-space embedding (plus noise): the label is the number
    of positive probe outputs, capped at the top class.

    The big random table therefore carries the complete signal; a small
    random table starts with none of it.
    """
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_words([f"w{i}" for i in range(vocab_size)])
    table = EmbeddingTable(vocab, rng.uniform(-0.5, 0.5, size=(big_dim, len(vocab))))
    probe = rng.normal(size=(5, big_dim))

    def make(n):
        samples = []
        for _ in range(n):
            toks = rng.integers(0, vocab_size, size=seq_len)
            mean = table.matrix[:, toks].mean(axis=1)
            u = probe @ mean + noise * rng.normal(size=5)
            label = min(int((u > 0).sum()), 4)
            samples.append(Sample(toks, label))
        return samples

    splits = DatasetSplits(make(n_train), make(n_valid), make(n_test), vocab)
    return splits, table
