"""The MDL1, EMB1 and SFT1 artifacts: pinned bytes, checked reads,
atomic writes.

Each artifact is written from fixed seeded inputs and its SHA-256 is
compared with the hash the format had when the test was introduced.
A failure means saved files are no longer byte-compatible: either the
change is a bug, or the format needs a new magic or version.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from embdistill.distillation import (
    SoftTargetSet,
    fold_model,
    load_soft_targets,
    save_soft_targets,
)
from embdistill.embeddings import (
    EmbeddingTable,
    Vocabulary,
    atomic_write,
    load_table,
    save_table,
)
from embdistill.errors import FormatError
from embdistill.model import ClassifierModel, ModelConfig, load_model, save_model

GOLDEN = {
    "direct.mdl": "8ed27379154559bd083fd67c43a68c9b9085ae5270253b8ca31dd37ca7e36900",
    "encoder.mdl": "3141de8b2b0b191e2c56661ad2092d79b6af03956fac5f1f84b6618bbe3b4f2b",
    "folded.mdl": "aae7eb1acbfec09bc7bcbd9ee5bdfd398e053a7e5456e6ecfcccd7ef7624fc06",
    "table.emb": "e4ecf6edaf67d5a71f0ab77f2dc055d160350b5c4e01b795fab715b28244b8d1",
    "targets.sft": "c2bfec8b6426f474d6f5728ceb7d113c273bdcfbf5d0a6ba9ea7e15e1e1f4578",
}


def _table(rng, dim: int) -> EmbeddingTable:
    vocab = Vocabulary.from_words(["the", "cat", "sat"])
    return EmbeddingTable(vocab, rng.normal(scale=0.5, size=(dim, len(vocab))))


def _direct():
    rng = np.random.default_rng(101)
    config = ModelConfig(n_embed=4, n_hidden=3, n_classes=5, dropout_rate=0.25)
    return ClassifierModel.initialize(config, _table(rng, 4), rng)


def _encoder():
    rng = np.random.default_rng(102)
    config = ModelConfig(n_embed=6, n_hidden=3, n_classes=5, n_distill=2, regime="encoding")
    return ClassifierModel.initialize(config, _table(rng, 6), rng)


def _write(name: str, path) -> None:
    if name == "direct.mdl":
        save_model(_direct(), path)
    elif name == "encoder.mdl":
        save_model(_encoder(), path)
    elif name == "folded.mdl":
        save_model(fold_model(_encoder()), path)
    elif name == "table.emb":
        rng = np.random.default_rng(103)
        vocab = Vocabulary.from_words(["été", "naïve", "猫"])
        save_table(EmbeddingTable(vocab, rng.normal(size=(3, len(vocab)))), path)
    else:
        rows = np.random.default_rng(104).random((4, 5)) + 0.1
        save_soft_targets(SoftTargetSet(2.0, rows / rows.sum(axis=1, keepdims=True)), path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes_are_pinned(name, tmp_path):
    path = tmp_path / name
    _write(name, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]


LOADERS = {"direct.mdl": load_model, "table.emb": load_table, "targets.sft": load_soft_targets}


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize("damage, message", [
    (lambda blob: b"JUNK" + blob[4:], "bad magic"),
    (lambda blob: blob[:-3], "truncated"),
    (lambda blob: blob[:9], "truncated"),
    (lambda blob: blob + b"x", "trailing"),
])
def test_damaged_artifact_is_a_format_error_naming_the_file(name, damage, message, tmp_path):
    path = tmp_path / name
    _write(name, path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(FormatError, match=message) as info:
        LOADERS[name](path)
    assert str(info.value).startswith(f"{path}: ")


def _emb1(tokens: list[bytes]) -> bytes:
    """An EMB1 file of one-dim zero vectors over raw token bytes."""
    blob = b"EMB1" + struct.pack("<II", len(tokens), 1)
    for token in tokens:
        blob += struct.pack("<I", len(token)) + token
    return blob + bytes(4 * len(tokens))


@pytest.mark.parametrize("tokens, message", [
    ([b"caf\xe9", b"<unk>"], "token 0 is not UTF-8"),
    ([b"a", b"a", b"<unk>"], "duplicate vocabulary token 'a'"),
    ([b"a", b"b"], "lacks the unknown token"),
])
def test_bad_vocabulary_block_is_a_format_error(tokens, message, tmp_path):
    path = tmp_path / "t.emb"
    path.write_bytes(_emb1(tokens))
    with pytest.raises(FormatError, match=message) as info:
        load_table(path)
    assert str(path) in str(info.value)


def test_non_utf8_model_token_is_a_format_error(tmp_path):
    path = tmp_path / "direct.mdl"
    _write("direct.mdl", path)
    blob = path.read_bytes()
    # magic, version, 27-byte config block, then the first token's length
    start = 4 + 4 + 27 + 4
    assert blob[start : start + 3] == b"the"
    path.write_bytes(blob[:start] + b"\xff" + blob[start + 1 :])
    with pytest.raises(FormatError, match="token 0 is not UTF-8"):
        load_model(path)


def test_failed_save_keeps_the_previous_file(tmp_path):
    path = tmp_path / "m.mdl"
    save_model(_direct(), path)
    before = path.read_bytes()
    broken = _encoder()
    broken.out_b = None  # the last parameter block cannot be written
    with pytest.raises(AttributeError):
        save_model(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.mdl"]


def test_failed_text_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "meta.json"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path, "w") as fh:
            fh.write("new")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["meta.json"]
    with atomic_write(path, "w") as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["meta.json"]
