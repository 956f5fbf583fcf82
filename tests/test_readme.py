"""README's "Library use" example runs as written, on a toy corpus."""

import re
from pathlib import Path

from conftest import write_toy_corpus, write_vectors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    words = write_toy_corpus(tmp_path)
    # the example distills to 50 dims, so the vectors must be wider
    write_vectors(tmp_path / "vecs.txt", words, dim=60)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    model, small_table = namespace["model"], namespace["small_table"]
    assert small_table.dim == 50
    assert small_table.vocab is model.embedding.vocab
    assert 0.0 <= namespace["result"].test_accuracy <= 1.0
