import json
import struct

import numpy as np
import pytest

from embdistill.cli import main

from conftest import write_toy_corpus, write_vectors


def run_cli(*argv):
    return main([str(a) for a in argv])


def prepare(corpus, out, mode="all_phrases"):
    code = run_cli(
        "prepare",
        "--train", corpus / "train.txt",
        "--valid", corpus / "valid.txt",
        "--test", corpus / "test.txt",
        "--mode", mode,
        "--out", out,
    )
    assert code == 0
    return out


def scrub_seconds(obj):
    """Timing fields are the only non-deterministic part of result files."""
    if isinstance(obj, dict):
        return {k: (0.0 if k == "seconds" else scrub_seconds(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [scrub_seconds(v) for v in obj]
    return obj


FAST = ["--lr", "0.5", "--decay", "constant", "--dropout", "0.0",
        "--epochs", "2", "--batch-size", "8", "--seeds", "0,1"]


class TestPrepare:
    def test_counts_match_hand_count(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "train.txt").write_text("(3 (2 A) (4 B))\n(1 X)\n(2 (1 a) (2 b) (3 c))\n")
        (corpus / "valid.txt").write_text("(3 (2 A) (4 B))\n")
        (corpus / "test.txt").write_text("(0 X)\n")
        prepare(corpus, tmp_path / "data")
        out = capsys.readouterr().out
        # nodes: 3 + 1 + 4 = 8 phrase samples over 3 trees
        assert "3 trees, 3 sentence samples, 8 phrase samples" in out
        assert "vocab: 7 tokens" in out  # A B X a b c + <unk>
        vocab = (tmp_path / "data" / "vocab.txt").read_text().splitlines()
        assert vocab == ["A", "B", "X", "a", "b", "c", "<unk>"]
        train = (tmp_path / "data" / "train.samples").read_text().splitlines()
        assert len(train) == 8
        assert train[0] == "3\t0 1"

    def test_rerun_is_byte_identical(self, toy_corpus, tmp_path):
        out1 = prepare(toy_corpus, tmp_path / "d1")
        out2 = prepare(toy_corpus, tmp_path / "d2")
        for name in ["vocab.txt", "train.samples", "train_sentence.samples",
                     "valid.samples", "test.samples", "meta.json"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_corrupt_line_no_partial_cache(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "train.txt").write_text("(3 (2 A) (4 B)\n")  # unbalanced
        (corpus / "valid.txt").write_text("(1 X)\n")
        (corpus / "test.txt").write_text("(1 X)\n")
        out = tmp_path / "data"
        code = run_cli(
            "prepare", "--train", corpus / "train.txt", "--valid", corpus / "valid.txt",
            "--test", corpus / "test.txt", "--out", out,
        )
        assert code == 3
        assert not (out / "train.samples").exists()
        assert "train.txt:1" in capsys.readouterr().err

    def test_missing_file_exit_3(self, tmp_path, capsys):
        code = run_cli(
            "prepare", "--train", tmp_path / "absent.txt",
            "--valid", tmp_path / "absent.txt", "--test", tmp_path / "absent.txt",
            "--out", tmp_path / "data",
        )
        assert code == 3
        assert "absent.txt" in capsys.readouterr().err


class TestTrainAndEval:
    def test_direct_training_end_to_end(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        out = tmp_path / "direct"
        code = run_cli(
            "train", "--data", data, "--regime", "direct",
            "--embeddings", toy_corpus / "small_vecs.txt", "--hidden", "5", *FAST,
            "--out", out,
        )
        assert code == 0
        assert (out / "best.mdl").exists()
        result = json.loads((out / "result.json").read_text())
        assert result["regime"] == "direct_small"
        assert len(result["aggregate"]["trials"]) == 2
        assert result["deployed_parameters"] > 0
        stdout = capsys.readouterr().out
        assert "test accuracy" in stdout

    def test_zero_lr_warns_and_leaves_model_at_init(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        out = tmp_path / "zero"
        code = run_cli(
            "train", "--data", data, "--regime", "direct", "--embed-dim", "4",
            "--lr", "0", "--decay", "constant", "--dropout", "0.0",
            "--epochs", "2", "--batch-size", "8", "--seeds", "0", "--hidden", "4",
            "--out", out,
        )
        assert code == 0
        assert "warning: learning rate 0" in capsys.readouterr().out
        result = json.loads((out / "result.json").read_text())
        trial = result["aggregate"]["trials"][0]
        # nothing moved: same per-sample losses (up to summation order)
        # and identical validation accuracy every epoch
        assert trial["train_losses"][0] == pytest.approx(trial["train_losses"][1], abs=1e-12)
        assert trial["valid_accuracies"][0] == trial["valid_accuracies"][1]

    def test_eval_is_deterministic(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        out = tmp_path / "direct"
        run_cli("train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                "--hidden", "5", *FAST, "--out", out)
        capsys.readouterr()
        assert run_cli("eval", "--model", out / "best.mdl", "--data", data,
                       "--split", "test") == 0
        first = capsys.readouterr().out
        run_cli("eval", "--model", out / "best.mdl", "--data", data, "--split", "test")
        assert capsys.readouterr().out == first
        assert first.startswith("test accuracy: ")

    def test_no_stderr_on_success(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        out = tmp_path / "direct"
        run_cli("train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                "--hidden", "5", *FAST, "--out", out)
        run_cli("eval", "--model", out / "best.mdl", "--data", data, "--split", "valid")
        assert capsys.readouterr().err == ""

    def test_divergence_exit_4(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(
                "train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                "--lr", "1e200", "--decay", "constant", "--dropout", "0.0",
                "--epochs", "2", "--batch-size", "8", "--seeds", "0",
                "--out", tmp_path / "x",
            )
        assert code == 4
        assert "error" in capsys.readouterr().err

    def test_missing_required_option_exit_2(self, capsys):
        assert run_cli("train", "--regime", "direct") == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_decay_scheme_exit_2_before_output(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        out = tmp_path / "direct"
        code = run_cli("train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                       *FAST, "--decay", "constant,cosine", "--out", out)
        assert code == 2
        assert "unknown decay scheme 'cosine'" in capsys.readouterr().err
        assert not out.exists()


class TestDistillPipeline:
    def test_distill_fold_eval_equivalence(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        out = tmp_path / "enc"
        code = run_cli(
            "distill", "--data", data, "--embeddings", toy_corpus / "large_vecs.txt",
            "--distill-dim", "4", "--hidden", "5", *FAST, "--out", out,
        )
        assert code == 0
        assert (out / "folded.mdl").exists()
        result = json.loads((out / "result.json").read_text())
        assert result["regime"] == "encoding_distill"

        capsys.readouterr()
        run_cli("eval", "--model", out / "best.mdl", "--data", data, "--split", "test")
        live = capsys.readouterr().out
        run_cli("eval", "--model", out / "folded.mdl", "--data", data, "--split", "test")
        folded = capsys.readouterr().out
        assert live == folded

        # folding via the dedicated command matches the pipeline's output
        refolded = tmp_path / "refolded.mdl"
        assert run_cli("fold", "--model", out / "best.mdl", "--out", refolded) == 0
        assert refolded.read_bytes() == (out / "folded.mdl").read_bytes()

    def test_deployed_count_smaller_than_live(self, toy_corpus, tmp_path):
        data = prepare(toy_corpus, tmp_path / "data")
        out = tmp_path / "enc"
        run_cli("distill", "--data", data, "--embeddings", toy_corpus / "large_vecs.txt",
                "--distill-dim", "4", "--hidden", "5", *FAST, "--out", out)
        result = json.loads((out / "result.json").read_text())
        folded_size = (out / "folded.mdl").stat().st_size
        live_size = (out / "best.mdl").stat().st_size
        assert folded_size < live_size
        assert result["deployed_parameters"] > 0


class TestTeacherAndSoftTargets:
    def test_teacher_then_soft_targets_then_matching(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        tdir = tmp_path / "teacher"
        code = run_cli(
            "teacher", "--data", data, "--embeddings", toy_corpus / "large_vecs.txt",
            "--hidden", "8", "--lr", "0.5", "--epochs", "4", "--batch-size", "8",
            "--out", tdir,
        )
        assert code == 0
        assert (tdir / "teacher.mdl").exists()

        sdir = tmp_path / "soft"
        code = run_cli(
            "soft-targets", "--data", data, "--teacher", tdir / "teacher.mdl",
            "--temperature", "2", "--out", sdir,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "soft targets at T=2" in out

        mdir = tmp_path / "ms"
        code = run_cli(
            "train", "--data", data, "--regime", "matching-softmax",
            "--embed-dim", "4", "--hidden", "5",
            "--soft-targets", sdir / "soft_targets.sft", "--temperature", "2",
            *FAST, "--out", mdir,
        )
        assert code == 0
        result = json.loads((mdir / "result.json").read_text())
        assert result["regime"] == "matching_softmax"
        assert result["temperature"] == 2.0

    def test_sentences_only_restricts_targets_and_training(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        n_sentences = len((data / "train_sentence.samples").read_text().splitlines())
        n_phrases = len((data / "train.samples").read_text().splitlines())
        assert n_sentences < n_phrases
        tdir = tmp_path / "teacher"
        run_cli("teacher", "--data", data, "--embeddings", toy_corpus / "large_vecs.txt",
                "--hidden", "6", "--lr", "0.5", "--epochs", "2", "--batch-size", "8",
                "--out", tdir)
        sdir = tmp_path / "soft"
        run_cli("soft-targets", "--data", data, "--teacher", tdir / "teacher.mdl",
                "--temperature", "2", "--sentences-only", "--out", sdir)
        out = capsys.readouterr().out
        assert f"wrote {n_sentences} soft targets" in out
        # matching training must use the matching sample set
        mdir = tmp_path / "ms"
        code = run_cli(
            "train", "--data", data, "--regime", "matching-softmax",
            "--embed-dim", "4", "--hidden", "4", "--sentences-only",
            "--soft-targets", sdir / "soft_targets.sft", "--temperature", "2",
            *FAST, "--out", mdir,
        )
        assert code == 0
        # and mismatched sets are rejected up front
        code = run_cli(
            "train", "--data", data, "--regime", "matching-softmax",
            "--embed-dim", "4", "--hidden", "4",
            "--soft-targets", sdir / "soft_targets.sft", "--temperature", "2",
            *FAST, "--out", tmp_path / "bad",
        )
        assert code == 2

    def test_soft_target_cache_idempotent(self, toy_corpus, tmp_path):
        data = prepare(toy_corpus, tmp_path / "data")
        tdir = tmp_path / "teacher"
        run_cli("teacher", "--data", data, "--embeddings", toy_corpus / "large_vecs.txt",
                "--hidden", "6", "--lr", "0.5", "--epochs", "2", "--batch-size", "8",
                "--out", tdir)
        s1, s2 = tmp_path / "s1", tmp_path / "s2"
        for sdir in (s1, s2):
            run_cli("soft-targets", "--data", data, "--teacher", tdir / "teacher.mdl",
                    "--temperature", "2", "--out", sdir)
        assert (s1 / "soft_targets.sft").read_bytes() == (s2 / "soft_targets.sft").read_bytes()


@pytest.fixture(scope="module")
def bench_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    corpus = tmp / "corpus"
    corpus.mkdir()
    words = write_toy_corpus(corpus, n_train=40, n_eval=400, length=8, seed=3)
    write_vectors(corpus / "large_vecs.txt", words, dim=24, seed=4)
    data = prepare(corpus, tmp / "data")
    enc = tmp / "enc"
    run_cli("distill", "--data", data, "--embeddings", corpus / "large_vecs.txt",
            "--distill-dim", "4", "--hidden", "4", "--lr", "0.5",
            "--decay", "constant", "--dropout", "0.0", "--epochs", "1",
            "--batch-size", "8", "--seeds", "0", "--out", enc)
    return data, enc


class TestBench:
    def test_self_comparison_near_unity(self, bench_setup, tmp_path, capsys):
        data, enc = bench_setup
        code = run_cli("bench", "--large", enc / "best.mdl", "--small", enc / "best.mdl",
                       "--data", data, "--reps", "5", "--out", tmp_path / "b.json")
        assert code == 0
        payload = json.loads((tmp_path / "b.json").read_text())
        assert 0.9 <= payload["relative_time"] <= 1.1

    def test_folded_model_is_faster(self, bench_setup, tmp_path):
        data, enc = bench_setup
        run_cli("bench", "--large", enc / "best.mdl", "--small", enc / "folded.mdl",
                "--data", data, "--reps", "5", "--out", tmp_path / "b.json")
        payload = json.loads((tmp_path / "b.json").read_text())
        assert payload["relative_time"] < 1.0

    def test_repeat_benchmarks_agree(self, bench_setup, tmp_path):
        data, enc = bench_setup
        ratios = []
        for name in ("b1.json", "b2.json"):
            run_cli("bench", "--large", enc / "best.mdl", "--small", enc / "folded.mdl",
                    "--data", data, "--reps", "5", "--out", tmp_path / name)
            ratios.append(json.loads((tmp_path / name).read_text())["relative_time"])
        assert abs(ratios[0] - ratios[1]) / max(ratios) < 0.2

    def test_batched_relative_time_reported(self, bench_setup, tmp_path):
        data, enc = bench_setup
        code = run_cli("bench", "--large", enc / "best.mdl", "--small", enc / "folded.mdl",
                       "--data", data, "--reps", "3", "--out", tmp_path / "b.json")
        assert code == 0
        payload = json.loads((tmp_path / "b.json").read_text())
        assert payload["relative_time_batched"] > 0

    def test_too_few_reps_is_config_error(self, bench_setup, tmp_path, capsys):
        data, enc = bench_setup
        code = run_cli("bench", "--large", enc / "best.mdl", "--small", enc / "best.mdl",
                       "--data", data, "--reps", "2")
        assert code == 2


class TestCompare:
    def _results(self, toy_corpus, tmp_path):
        data = prepare(toy_corpus, tmp_path / "data")
        paths = {}
        run_cli("train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                "--hidden", "5", *FAST, "--out", tmp_path / "direct")
        paths["direct"] = tmp_path / "direct" / "result.json"
        run_cli("distill", "--data", data, "--embeddings", toy_corpus / "large_vecs.txt",
                "--distill-dim", "4", "--hidden", "5", *FAST, "--out", tmp_path / "enc")
        paths["enc"] = tmp_path / "enc" / "result.json"
        return data, paths

    def test_full_report_has_three_rows(self, toy_corpus, tmp_path, capsys):
        data, paths = self._results(toy_corpus, tmp_path)
        out = tmp_path / "report"
        code = run_cli("compare", "--results", paths["direct"], paths["enc"], "--out", out)
        assert code == 0
        tsv = (out / "report.tsv").read_text()
        lines = [l for l in tsv.splitlines() if not l.startswith("#")]
        assert lines[0].split("\t")[0] == "method"
        rows = {l.split("\t")[0]: l for l in lines[1:]}
        assert "MISSING" in rows["matching_softmax"]
        assert "MISSING" not in rows["direct_small"]
        assert "MISSING" not in rows["encoding_distill"]
        txt = (out / "report.txt").read_text()
        assert "±" in txt
        assert "(missing)" in txt

    def test_single_regime_marks_two_missing(self, toy_corpus, tmp_path):
        data, paths = self._results(toy_corpus, tmp_path)
        out = tmp_path / "solo"
        run_cli("compare", "--results", paths["direct"], "--out", out)
        tsv = (out / "report.tsv").read_text()
        assert tsv.count("MISSING") == 8  # two rows of four marked cells

    def test_report_recompute_identical_bytes(self, toy_corpus, tmp_path):
        data, paths = self._results(toy_corpus, tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("compare", "--results", paths["direct"], paths["enc"], "--out", out1)
        run_cli("compare", "--results", paths["direct"], paths["enc"], "--out", out2)
        assert (out1 / "report.tsv").read_bytes() == (out2 / "report.tsv").read_bytes()
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()

    def test_report_includes_bench_and_provenance(self, toy_corpus, tmp_path):
        data, paths = self._results(toy_corpus, tmp_path)
        bench = {"relative_time": 0.25, "reps": 5, "corpus_size": 20,
                 "large_seconds": 0.4, "small_seconds": 0.1,
                 "large_parameters": 100, "small_parameters": 25}
        bpath = tmp_path / "bench.json"
        bpath.write_text(json.dumps(bench))
        out = tmp_path / "report"
        run_cli("compare", "--results", paths["direct"], paths["enc"],
                "--bench", bpath, "--out", out)
        tsv = (out / "report.tsv").read_text()
        assert "relative_time\t0.250000" in tsv
        assert "# toolkit: embdistill" in tsv
        assert "seeds=[0, 1]" in tsv
        txt = (out / "report.txt").read_text()
        assert "0.25x" in txt

    def test_duplicate_regime_rejected(self, toy_corpus, tmp_path, capsys):
        data, paths = self._results(toy_corpus, tmp_path)
        code = run_cli("compare", "--results", paths["direct"], paths["direct"],
                       "--out", tmp_path / "dup")
        assert code == 2


class TestErrorContract:
    """Bad input files end in a data error (exit 3), never a traceback."""

    def _trained(self, toy_corpus, tmp_path):
        data = prepare(toy_corpus, tmp_path / "data")
        out = tmp_path / "direct"
        assert run_cli("train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                       "--hidden", "5", *FAST, "--out", out) == 0
        return data, out

    def test_compare_result_without_aggregate_exit_3(self, toy_corpus, tmp_path, capsys):
        _, out = self._trained(toy_corpus, tmp_path)
        result = json.loads((out / "result.json").read_text())
        del result["aggregate"]
        bad = tmp_path / "result.json"
        bad.write_text(json.dumps(result))
        capsys.readouterr()
        assert run_cli("compare", "--results", bad, "--out", tmp_path / "report") == 3
        assert "aggregate" in capsys.readouterr().err

    def test_compare_invalid_json_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "result.json"
        bad.write_text('{"regime": "direct_small", ')
        assert run_cli("compare", "--results", bad, "--out", tmp_path / "report") == 3
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["999", "-1"])
    def test_eval_out_of_vocabulary_token_exit_3(self, toy_corpus, tmp_path, capsys, token):
        data, out = self._trained(toy_corpus, tmp_path)
        test_file = data / "test.samples"
        lines = test_file.read_text().splitlines()
        label, tokens = lines[1].split("\t")
        lines[1] = f"{label}\t{tokens} {token}"
        test_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("eval", "--model", out / "best.mdl", "--data", data) == 3
        err = capsys.readouterr().err
        assert f"test.samples:2: token id {token}" in err


    def _set_label(self, path, line, label):
        lines = path.read_text().splitlines()
        tokens = lines[line - 1].split("\t")[1]
        lines[line - 1] = f"{label}\t{tokens}"
        path.write_text("\n".join(lines) + "\n")

    def test_train_label_outside_classes_exit_3(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        self._set_label(data / "train.samples", 3, 9)
        capsys.readouterr()
        assert run_cli("train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                       "--hidden", "5", *FAST, "--out", tmp_path / "direct") == 3
        assert "train.samples:3: label 9 outside 0..4" in capsys.readouterr().err

    def test_eval_label_outside_classes_exit_3(self, toy_corpus, tmp_path, capsys):
        data, out = self._trained(toy_corpus, tmp_path)
        self._set_label(data / "test.samples", 2, -1)
        capsys.readouterr()
        assert run_cli("eval", "--model", out / "best.mdl", "--data", data) == 3
        assert "test.samples:2: label -1 outside 0..4" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "valid"])
    def test_empty_prepared_split_exit_3(self, toy_corpus, tmp_path, capsys, split):
        data = prepare(toy_corpus, tmp_path / "data")
        (data / f"{split}.samples").write_text("")
        capsys.readouterr()
        assert run_cli("train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                       "--hidden", "5", *FAST, "--out", tmp_path / "direct") == 3
        assert f"{split}.samples: no samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "teacher"])
    def test_classes_below_the_labels_exit_2(self, toy_corpus, tmp_path, capsys, command):
        data = prepare(toy_corpus, tmp_path / "data")
        inputs = {
            "train": ["--regime", "direct", "--embed-dim", "4", *FAST],
            "teacher": ["--embeddings", toy_corpus / "large_vecs.txt", "--epochs", "1"],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(command, "--data", data, *inputs, "--classes", "3", "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "error: the model has 3 classes, but the data has label 4\n"
        assert not list(out.rglob("*.log")) and not list(out.rglob("*.mdl"))

    def test_duplicate_table_token_exit_3(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        table = tmp_path / "dup.emb"
        blob = b"EMB1" + struct.pack("<II", 3, 1)
        for token in (b"w0x0", b"w0x0", b"<unk>"):
            blob += struct.pack("<I", len(token)) + token
        table.write_bytes(blob + bytes(12))
        capsys.readouterr()
        assert run_cli("train", "--data", data, "--regime", "direct", "--embeddings", table,
                       *FAST, "--out", tmp_path / "out") == 3
        assert f"{table}: duplicate vocabulary token 'w0x0'" in capsys.readouterr().err

    def test_duplicate_vocab_line_exit_3(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        vocab_file = data / "vocab.txt"
        words = vocab_file.read_text().splitlines()
        vocab_file.write_text("\n".join(words + [words[0]]) + "\n")
        capsys.readouterr()
        assert run_cli("train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                       "--hidden", "5", *FAST, "--out", tmp_path / "direct") == 3
        err = capsys.readouterr().err
        assert f"vocab.txt:{len(words) + 1}: duplicate vocabulary token {words[0]!r}" in err

    def test_non_finite_vector_value_exit_3(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        vectors = tmp_path / "nan.txt"
        lines = (toy_corpus / "small_vecs.txt").read_text().splitlines()
        token, *values = lines[4].split()
        lines[4] = " ".join([token, "nan", *values[1:]])
        vectors.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("train", "--data", data, "--regime", "direct", "--embeddings", vectors,
                       *FAST, "--out", tmp_path / "out") == 3
        assert capsys.readouterr().err == f"error: {vectors}:5: non-finite vector value\n"

    def test_table_declaring_more_than_the_file_holds_exit_3(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        table = tmp_path / "huge.emb"
        header = struct.pack("<III", 1, 2**32 - 1, 5)
        table.write_bytes(b"EMB1" + header + b"<unk>" + bytes(8))
        capsys.readouterr()
        assert run_cli("train", "--data", data, "--regime", "direct", "--embeddings", table,
                       *FAST, "--out", tmp_path / "out") == 3
        assert capsys.readouterr().err == f"error: {table}: truncated while reading matrix\n"


class TestNonUtf8Inputs:
    """A text input with bytes that are not UTF-8 is a typed error naming
    the file: a data error, or a configuration error for --config."""

    @pytest.mark.parametrize("kind, code", [
        ("tree", 3), ("vectors", 3), ("vocab", 3), ("samples", 3), ("config", 2),
        ("compare", 3),
    ])
    def test_exit_code_names_the_file(self, toy_corpus, tmp_path, capsys, kind, code):
        data = prepare(toy_corpus, tmp_path / "data")
        train = ["train", "--data", data, "--regime", "direct", "--embed-dim", "4", *FAST,
                 "--out", tmp_path / "out"]
        json_file = tmp_path / "input.json"
        json_file.write_text('{"regime": "direct"}\n')
        bad, argv = {
            "tree": (toy_corpus / "valid.txt",
                     ["prepare", "--train", toy_corpus / "train.txt", "--valid",
                      toy_corpus / "valid.txt", "--test", toy_corpus / "test.txt",
                      "--out", tmp_path / "again"]),
            "vectors": (toy_corpus / "small_vecs.txt",
                        ["train", "--data", data, "--regime", "direct", "--embeddings",
                         toy_corpus / "small_vecs.txt", *FAST, "--out", tmp_path / "out"]),
            "vocab": (data / "vocab.txt", train),
            "samples": (data / "train.samples", train),
            "config": (json_file, ["train", "--config", json_file]),
            "compare": (json_file, ["compare", "--results", json_file,
                                    "--out", tmp_path / "report"]),
        }[kind]
        bad.write_bytes(bad.read_bytes() + "café\n".encode("latin-1"))
        capsys.readouterr()
        assert run_cli(*argv) == code
        assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err


class TestUnparsableNumbers:
    """A numeric flag or config value that does not parse is a
    configuration error (exit 2) naming the option, raised before any
    output is written."""

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--lr", "abc"),
        ("train", "--seeds", "a"),
        ("teacher", "--lr", "0.3,0.1"),
    ])
    def test_bad_flag_value_exit_2(self, toy_corpus, tmp_path, capsys, command, flag, value):
        data = prepare(toy_corpus, tmp_path / "data")
        inputs = {
            "train": ["--regime", "direct", "--embed-dim", "4", *FAST],
            "teacher": ["--embeddings", toy_corpus / "large_vecs.txt"],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(command, "--data", data, *inputs, flag, value, "--out", out) == 2
        assert f"{flag}: cannot read '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_file_value_exit_2(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"data": str(data), "regime": "direct", "embed_dim": 4,
                                        "lr": "x", "out": str(tmp_path / "out")}))
        capsys.readouterr()
        assert run_cli("train", "--config", cfg_path) == 2
        assert "--lr: cannot read 'x' as float" in capsys.readouterr().err

    def test_null_config_value_takes_the_default(self, toy_corpus, tmp_path):
        data = prepare(toy_corpus, tmp_path / "data")
        cfg = {"data": str(data), "embeddings": str(toy_corpus / "large_vecs.txt"),
               "lr": None, "epochs": 1, "out": str(tmp_path / "t")}
        cfg_path = tmp_path / "teacher.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("teacher", "--config", cfg_path) == 0
        result = json.loads((tmp_path / "t" / "teacher_result.json").read_text())
        assert result["config"]["learning_rate"] == 0.3


class TestDeterminism:
    def test_train_twice_bit_identical(self, toy_corpus, tmp_path):
        data = prepare(toy_corpus, tmp_path / "data")
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            run_cli("train", "--data", data, "--regime", "direct",
                    "--embeddings", toy_corpus / "small_vecs.txt",
                    "--hidden", "5", *FAST, "--out", out)
            outs.append(out)
        a, b = outs
        assert (a / "best.mdl").read_bytes() == (b / "best.mdl").read_bytes()
        ra = scrub_seconds(json.loads((a / "result.json").read_text()))
        rb = scrub_seconds(json.loads((b / "result.json").read_text()))
        assert ra == rb

    def test_parallel_jobs_reproduce_sequential_artifacts(self, toy_corpus, tmp_path):
        data = prepare(toy_corpus, tmp_path / "data")
        outs = []
        for name, jobs in (("seq", "1"), ("par", "2")):
            out = tmp_path / name
            run_cli("train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                    "--hidden", "5", "--lr", "0.5,0.1", "--decay", "constant",
                    "--dropout", "0.0", "--epochs", "2", "--batch-size", "8",
                    "--seeds", "0,1", "--jobs", jobs, "--out", out)
            outs.append(out)
        assert (outs[0] / "best.mdl").read_bytes() == (outs[1] / "best.mdl").read_bytes()
        ra = scrub_seconds(json.loads((outs[0] / "result.json").read_text()))
        rb = scrub_seconds(json.loads((outs[1] / "result.json").read_text()))
        assert ra == rb

    def test_config_file_with_flag_override(self, toy_corpus, tmp_path):
        data = prepare(toy_corpus, tmp_path / "data")
        cfg = {
            "data": str(data),
            "regime": "direct",
            "embed_dim": 4,
            "hidden": 5,
            "lr": "0.5",
            "decay": "constant",
            "dropout": "0.0",
            "epochs": 2,
            "batch_size": 8,
            "seeds": "0,1",
            "out": str(tmp_path / "from_config"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("train", "--config", cfg_path) == 0
        result = json.loads((tmp_path / "from_config" / "result.json").read_text())
        assert result["protocol"]["max_epochs"] == 2

        # a flag overrides the file value
        assert run_cli("train", "--config", cfg_path, "--epochs", "1",
                       "--out", tmp_path / "override") == 0
        result2 = json.loads((tmp_path / "override" / "result.json").read_text())
        assert result2["protocol"]["max_epochs"] == 1

    def test_bad_config_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert run_cli("train", "--config", bad) == 2
