import json
import struct
import warnings

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

    def test_tree_nested_deeper_than_the_interpreter_stack(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "train.txt").write_text("(0 " * 4999 + "(1 deep)" + ")" * 4999 + "\n")
        (corpus / "valid.txt").write_text("(1 deep)\n")
        (corpus / "test.txt").write_text("(1 deep)\n")
        data = prepare(corpus, tmp_path / "data")
        assert "1 trees, 1 sentence samples, 5000 phrase samples" in capsys.readouterr().out
        train = (data / "train.samples").read_text().splitlines()
        assert train == ["0\t0"] * 4999 + ["1\t0"]
        assert (data / "train_sentence.samples").read_text() == "0\t0\n"

    def test_deep_unbalanced_line_exit_3_no_output(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        corpus.mkdir()
        line = "(0 " * 4999 + "(1 deep)" + ")" * 4998
        (corpus / "train.txt").write_text("(1 x)\n" + line + "\n")
        (corpus / "valid.txt").write_text("(1 x)\n")
        (corpus / "test.txt").write_text("(1 x)\n")
        out = tmp_path / "data"
        code = run_cli("prepare", "--train", corpus / "train.txt", "--valid",
                       corpus / "valid.txt", "--test", corpus / "test.txt", "--out", out)
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == (f"error: {corpus / 'train.txt'}:2: byte {len(line)}: "
                       "unbalanced parentheses (expected ')')\n")

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

    @pytest.mark.parametrize("lr", ["1e150", "1e300"])
    def test_parameters_beyond_float32_exit_4(self, tmp_path, capsys, lr):
        # one batch and one epoch: the loss is finite before the only update
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_toy_corpus(corpus, n_train=30)
        data = prepare(corpus, tmp_path / "data", mode="sentence_only")
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                           "--lr", lr, "--epochs", "1", "--decay", "constant",
                           "--dropout", "0.0", "--seeds", "0", "--out", out)
        assert code == 4
        assert "exceeds the float32 range" in capsys.readouterr().err
        assert not (out / "best.mdl").exists()

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


    def test_eval_on_data_with_other_word_order_exit_2(self, tmp_path, capsys):
        # both corpora prepare the same words, in a different order
        for seed in (0, 5):
            corpus = tmp_path / f"corpus{seed}"
            corpus.mkdir()
            write_toy_corpus(corpus, seed=seed)
            prepare(corpus, tmp_path / f"data{seed}")
        words = [(tmp_path / f"data{seed}" / "vocab.txt").read_text().split() for seed in (0, 5)]
        assert sorted(words[0]) == sorted(words[1]) and words[0] != words[1]
        first = next(i for i, (a, b) in enumerate(zip(*words)) if a != b)
        out = tmp_path / "direct"
        assert run_cli("train", "--data", tmp_path / "data0", "--regime", "direct",
                       "--embed-dim", "4", "--hidden", "5", *FAST, "--out", out) == 0
        capsys.readouterr()
        assert run_cli("eval", "--model", out / "best.mdl", "--data", tmp_path / "data5") == 2
        err = capsys.readouterr().err
        assert f"they first differ at position {first}" in err


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


class TestCheckedBeforeReading:
    """``--split`` and ``--reps`` are refused (exit 2) before any model or
    data file is read, with one message per option."""

    @pytest.mark.parametrize("command, argv, message", [
        ("eval", ["--split", "nope"],
         "unknown split 'nope', expected one of ['test', 'train', 'valid']"),
        ("bench", ["--split", "nope"],
         "unknown split 'nope', expected one of ['test', 'train', 'valid']"),
        ("bench", ["--reps", "2"], "--reps: must be >= 3, got 2"),
    ])
    def test_exit_2_on_missing_files(self, tmp_path, capsys, command, argv, message):
        missing = tmp_path / "missing.mdl"
        models = (["--model", missing] if command == "eval"
                  else ["--large", missing, "--small", missing])
        assert run_cli(command, *models, "--data", tmp_path / "no-data", *argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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

    @staticmethod
    def _fixed_result(path, tag, mean, std, restart, params, lrs):
        """A result file with the fields ``compare`` reads, no training needed."""
        path.write_text(json.dumps({
            "regime": tag,
            "aggregate": {"mean_accuracy": mean, "std_accuracy": std,
                          "restart_test_accuracy": restart, "seeds": [0, 1, 2]},
            "protocol": {"learning_rates": lrs, "decay_schemes": ["constant", "inverse"],
                         "dropout_rates": [0.0, 0.1], "batch_size": 200, "max_epochs": 30},
            "deployed_parameters": params,
        }))
        return path

    def test_report_bytes(self, tmp_path):
        enc = self._fixed_result(tmp_path / "enc.json", "encoding_distill",
                                 0.4625, 0.0125, 0.475, 1234567, [1.0, 0.3])
        direct = self._fixed_result(tmp_path / "direct.json", "direct_small",
                                    0.40000001, 0.02, 0.3875, 9876, [0.1])
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"relative_time": 0.2345678,
                                     "relative_time_batched": 0.0654321,
                                     "reps": 5, "corpus_size": 40}))
        out = tmp_path / "report"
        assert run_cli("compare", "--results", enc, direct, "--bench", bench,
                       "--out", out) == 0
        provenance = [
            "toolkit: embdistill 0.1.0",
            "direct_small: seeds=[0, 1, 2] lrs=[0.1] decay_schemes=['constant', 'inverse']"
            " dropouts=[0.0, 0.1] batch=200 epochs=30",
            "encoding_distill: seeds=[0, 1, 2] lrs=[1.0, 0.3]"
            " decay_schemes=['constant', 'inverse'] dropouts=[0.0, 0.1] batch=200 epochs=30",
            "bench: reps=5 corpus=40 samples",
        ]
        assert (out / "report.tsv").read_text() == "".join(f"# {p}\n" for p in provenance) + (
            "method\tmean_accuracy\tstd_accuracy\trestart_accuracy\tdeployed_parameters\n"
            "direct_small\t40.0\t2.0\t38.8\t9876\n"
            "matching_softmax\tMISSING\tMISSING\tMISSING\tMISSING\n"
            "encoding_distill\t46.2\t1.2\t47.5\t1234567\n"
            "relative_time\t0.234568\n"
            "relative_time_batched\t0.065432\n"
        )
        assert (out / "report.txt").read_text() == "".join(f"{p}\n" for p in provenance) + (
            "\n"
            "method                  mean acc (%)    restart acc (%)    deployed params\n"
            "--------------------------------------------------------------------------\n"
            "Direct small network    40.0 ± 2.0      38.8                         9,876\n"
            "Matching softmax        (missing)\n"
            "Encoding distillation   46.2 ± 1.2      47.5                     1,234,567\n"
            "\n"
            "relative inference time, per-sample predict (small / large): 0.23x\n"
            "relative inference time, batched evaluation (small / large): 0.07x\n"
        )

    @pytest.mark.parametrize("tag", ["encoding", None])
    def test_unknown_regime_tag_exit_3(self, tmp_path, capsys, tag):
        good = self._fixed_result(tmp_path / "direct.json", "direct_small",
                                  0.4, 0.02, 0.39, 9876, [0.1])
        bad = self._fixed_result(tmp_path / "enc.json", tag, 0.46, 0.01, 0.47, 98, [0.3])
        out = tmp_path / "report"
        capsys.readouterr()
        assert run_cli("compare", "--results", good, bad, "--out", out) == 3
        err = capsys.readouterr().err
        assert f"{bad}: unknown regime {tag!r}" in err
        assert "direct_small, matching_softmax, encoding_distill" in err
        assert not out.exists()

    @pytest.mark.parametrize("mean, params", [("0.4", 9876), (0.4, "many")])
    def test_malformed_value_exit_3(self, tmp_path, capsys, mean, params):
        path = self._fixed_result(tmp_path / "direct.json", "direct_small",
                                  mean, 0.02, 0.39, params, [0.1])
        out = tmp_path / "report"
        capsys.readouterr()
        assert run_cli("compare", "--results", path, "--out", out) == 3
        assert "malformed result or bench file" in capsys.readouterr().err
        assert not out.exists()

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
        assert not out.exists()

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

    def test_soft_targets_outside_unit_interval_exit_3(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        n = len((data / "train.samples").read_text().splitlines())
        bad = tmp_path / "bad.sft"
        bad.write_bytes(b"SFT1" + struct.pack("<IIf", n, 5, 2.0)
                        + struct.pack("<5f", 1.5, -0.5, 0, 0, 0) * n)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("train", "--data", data, "--regime", "matching-softmax",
                       "--embed-dim", "4", "--soft-targets", bad, *FAST, "--out", out) == 3
        assert capsys.readouterr().err == (
            f"error: {bad}: soft target row 0 has value 1.5 outside [0, 1]\n")
        assert not out.exists()

    def test_soft_targets_with_an_all_zero_row_exit_3(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        n = len((data / "train.samples").read_text().splitlines())
        bad = tmp_path / "zero.sft"
        bad.write_bytes(b"SFT1" + struct.pack("<IIf", n, 5, 2.0) + bytes(20 * n))
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would reach stderr
            assert run_cli("train", "--data", data, "--regime", "matching-softmax",
                           "--embed-dim", "4", "--soft-targets", bad, *FAST, "--out", out) == 3
        assert capsys.readouterr().err == (
            f"error: {bad}: soft target row 0 sums to 0.0, expected 1\n")
        assert not out.exists()

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

    def test_teacher_width_is_read_before_output(self, toy_corpus, tmp_path, capsys):
        data = prepare(toy_corpus, tmp_path / "data")
        cfg_path = tmp_path / "teacher.json"
        cfg_path.write_text(json.dumps({"hidden": "wide"}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("teacher", "--config", cfg_path, "--data", data,
                       "--embeddings", toy_corpus / "large_vecs.txt", "--out", out) == 2
        assert "--hidden: cannot read 'wide' as int" in capsys.readouterr().err
        assert not out.exists()

    def test_null_config_value_takes_the_default(self, toy_corpus, tmp_path):
        data = prepare(toy_corpus, tmp_path / "data")
        cfg = {"data": str(data), "embeddings": str(toy_corpus / "large_vecs.txt"),
               "lr": None, "epochs": 1, "out": str(tmp_path / "t")}
        cfg_path = tmp_path / "teacher.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("teacher", "--config", cfg_path) == 0
        result = json.loads((tmp_path / "t" / "teacher_result.json").read_text())
        assert result["config"]["learning_rate"] == 0.3


class TestOneConversionPath:
    """A flag string and a config-file value pass the same checks: an int
    option takes no fraction or boolean, an on/off option takes only JSON
    true/false, and a mistake is a configuration error (exit 2) naming
    the option, raised before any output is written."""

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", 1.9, "--epochs: cannot read 1.9 as int"),
        ("batch_size", 8.5, "--batch-size: cannot read 8.5 as int"),
        ("hidden", 3.7, "--hidden: cannot read 3.7 as int"),
        ("epochs", True, "--epochs: cannot read True as int"),
        ("seeds", [0, 1.5], "--seeds: cannot read 1.5 as int"),
        ("sentences_only", "false", "--sentences-only: expected true or false, got 'false'"),
    ])
    def test_train_config_value_exit_2(self, toy_corpus, tmp_path, capsys, key, value, message):
        data = prepare(toy_corpus, tmp_path / "data")
        out = tmp_path / "out"
        cfg = {"data": str(data), "regime": "direct", "embed_dim": 4, "lr": "0.5",
               "decay": "constant", "dropout": "0.0", "epochs": 1, "seeds": "0",
               "out": str(out)}
        cfg[key] = value
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run_cli("train", "--config", cfg_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_prepare_lowercase_string_exit_2(self, toy_corpus, tmp_path, capsys):
        cfg_path = tmp_path / "prepare.json"
        cfg_path.write_text(json.dumps({"lowercase": "false"}))
        out = tmp_path / "data"
        capsys.readouterr()
        assert run_cli("prepare", "--config", cfg_path, "--train", toy_corpus / "train.txt",
                       "--valid", toy_corpus / "valid.txt", "--test", toy_corpus / "test.txt",
                       "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: --lowercase: expected true or false, got 'false'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--regime", "direct", "--embed-dim", "4", "--epochs", "1.9"],
         "--epochs: cannot read '1.9' as int"),
        (["train", "--regime", "fast", "--embed-dim", "4"], "unknown regime 'fast' for train"),
        (["prepare", "--mode", "phrases"], "unknown mode 'phrases'"),
    ])
    def test_flag_value_exit_2(self, toy_corpus, tmp_path, capsys, argv, message):
        if argv[0] == "train":
            argv = [*argv, "--data", prepare(toy_corpus, tmp_path / "data")]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*argv, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def _valid_argv(command, data, enc, out):
    """Arguments on which ``command`` succeeds, given the bench fixture's
    prepared data and encoding run; outputs go to ``out``."""
    corpus = data.parent / "corpus"
    protocol = ["--lr", "0.5", "--decay", "constant", "--dropout", "0.0", "--epochs", "1",
                "--batch-size", "8", "--seeds", "0", "--hidden", "4"]
    return [command, *{
        "prepare": ["--train", corpus / "train.txt", "--valid", corpus / "valid.txt",
                    "--test", corpus / "test.txt", "--out", out],
        "teacher": ["--data", data, "--embeddings", corpus / "large_vecs.txt",
                    "--epochs", "1", "--out", out],
        "soft-targets": ["--data", data, "--teacher", enc / "best.mdl", "--out", out],
        "train": ["--data", data, "--embed-dim", "4", *protocol, "--out", out],
        "distill": ["--data", data, "--embeddings", corpus / "large_vecs.txt",
                    "--distill-dim", "4", *protocol, "--out", out],
        "fold": ["--model", enc / "best.mdl", "--out", out],
        "eval": ["--model", enc / "best.mdl", "--data", data],
        "bench": ["--large", enc / "best.mdl", "--small", enc / "folded.mdl",
                  "--data", data, "--reps", "3", "--out", out],
        "compare": ["--results", enc / "result.json", "--out", out],
    }[command]]


class TestOptionTables:
    """Each command takes the options it reads and no other: a flag it
    does not read is a usage error, and a config key it does not declare,
    or a config value of the wrong JSON type, is a configuration error
    (exit 2) raised before any output is written."""

    @pytest.mark.parametrize("command", ["prepare", "teacher", "soft-targets", "train",
                                         "distill", "fold", "eval", "bench", "compare"])
    def test_undeclared_config_key_exit_2(self, bench_setup, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"epoch": 1}))
        capsys.readouterr()
        assert run_cli(*_valid_argv(command, *bench_setup, out), "--config", cfg_path) == 2
        assert capsys.readouterr().err == f"error: {cfg_path}: {command} has no option 'epoch'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg, message", [
        ("eval", {"split": ["test"]}, "--split: cannot read ['test'] as str"),
        ("bench", {"split": ["test"]}, "--split: cannot read ['test'] as str"),
        ("eval", {"data": 5}, "--data: cannot read 5 as str"),
    ])
    def test_string_option_given_another_json_type_exit_2(self, bench_setup, tmp_path, capsys,
                                                          command, cfg, message):
        argv = _valid_argv(command, *bench_setup, tmp_path / "b.json")
        if "data" in cfg:
            i = argv.index("--data")
            del argv[i:i + 2]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run_cli(*argv, "--config", cfg_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("command, flag", [("eval", ["--jobs", "2"]),
                                               ("prepare", ["--seed", "1"])])
    def test_flag_the_command_does_not_read_exit_2(self, bench_setup, tmp_path, capsys,
                                                   command, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(*_valid_argv(command, *bench_setup, out), *flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_reads_one_result_path_from_config(self, bench_setup, tmp_path):
        _, enc = bench_setup
        cfg_path = tmp_path / "compare.json"
        cfg_path.write_text(json.dumps({"results": str(enc / "result.json")}))
        out = tmp_path / "report"
        assert run_cli("compare", "--config", cfg_path, "--out", out) == 0
        rows = (out / "report.tsv").read_text()
        assert rows.count("MISSING") == 8 and "\nencoding_distill\t" in rows

    @pytest.mark.parametrize("command, flag, key, value", [
        ("distill", ["--sentences-only"], "sentences_only", True),
        ("teacher", ["--init-scale", "0.2"], "init_scale", 0.2),
    ])
    def test_new_flag_matches_config_key(self, tmp_path, command, flag, key, value):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        words = write_toy_corpus(corpus, n_train=30)
        # a few words without vectors, so the init scale draws their rows
        write_vectors(corpus / "large_vecs.txt", words[:-3], dim=12)
        data = prepare(corpus, tmp_path / "data")
        argv = [command, "--data", data, "--embeddings", corpus / "large_vecs.txt",
                "--epochs", "1", "--batch-size", "8"]
        if command == "distill":
            argv += ["--distill-dim", "4", "--hidden", "4", "--lr", "0.5", "--decay",
                     "constant", "--dropout", "0.0", "--seeds", "0"]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({key: value}))
        runs = {"flag": flag, "config": ["--config", cfg_path], "default": []}
        for name, extra in runs.items():
            assert run_cli(*argv, *extra, "--out", tmp_path / name) == 0
        # the models byte for byte, result files but for their timing
        files = [p.relative_to(tmp_path / "flag") for p in (tmp_path / "flag").glob("*.*")
                 if p.suffix in (".mdl", ".json")]
        assert len(files) >= 2
        changed = False
        for rel in files:
            a, b, c = ((tmp_path / name / rel).read_bytes() for name in runs)
            if rel.suffix == ".json":
                a, b, c = (scrub_seconds(json.loads(x)) for x in (a, b, c))
            assert a == b, rel
            changed |= a != c
        assert changed


class TestTrainReadsEveryOptionGiven:
    """An option ``train`` would not read on its chosen path, given by flag
    or by config file, is a configuration error (exit 2) naming it, raised
    before any output is written."""

    @pytest.fixture
    def corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_vectors(corpus / "small_vecs.txt", write_toy_corpus(corpus, n_train=30), dim=4)
        return corpus

    @pytest.mark.parametrize("flags, cfg, message", [
        (["--soft-targets", "/nonexistent.sft"], {},
         "--soft-targets: direct training reads no soft targets"),
        ([], {"soft_targets": "/nonexistent.sft"},
         "--soft-targets: direct training reads no soft targets"),
        (["--temperature", "7"], {}, "--temperature: direct training reads no soft targets"),
        ([], {"temperature": 7}, "--temperature: direct training reads no soft targets"),
    ])
    def test_soft_target_options_with_direct_exit_2(self, corpus, tmp_path, capsys,
                                                      flags, cfg, message):
        data = prepare(corpus, tmp_path / "data")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                       *FAST, *flags, "--config", cfg_path, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("regime", ["direct", "matching-softmax"])
    @pytest.mark.parametrize("by_config", [False, True])
    def test_embed_dim_with_embeddings_exit_2(self, corpus, tmp_path, capsys, regime, by_config):
        data = prepare(corpus, tmp_path / "data")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"embed_dim": 9} if by_config else {}))
        flags = [] if by_config else ["--embed-dim", "9"]
        if regime == "matching-softmax":
            flags += ["--soft-targets", "/nonexistent.sft"]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("train", "--data", data, "--regime", regime,
                       "--embeddings", corpus / "small_vecs.txt", *flags, *FAST,
                       "--config", cfg_path, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: --embed-dim: the --embeddings file sets the vector width\n"
        )
        assert not out.exists()

    def test_matching_softmax_temperature_defaults_to_2(self, corpus, tmp_path):
        data = prepare(corpus, tmp_path / "data")
        assert run_cli("teacher", "--data", data, "--embeddings", corpus / "small_vecs.txt",
                       "--hidden", "6", "--epochs", "1", "--out", tmp_path / "teacher") == 0
        assert run_cli("soft-targets", "--data", data, "--teacher",
                       tmp_path / "teacher" / "teacher.mdl", "--out", tmp_path / "soft") == 0
        out = tmp_path / "ms"
        assert run_cli("train", "--data", data, "--regime", "matching-softmax",
                       "--embeddings", corpus / "small_vecs.txt", "--hidden", "4",
                       "--soft-targets", tmp_path / "soft" / "soft_targets.sft",
                       *FAST, "--out", out) == 0
        assert json.loads((out / "result.json").read_text())["temperature"] == 2.0


class TestNonFiniteNumbers:
    """A numeric option that is NaN or infinite is a configuration error
    (exit 2) naming the option, raised before any output is written."""

    @pytest.fixture
    def corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_vectors(corpus / "large_vecs.txt", write_toy_corpus(corpus, n_train=30), dim=12)
        return corpus

    @pytest.mark.parametrize("flag, value, extra", [
        ("--init-scale", "nan", []),
        ("--lr", "nan", ["--epochs", "1"]),
        ("--lr", "inf", ["--epochs", "1"]),
    ])
    def test_train_exit_2(self, corpus, tmp_path, capsys, flag, value, extra):
        data = prepare(corpus, tmp_path / "data")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("train", "--data", data, "--regime", "direct", "--embed-dim", "4",
                       flag, value, *extra, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {flag}: {value} is not a finite number\n"
        assert not out.exists()

    def test_soft_targets_infinite_temperature_exit_2(self, corpus, tmp_path, capsys):
        data = prepare(corpus, tmp_path / "data")
        assert run_cli("teacher", "--data", data, "--embeddings", corpus / "large_vecs.txt",
                       "--epochs", "1", "--out", tmp_path / "teacher") == 0
        out = tmp_path / "targets"
        capsys.readouterr()
        assert run_cli("soft-targets", "--data", data, "--teacher",
                       tmp_path / "teacher" / "teacher.mdl", "--temperature", "inf",
                       "--out", out) == 2
        assert capsys.readouterr().err == "error: --temperature: inf is not a finite number\n"
        assert not out.exists()


class TestOptionsBelowTheirRange:
    """A negative seed, a count or width below 1, a distilled width not
    below the vector width, or a random-vector scale that is not positive
    is a configuration error (exit 2) naming the option, raised before
    any output is written."""

    @pytest.fixture
    def corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_vectors(corpus / "large_vecs.txt", write_toy_corpus(corpus, n_train=30), dim=12)
        return corpus

    @pytest.mark.parametrize("command, argv, message", [
        ("train", ["--seeds", "-1"], "--seeds: must be >= 0, got -1"),
        ("train", ["--seeds", "0,-2"], "--seeds: must be >= 0, got -2"),
        ("train", ["--grid-seed", "-1"], "--grid-seed: must be >= 0, got -1"),
        ("train", ["--jobs", "0"], "--jobs: must be >= 1, got 0"),
        ("train", ["--jobs", "-3"], "--jobs: must be >= 1, got -3"),
        ("teacher", ["--seed", "-1"], "--seed: must be >= 0, got -1"),
        ("distill", ["--distill-dim", "0"], "--distill-dim: must be >= 1, got 0"),
        ("distill", ["--seed", "-1"], "--seed: must be >= 0, got -1"),
        ("train", ["--batch-size", "0"], "--batch-size: must be >= 1, got 0"),
        ("train", ["--epochs", "0"], "--epochs: must be >= 1, got 0"),
        ("train", ["--patience", "0"], "--patience: must be >= 1, got 0"),
        ("train", ["--hidden", "0"], "--hidden: must be >= 1, got 0"),
        ("train", ["--classes", "0"], "--classes: must be >= 1, got 0"),
        ("train", ["--embed-dim", "0"], "--embed-dim: must be >= 1, got 0"),
        ("train", ["--init-scale", "0"], "--init-scale: must be > 0 for random vectors, got 0.0"),
        ("train", ["--init-scale", "-0.1"],
         "--init-scale: must be > 0 for random vectors, got -0.1"),
        ("teacher", ["--hidden", "0"], "--hidden: must be >= 1, got 0"),
        ("teacher", ["--classes", "0"], "--classes: must be >= 1, got 0"),
        ("teacher", ["--batch-size", "0"], "--batch-size: must be >= 1, got 0"),
        ("distill", ["--distill-dim", "12"],
         "--distill-dim: 12 must be smaller than the vector width 12"),
        ("distill", ["--epochs", "0"], "--epochs: must be >= 1, got 0"),
    ])
    def test_exit_2_before_output(self, corpus, tmp_path, capsys, command, argv, message):
        data = prepare(corpus, tmp_path / "data")
        source = (["--regime", "direct", "--embed-dim", "4"] if command == "train"
                  else ["--embeddings", corpus / "large_vecs.txt"])
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(command, "--data", data, *source, "--epochs", "1", *argv,
                       "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_config_file_value_exit_2(self, corpus, tmp_path, capsys):
        data = prepare(corpus, tmp_path / "data")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seeds": [0, -1]}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("train", "--config", config, "--data", data, "--embed-dim", "4",
                       "--out", out) == 2
        assert capsys.readouterr().err == "error: --seeds: must be >= 0, got -1\n"
        assert not out.exists()

    def test_zero_init_scale_with_embeddings_is_accepted(self, corpus, tmp_path):
        # the scale only draws vectors for words the file lacks
        data = prepare(corpus, tmp_path / "data")
        assert run_cli("train", "--data", data, "--embeddings", corpus / "large_vecs.txt",
                       "--init-scale", "0", "--lr", "0.5", "--decay", "constant",
                       "--dropout", "0", "--epochs", "1", "--seeds", "0",
                       "--out", tmp_path / "out") == 0


class TestGridValuesCheckedBeforeOutput:
    """A grid value no training configuration accepts is a configuration
    error (exit 2), raised before any output is written."""

    @pytest.mark.parametrize("command", ["train", "distill"])
    @pytest.mark.parametrize("argv, message", [
        (["--lr", "-1"], "learning rate must be >= 0, got -1.0"),
        (["--dropout", "1.5"], "dropout_rate must be in [0, 1), got 1.5"),
    ])
    def test_exit_2_before_output(self, tmp_path, capsys, command, argv, message):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_vectors(corpus / "large_vecs.txt", write_toy_corpus(corpus, n_train=30), dim=12)
        data = prepare(corpus, tmp_path / "data")
        source = (["--regime", "direct", "--embed-dim", "4"] if command == "train"
                  else ["--embeddings", corpus / "large_vecs.txt", "--distill-dim", "4"])
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(command, "--data", data, *source, "--epochs", "1", *argv,
                       "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestSoftTargetsCheckedBeforeOutput:
    """Every check of matching softmax's soft targets runs before
    ``--out`` is made: a refused run exits 2, names what is wrong and
    leaves no directory."""

    @pytest.fixture(scope="class")
    def soft(self, tmp_path_factory):
        """Prepared data and one teacher's soft targets at T=2, for the
        phrase training set and for the sentences alone."""
        root = tmp_path_factory.mktemp("regime_checks")
        write_vectors(root / "large_vecs.txt", write_toy_corpus(root, n_train=30), dim=12)
        data = prepare(root, root / "data")
        assert run_cli("teacher", "--data", data, "--embeddings", root / "large_vecs.txt",
                       "--hidden", "6", "--lr", "0.5", "--epochs", "1", "--batch-size", "8",
                       "--out", root / "teacher") == 0
        for name, extra in (("phrases", []), ("sentences", ["--sentences-only"])):
            assert run_cli("soft-targets", "--data", data, "--teacher",
                           root / "teacher" / "teacher.mdl", "--temperature", "2", *extra,
                           "--out", root / name) == 0
        n_phrases = len((data / "train.samples").read_text().splitlines())
        n_sentences = len((data / "train_sentence.samples").read_text().splitlines())
        return root, n_phrases, n_sentences

    @pytest.mark.parametrize("case", ["temperature", "sentence targets", "target classes"])
    def test_exit_2_before_output(self, soft, tmp_path, capsys, case):
        root, n_phrases, n_sentences = soft
        phrase_targets = root / "phrases" / "soft_targets.sft"
        argv, message = {
            "temperature": ([phrase_targets, "--temperature", "3"],
                            "soft targets were generated at T=2.0, regime expects T=3.0"),
            "sentence targets": ([root / "sentences" / "soft_targets.sft"],
                                 f"{n_sentences} soft-target rows for {n_phrases} "
                                 f"training samples"),
            "target classes": ([phrase_targets, "--classes", "7"],
                               "soft targets have 5 classes, the model has 7"),
        }[case]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("train", "--regime", "matching-softmax", "--embed-dim", "4",
                       "--soft-targets", *argv, "--data", root / "data", "--epochs", "1",
                       "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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
