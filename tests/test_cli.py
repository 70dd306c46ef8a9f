import itertools
import json
import os
import pickle
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from bitcontext import cli
from bitcontext import config
from bitcontext import costmodel as cm
from bitcontext import data as dt
from bitcontext import network as nw
from conftest import rewrite_metadata


def run(args):
    return cli.main(args)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
[run]
seed = 5

[network]
preset = desk-micro

[data]
root = ./data
synthetic = pairs16
n_train = 300
n_test = 120

[train]
iterations = 6
lr = 0.002
augment = roll

[train2]
iterations = 6
lr = 0.001
""")
    return tmp_path


class TestTrainEval:
    def test_train_writes_checkpoint_and_manifest(self, workdir, capsys):
        assert run(["train", "--config", "run.cfg", "--output", "ck.bin"]) == 0
        assert os.path.exists("ck.bin")
        manifest = json.loads(open("ck.bin.manifest.json").read())
        assert manifest["command"] == "train"
        assert len(manifest["config_sha256"]) == 64
        assert manifest["seed"] == 5

    def test_idempotent_rerun_byte_identical(self, workdir):
        run(["train", "--config", "run.cfg", "--output", "ck.bin"])
        first = open("ck.bin", "rb").read()
        first_manifest = open("ck.bin.manifest.json", "rb").read()
        run(["train", "--config", "run.cfg", "--output", "ck.bin"])
        assert open("ck.bin", "rb").read() == first
        assert open("ck.bin.manifest.json", "rb").read() == first_manifest

    def test_zero_iteration_train_equals_initialization(self, workdir):
        run(["train", "--config", "run.cfg", "--output", "ck.bin",
             "--set", "train.iterations=0", "--set", "train2.iterations=0"])
        net = nw.load("ck.bin")
        fresh = nw.build(nw.desk_micro(), seed=5)
        for k, v in fresh.state_arrays().items():
            assert np.array_equal(v, net.state_arrays()[k]), k

    def test_eval_reports_metrics(self, workdir, capsys):
        run(["train", "--config", "run.cfg", "--output", "ck.bin"])
        capsys.readouterr()
        assert run(["eval", "--checkpoint", "ck.bin", "--config",
                    "run.cfg"]) == 0
        out = capsys.readouterr().out
        header, values = out.strip().splitlines()
        assert header.split("\t") == ["top1", "top5", "loss", "n"]
        top1, top5, loss, n = values.split("\t")
        assert 0.0 <= float(top1) <= float(top5) <= 1.0
        assert int(n) == 120

    def test_eval_packed_matches_float(self, workdir, capsys):
        run(["train", "--config", "run.cfg", "--output", "ck.bin"])
        capsys.readouterr()
        run(["eval", "--checkpoint", "ck.bin", "--config", "run.cfg"])
        a = capsys.readouterr().out
        run(["eval", "--checkpoint", "ck.bin", "--config", "run.cfg",
             "--packed"])
        b = capsys.readouterr().out
        assert a == b

    def test_step2_only_from_init(self, workdir):
        run(["train", "--config", "run.cfg", "--output", "ck1.bin",
             "--steps", "1"])
        assert run(["train", "--config", "run.cfg", "--output", "ck2.bin",
                    "--init", "ck1.bin", "--steps", "2"]) == 0
        net = nw.load("ck2.bin")
        assert net.binary_weights

    def test_init_sets_only_the_starting_weights(self, workdir):
        """train runs --steps (default 1,2) with or without --init, and an
        empty [train2] header changes nothing: both configs hold the same
        values. A stem-and-classifier spec keeps step 2's default 500
        iterations fast."""
        (workdir / "net.spec").write_text(
            "[network]\ninput = 16x16\nin_channels = 1\nclasses = 10\n"
            "[layer]\nkind = stem-conv\nout = 4\nstride = 2\n"
            "[layer]\nkind = classifier\nout = 10\n")
        base = ("[network]\nspec_file = net.spec\n[data]\nsynthetic = pairs16\n"
                "n_train = 64\nn_test = 16\n[train]\niterations = 3\n")
        (workdir / "plain.cfg").write_text(base)
        (workdir / "header.cfg").write_text(base + "[train2]\n")
        assert run(["train", "--config", "plain.cfg", "--output", "init.bin",
                    "--steps", "1"]) == 0
        for name in ("plain", "header"):
            assert run(["train", "--config", f"{name}.cfg", "--init", "init.bin",
                        "--output", f"{name}.bin", "--history", f"{name}.tsv"]) == 0
        for suffix in (".bin", ".bin.manifest.json", ".tsv"):
            assert open(f"plain{suffix}", "rb").read() == open(f"header{suffix}", "rb").read()
        steps = [line.split("\t")[0] for line in open("plain.tsv").read().splitlines()[1:]]
        assert steps == ["1"] * 3 + ["2"] * 500

    def test_dynamic_finetune_from_plain_checkpoint(self, workdir):
        """Zero-initialized embeddings fine-tune from a plain checkpoint."""
        run(["train", "--config", "run.cfg", "--output", "plain.bin"])
        rc = run(["train", "--config", "run.cfg", "--output", "tuned.bin",
                  "--init", "plain.bin", "--steps", "2",
                  "--set", "network.preset=desk-tiny",
                  "--set", "network.dynamic=true",
                  "--set", "data.synthetic=pairs32",
                  "--set", "data.root=./data32",
                  "--set", "data.n_train=200", "--set", "data.n_test=80",
                  "--set", "train2.iterations=2"])
        # plain desk-micro weights cannot land in a desk-tiny net
        assert rc == 2
        # with a matching plain checkpoint the fine-tune succeeds
        run(["train", "--config", "run.cfg", "--output", "plain32.bin",
             "--set", "network.preset=desk-tiny",
             "--set", "data.synthetic=pairs32",
             "--set", "data.root=./data32",
             "--set", "data.n_train=200", "--set", "data.n_test=80",
             "--set", "train.iterations=2", "--set", "train2.iterations=2"])
        rc = run(["train", "--config", "run.cfg", "--output", "tuned.bin",
                  "--init", "plain32.bin", "--steps", "2",
                  "--set", "network.preset=desk-tiny",
                  "--set", "network.dynamic=true",
                  "--set", "data.synthetic=pairs32",
                  "--set", "data.root=./data32",
                  "--set", "data.n_train=200", "--set", "data.n_test=80",
                  "--set", "train2.iterations=2"])
        assert rc == 0
        tuned = nw.load("tuned.bin")
        assert any(".dyn." in k for k in tuned.state_arrays())

    def test_history_rows(self, workdir):
        run(["train", "--config", "run.cfg", "--output", "ck.bin",
             "--history", "hist.tsv"])
        lines = open("hist.tsv").read().strip().splitlines()
        assert lines[0] == "step\titeration\tloss"
        assert len(lines) == 1 + 12  # 6 iterations per step
        assert lines[1].startswith("1\t0\t")
        assert lines[-1].startswith("2\t5\t")

    def test_teacher_logits_config(self, workdir):
        run(["train", "--config", "run.cfg", "--output", "base.bin",
             "--steps", "1", "--set", "train.iterations=1"])
        teacher = np.zeros((300, 10), dtype=np.float32)
        np.save("teacher.npy", teacher)
        rc = run(["train", "--config", "run.cfg", "--output", "kd.bin",
                  "--set", "train.kd_logits=teacher.npy",
                  "--set", "train.kd_weight=0.5",
                  "--set", "train.iterations=2",
                  "--set", "train2.iterations=1"])
        assert rc == 0
        # shape mismatch is a runtime error
        np.save("bad.npy", np.zeros((5, 10), dtype=np.float32))
        rc = run(["train", "--config", "run.cfg", "--output", "kd.bin",
                  "--set", "train.kd_logits=bad.npy"])
        assert rc == 2

    @pytest.mark.parametrize("verb", [["train", "--output", "kd.bin"],
                                      ["sweep", "--set", "sweep.train=true"]])
    @pytest.mark.parametrize("section", ["train", "train2"])
    def test_kd_weight_without_logits_is_usage_error(self, workdir, capsys,
                                                     verb, section):
        rc = run(verb + ["--config", "run.cfg", "--set", "sweep.points=0",
                         "--set", f"{section}.kd_weight=0.5"])
        assert rc == 1
        assert f"{section}.kd_weight = 0.5 needs {section}.kd_logits" \
            in capsys.readouterr().err
        assert not os.path.exists("kd.bin")


class TestErrors:
    def test_unknown_config_key_is_usage_error(self, workdir, capsys):
        assert run(["count-ops", "--set", "network.bogus=1"]) == 1
        assert "network.bogus" in capsys.readouterr().err

    def test_closed_stdout_is_not_a_failure(self, workdir, monkeypatch, capsys):
        """A reader that closes the pipe early (`| head`) makes print raise
        BrokenPipeError: main returns 0, writes nothing to stderr, and
        leaves stdout on devnull for the interpreter's final flush."""
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run(["count-ops"]) == 0
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert capsys.readouterr().err == ""

    def test_bad_value_reports_key_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[train]\nlr = fast\n")
        assert run(["count-ops", "--config", "bad.cfg"]) == 1
        assert "train.lr" in capsys.readouterr().err

    def test_missing_dataset_is_runtime_error(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BITCONTEXT_DATA", raising=False)
        assert run(["train", "--output", "x.bin"]) == 2
        assert "dataset" in capsys.readouterr().err

    def test_missing_checkpoint_is_runtime_error(self, workdir, capsys):
        assert run(["eval", "--checkpoint", "nope.bin", "--config",
                    "run.cfg"]) == 2

    @pytest.mark.parametrize("meta,match", [
        (b"[]", "metadata is not a JSON object"),
        (b"not json", "metadata is not a JSON object"),
        (b'{"step": 7}', "metadata step = 7 is not 0, 1 or 2"),
        (b'{"step": 0.5}', "metadata step = 0.5 is not 0, 1 or 2")])
    def test_malformed_checkpoint_metadata_is_runtime_error(self, workdir, capsys,
                                                            meta, match):
        nw.save(nw.build(nw.desk_micro(), seed=0), "ck.bin")
        rewrite_metadata("ck.bin", meta)
        assert run(["eval", "--checkpoint", "ck.bin", "--config", "run.cfg"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: ck.bin: {match}")
        assert "Traceback" not in err and out == ""

    def test_checkpoint_text_not_utf8_is_runtime_error(self, workdir, capsys):
        """A body that gets past the CRC but not the parser names the file
        and the field, with no traceback."""
        nw.save(nw.build(nw.desk_micro(), seed=0), "ck.bin")
        body = bytearray(open("ck.bin", "rb").read()[:-4])
        body[12] = 0xFF  # the first byte of the spec text
        open("ck.bin", "wb").write(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        assert run(["eval", "--checkpoint", "ck.bin", "--config", "run.cfg"]) == 2
        out, err = capsys.readouterr()
        assert err == "error: ck.bin: spec text is not UTF-8\n" and out == ""

    def test_corrupt_checkpoint_is_runtime_error(self, workdir, capsys):
        run(["train", "--config", "run.cfg", "--output", "ck.bin"])
        blob = bytearray(open("ck.bin", "rb").read())
        blob[30] ^= 0xFF
        open("ck.bin", "wb").write(bytes(blob))
        assert run(["analyze-binerr", "--checkpoint", "ck.bin"]) == 2

    @pytest.mark.parametrize("text,key", [
        ("[network]\nclasses = 3\n", "input"),
        ("[network]\ninput = 8x8\nclasses = 3\n[layer]\nout = 8\n", "kind")])
    def test_spec_file_missing_key_is_runtime_error(self, tmp_path, monkeypatch,
                                                    capsys, text, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "net.spec").write_text(text)
        assert run(["count-ops", "--set", "network.spec_file=net.spec"]) == 2
        assert f"lacks required key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,key,message", [
        ("binary-mlp", "dynamic = true", "binary-mlp takes no 'dynamic'"),
        ("downsample", "branches = long,long,long", "downsample takes no 'branches'"),
        ("classifier", "stride = 2", "classifier takes no 'stride'")])
    def test_spec_file_key_the_layer_ignores_is_runtime_error(
            self, tmp_path, monkeypatch, capsys, kind, key, message):
        monkeypatch.chdir(tmp_path)
        text = nw.desk_micro().to_text().replace(f"kind = {kind}\n",
                                                 f"kind = {kind}\n{key}\n", 1)
        (tmp_path / "net.spec").write_text(text)
        assert run(["count-ops", "--set", "network.spec_file=net.spec"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("labels,match", [
        (b"\x00\x00", "header needs 4 bytes"),
        (np.zeros(4, np.uint8), "10 images but 4 labels"),
        (np.zeros((10, 10), np.uint8), "'train' labels have shape (10, 10)"),
        (np.r_[0, 0.5, np.zeros(8)].astype(np.float32),
         "'train' label 0.5 at index 1 is not a non-negative whole number below 2**63"),
        (np.r_[np.zeros(9), np.nan].astype(np.float32), "'train' label nan at index 9")])
    def test_bad_idx_dataset_is_runtime_error(self, tmp_path, monkeypatch,
                                              capsys, labels, match):
        monkeypatch.chdir(tmp_path)
        os.mkdir("data")
        dt.write_idx("data/train-images.idx", np.zeros((10, 16, 16), np.uint8))
        if isinstance(labels, bytes):
            open("data/train-labels.idx", "wb").write(labels)
        else:
            dt.write_idx("data/train-labels.idx", labels)
        assert run(["train", "--output", "ck.bin", "--set", "data.root=data",
                    "--set", "network.preset=desk-micro"]) == 2
        err = capsys.readouterr().err
        assert "dataset: " in err and match in err

    def test_idx_images_of_another_rank_are_runtime_error(self, tmp_path, monkeypatch,
                                                          capsys):
        monkeypatch.chdir(tmp_path)
        os.mkdir("data")
        dt.write_idx("data/train-images.idx", np.zeros((4, 16), np.uint8))
        dt.write_idx("data/train-labels.idx", np.zeros(4, np.uint8))
        assert run(["train", "--output", "ck.bin", "--set", "data.root=data"]) == 2
        assert capsys.readouterr().err == ("error: dataset: 'train' images have shape "
                                           "(4, 16); images need shape (n, h, w) or "
                                           "(n, c, h, w)\n")
        assert not os.path.exists("ck.bin")

    def test_empty_dataset_split_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        os.mkdir("data")
        open("data/train.bin", "wb").close()
        assert run(["train", "--output", "ck.bin", "--set", "data.root=data"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dataset: 'train' has no images "
                              "(images shape (0, 3, 32, 32))")
        assert not os.path.exists("ck.bin")

    @pytest.mark.parametrize("key", ["run.seed", "data.seed"])
    def test_negative_seed_is_usage_error(self, workdir, capsys, key):
        """Named by its key and raised before any data is built or step trains."""
        assert run(["train", "--config", "run.cfg", "--output", "ck.bin",
                    "--set", f"{key}=-3"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {key} must be >= 0, got -3")
        assert out == "" and not os.path.exists("ck.bin")

    @pytest.mark.parametrize("sets,key", [
        (["network.preset=desk-sweep", "network.dynamic=true"], "network.dynamic"),
        (["network.preset=desk-micro", "network.n_mlp=3"], "network.n_mlp"),
        (["network.preset=bcdnet-b-like", "network.mlp_tail=true"],
         "network.mlp_tail"),
        (["network.spec_file=net.spec", "network.classes=3"], "network.classes"),
        (["network.spec_file=net.spec", "network.preset=desk-micro"],
         "network.preset"),
        (["network.preset=bcdnet-a-like", "network.dynamic=true"], "network.dynamic")])
    def test_network_key_the_source_ignores_is_usage_error(
            self, tmp_path, monkeypatch, capsys, sets, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "net.spec").write_text(nw.desk_micro().to_text())
        args = ["export-spec"] + [a for s in sets for a in ("--set", s)]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert key in err and sets[0].split("=")[1] in err

    def test_default_valued_network_keys_are_accepted(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["export-spec", "--set", "network.preset=desk-sweep",
                    "--set", "network.dynamic=false",
                    "--set", "network.branches=point,short,long"]) == 0

    def test_unknown_preset_is_usage_error(self, workdir, capsys):
        for name in ("nope", "reactnet18-mlp-like"):
            assert run(["count-ops", "--set", f"network.preset={name}"]) == 1
            assert f"network.preset: unknown preset '{name}'" in capsys.readouterr().err

    def test_each_network_has_one_spelling(self):
        """Every preset under every subset of these settings that the
        [network] section accepts gives its own spec text, so no two
        configs spell one network."""
        settings = ["network.dynamic=true", "network.mlp_tail=true",
                    "network.n_mlp=3", "network.branches=point,point,point"]
        spellings = {}
        for name in sorted(nw.PRESETS):
            for r in range(len(settings) + 1):
                for subset in itertools.combinations(settings, r):
                    cfg = config.apply_overrides(config.parse_config(""),
                                                 [f"network.preset={name}", *subset])
                    try:
                        text = cli._network_spec(cfg).to_text()
                    except config.ConfigError:
                        continue
                    spellings.setdefault(text, []).append((name, subset))
        assert [s for s in spellings.values() if len(s) > 1] == []
        # bcdnet-a/-b 1 each, reactnet18 2, desk-tiny 4, desk-micro 2, desk-sweep 2
        assert len(spellings) == 12

    @pytest.mark.parametrize("verb,setting,message", [
        ("train", "data.synthetic=pairs8",
         "data.synthetic = 'pairs8' is not one of none, pairs16, pairs32"),
        ("train", "data.n_train=0", "data.n_train must be >= 1, got 0"),
        ("eval", "data.n_test=0", "data.n_test must be >= 1, got 0"),
        ("eval", "data.n_test=-3", "data.n_test must be >= 1, got -3"),
        ("sweep", "data.n_test=0", "data.n_test must be >= 1, got 0"),
        ("sweep", "sweep.points=0,x",
         "sweep.points = '0,x' is not a comma list of non-negative integers"),
        ("sweep", "sweep.points=0,-3", "sweep.points = '0,-3' is not a comma list"),
        ("sweep", "sweep.band=-1", "sweep.band must be >= 0, got -1.0"),
        ("sweep", "sweep.band=nan", "sweep.band must be >= 0, got nan")])
    def test_bad_data_or_sweep_value_is_usage_error(self, workdir, capsys, verb,
                                                    setting, message):
        """Each is reported with its key before any training runs."""
        nw.save(nw.build(nw.desk_micro(), seed=0), "ck.bin")
        extra = {"train": ["--output", "out.bin"], "eval": ["--checkpoint", "ck.bin"],
                 "sweep": ["--set", "sweep.train=true"]}[verb]
        rc = run([verb, "--config", "run.cfg", "--set", setting] + extra)
        out, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith(f"error: {message}")
        assert out == "" and not os.path.exists("out.bin")

    def test_zero_sweep_band_keeps_only_the_base_in_band(self, workdir, capsys):
        assert run(["sweep", "--set", "sweep.band=0", "--set", "sweep.points=0,3"]) == 0
        header, *rows = capsys.readouterr().out.strip().splitlines()
        col = header.split("\t").index("in_band")
        assert [r.split("\t")[col] for r in rows] == ["True", "False"]

    @pytest.mark.parametrize("verb,setting,got", [
        ("sweep", "sweep.points=0,4", "whole conv blocks (3 MLPs each), got n_mlp = 4"),
        ("sweep", "sweep.points=0,33", "cannot replace 11 conv blocks; only 10 eligible"),
        ("export-spec", "network.n_mlp=4", "whole conv blocks (3 MLPs each), got n_mlp = 4"),
        ("export-spec", "network.n_mlp=-3", "got n_mlp = -3"),
        ("export-spec", "network.n_mlp=33", "cannot replace 11 conv blocks; only 10 eligible")])
    def test_impossible_replacement_count_is_usage_error(self, tmp_path, monkeypatch,
                                                         capsys, verb, setting, got):
        """The count is a config value, so the error names its key."""
        monkeypatch.chdir(tmp_path)
        rc = run([verb, "--set", "network.preset=desk-sweep", "--set", setting])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {setting.split('=')[0]}: ") and got in err

    @pytest.mark.parametrize("setting,got", [
        ("network.classes=0", "classes 0 must be positive"),
        ("network.branches=point,short", "bad branch assignment ('point', 'short')"),
        ("network.branches=point,short,mid",
         "bad branch assignment ('point', 'short', 'mid')")])
    def test_bad_network_value_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                              setting, got):
        """A preset that a [network] value makes invalid is a config error
        naming the key, as a bad value of any other section is."""
        monkeypatch.chdir(tmp_path)
        rc = run(["export-spec", "--set", setting])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {setting.split('=')[0]}: ") and got in err

    def test_impossible_sweep_point_rejected_before_training(self, workdir, capsys,
                                                             monkeypatch):
        def no_training(*args):
            raise AssertionError("trained before the sweep points were checked")

        monkeypatch.setattr(cli.tr, "train_step", no_training)
        rc = run(["sweep", "--config", "run.cfg", "--set", "sweep.train=true",
                  "--set", "sweep.points=0,3"])
        assert rc == 1
        assert "sweep.points: cannot replace 1 conv blocks; only 0 eligible" \
            in capsys.readouterr().err

    def test_diverged_training_is_runtime_error(self, workdir, capsys):
        assert run(["train", "--config", "run.cfg", "--output", "ck.bin",
                    "--set", "train.lr=1e4"]) == 2
        assert "diverged: step 1 iteration 1" in capsys.readouterr().err
        assert not os.path.exists("ck.bin")

    @pytest.mark.parametrize("verb", [["train", "--output", "ck.bin"],
                                      ["sweep", "--set", "sweep.train=true"]])
    @pytest.mark.parametrize("setting", [
        "train.batch_size=0", "train.iterations=-3", "train.lr=-1",
        "train.weight_decay=-1e-5", "train2.augment=flip", "train2.kd_weight=-0.5",
        "train2.smoothing=1"])
    def test_unusable_train_config_is_usage_error(self, workdir, capsys, verb,
                                                   setting):
        """Every step's config is checked before step 1 trains."""
        rc = run(verb + ["--config", "run.cfg", "--set", "sweep.points=0",
                         "--set", setting])
        out, err = capsys.readouterr()
        assert rc == 1
        assert f"error: {setting.split('=')[0]} must be " in err
        assert "step 1:" not in out and not os.path.exists("ck.bin")

    @pytest.mark.parametrize("steps", ["1,x", "3", "1,3", "0", "1,,2"])
    def test_bad_steps_is_usage_error(self, workdir, capsys, steps):
        rc = run(["train", "--config", "run.cfg", "--output", "ck.bin",
                  "--steps", steps])
        out, err = capsys.readouterr()
        assert rc == 1
        assert f"--steps {steps!r}" in err
        assert "step 1:" not in out and not os.path.exists("ck.bin")
        assert not os.path.exists("data")  # rejected before any data is written

    def test_synthetic_data_not_written_beside_a_real_split(self, tmp_path,
                                                            monkeypatch, capsys):
        """A synthetic run builds its sets in memory: the CIFAR files under
        root are neither read nor added to."""
        monkeypatch.chdir(tmp_path)
        os.mkdir("data")
        for name, n in (("data_batch_1.bin", 12), ("test_batch.bin", 10)):
            u8, y = dt.make_blob_pairs(n, seed=n)
            dt.write_cifar_bin(f"data/{name}", u8, y)
        sets = ["data.root=data", "data.synthetic=pairs32", "data.n_train=40",
                "data.n_test=30", "data.train_split=data_batch",
                "train.batch_size=40", "train2.batch_size=40",
                "train.iterations=0", "train2.iterations=0"]
        args = [a for s in sets for a in ("--set", s)]
        assert run(["train", "--output", "ck.bin"] + args) == 0
        capsys.readouterr()
        assert run(["eval", "--checkpoint", "ck.bin"] + args) == 0
        assert capsys.readouterr().out.split()[-1] == "30"
        assert sorted(os.listdir("data")) == ["data_batch_1.bin", "test_batch.bin"]

    @pytest.mark.parametrize("synthetic,preset", [("pairs16", "desk-micro"),
                                                  ("pairs32", "desk-tiny")])
    def test_synthetic_sets_follow_the_config_not_root(
            self, workdir, capsys, synthetic, preset):
        """eval scores the set data.n_test and data.seed describe, whatever
        an earlier run used and whatever the split names; root is never made."""
        args = [a for s in [f"data.synthetic={synthetic}", f"network.preset={preset}",
                            "data.train_split=digits", "data.eval_split=digits",
                            "data.n_train=40", "data.n_test=30",
                            "train.batch_size=40", "train2.batch_size=40",
                            "train.iterations=1", "train2.iterations=1"]
                for a in ("--set", s)]
        assert run(["train", "--output", "ck.bin", "--config", "run.cfg"] + args) == 0
        scores = []
        for extra in ([], ["data.n_test=100"], ["data.n_test=100", "data.seed=9"]):
            capsys.readouterr()
            assert run(["eval", "--checkpoint", "ck.bin", "--config", "run.cfg"] + args
                       + [a for s in extra for a in ("--set", s)]) == 0
            scores.append(capsys.readouterr().out.split()[-4:])
        assert [n for *_, n in scores] == ["30", "100", "100"]
        assert scores[1] != scores[2]  # data.seed changes the images
        assert not os.path.exists("data")

    def test_dataset_root_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        dt.write_synthetic_dir(tmp_path / "envdata", 200, 80, size=16, channels=1)
        monkeypatch.setenv("BITCONTEXT_DATA", str(tmp_path / "envdata"))
        args = [a for s in ["network.preset=desk-micro", "train.iterations=2",
                            "train2.iterations=2"] for a in ("--set", s)]
        assert run(["train", "--output", "ck.bin"] + args) == 0
        capsys.readouterr()
        assert run(["eval", "--checkpoint", "ck.bin"] + args) == 0
        assert capsys.readouterr().out.split()[-1] == "80"

    @pytest.mark.parametrize("verb", [["train", "--output", "ck.bin"],
                                      ["sweep", "--set", "sweep.train=true"]])
    @pytest.mark.parametrize("section", ["train", "train2"])
    def test_batch_larger_than_the_training_set_is_usage_error(
            self, workdir, capsys, verb, section):
        """workdir trains on 300 images; the check runs before step 1 trains."""
        rc = run(verb + ["--config", "run.cfg", "--set", "sweep.points=0",
                         "--set", f"{section}.batch_size=301"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert f"error: {section}.batch_size must be in [1, 300]" in err
        assert "step 1:" not in out and not os.path.exists("ck.bin")

    def test_verb_without_its_required_option_is_usage_error(self, capsys):
        assert run(["train"]) == 1
        assert "error: the following arguments are required: --output" \
            in capsys.readouterr().err

    def test_unparsable_override_is_usage_error(self, capsys):
        assert run(["count-ops", "--set", "network.dynamic=maybe"]) == 1
        assert "network.dynamic: cannot parse 'maybe' as bool" in capsys.readouterr().err

    def test_second_config_section_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "twice.cfg").write_text("[train]\nlr = 1\n[train]\nlr = 2\n")
        assert run(["count-ops", "--config", "twice.cfg"]) == 1
        assert "error: line 3: a second [train] section" in capsys.readouterr().err

    def test_init_of_another_architecture_is_runtime_error(self, workdir, capsys):
        run(["train", "--config", "run.cfg", "--output", "psl.bin", "--steps", "1",
             "--set", "train.iterations=1"])
        capsys.readouterr()
        rc = run(["train", "--config", "run.cfg", "--output", "ppp.bin", "--init",
                  "psl.bin", "--set", "network.branches=point,point,point"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err.startswith("error: psl.bin: layer 2 (binary-mlp) differs: branches")
        assert "step 1:" not in out and not os.path.exists("ppp.bin")

    @staticmethod
    def _idx_data(root, labels):
        """An IDX train split of 16x16 single-channel images with these labels."""
        os.makedirs(root)
        images = np.random.default_rng(0).integers(0, 256, (len(labels), 16, 16))
        dt.write_idx(os.path.join(root, "train-images.idx"), images.astype(np.uint8))
        dt.write_idx(os.path.join(root, "train-labels.idx"), labels.astype(np.uint8))

    def test_labels_past_the_network_are_runtime_error(self, workdir, capsys):
        self._idx_data("twelve", np.arange(64) % 12)
        rc = run(["train", "--config", "run.cfg", "--output", "ck.bin",
                  "--set", "data.synthetic=none", "--set", "data.root=twelve"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert ("error: labels run from 0 to 11 (12 classes), outside the "
                "network's 10 classes") in err
        assert "step 1:" not in out and not os.path.exists("ck.bin")

    @pytest.mark.parametrize("section", ["train", "train2"])
    def test_teacher_logits_follow_the_network(self, workdir, capsys, section):
        """8-class data for the 10-class desk-micro takes (64, 10) teacher
        logits and refuses (64, 8) before step 1 trains."""
        self._idx_data("eight", np.arange(64) % 8)
        args = ["train", "--config", "run.cfg", "--output", "ck.bin",
                "--set", "data.synthetic=none", "--set", "data.root=eight",
                "--set", "train.iterations=1", "--set", "train2.iterations=1",
                "--set", f"{section}.kd_weight=0.5", "--set", f"{section}.kd_logits=t.npy"]
        np.save("t.npy", np.zeros((64, 8), np.float32))
        assert run(args) == 2
        out, err = capsys.readouterr()
        assert ("error: teacher logits shape (64, 8) does not match 64 images x the "
                "network's 10 classes") in err
        assert "step 1:" not in out and not os.path.exists("ck.bin")
        np.save("t.npy", np.zeros((64, 10), np.float32))
        assert run(args) == 0


class TestReports:
    def test_count_ops_matches_cost_model(self, workdir, capsys):
        assert run(["count-ops", "--set", "network.preset=bcdnet-a-like",
                    "--set", "network.classes=1000", "--format", "tsv"]) == 0
        out = capsys.readouterr().out
        total = [l for l in out.splitlines() if l.startswith("total")][0]
        _, bops, flops, ops = total.split("\t")
        r = cm.count_network(nw.bcdnet_a_like())
        assert int(bops) == r.bops and int(flops) == r.flops
        assert float(ops) == pytest.approx(r.ops, abs=0.1)

    def test_analyze_binerr_three_rows_per_block(self, workdir, capsys):
        run(["train", "--config", "run.cfg", "--output", "ck.bin"])
        capsys.readouterr()
        assert run(["analyze-binerr", "--checkpoint", "ck.bin"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        n_mlp = sum(ls.kind == "binary-mlp"
                    for ls in nw.desk_micro().layers)
        assert len(lines) == 1 + 3 * n_mlp

    def test_sweep_base_is_the_configured_network(self, tmp_path, monkeypatch):
        """No config, an empty [network] header and a key set to its default
        are one config, so one sweep: over network.preset's network."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.cfg").write_text("[network]\n")
        outputs = []
        for i, extra in enumerate([[], ["--config", "empty.cfg"],
                                   ["--set", "network.classes=10"]]):
            assert run(["sweep", "--output", f"s{i}"] + extra) == 0
            outputs.append((open(f"s{i}").read(), open(f"s{i}.manifest.json").read()))
        assert outputs[0] == outputs[1] == outputs[2]
        row = dict(zip(*(line.split("\t") for line in outputs[0][0].splitlines()[:2])))
        assert int(row["bops"]) == cm.count_network(nw.desk_tiny()).bops

    def test_sweep_rows(self, workdir, capsys):
        assert run(["sweep", "--set", "sweep.points=0,3,6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n_mlp")
        assert len(lines) == 4

    def test_trained_sweep_point_is_the_train_recipe(self, workdir, capsys):
        """A sweep point trains the network `train` builds: the same steps,
        seeds and keys, so its top-1 is what `eval` reads off the checkpoint."""
        args = [a for s in ["run.seed=1", "network.preset=desk-tiny",
                            "data.root=./data32", "data.synthetic=pairs32",
                            "data.n_train=128", "data.n_test=64",
                            "train.iterations=3", "train2.iterations=3"]
                for a in ("--set", s)]
        assert run(["train", "--output", "ck.bin"] + args) == 0
        capsys.readouterr()
        assert run(["eval", "--checkpoint", "ck.bin"] + args) == 0
        eval_top1 = capsys.readouterr().out.splitlines()[1].split("\t")[0]
        assert run(["sweep", "--set", "sweep.train=true", "--set", "sweep.points=0"]
                   + args) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        top1 = dict(zip(header.split("\t"), row.split("\t")))["top1"]
        assert f"{float(top1):.6f}" == eval_top1

    def test_sweep_missing_kd_logits_is_runtime_error(self, workdir, capsys):
        assert run(["sweep", "--config", "run.cfg", "--set", "sweep.train=true",
                    "--set", "sweep.points=0",
                    "--set", "train.kd_logits=nonexistent.npy",
                    "--set", "train.kd_weight=0.5"]) == 2
        assert "teacher logits" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["npz", "pickle"])
    @pytest.mark.parametrize("section", ["train", "train2"])
    def test_kd_logits_not_one_array_is_runtime_error(self, workdir, capsys, kind, section):
        """An .npz archive or a pickle is not one array of teacher logits:
        exit 2 naming the key, before step 1 trains."""
        if kind == "npz":
            np.savez("t.npz", logits=np.zeros((300, 10), np.float32))
        else:
            with open("t.pickle", "wb") as f:
                pickle.dump(np.zeros((300, 10), np.float32), f)
        assert run(["train", "--config", "run.cfg", "--output", "ck.bin",
                    "--set", f"{section}.kd_weight=0.5",
                    "--set", f"{section}.kd_logits=t.{kind}"]) == 2
        out, err = capsys.readouterr()
        assert f"error: teacher logits ({section}.kd_logits): " in err
        assert "Traceback" not in err and "step 1:" not in out
        assert not os.path.exists("ck.bin")

    @pytest.mark.parametrize("verb,extra", [
        ("train", []), ("eval", ["--checkpoint", "ck.bin"]), ("count-ops", []),
        ("analyze-binerr", ["--checkpoint", "ck.bin"]),
        ("sweep", ["--set", "sweep.points=0"]), ("export-spec", [])])
    def test_manifest_command_is_the_verb(self, workdir, capsys, verb, extra):
        """--output gets a manifest naming the verb; without --output, every
        verb but train prints the text it would write, and writes no file."""
        if "--checkpoint" in extra:
            run(["train", "--config", "run.cfg", "--output", "ck.bin"])
        assert run([verb, "--config", "run.cfg", "--output", "out"] + extra) == 0
        assert json.loads(open("out.manifest.json").read())["command"] == verb
        if verb != "train":
            files = sorted(os.listdir())
            capsys.readouterr()
            assert run([verb, "--config", "run.cfg"] + extra) == 0
            assert capsys.readouterr().out == open("out").read()
            assert sorted(os.listdir()) == files

    def test_export_spec_parses_back(self, workdir, capsys):
        assert run(["export-spec", "--set",
                    "network.preset=bcdnet-a-like",
                    "--set", "network.classes=1000"]) == 0
        text = capsys.readouterr().out
        spec = nw.parse_network_spec(text)
        assert spec.name == "bcdnet-a-like"

    def test_output_file_and_manifest(self, workdir):
        assert run(["count-ops", "--output", "ops.txt"]) == 0
        assert os.path.exists("ops.txt")
        assert os.path.exists("ops.txt.manifest.json")


class TestProcess:
    """`python -m bitcontext.cli` exits with main's code and reports every
    error as one line, never a traceback."""

    @pytest.mark.parametrize("args,code", [
        (["export-spec"], 0), (["train", "--output", "ck.bin", "--steps", "3"], 1),
        (["eval", "--checkpoint", "missing.bin"], 2)])
    def test_exit_code(self, tmp_path, args, code):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run([sys.executable, "-m", "bitcontext.cli"] + args,
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert (proc.stderr == "") == (code == 0)
        if code == 0:
            assert proc.stdout == nw.desk_tiny().to_text().rstrip("\n") + "\n"
        assert os.listdir(tmp_path) == []


class TestConfig:
    def test_default_digest_is_pinned(self):
        """Manifests of default runs keep their config_sha256."""
        assert config.config_digest(config.parse_config("")) == (
            "3e3e901bf536742af8a8b5f7c63b7ecd617d1e61051c00ba8a8638b75cc325d2")

    def test_train2_defaults_override_only_lr_and_weight_decay(self):
        d = config.DEFAULTS
        diff = {k for k in d["train"] if d["train"][k] != d["train2"][k]}
        assert diff == {"lr", "weight_decay"} and d["train2"]["weight_decay"] == 0.0
        assert set(d["train2"]) == set(d["train"])

    @pytest.mark.parametrize("text", ["", "[network]\n[train2]\n", "[run]\nseed = 0\n"])
    def test_parsed_config_is_exactly_the_schema(self, text):
        """A config holds its values and nothing else, so a section header
        alone, or a key set to its default, is the default config."""
        cfg = config.parse_config(text)
        assert set(cfg) == set(config.SCHEMA) and cfg == config.DEFAULTS

    def test_digest_covers_every_schema_key(self):
        default = config.config_digest(config.parse_config(""))
        for section, keys in config.DEFAULTS.items():
            for key, value in keys.items():
                other = str(not value) if isinstance(value, bool) else \
                    value + "x" if isinstance(value, str) else str(value + 1)
                cfg = config.apply_overrides(config.parse_config(""),
                                             [f"{section}.{key}={other}"])
                assert cfg[section][key] != value
                assert config.config_digest(cfg) != default, f"{section}.{key}"

    def test_schema_types_are_the_defaults_types(self):
        cfg = config.apply_overrides(config.parse_config(""), [
            "train.lr=1", "sweep.band=0", "network.dynamic=yes", "run.seed=3"])
        assert cfg["train"]["lr"] == 1.0 and isinstance(cfg["train"]["lr"], float)
        assert cfg["sweep"]["band"] == 0.0 and isinstance(cfg["sweep"]["band"], float)
        assert cfg["network"]["dynamic"] is True and cfg["run"]["seed"] == 3
