import json
import os

import numpy as np
import pytest

from bitcontext import cli
from bitcontext import config
from bitcontext import costmodel as cm
from bitcontext import data as dt
from bitcontext import network as nw


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
        ("binary-mlp", "dynamic = true", "binary-mlp has no dynamic thresholds"),
        ("downsample", "branches = long,long,long", "downsample takes no 'branches'"),
        ("classifier", "stride = 2", "classifier has no stride")])
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
        (np.zeros(4, np.uint8), "10 images but 4 labels")])
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

    @pytest.mark.parametrize("sets,key", [
        (["network.preset=desk-sweep", "network.dynamic=true"], "network.dynamic"),
        (["network.preset=desk-micro", "network.n_mlp=3"], "network.n_mlp"),
        (["network.preset=bcdnet-b-like", "network.mlp_tail=true"],
         "network.mlp_tail"),
        (["network.spec_file=net.spec", "network.classes=3"], "network.classes"),
        (["network.spec_file=net.spec", "network.preset=desk-micro"],
         "network.preset")])
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
        assert run(["count-ops", "--set", "network.preset=nope"]) == 1
        assert "network.preset" in capsys.readouterr().err

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

    @pytest.mark.parametrize("synthetic,preset,files", [
        ("pairs16", "desk-micro", ["digits-images.idx", "digits-labels.idx",
                                   "holdout-images.idx", "holdout-labels.idx"]),
        ("pairs32", "desk-tiny", ["digits.bin", "holdout.bin"])])
    def test_synthetic_data_written_under_the_split_names(self, workdir, capsys,
                                                          synthetic, preset, files):
        args = [a for s in [f"data.synthetic={synthetic}", f"network.preset={preset}",
                            "data.root=data", "data.train_split=digits",
                            "data.eval_split=holdout", "data.n_train=40", "data.n_test=30",
                            "train.iterations=1", "train2.iterations=1"]
                for a in ("--set", s)]
        assert run(["train", "--output", "ck.bin"] + args) == 0
        assert sorted(os.listdir("data")) == files
        capsys.readouterr()
        assert run(["eval", "--checkpoint", "ck.bin"] + args) == 0
        assert capsys.readouterr().out.split()[-1] == "30"

    @pytest.mark.parametrize("train_split,eval_split", [("same", "same"),
                                                        ("test", "test2")])
    def test_synthetic_splits_sharing_files_is_usage_error(self, workdir, capsys,
                                                           train_split, eval_split):
        rc = run(["train", "--config", "run.cfg", "--output", "ck.bin",
                  "--set", f"data.train_split={train_split}",
                  "--set", f"data.eval_split={eval_split}"])
        assert rc == 1
        assert "data.train_split" in capsys.readouterr().err
        assert not os.path.exists("data")

    def test_synthetic_data_not_written_beside_a_real_split(self, tmp_path,
                                                            monkeypatch, capsys):
        """Split files are found by load_dir's own rule (<split>*.bin), so a
        CIFAR-named root is loaded as it is, with no synthetic files added."""
        monkeypatch.chdir(tmp_path)
        os.mkdir("data")
        for name, n in (("data_batch_1.bin", 12), ("test_batch.bin", 10)):
            u8, y = dt.make_blob_pairs(n, seed=n)
            dt.write_cifar_bin(f"data/{name}", u8, y)
        sets = ["data.root=data", "data.synthetic=pairs32", "data.n_train=40",
                "data.n_test=30", "data.train_split=data_batch",
                "train.iterations=0", "train2.iterations=0"]
        args = [a for s in sets for a in ("--set", s)]
        assert run(["train", "--output", "ck.bin"] + args) == 0
        capsys.readouterr()
        assert run(["eval", "--checkpoint", "ck.bin"] + args) == 0
        assert capsys.readouterr().out.split()[-1] == "10"
        assert sorted(os.listdir("data")) == ["data_batch_1.bin", "test_batch.bin"]

    def test_dataset_root_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("BITCONTEXT_DATA", str(tmp_path / "envdata"))
        rc = run(["train", "--output", "ck.bin",
                  "--set", "data.synthetic=pairs16",
                  "--set", "data.n_train=200", "--set", "data.n_test=80",
                  "--set", "network.preset=desk-micro",
                  "--set", "train.iterations=2",
                  "--set", "train2.iterations=2"])
        assert rc == 0
        assert (tmp_path / "envdata" / "train-images.idx").exists()


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

    @pytest.mark.parametrize("verb,extra", [
        ("train", []), ("eval", ["--checkpoint", "ck.bin"]), ("count-ops", []),
        ("analyze-binerr", ["--checkpoint", "ck.bin"]),
        ("sweep", ["--set", "sweep.points=0"]), ("export-spec", [])])
    def test_manifest_command_is_the_verb(self, workdir, verb, extra):
        if "--checkpoint" in extra:
            run(["train", "--config", "run.cfg", "--output", "ck.bin"])
        assert run([verb, "--config", "run.cfg", "--output", "out"] + extra) == 0
        assert json.loads(open("out.manifest.json").read())["command"] == verb

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

    def test_schema_types_are_the_defaults_types(self):
        cfg = config.apply_overrides(config.parse_config(""), [
            "train.lr=1", "sweep.band=0", "network.dynamic=yes", "run.seed=3"])
        assert cfg["train"]["lr"] == 1.0 and isinstance(cfg["train"]["lr"], float)
        assert cfg["sweep"]["band"] == 0.0 and isinstance(cfg["sweep"]["band"], float)
        assert cfg["network"]["dynamic"] is True and cfg["run"]["seed"] == 3
