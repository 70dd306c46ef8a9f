import json
import os

import numpy as np
import pytest

from bitcontext import cli
from bitcontext import costmodel as cm
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

    def test_diverged_training_is_runtime_error(self, workdir, capsys):
        assert run(["train", "--config", "run.cfg", "--output", "ck.bin",
                    "--set", "train.lr=1e4"]) == 2
        assert "diverged: step 1 iteration 1" in capsys.readouterr().err
        assert not os.path.exists("ck.bin")

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
