import numpy as np
import pytest

from bitcontext import data as dt
from bitcontext import network as nw
from bitcontext import train as tr


@pytest.fixture(scope="module")
def micro_data():
    return dt.synthetic_pairs_dataset(600, size=16, channels=1, seed=21)


class TestLoss:
    def test_confident_correct_logits_drive_loss_to_zero(self):
        labels = np.array([0, 1])
        prev = None
        for conf in (5.0, 10.0, 20.0):
            logits = np.full((2, 3), -conf)
            logits[np.arange(2), labels] = conf
            val = tr.loss(logits, labels, 0.0)
            if prev is not None:
                assert val < prev
            prev = val
        assert prev < 1e-8

    def test_uniform_logits_log_k(self):
        for k in (2, 7, 10):
            val = tr.loss(np.zeros((4, k)), np.zeros(4, dtype=int), 0.0)
            assert val == pytest.approx(np.log(k), rel=1e-12)

    def test_smoothing_hand_case_two_classes(self):
        """K=2, smoothing 0.1: targets (0.95, 0.05) for label 0."""
        logits = np.array([[1.0, -1.0]])
        z = logits - logits.max()
        logp = z - np.log(np.exp(z).sum())
        expect = -(0.95 * logp[0, 0] + 0.05 * logp[0, 1])
        assert tr.loss(logits, np.array([0]), 0.1) == pytest.approx(
            expect, rel=1e-12)

    def test_smoothing_range_validated(self):
        with pytest.raises(ValueError):
            tr.loss(np.zeros((1, 2)), np.array([0]), 1.0)


class TestAdamW:
    def test_single_parameter_closed_form(self):
        from bitcontext import autograd as ag
        p = ag.param(np.array([2.0]), dtype=np.float64)
        opt = tr.AdamW({"p": p}, weight_decay=0.01)
        g = np.array([0.3])
        p.grad = g.copy()
        lr = 0.1
        opt.step(lr)
        m = 0.1 * 0.3
        v = 0.001 * 0.3 ** 2
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expect = 2.0 - lr * (m_hat / (np.sqrt(v_hat) + 1e-8) + 0.01 * 2.0)
        assert p.data[0] == pytest.approx(expect, rel=1e-12)

    def test_decay_is_decoupled_not_in_gradient(self):
        """With zero gradient the decay still shrinks the parameter."""
        from bitcontext import autograd as ag
        p = ag.param(np.array([1.0]), dtype=np.float64)
        opt = tr.AdamW({"p": p}, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step(0.1)
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5 * 1.0, rel=1e-12)

    def test_skips_params_without_grad(self):
        from bitcontext import autograd as ag
        p = ag.param(np.array([1.0]))
        opt = tr.AdamW({"p": p})
        opt.step(0.1)
        assert p.data[0] == 1.0


class TestCosine:
    def test_endpoints(self):
        assert tr.cosine_lr(0, 1000, 0.25) == 0.25
        assert abs(tr.cosine_lr(1000, 1000, 0.25)) < 1e-12

    def test_monotone_decay(self):
        vals = [tr.cosine_lr(t, 100, 1.0) for t in range(101)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestTrainStep:
    def test_zero_lr_leaves_parameters_unchanged(self, micro_data):
        net = nw.build(nw.desk_micro(), seed=0)
        before = {k: v.copy() for k, v in net.state_arrays().items()
                  if k.startswith("p.")}
        cfg = tr.TrainConfig(step=1, iterations=3, batch_size=32, lr=0.0,
                             weight_decay=0.0, seed=0)
        tr.train_step(net, micro_data, cfg)
        after = net.state_arrays()
        for k, v in before.items():
            assert np.array_equal(v, after[k]), k

    def test_fixed_seed_reproducible_loss_curve(self, micro_data):
        curves = []
        for _ in range(2):
            net = nw.build(nw.desk_micro(), seed=1)
            cfg = tr.TrainConfig(step=1, iterations=5, batch_size=32,
                                 lr=1e-3, seed=7)
            curves.append(tr.train_step(net, micro_data, cfg).loss_history)
        assert curves[0] == curves[1]

    def test_zero_iterations_checkpoint_equals_init(self, micro_data):
        net = nw.build(nw.desk_micro(), seed=2)
        init = {k: v.copy() for k, v in net.state_arrays().items()}
        cfg = tr.TrainConfig(step=2, iterations=0, batch_size=32, lr=1e-3,
                             weight_decay=0.0, seed=0)
        state, res = tr.train_step2(net, None, micro_data, cfg)
        assert res.loss_history == []
        for k in init:
            assert np.array_equal(init[k], state[k])

    def test_smoke_training_reduces_loss(self, micro_data):
        net = nw.build(nw.desk_micro(), seed=3)
        cfg = tr.TrainConfig(step=1, iterations=120, batch_size=64, lr=2e-3,
                             weight_decay=1e-5, augment="roll", seed=0)
        res = tr.train_step(net, micro_data, cfg)
        assert np.mean(res.loss_history[-10:]) < res.loss_history[0]

    def test_step1_keeps_real_weights_step2_binarizes(self, micro_data):
        net = nw.build(nw.desk_micro(), seed=4)
        cfg1 = tr.TrainConfig(step=1, iterations=2, batch_size=16, lr=1e-3,
                              seed=0)
        tr.train_step(net, micro_data, cfg1)
        assert net.binary_weights is False
        cfg2 = tr.TrainConfig(step=2, iterations=2, batch_size=16, lr=1e-3,
                              weight_decay=0.0, seed=0)
        tr.train_step(net, micro_data, cfg2)
        assert net.binary_weights is True

    def test_wrong_step_routing_rejected(self, micro_data):
        net = nw.build(nw.desk_micro(), seed=0)
        with pytest.raises(ValueError):
            tr.train_step1(net, micro_data, tr.TrainConfig(step=2))
        with pytest.raises(ValueError):
            tr.train_step2(net, None, micro_data, tr.TrainConfig(step=1))

    @pytest.mark.parametrize("step", [1, 2])
    def test_divergence_stops_before_the_update(self, step, micro_data):
        """At lr=1e4 the first update blows the loss up to ~1e25 and the next
        gradients' second moments overflow float32; the run stops there with
        the parameters the one completed iteration left."""
        def run(iterations):
            net = nw.build(nw.desk_micro(), seed=0)
            cfg = tr.TrainConfig(step=step, iterations=iterations, batch_size=64,
                                 lr=1e4, seed=0)
            return net, tr.train_step(net, micro_data, cfg)
        one, res = run(1)
        assert np.isfinite(res.loss_history).all()
        with pytest.raises(tr.DivergenceError, match=f"step {step} iteration 1 "
                           r"has loss \d.*e\+\d+ and gradients") as err:
            run(40)
        assert isinstance(err.value, ValueError)
        net = nw.build(nw.desk_micro(), seed=0)
        with pytest.raises(tr.DivergenceError):
            tr.train_step(net, micro_data, tr.TrainConfig(
                step=step, iterations=40, batch_size=64, lr=1e4, seed=0))
        for k, p in one.params().items():
            assert np.array_equal(p.data, net.params()[k].data), k

    def test_non_finite_loss_raises_before_any_update(self, micro_data):
        net = nw.build(nw.desk_micro(), seed=0)
        net.params()["L05.b"].data[0] = np.nan
        before = {k: p.data.copy() for k, p in net.params().items()}
        cfg = tr.TrainConfig(step=1, iterations=3, batch_size=32, lr=1e-3, seed=0)
        with pytest.raises(tr.DivergenceError, match="iteration 0 has loss nan"):
            tr.train_step(net, micro_data, cfg)
        for k, v in before.items():
            assert np.array_equal(v, net.params()[k].data, equal_nan=True), k

    def test_distillation_hook_changes_gradient_flow(self, micro_data):
        teacher = np.zeros((len(micro_data), 10), dtype=np.float32)
        teacher[np.arange(len(micro_data)), micro_data.y] = 4.0
        outs = []
        for kd in (0.0, 0.9):
            net = nw.build(nw.desk_micro(), seed=5)
            cfg = tr.TrainConfig(step=1, iterations=4, batch_size=32, lr=1e-3,
                                 seed=3, teacher_logits=teacher, kd_weight=kd)
            tr.train_step(net, micro_data, cfg)
            outs.append(net.state_arrays()["p.L00.w"].copy())
        assert not np.array_equal(outs[0], outs[1])


class TestEvaluate:
    def test_repeated_evaluation_identical(self, micro_data):
        net = nw.build(nw.desk_micro(), seed=6)
        a = tr.evaluate(net, micro_data)
        b = tr.evaluate(net, micro_data)
        assert a == b

    def test_top5_at_least_top1(self, micro_data):
        net = nw.build(nw.desk_micro(), seed=7)
        m = tr.evaluate(net, micro_data)
        assert m.top5 >= m.top1
        assert 0.0 <= m.top1 <= 1.0

    def test_majority_class_predictor_scores_class_prior(self, micro_data):
        net = nw.build(nw.desk_micro(), seed=8)
        head = net.layers[-1]
        head.w.data[...] = 0.0
        head.b.data[...] = 0.0
        head.b.data[4] = 1.0  # constant prediction: class 4
        m = tr.evaluate(net, micro_data)
        prior = float((micro_data.y == 4).mean())
        assert m.top1 == pytest.approx(prior, abs=1e-9)

    def test_packed_evaluation_matches_float(self, micro_data):
        net = nw.build(nw.desk_micro(), seed=9)
        a = tr.evaluate(net, micro_data)
        b = tr.evaluate(net, micro_data, packed=True)
        assert a.top1 == b.top1 and a.loss == pytest.approx(b.loss, rel=1e-12)


class TestSweep:
    def test_baseline_point_equals_base_spec(self):
        rows = tr.sweep_replacement([0])
        from bitcontext import costmodel as cm
        assert rows[0]["ops"] == cm.count_network(nw.desk_sweep(n_mlp=0)).ops
        assert rows[0]["in_band"]

    def test_steps_stay_within_three_percent_band(self):
        rows = tr.sweep_replacement([0, 3, 6])
        base = rows[0]["ops"]
        for r in rows:
            assert abs(r["ops"] - base) / base <= 0.03
            assert r["in_band"]

    def test_conv_count_monotone_nonincreasing(self):
        rows = tr.sweep_replacement([0, 3, 6, 9])
        convs = [r["n_conv"] for r in rows]
        assert convs == sorted(convs, reverse=True)
        assert len(rows) == 4

    def test_infeasible_replacement_rejected(self):
        with pytest.raises(nw.SpecError):
            tr.sweep_replacement([33])
        with pytest.raises(nw.SpecError):
            tr.sweep_replacement([4])  # not a whole conv block

    def test_replacement_skips_downsample_layers(self):
        spec = nw.desk_sweep(n_mlp=30)
        assert sum(ls.kind == "downsample" for ls in spec.layers) == 2
        assert sum(ls.kind == "binary-mlp" for ls in spec.layers) == 30

    def test_trained_sweep_emits_accuracy_rows(self, micro_data):
        base = nw.NetworkSpec("sweep-mini", (16, 16), 10, [
            nw.LayerSpec("stem-conv", 1, 16, stride=2),
            nw.LayerSpec("downsample", 16, 32, stride=2),
            nw.LayerSpec("binary-conv-3x3", 32, 32),
            nw.LayerSpec("binary-conv-3x3", 32, 32),
            nw.LayerSpec("classifier", 32, 10),
        ], in_channels=1).validate()
        cfg1 = tr.TrainConfig(step=1, iterations=3, batch_size=32, lr=1e-3,
                              seed=0)
        cfg2 = tr.TrainConfig(step=2, iterations=3, batch_size=32, lr=1e-3,
                              weight_decay=0.0, seed=1)
        rows = tr.sweep_replacement([0, 3], budget_band=(0, 1e12),
                                    base_spec=base, train_data=micro_data,
                                    cfg1=cfg1, cfg2=cfg2)
        assert all("top1" in r for r in rows)
        assert rows[0]["n_conv"] == 2 and rows[1]["n_conv"] == 1
