from dataclasses import replace

import numpy as np
import pytest

from bitcontext import costmodel as cm
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


class ReferenceAdamW:
    """The out-of-place AdamW step, kept as the in-place one's oracle."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[k] / b1c
            v_hat = self.v[k] / b2c
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= (lr * update).astype(p.data.dtype)


class TestAdamW:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_in_place_matches_out_of_place_reference(self, weight_decay):
        from bitcontext import autograd as ag
        rng = np.random.default_rng(11)
        shapes = {"conv": (8, 4, 3, 3), "fc": (5, 7), "bias": (6,),
                  "one": (1,), "frozen": (3, 3),
                  # three blocks, the last one ragged; two blocks of a conv bank
                  "long": (2 * tr.BLOCK + 37,), "wide_conv": (128, 64, 3, 3)}
        assert np.prod(shapes["wide_conv"]) > tr.BLOCK
        init = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
        ours = {k: ag.param(a.copy()) for k, a in init.items()}
        refs = {k: ag.param(a.copy()) for k, a in init.items()}
        opt = tr.AdamW(ours, weight_decay=weight_decay)
        ref = ReferenceAdamW(refs, weight_decay=weight_decay)
        for t in range(5):
            for k, s in shapes.items():
                g = None if k == "frozen" else (
                    rng.normal(size=s) * 10.0 ** rng.integers(-6, 3)).astype(np.float32)
                ours[k].grad = None if g is None else g.copy()
                refs[k].grad = g
            opt.step(1e-2 * (t + 1))
            ref.step(1e-2 * (t + 1))
            for k in shapes:  # the step only reads the gradients
                if k != "frozen":
                    assert ours[k].grad.tobytes() == refs[k].grad.tobytes()
        for k in shapes:
            assert ours[k].data.dtype == np.float32
            assert ours[k].data.tobytes() == refs[k].data.tobytes()
            assert opt.m[k].tobytes() == ref.m[k].tobytes()
            assert opt.v[k].tobytes() == ref.v[k].tobytes()
        assert np.array_equal(ours["frozen"].data, init["frozen"])
        assert not opt.m["frozen"].any() and not opt.v["frozen"].any()

    @pytest.mark.parametrize("case", ["cropped_data", "transposed_data",
                                      "transposed_grad"])
    def test_non_contiguous_tensor_updates_in_place(self, case):
        """A parameter that is a cropped or transposed view, or whose
        gradient has another layout than its values, cannot be walked as
        one flat block sequence. Its update still lands in the caller's
        array, equal to the reference."""
        from bitcontext import autograd as ag
        rng = np.random.default_rng(12)
        base = rng.normal(size=(300, 301)).astype(np.float32)
        owners = (base.copy(), base.copy())
        if case == "cropped_data":  # rows 301 apart: no flat view exists
            views = tuple(o[:, 1:] for o in owners)
        elif case == "transposed_data":
            views = tuple(o.T for o in owners)
        else:
            views = owners
        ours, refs = ag.param(views[0]), ag.param(views[1])
        assert np.shares_memory(ours.data, owners[0])
        opt = tr.AdamW({"p": ours}, weight_decay=1e-2)
        ref = ReferenceAdamW({"p": refs}, weight_decay=1e-2)
        for _ in range(3):
            g = rng.normal(size=views[0].shape).astype(np.float32)
            if case == "transposed_grad":
                g = np.asfortranarray(g)
            ours.grad, refs.grad = g.copy(order="K"), g
            opt.step(1e-2)
            ref.step(1e-2)
        assert ours.data.tobytes() == refs.data.tobytes()
        assert opt.m["p"].tobytes() == ref.m["p"].tobytes()
        assert opt.v["p"].tobytes() == ref.v["p"].tobytes()
        assert owners[0].tobytes() == owners[1].tobytes()
        assert not np.array_equal(owners[0], base)

    def test_recorded_second_moment_maximum(self):
        """step records each v's maximum as it leaves it, across blocks, for
        a tensor that runs unblocked, and NaN when any element is NaN."""
        from bitcontext import autograd as ag
        rng = np.random.default_rng(13)
        params = {"long": ag.param(np.zeros(2 * tr.BLOCK + 37)),
                  "view": ag.param(np.zeros((300, 301), np.float32)[:, 1:]),
                  "frozen": ag.param(np.zeros(3))}
        assert not params["view"].data.flags.c_contiguous  # runs unblocked
        opt = tr.AdamW(params)
        assert opt.v_max == {"long": 0.0, "view": 0.0, "frozen": 0.0}
        for t in range(3):
            for k in ("long", "view"):
                g = rng.normal(size=params[k].data.shape).astype(np.float32)
                g.flat[rng.integers(g.size)] = 100.0 * (t + 1)  # one block's peak
                params[k].grad = g
            opt.step(1e-3)
            for k in ("long", "view"):
                assert opt.v_max[k] == float(opt.v[k].max()), (t, k)
        assert opt.v_max["frozen"] == 0.0
        params["long"].grad.flat[tr.BLOCK + 5] = np.nan
        opt.step(1e-3)
        assert np.isnan(opt.v_max["long"]) and not np.isnan(opt.v_max["view"])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_second_moments_alone_trip_the_guard(self, bad):
        """A step the guard did not vet leaves an infinite or NaN second
        moment; the next guard sees it through the recorded maximum though
        the gradient it is given is small."""
        from bitcontext import autograd as ag
        params = {"p": ag.param(np.ones(2 * tr.BLOCK + 3)), "q": ag.param(np.ones(4))}
        opt = tr.AdamW(params)
        small = {k: np.full(p.data.shape, 1e-3, np.float32) for k, p in params.items()}
        for k, p in params.items():
            p.grad = small[k].copy()
        assert not opt.overflows()
        params["p"].grad[tr.BLOCK + 1] = bad  # inf makes g * g and v inf
        with np.errstate(over="ignore", invalid="ignore"):
            opt.step(1e-3)
        assert not np.isfinite(opt.v["p"]).all()
        for k, p in params.items():
            p.grad = small[k].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            assert opt.overflows()
        fresh = tr.AdamW(params)
        fresh.t = opt.t
        assert not fresh.overflows()  # the same gradients, finite moments

    @pytest.mark.parametrize("side", ["g", "v"])
    def test_nan_on_either_side_trips_the_guard(self, side):
        """The guard's bound is the larger of v's recorded maximum and g . g;
        a NaN on either side must reach it rather than be dropped, so the
        step that would write NaN into p is never taken."""
        from bitcontext import autograd as ag
        p = ag.param(np.ones(4))
        opt = tr.AdamW({"p": p})
        g = np.full(4, 1e-3, np.float32)
        if side == "g":
            g[1] = np.nan
        else:  # as a step on a NaN gradient leaves v
            opt.v["p"][1] = opt.v_max["p"] = np.nan
        p.grad = g
        with np.errstate(invalid="ignore"):
            assert opt.overflows()

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
    @pytest.mark.parametrize("field,value", [
        ("step", 3), ("iterations", -3), ("batch_size", 0), ("lr", -1.0),
        ("lr", float("nan")), ("weight_decay", -1e-5), ("smoothing", 1.0),
        ("augment", "flip"), ("kd_weight", -0.5), ("kd_weight", 1.5)])
    def test_unusable_config_rejected_before_training(self, micro_data, field, value):
        net = nw.build(nw.desk_micro(), seed=0)
        before = {k: v.copy() for k, v in net.state_arrays().items()}
        cfg = replace(tr.TrainConfig(step=1, iterations=2, batch_size=32), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be .*, got"):
            tr.train_step(net, micro_data, cfg)
        for k, v in net.state_arrays().items():
            assert np.array_equal(before[k], v), k
        assert net.step == 0

    def test_edge_values_accepted(self):
        for cfg in (tr.TrainConfig(iterations=0, batch_size=1, lr=0.0,
                                   weight_decay=0.0, kd_weight=1.0),
                    *(tr.TrainConfig(augment=a) for a in ("none", "roll", "flip-crop"))):
            assert cfg.validate() is cfg

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
        res = tr.train_step(net, micro_data, cfg)
        assert res.loss_history == []
        for k, v in net.state_arrays().items():
            assert np.array_equal(init[k], v)

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
        for k, b in one.buffers().items():
            assert np.array_equal(b, net.buffers()[k]), k

    def test_non_finite_loss_raises_before_any_update(self, micro_data):
        net = nw.build(nw.desk_micro(), seed=0)
        net.params()["L05.b"].data[0] = np.nan
        before = {k: p.data.copy() for k, p in net.params().items()}
        stats = {k: b.copy() for k, b in net.buffers().items()}
        cfg = tr.TrainConfig(step=1, iterations=3, batch_size=32, lr=1e-3, seed=0)
        with pytest.raises(tr.DivergenceError, match="iteration 0 has loss nan"):
            tr.train_step(net, micro_data, cfg)
        for k, v in before.items():
            assert np.array_equal(v, net.params()[k].data, equal_nan=True), k
        for k, v in stats.items():
            assert np.array_equal(v, net.buffers()[k]), k

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

    def test_float_route_builds_no_graph(self, micro_data, monkeypatch):
        net = nw.build(nw.desk_micro(), seed=6)
        expected = tr.Metrics(0, 0, 0.0, len(micro_data))
        for lo in range(0, len(micro_data), 256):
            logits = net.forward(micro_data.x[lo:lo + 256]).data
            yb = micro_data.y[lo:lo + 256]
            expected.top1 += int((logits.argmax(axis=1) == yb).sum())
            top5 = np.argpartition(-logits, 4, axis=1)[:, :5]
            expected.top5 += int((top5 == yb[:, None]).any(axis=1).sum())
            expected.loss += tr.loss(logits, yb) * len(yb)
        expected.top1 /= expected.n
        expected.top5 /= expected.n
        expected.loss /= expected.n
        seen = []
        forward = net.forward

        def recording_forward(*args, **kwargs):
            out = forward(*args, **kwargs)
            seen.append(out.requires_grad)
            return out

        monkeypatch.setattr(net, "forward", recording_forward)
        assert tr.evaluate(net, micro_data) == expected
        assert seen == [False, False, False]
        assert all(p.requires_grad for p in net.params().values())

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
        rows = tr.sweep_replacement([0, 3], base_spec=base, train_data=micro_data,
                                    eval_data=micro_data, cfgs=(cfg1, cfg2))
        assert all("top1" in r for r in rows)
        assert rows[0]["n_conv"] == 2 and rows[1]["n_conv"] == 1

    def test_trained_point_is_train_step_per_config(self, micro_data):
        """A trained point is the network that train_step, run once per
        config on one network built from the sweep seed, leaves."""
        spec = nw.desk_micro()
        cfgs = [tr.TrainConfig(step=1, iterations=3, batch_size=32, seed=4),
                tr.TrainConfig(step=2, iterations=2, batch_size=32, seed=5)]
        net = nw.build(spec, seed=6)
        for cfg in cfgs:
            tr.train_step(net, micro_data, cfg)
        top1 = tr.evaluate(net, micro_data).top1
        rows = tr.sweep_replacement([0], base_spec=spec, train_data=micro_data,
                                    eval_data=micro_data, cfgs=cfgs, seed=6)
        assert rows[0]["top1"] == top1

    def test_trained_sweep_needs_eval_data(self, micro_data):
        cfg = tr.TrainConfig(step=1, iterations=1, batch_size=32)
        with pytest.raises(ValueError, match="needs train_data and eval_data"):
            tr.sweep_replacement([0], base_spec=nw.desk_micro(),
                                 train_data=micro_data, cfgs=[cfg])

    def test_band_sets_the_ops_window(self):
        base = cm.count_network(nw.desk_sweep()).ops
        ops = cm.count_network(nw.desk_sweep(n_mlp=3)).ops
        gap = abs(ops - base) / base
        assert 0 < gap < 0.03
        assert tr.sweep_replacement([3], band=gap * 1.001)[0]["in_band"]
        assert not tr.sweep_replacement([3], band=gap * 0.999)[0]["in_band"]
