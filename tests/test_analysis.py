import numpy as np
import pytest

from bitcontext import analysis as an
from bitcontext import network as nw


class TestBinarizationError:
    def test_one_dimensional_weights_are_one_filter(self):
        w = np.array([1.0, -1.0, 3.0])
        for mode in ("xnor", "literal"):
            assert an.binarization_error(w, mode) == an.binarization_error(w[None], mode)

    def test_exact_sign_multiple_is_zero(self):
        sign = np.where(np.arange(30).reshape(2, 15) % 4 < 2, 1.0, -1.0)
        assert an.binarization_error(0.5 * sign, "xnor") == 0.0

    def test_hand_case_single_filter(self):
        """w = {1, -1, 3}: alpha = 5/3, error = (2/3 + 2/3 + 4/3)/3 = 8/9."""
        w = np.array([[1.0, -1.0, 3.0]])
        assert an.binarization_error(w, "xnor") == pytest.approx(8.0 / 9.0,
                                                                 rel=1e-12)

    def test_literal_mode_unit_alpha_on_sign_weights(self, rng):
        w = rng.choice([-1.0, 1.0], size=(4, 16))
        assert an.binarization_error(w, "literal") == 0.0

    def test_literal_mode_conv_alpha_is_kernel_area(self):
        w = np.full((1, 2, 3, 3), 9.0)  # alpha_literal = fan_in/c_in = 9
        assert an.binarization_error(w, "literal") == 0.0
        assert an.binarization_error(np.full((1, 2, 3, 3), 1.0),
                                     "literal") == pytest.approx(8.0)

    def test_matches_scalar_loop_oracle(self, rng):
        w = rng.normal(size=(3, 20))
        got = an.binarization_error(w, "xnor")
        total = 0.0
        for j in range(3):
            alpha = sum(abs(v) for v in w[j]) / 20
            for v in w[j]:
                s = 1.0 if v > 0 else -1.0
                total += abs(alpha * s - v)
        assert got == pytest.approx(total / 60, abs=1e-12)

    def test_linear_scaling_in_positive_scalar(self, rng):
        w = rng.normal(size=(2, 12))
        base = an.binarization_error(w, "xnor")
        for lam in (0.5, 2.0, 7.25):
            assert an.binarization_error(lam * w, "xnor") == pytest.approx(
                lam * base, rel=1e-9)

    def test_invariant_under_filter_sign_flip(self, rng):
        w = rng.normal(size=(2, 12))
        flipped = w.copy()
        flipped[1] *= -1.0
        assert an.binarization_error(w, "xnor") == pytest.approx(
            an.binarization_error(flipped, "xnor"), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            an.binarization_error(np.zeros((0, 3)))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            an.binarization_error(np.ones((1, 2)), "other")


class TestPerBranchReport:
    def test_three_rows_per_mlp_block_sorted_by_depth(self):
        net = nw.build(nw.desk_tiny(), seed=0)
        rep = an.per_branch_report(net)
        n_mlp = sum(ls.kind == "binary-mlp" for ls in net.spec.layers)
        assert len(rep.rows) == 3 * n_mlp
        layers = [r.layer for r in rep.rows]
        assert layers == sorted(layers)
        assert [r.branch for r in rep.rows[:3]] == ["P", "S", "L"]

    def test_fresh_init_branches_statistically_similar(self):
        """All branches share the init law, so mean errors agree loosely."""
        errs = {"P": [], "S": [], "L": []}
        for seed in range(6):
            net = nw.build(nw.desk_tiny(), seed=seed)
            for r in an.per_branch_report(net).rows:
                errs[r.branch].append(r.error)
        means = {k: np.mean(v) for k, v in errs.items()}
        ref = np.mean(list(means.values()))
        for v in means.values():
            assert abs(v - ref) / ref < 0.05

    def test_no_mlp_blocks_rejected(self):
        spec = nw.NetworkSpec("convs", (16, 16), 4, [
            nw.LayerSpec("stem-conv", 3, 8, stride=2),
            nw.LayerSpec("binary-conv-3x3", 8, 8),
            nw.LayerSpec("classifier", 8, 4),
        ]).validate()
        with pytest.raises(ValueError):
            an.per_branch_report(nw.build(spec, seed=0))

    def test_delimited_output(self):
        net = nw.build(nw.desk_micro(), seed=0)
        text = an.per_branch_report(net).to_delimited()
        lines = text.splitlines()
        assert lines[0] == "layer\tbranch\terror"
        assert len(lines) == 1 + 9
