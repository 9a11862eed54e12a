"""Tests for losses, gradients, trainers, and grid search."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kafcm import cognitive_graph
from kafcm.cognitive_graph import (
    BOUNDING_KINDS,
    DivergenceError,
    KAFCMModel,
    StandardFCM,
    Trajectory,
    apply_bounding,
    bounding_slope,
    kafcm_step,
    new_kafcm,
    simulate,
)
from kafcm.datagen import Dataset, gen_yerkes
from kafcm.edge_functions import base_eval
from kafcm.spline_core import basis_tensor, make_uniform_grid
from kafcm.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    GridRow,
    _descend,
    _Workspace,
    GridSearchSpace,
    PSOConfig,
    TrainConfig,
    derive_cell_seed,
    grid_search,
    load_grid_rows,
    loss_rec,
    loss_total,
    model_gradient,
    predict_one_step,
    pso_train_fcm,
    save_grid_csv,
    save_grid_summary,
    supervision_layout,
    train_gd,
)


def feedforward_model(seed=0, G=3, degree=2, bounding="identity", n=2):
    """n-node chain-free model: all edges into the last n-1 nodes from node 0."""
    mask = np.zeros((n, n), dtype=bool)
    mask[1:, 0] = True
    grid = make_uniform_grid(-1.0, 1.0, G, degree)
    return new_kafcm(n, grid, mask=mask, bounding=bounding, seed=seed)


def random_model(rng, n, G, degree, bounding):
    mask = rng.random((n, n)) < 0.6
    if not mask.any():
        mask[n - 1, 0] = True
    grid = make_uniform_grid(-1.0, 1.0, G, degree)
    model = new_kafcm(n, grid, mask=mask, bounding=bounding, seed=int(rng.integers(1 << 30)))
    for _, _, e in model.present_edges():
        e.w_base = float(rng.normal(0, 0.5))
        e.w_spline = float(rng.normal(0, 0.5))
        e.alpha = rng.normal(0, 0.5, e.grid.basis_count)
    return model


# ---------------------------------------------------------------- losses


class TestLossRec:
    def test_hand_example(self):
        pred = [[0.0, 0.0], [1.0, 1.0]]
        target = [[1.0, 0.0], [1.0, 0.0]]
        assert loss_rec(pred, target) == pytest.approx(1.0)

    def test_one_dimensional_sequences(self):
        assert loss_rec([1.0, 2.0], [0.0, 0.0]) == pytest.approx(2.5)

    def test_trajectory_input(self):
        traj = Trajectory(states=np.array([[0.5, 0.5], [0.25, 0.75]]))
        assert loss_rec(traj, traj.states) == 0.0

    def test_zero_on_equal(self):
        x = np.random.default_rng(0).random((7, 3))
        assert loss_rec(x, x.copy()) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            loss_rec(np.zeros((3, 2)), np.zeros((2, 2)))

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            loss_rec(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=r"got shape \(2, 3, 1\)"):
            loss_rec(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)))


class TestLossTotal:
    def test_additivity_is_exact(self):
        model = feedforward_model(seed=3)
        rng = np.random.default_rng(1)
        for _, _, e in model.present_edges():
            e.alpha = rng.normal(0, 1, e.grid.basis_count)
        pred = rng.random((5, 1))
        target = rng.random((5, 1))
        lam = 0.01
        l1 = sum(np.abs(e.alpha).sum() for _, _, e in model.present_edges())
        expected = loss_rec(pred, target) + lam * l1
        assert loss_total(model, pred, target, lam) == expected

    def test_zero_lambda_matches_rec(self):
        model = feedforward_model()
        pred = np.array([[0.2], [0.4]])
        target = np.array([[0.0], [0.0]])
        assert loss_total(model, pred, target, 0.0) == loss_rec(pred, target)

    def test_negative_lambda_rejected(self):
        model = feedforward_model()
        with pytest.raises(ValueError, match="non-negative"):
            loss_total(model, np.zeros((1, 1)), np.zeros((1, 1)), -0.1)


class TestSupervisionLayout:
    def test_feedforward_split(self):
        data = Dataset(inputs=np.zeros((4, 3)), targets=np.zeros((4, 2)))
        assert supervision_layout(5, data) == (slice(0, 3), slice(3, 5))

    def test_full_state(self):
        data = Dataset(inputs=np.zeros((4, 3)), targets=np.zeros((4, 3)))
        assert supervision_layout(3, data) == (slice(0, 3), slice(0, 3))

    def test_mismatch_rejected(self):
        data = Dataset(inputs=np.zeros((4, 2)), targets=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="does not fit"):
            supervision_layout(5, data)


# ---------------------------------------------------------------- predictions


class TestPredictOneStep:
    def test_matches_step_on_feedforward(self):
        model = feedforward_model(seed=7, bounding="smooth_clip")
        rng = np.random.default_rng(2)
        xs = rng.uniform(-1, 1, 9)
        data = Dataset(inputs=xs, targets=np.zeros(9))
        pred = predict_one_step(model, data)
        for t, x in enumerate(xs):
            expected = kafcm_step(model, np.array([x, 0.0]))[1]
            assert pred[t, 0] == pytest.approx(expected, abs=1e-14)

    def test_matches_step_on_full_state(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 3, 4, 3, "tanh")
        states = rng.uniform(-1, 1, (6, 3))
        data = Dataset(inputs=states, targets=states)
        pred = predict_one_step(model, data)
        for t in range(6):
            expected = kafcm_step(model, states[t])
            np.testing.assert_allclose(pred[t], expected, atol=1e-14)

    def test_matches_step_when_an_output_feeds_an_edge(self):
        """Output node 2 feeds an edge into input 0, so the stepper's source
        span is every node while predict_one_step's is the input alone; the
        outputs agree, whatever the stepper's output nodes hold."""
        model = feedforward_model(seed=8, bounding="tanh", n=3)
        model.mask[0, 2] = True
        e = model.edges[0][2]
        e.w_base, e.w_spline, e.alpha = 0.7, -0.4, np.linspace(-1.0, 1.0, model.K)
        assert model.span() == slice(0, 3) and model.span(slice(1, 3)) == slice(0, 1)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-1, 1, 9)
        pred = predict_one_step(model, Dataset(inputs=xs, targets=np.zeros((9, 2))))
        for t, x in enumerate(xs):
            expected = kafcm_step(model, np.array([x, *rng.uniform(-1, 1, 2)]))[1:]
            np.testing.assert_allclose(pred[t], expected, rtol=0, atol=1e-14)

    def test_standard_fcm(self):
        model = StandardFCM(weights=np.array([[0.0, 0.0], [0.5, 0.0]]), activation="tanh")
        data = Dataset(inputs=np.array([0.2, -0.6]), targets=np.zeros(2))
        pred = predict_one_step(model, data)
        np.testing.assert_allclose(pred[:, 0], np.tanh(0.5 * np.array([0.2, -0.6])))


# ---------------------------------------------------------------- gradients


def finite_difference(loss_fn, get, put, h=1e-6):
    x0 = get()
    put(x0 + h)
    hi = loss_fn()
    put(x0 - h)
    lo = loss_fn()
    put(x0)
    return (hi - lo) / (2 * h)


class TestModelGradient:
    def test_matches_finite_differences(self):
        # at least 50 random (model, batch, parameter) instances
        rng = np.random.default_rng(42)
        checked = 0
        for trial in range(12):
            n = int(rng.integers(2, 4))
            G = int(rng.integers(2, 5))
            degree = int(rng.integers(1, 4))
            bounding = ("smooth_clip", "tanh", "identity")[trial % 3]
            model = random_model(rng, n, G, degree, bounding)
            T = 8
            if trial % 2 == 0:
                data = Dataset(inputs=rng.uniform(-1, 1, (T, n)), targets=rng.uniform(0, 1, (T, n)))
            else:
                data = Dataset(
                    inputs=rng.uniform(-1, 1, (T, n - 1)), targets=rng.uniform(0, 1, (T, 1))
                )
            lam = 0.0 if trial % 3 else 0.01
            grad = model_gradient(model, data, lam)

            def loss_fn():
                return loss_total(model, predict_one_step(model, data), data.targets, lam)

            edges = list(model.present_edges())
            for i, j, e in edges[:2]:
                fd_wb = finite_difference(
                    loss_fn, lambda: e.w_base, lambda v, e=e: setattr(e, "w_base", v)
                )
                fd_ws = finite_difference(
                    loss_fn, lambda: e.w_spline, lambda v, e=e: setattr(e, "w_spline", v)
                )
                k = int(rng.integers(e.grid.basis_count))

                def put_alpha(v, e=e, k=k):
                    e.alpha[k] = v

                fd_al = finite_difference(loss_fn, lambda e=e, k=k: e.alpha[k], put_alpha)
                for analytic, fd in (
                    (grad.d_w_base[i, j], fd_wb),
                    (grad.d_w_spline[i, j], fd_ws),
                    (grad.d_alpha[i, j, k], fd_al),
                ):
                    assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-7)
                    checked += 3
        assert checked >= 50

    def test_masked_entries_zero(self):
        model = feedforward_model(seed=1, n=3)
        data = Dataset(inputs=np.zeros((4, 1)) + 0.3, targets=np.full((4, 2), 0.6))
        grad = model_gradient(model, data)
        assert grad.d_w_base[0, 1] == 0.0
        assert grad.d_alpha[2, 1].sum() == 0.0

    def test_l1_term_uses_sign_zero_at_zero(self):
        model = feedforward_model(seed=0, G=2, degree=1)
        for _, _, e in model.present_edges():
            e.alpha = np.zeros(e.grid.basis_count)
            e.w_spline = 0.0
        data = Dataset(inputs=np.zeros(3), targets=np.zeros(3))
        g0 = model_gradient(model, data, lam=0.0)
        g1 = model_gradient(model, data, lam=5.0)
        np.testing.assert_array_equal(g0.d_alpha, g1.d_alpha)

    def test_non_finite_raises(self):
        model = feedforward_model(seed=0, bounding="identity")
        for _, _, e in model.present_edges():
            e.w_base = 1e308
        data = Dataset(inputs=np.full(4, 0.9), targets=np.zeros(4))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="non-finite"):
            model_gradient(model, data)

    def test_non_finite_message_names_the_gradient_entry(self):
        # an infinite loss over a finite gradient names no entry
        model = feedforward_model(seed=0, bounding="identity")
        model.w_base[1, 0] = 1e308
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
            model_gradient(model, Dataset(inputs=np.full(4, 0.9), targets=np.zeros(4)))
        assert str(info.value) == "non-finite loss or gradient"
        # a huge spline weight over zero coefficients: finite loss, infinite d alpha
        model = feedforward_model(seed=0, bounding="identity")
        model.w_spline[1, 0] = 1e308
        model.alpha[1, 0] = 0.0
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
            model_gradient(model, Dataset(inputs=np.full(4, 0.5), targets=np.full(4, 100.0)))
        assert str(info.value) == "non-finite loss or gradient, alpha of edge (1, 0) at k = 2"

    def test_empty_batch_rejected(self):
        model = feedforward_model()
        with pytest.raises(ValueError, match="empty"):
            model_gradient(model, Dataset(inputs=np.zeros((0, 1)), targets=np.zeros((0, 1))))


# ---------------------------------------------------------------- train_gd


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="lam"):
            TrainConfig(lam=-1.0)


class TestTrainGD:
    def test_self_generated_data_starts_at_zero_loss(self):
        model = feedforward_model(seed=11, bounding="smooth_clip")
        xs = np.random.default_rng(4).uniform(-1, 1, 16)
        ys = np.array([kafcm_step(model, np.array([x, 0.0]))[1] for x in xs])
        data = Dataset(inputs=xs, targets=ys)
        _, history = train_gd(model, data, TrainConfig(learning_rate=0.01, epochs=2))
        assert history[0] <= 1e-20

    def test_history_length_and_decrease(self):
        data = gen_yerkes(64, noise_sd=0.0, seed=5)
        model = feedforward_model(seed=5, G=4, degree=3)
        _, history = train_gd(model, data, TrainConfig(learning_rate=0.1, epochs=200))
        assert len(history) == 200
        assert history[-1] < history[0]
        assert history[-1] < 0.05

    def test_deterministic(self):
        data = gen_yerkes(32, noise_sd=0.05, seed=6)
        results = []
        for _ in range(2):
            model = feedforward_model(seed=9)
            m, history = train_gd(model, data, TrainConfig(learning_rate=0.05, epochs=40))
            edge = m.edges[1][0]
            results.append((history.tobytes(), edge.w_base, edge.w_spline, edge.alpha.tobytes()))
        assert results[0] == results[1]

    def test_mutates_and_returns_model(self):
        data = gen_yerkes(16, noise_sd=0.0, seed=7)
        model = feedforward_model(seed=2)
        before = model.edges[1][0].alpha.copy()
        out, _ = train_gd(model, data, TrainConfig(learning_rate=0.1, epochs=10))
        assert out is model
        assert not np.array_equal(model.edges[1][0].alpha, before)

    def test_l1_shrinks_alpha(self):
        data = gen_yerkes(64, noise_sd=0.0, seed=8)
        sizes = []
        for lam in (0.0, 0.05):
            model = feedforward_model(seed=3, G=6, degree=3)
            m, _ = train_gd(model, data, TrainConfig(learning_rate=0.05, epochs=150, lam=lam))
            sizes.append(np.abs(m.edges[1][0].alpha).sum())
        assert sizes[1] < sizes[0]

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_first_loss_is_loss_total_bit_for_bit(self, seed):
        # 12-17 of 25 edges present: a pairwise sum of |alpha| over the whole
        # buffer differs in the last bits from loss_total's per-edge sums for
        # these seeds
        rng = np.random.default_rng(seed)
        model = random_model(rng, 5, 5, 3, "tanh")
        data = Dataset(rng.uniform(-1, 1, (20, 1)), rng.uniform(-1, 1, (20, 4)))
        loss0 = loss_total(model, predict_one_step(model, data), data.targets, 0.01)
        _, history = train_gd(model, data, TrainConfig(learning_rate=0.05, epochs=1, lam=0.01))
        assert history[0] == loss0

    def test_divergence_raises(self):
        data = gen_yerkes(8, noise_sd=0.0, seed=9)
        model = feedforward_model(seed=4, bounding="identity")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="non-finite"
        ):
            train_gd(model, data, TrainConfig(learning_rate=1e200, epochs=5))

    def test_empty_training_set_rejected(self):
        model = feedforward_model()
        with pytest.raises(ValueError, match="empty"):
            train_gd(
                model,
                Dataset(inputs=np.zeros((0, 1)), targets=np.zeros((0, 1))),
                TrainConfig(),
            )


class TestNoPerEdgeWork:
    def test_inference_and_training_never_touch_edge_views(self, monkeypatch):
        model = feedforward_model(seed=4, bounding="tanh", n=3)
        data = Dataset(inputs=np.linspace(-1, 1, 6), targets=np.zeros((6, 2)))

        def refuse(*args, **kwargs):
            raise AssertionError("per-edge Python work")

        monkeypatch.setattr(cognitive_graph.KAFCMModel, "present_edges", refuse)
        monkeypatch.setattr(cognitive_graph.EdgeView, "__init__", refuse)
        c0 = np.array([0.2, -0.1, 0.4])
        assert simulate(model, c0, 5).states.shape == (6, 3)
        assert kafcm_step(model, c0).shape == (3,)
        assert predict_one_step(model, data).shape == (6, 2)
        model_gradient(model, data, lam=0.01)
        _, history = train_gd(model, data, TrainConfig(learning_rate=0.05, epochs=3, lam=0.01))
        assert len(history) == 3


class TestOneBufferAdam:
    """train_gd updates every parameter group as one Adam buffer."""

    def test_one_epoch_is_one_adam_step(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, 4, 3, 3, "tanh")
        model.mask[2, 0] = model.mask[0, 2] = False
        model.mask[2, 1] = model.mask[0, 3] = True  # an output edge and an L1-only input edge
        for i, j in ((2, 1), (0, 3)):
            e = model.edges[i][j]
            e.w_base, e.w_spline, e.alpha = 0.3, -0.4, rng.normal(0, 0.5, model.K)
        # two inputs, two outputs: edges into nodes 0 and 1 feel only the L1 term
        data = Dataset(rng.uniform(-1, 1, (12, 2)), rng.uniform(-1, 1, (12, 2)))
        config = TrainConfig(learning_rate=0.05, epochs=1, lam=0.01)
        grad = model_gradient(model, data, config.lam)

        def adam_step(p, g):
            mhat = (1 - 0.9) * g / (1 - 0.9)
            vhat = (1 - 0.999) * g * g / (1 - 0.999)
            return p - config.learning_rate * mhat / (np.sqrt(vhat) + 1e-8)

        expected = {
            (i, j): (
                adam_step(e.w_base, grad.d_w_base[i, j]),
                adam_step(e.w_spline, grad.d_w_spline[i, j]),
                adam_step(e.alpha, grad.d_alpha[i, j]),
            )
            for i, j, e in model.present_edges()
        }
        loss0 = loss_total(model, predict_one_step(model, data), data.targets, config.lam)
        _, history = train_gd(model, data, config)
        assert history[0] == loss0
        for i, j, e in model.present_edges():
            w_base, w_spline, alpha = expected[i, j]
            assert e.w_base == pytest.approx(w_base, rel=1e-14, abs=1e-15)
            assert e.w_spline == pytest.approx(w_spline, rel=1e-14, abs=1e-15)
            np.testing.assert_allclose(e.alpha, alpha, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize(
        "learning_rate, message",
        [
            (1e300, "non-finite loss at epoch 1"),
            # absent slots go NaN too (inf * 0); the message names a present edge
            (float("inf"), r"non-finite parameters after epoch 0, w_base of edge \(1, 0\)$"),
        ],
        ids=["loss", "parameters"],
    )
    def test_failed_fit_leaves_the_model_unchanged(self, learning_rate, message):
        # each fit aborts after Adam has updated its copy of the parameters
        model = feedforward_model(seed=0, bounding="identity", n=3)
        for view in model.views(model.theta):  # parameters parked in an absent slot
            view[1, 2] = view[1, 0]
        theta = model.theta.copy()
        data = Dataset(inputs=np.full(4, 0.5), targets=np.full((4, 2), 100.0))
        config = TrainConfig(epochs=5)
        config.learning_rate = learning_rate  # set past TrainConfig's check, which rejects inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError, match=message):
            train_gd(model, data, config)
        assert np.array_equal(model.theta.view(np.uint64), theta.view(np.uint64))

    def test_absent_slots_are_ignored_and_kept(self):
        model = feedforward_model(seed=0, n=3)
        for view in model.views(model.theta):  # parked: mask[1, 2] stays False
            view[1, 2] = view[1, 0]
        parked = [model.w_base[1, 2], model.w_spline[1, 2], model.alpha[1, 2].copy()]
        data = Dataset(inputs=np.linspace(-1, 1, 8), targets=np.zeros((8, 2)))
        lam = 0.01
        grad = model_gradient(model, data, lam)
        assert grad.d_w_base[1, 2] == grad.d_w_spline[1, 2] == 0.0 and not grad.d_alpha[1, 2].any()
        loss0 = loss_total(model, predict_one_step(model, data), data.targets, lam)
        _, history = train_gd(model, data, TrainConfig(learning_rate=0.1, epochs=5, lam=lam))
        assert history[0] == loss0
        assert [model.w_base[1, 2], model.w_spline[1, 2]] == parked[:2]
        np.testing.assert_array_equal(model.alpha[1, 2], parked[2])

    def test_non_finite_gradient_keeps_partial_history(self):
        # a huge spline weight over zero coefficients: finite loss, infinite d alpha
        model = feedforward_model(seed=0, bounding="identity")
        e = model.edges[1][0]
        e.w_spline = 1e308
        e.alpha = np.zeros(e.grid.basis_count)
        data = Dataset(inputs=np.full(4, 0.5), targets=np.full(4, 100.0))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
            train_gd(model, data, TrainConfig(learning_rate=0.1, epochs=5))
        assert str(info.value) == "non-finite gradient at epoch 0, alpha of edge (1, 0) at k = 2"
        assert len(info.value.history) == 1
        assert np.isfinite(info.value.history).all()

    def test_non_finite_loss_keeps_partial_history(self):
        data = gen_yerkes(8, noise_sd=0.0, seed=9)
        model = feedforward_model(seed=4, bounding="identity")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
            train_gd(model, data, TrainConfig(learning_rate=1e200, epochs=5))
        assert str(info.value) == "non-finite loss at epoch 1"
        assert len(info.value.history) == 1

    def test_non_finite_gradient_names_its_group_and_edge(self):
        # huge coefficients under a tiny spline weight: finite loss, infinite d w_spline
        model = feedforward_model(seed=0, bounding="identity")
        e = model.edges[1][0]
        e.w_spline = 1e-300
        e.alpha = np.full(e.grid.basis_count, 1e308)
        data = Dataset(inputs=np.full(4, 0.5), targets=np.full(4, 100.0))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
            train_gd(model, data, TrainConfig(learning_rate=0.1, epochs=5))
        assert str(info.value) == "non-finite gradient at epoch 0, w_spline of edge (1, 0)"


def scanned_descend(ws, update, epochs, watch):
    """_descend's loop with its check as four entrywise scans a epoch, as it
    was before the one-product test: the oracle for its history and errors."""
    history = []

    def abort(message):
        err = DivergenceError(message)
        err.history = np.array(history)
        raise err

    for epoch in range(epochs):
        loss = ws.loss_and_grads()
        if not math.isfinite(loss):
            abort(f"non-finite loss at epoch {epoch}")
        history.append(loss)
        update(epoch + 1)
        if not np.logical_and.reduce(np.isfinite(watch)):
            if np.isfinite(ws.grad).all():
                abort(f"gradient overflows the update at epoch {epoch}, {ws.non_finite_entry(watch)}")
            abort(f"non-finite gradient at epoch {epoch}, {ws.non_finite_entry(ws.grad)}")
        if not np.logical_and.reduce(np.isfinite(ws.theta)):
            abort(f"non-finite parameters after epoch {epoch}, {ws.non_finite_entry(ws.theta)}")
    return np.array(history)


class StubWorkspace:
    """theta, grad and a loss_and_grads that returns the next of `losses`;
    non_finite_entry names the index of a buffer's first non-finite entry."""

    def __init__(self, theta, grad, losses):
        self.theta, self.grad = np.array(theta), np.array(grad)
        self.loss_and_grads = iter(losses).__next__

    def non_finite_entry(self, flat):
        return f"entry {int(np.argmin(np.isfinite(flat)))}"


def descend_outcome(descend, ws, update, epochs, watch):
    """(history, None) of a run that finishes, (partial history, message) of one that raises."""
    try:
        return descend(ws, update, epochs, watch).tolist(), None
    except DivergenceError as err:
        return err.history.tolist(), str(err)


class TestDescendCheck:
    """_descend tests watch and theta with one product, watch . theta, and
    scans them entry by entry only when it is not finite."""

    def test_vdot_of_inf_and_zero_warns_of_nothing(self):
        # the product must not warn: the tests turn a RuntimeWarning into a
        # failure, and np.dot([inf], [0.]) warns "invalid value encountered in dot"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(np.vdot(np.array([np.inf]), np.array([0.0])))
            assert math.isnan(np.vdot([np.inf], [0.0]))
            # and it leaves no floating-point flag for the next ufunc to report
            assert np.add(np.ones(3), 1.0).tolist() == [2.0, 2.0, 2.0]

    @pytest.mark.parametrize(
        "theta, watch",
        [
            ([1e200, 1e200, 3.0], [1e200, 1e200, 0.0]),  # the product is +inf
            ([1e200, -1e200, 3.0], [1e200, 1e200, 0.0]),  # inf - inf, NaN
        ],
        ids=["inf", "nan"],
    )
    def test_a_product_that_only_overflows_runs_every_epoch(self, theta, watch):
        watch = np.array(watch)
        assert not math.isfinite(np.vdot(watch, np.array(theta)))
        losses = [4.0, 2.0, 1.0, 0.5, 0.25]
        steps = []

        def outcome(descend):
            steps.clear()
            ws = StubWorkspace(theta, [0.1, 0.2, 0.3], losses)
            return descend_outcome(descend, ws, steps.append, len(losses), watch)

        assert outcome(_descend) == outcome(scanned_descend) == (losses, None)
        assert steps == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize(
        "broken, message",
        [
            (("watch",), "gradient overflows the update at epoch 2, entry 1"),
            # the update leaves watch non-finite where grad is
            (("grad", "watch"), "non-finite gradient at epoch 2, entry 1"),
            (("theta",), "non-finite parameters after epoch 2, entry 1"),
        ],
        ids=["watch", "grad", "theta"],
    )
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_entry_over_a_zero_is_caught(self, broken, message, bad):
        """A non-finite entry of one buffer where the other holds 0 (theta
        and watch both do at entry 1) makes the product NaN, and the scans
        name it as before."""

        def outcome(descend):
            ws = StubWorkspace([0.5, 0.0, 0.5], [0.1, 0.2, 0.3], [4.0, 2.0, 1.0, 0.5])
            buffers = {"watch": np.zeros(3), "grad": ws.grad, "theta": ws.theta}

            def update(t):
                if t == 3:
                    for name in broken:
                        buffers[name][1] = bad

            return descend_outcome(descend, ws, update, 4, buffers["watch"])

        assert outcome(_descend) == outcome(scanned_descend) == ([4.0, 2.0, 1.0], message)

    @pytest.mark.parametrize(
        "broken, message",
        [
            (("watch",), r"gradient overflows the update at epoch 2, alpha of edge \(1, 0\) at k = 1"),
            (("grad", "watch"), r"non-finite gradient at epoch 2, w_base of edge \(1, 0\)"),
            (("theta",), r"non-finite parameters after epoch 2, w_spline of edge \(1, 0\)"),
        ],
        ids=["watch", "grad", "theta"],
    )
    def test_a_fit_names_the_group_edge_and_epoch(self, broken, message):
        """A KA-FCM workspace: after the third update, inf in a present
        edge's entry of one buffer where the other buffer holds 0."""
        model = feedforward_model(seed=0, bounding="tanh")
        ws = _Workspace(model, Dataset(np.linspace(-1, 1, 6), np.zeros(6)), 0.0)
        w_base, w_spline, alpha = model.views(np.arange(len(ws.theta)))
        entry = {"watch": alpha[1, 0, 1], "grad": w_base[1, 0], "theta": w_spline[1, 0]}[broken[0]]
        buffers = {"watch": np.zeros_like(ws.theta), "grad": ws.grad, "theta": ws.theta}

        def update(t):
            if t == 3:
                ws.theta[entry] = 0.0
                for name in broken:
                    buffers[name][entry] = np.inf

        with pytest.raises(DivergenceError, match=f"^{message}$") as info:
            _descend(ws, update, 5, buffers["watch"])
        assert len(info.value.history) == 3


def reference_span(mask):
    """The smallest contiguous range of columns with a True entry, or an empty slice."""
    used = np.flatnonzero(mask.any(axis=0))
    return slice(int(used[0]), int(used[-1]) + 1) if len(used) else slice(0, 0)


def reference_train_gd(model, data, config):
    """The allocating KA-FCM epoch and Adam loop, one fresh array per
    expression and one product each way over the output rows' source span
    (F = [b(x) | B(x)] of its states, W = [w_base | w_spline * alpha]): the
    oracle the preallocated workspace must match bit for bit. Returns
    (history, theta after the fit, gradient of epoch 0)."""
    inputs, rows = supervision_layout(model.n_nodes, data)
    span = reference_span(model.mask[rows])
    states = np.zeros((len(data), model.n_nodes))
    states[:, inputs] = data.inputs
    x = states[:, span]
    S, K = x.shape[1], model.K
    F = np.hstack([base_eval(model.base, x), basis_tensor(model.grid, x)])
    targets = np.asarray(data.targets, dtype=float)
    mask = model.mask.ravel()
    present = np.concatenate([mask, mask, np.repeat(mask, K)])
    theta = np.where(present, model.theta, 0.0)
    grad = np.zeros_like(theta)
    w_base, w_spline, alpha = (view[rows, span] for view in model.views(theta))
    g_wb, g_ws, g_al = model.views(grad)
    full_alpha = model.views(theta)[2]
    block_mask = model.mask[rows, span].astype(float)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    history = np.empty(config.epochs)
    first_grad = None
    for epoch in range(config.epochs):
        Ws = (w_spline * block_mask)[:, :, None] * alpha
        W = np.hstack([w_base * block_mask, Ws.reshape(len(Ws), -1)])
        pre = F @ W.T
        resid = np.asarray(apply_bounding(model.bounding, pre)) - targets
        loss = float(np.mean(np.sum(resid**2, axis=1)))
        u = ((2.0 / len(resid)) * resid * bounding_slope(model.bounding, apply_bounding(model.bounding, pre))).T
        G = u @ F
        g_wb[rows, span] = np.where(model.mask[rows, span], G[:, :S], 0.0)
        C = G[:, S:].reshape(len(u), S, K)
        g_ws[rows, span] = (alpha * C).sum(axis=2)
        if config.lam > 0:
            loss += config.lam * float(sum(np.abs(full_alpha[model.mask]).sum(axis=1)))
            np.multiply(config.lam, np.sign(full_alpha), out=g_al)
            g_al[rows, span] += w_spline[:, :, None] * C
        else:
            g_al[rows, span] = w_spline[:, :, None] * C
        history[epoch] = loss
        if first_grad is None:
            first_grad = grad.copy()
        t = epoch + 1
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * grad * grad
        mhat = m / (1 - ADAM_BETA1**t)
        vhat = v / (1 - ADAM_BETA2**t)
        theta -= config.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)
    out = model.theta.copy()
    np.copyto(out, theta, where=present)
    return history, out, first_grad


def span_case_mask(kind, n, d_in):
    """The mask of a feedforward n-node map, inputs 0 .. d_in-1 and outputs
    d_in .. n-1, whose output rows' source span is one of SPAN_CASES:
    - "gapped": the outputs' sources are nodes 0 and d_in-1 only, so the
      span covers the unused inputs between them (d_in >= 3);
    - "empty-row": the last output row has no present edge (n - d_in >= 2);
    - "empty-span": no edge into an output.
    Each also has edges into inputs, from the last node and, with two inputs
    or more, from node 0, which only the L1 term moves."""
    mask = np.zeros((n, n), dtype=bool)
    if kind == "gapped":
        mask[d_in:, 0] = mask[n - 1, d_in - 1] = True
    elif kind == "empty-row":
        mask[d_in, :d_in] = True
    mask[0, n - 1] = mask[min(1, d_in - 1), 0] = True
    return mask


SPAN_CASES = ("gapped", "empty-row", "empty-span")


@st.composite
def fit_cases(draw):
    """(model, data, config): a random map with absent edges, any bounding,
    a feedforward or full-state layout, and lam zero or positive; a
    feedforward map may take one of span_case_mask's masks instead."""
    n = draw(st.integers(2, 5))
    d_in = draw(st.integers(1, n - 1) | st.just(n))  # d_in == n supervises the full state
    kinds = [k for k in SPAN_CASES if d_in < n and (k != "gapped" or d_in >= 3) and (k != "empty-row" or n - d_in >= 2)]
    kind = draw(st.sampled_from([None] + kinds))
    if kind is None:
        mask = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
        mask[n - 1, 0] = True
    else:
        mask = span_case_mask(kind, n, d_in)
    bounding = draw(st.sampled_from(BOUNDING_KINDS))
    grid = make_uniform_grid(-1.0, 1.0, draw(st.integers(1, 6)), draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = new_kafcm(n, grid, mask=mask, bounding=bounding, seed=int(rng.integers(1 << 30)))
    model.theta[:] = rng.normal(0.0, 0.5, model.theta.shape)  # absent slots hold values too
    T = draw(st.integers(1, 40))
    d_out = n if d_in == n else n - d_in
    data = Dataset(rng.uniform(-1.3, 1.3, (T, d_in)), rng.uniform(-1.0, 1.0, (T, d_out)))
    config = TrainConfig(
        learning_rate=draw(st.sampled_from([0.001, 0.05, 0.3])),
        epochs=draw(st.integers(1, 6)),
        lam=draw(st.sampled_from([0.0, 0.02])),
    )
    return model, data, config


def assert_fit_bit_equal(model, data, config):
    """model_gradient, train_gd's history and the fitted theta equal
    reference_train_gd's bit for bit; returns model_gradient's result."""
    ref_history, ref_theta, ref_grad = reference_train_gd(model, data, config)
    grad = model_gradient(model, data, config.lam)
    flat = np.concatenate([grad.d_w_base.ravel(), grad.d_w_spline.ravel(), grad.d_alpha.ravel()])
    assert np.array_equal(flat.view(np.uint64), ref_grad.view(np.uint64))
    _, history = train_gd(model, data, config)
    assert np.array_equal(history.view(np.uint64), ref_history.view(np.uint64))
    assert np.array_equal(model.theta.view(np.uint64), ref_theta.view(np.uint64))
    return grad


class TestEpochBitExact:
    """train_gd's preallocated epoch and in-place Adam against the plain
    allocating expressions."""

    @settings(max_examples=80, deadline=None)
    @given(fit_cases())
    def test_history_theta_and_gradient_are_bit_equal(self, case):
        assert_fit_bit_equal(*case)

    @pytest.mark.parametrize("lam", [0.0, 0.02])
    @pytest.mark.parametrize("kind", SPAN_CASES)
    def test_span_cases(self, kind, lam):
        """Each span case on a 6-node map with 3 inputs and K = 9 (past
        NumPy's 8-way pairwise sum) is bit-equal to the reference; the
        gradient is zero at masked entries, so outside the span, and with
        lam > 0 the present input edges' alpha moves as the reference's."""
        n, d_in = 6, 3
        mask = span_case_mask(kind, n, d_in)
        spans = {"gapped": slice(0, 3), "empty-row": slice(0, 3), "empty-span": slice(0, 0)}
        model = new_kafcm(n, make_uniform_grid(-1.0, 1.0, 6, 3), mask=mask, bounding="tanh", seed=5)
        assert model.span(slice(d_in, n)) == spans[kind]
        rng = np.random.default_rng(6)
        model.theta[:] = rng.normal(0.0, 0.5, model.theta.shape)
        into_inputs = mask.copy()
        into_inputs[d_in:] = False
        alpha_in = model.alpha[into_inputs]
        data = Dataset(rng.uniform(-1.3, 1.3, (30, d_in)), rng.uniform(-1.0, 1.0, (30, n - d_in)))
        grad = assert_fit_bit_equal(model, data, TrainConfig(learning_rate=0.05, epochs=4, lam=lam))
        for g in (grad.d_w_base, grad.d_w_spline, grad.d_alpha):
            assert not g[~mask].any()
        assert not grad.d_w_base[into_inputs].any() and not grad.d_w_spline[into_inputs].any()
        assert np.array_equal(grad.d_alpha[into_inputs], lam * np.sign(alpha_in))
        assert (model.alpha[into_inputs] != alpha_in).all() == (lam > 0)


# ---------------------------------------------------------------- PSO


def reference_pso(model, train, config):
    """Particle swarm that scores one particle per Python call: the oracle
    the swarm-batched fitness must match bit for bit."""
    n = model.n_nodes
    inputs, rows = supervision_layout(n, train)
    states = np.zeros((len(train), n))
    states[:, inputs] = train.inputs
    lo, hi = config.weight_bounds
    rng = np.random.default_rng(config.seed)

    def fitness(flat_w):
        pred = np.asarray(apply_bounding(model.activation, states @ flat_w.reshape(n, n).T))[:, rows]
        return float(np.mean(np.sum((pred - train.targets) ** 2, axis=1)))

    pos = rng.uniform(lo, hi, (config.swarm_size, n * n))
    vel = np.zeros_like(pos)
    pbest = pos.copy()
    pbest_fit = np.array([fitness(p) for p in pos])
    g_idx = int(np.argmin(pbest_fit))
    gbest, gbest_fit = pbest[g_idx].copy(), float(pbest_fit[g_idx])
    history = np.empty(config.iterations)
    for it in range(config.iterations):
        r1 = rng.random(pos.shape)
        r2 = rng.random(pos.shape)
        vel = (
            config.inertia * vel
            + config.cognitive * r1 * (pbest - pos)
            + config.social * r2 * (gbest[None, :] - pos)
        )
        pos = np.clip(pos + vel, lo, hi)
        fits = np.array([fitness(p) for p in pos])
        better = fits < pbest_fit
        pbest[better] = pos[better]
        pbest_fit[better] = fits[better]
        g_idx = int(np.argmin(pbest_fit))
        if pbest_fit[g_idx] < gbest_fit:
            gbest_fit = float(pbest_fit[g_idx])
            gbest = pbest[g_idx].copy()
        history[it] = gbest_fit
    return gbest.reshape(n, n), history


class TestPSO:
    # (nodes, inputs, targets, rows, activation): the experiments' 1-in/1-out
    # and 4-in/1-out layouts, and a 5-node full-state map
    EXACT_CASES = [
        (2, 1, 1, 960, "tanh"),
        (2, 1, 1, 400, "smooth_clip"),
        (5, 4, 1, 957, "tanh"),
        (5, 5, 5, 900, "smooth_clip"),
    ]

    @pytest.mark.parametrize("n,d_in,d_out,T,activation", EXACT_CASES)
    def test_equals_per_particle_reference(self, n, d_in, d_out, T, activation):
        rng = np.random.default_rng(T + n)
        data = Dataset(rng.uniform(-1, 1, (T, d_in)), rng.uniform(-0.9, 0.9, (T, d_out)))
        config = PSOConfig(iterations=40, seed=n)
        model = StandardFCM(weights=np.zeros((n, n)), activation=activation)
        trained, history = pso_train_fcm(model, data, config)
        ref_weights, ref_history = reference_pso(model, data, config)
        assert np.array_equal(history, ref_history)
        assert np.array_equal(trained.weights, ref_weights)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 9),
        full_state=st.booleans(),
        S=st.integers(2, 39),
        T=st.integers(1, 1299),
        activation=st.sampled_from(BOUNDING_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    # one row, where a swarm product of other shapes goes through gemv, and
    # the largest layouts
    @example(n=3, full_state=False, S=2, T=1, activation="tanh", seed=0)
    @example(n=5, full_state=False, S=39, T=1299, activation="tanh", seed=1)
    @example(n=9, full_state=True, S=39, T=1299, activation="smooth_clip", seed=2)
    def test_bit_equal_to_reference_over_layouts(self, n, full_state, S, T, activation, seed):
        rng = np.random.default_rng(seed)
        d_in = n if full_state else int(rng.integers(1, n))
        d_out = n if full_state else n - d_in
        data = Dataset(rng.uniform(-1, 1, (T, d_in)), rng.uniform(-0.9, 0.9, (T, d_out)))
        config = PSOConfig(swarm_size=S, iterations=3, seed=seed)
        model = StandardFCM(weights=np.zeros((n, n)), activation=activation)
        trained, history = pso_train_fcm(model, data, config)
        ref_weights, ref_history = reference_pso(model, data, config)
        assert np.array_equal(history.view(np.uint64), ref_history.view(np.uint64))
        assert np.array_equal(trained.weights.view(np.uint64), ref_weights.view(np.uint64))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="swarm_size"):
            PSOConfig(swarm_size=1)
        with pytest.raises(ValueError, match="bounds"):
            PSOConfig(weight_bounds=(1.0, -1.0))

    def test_recovers_linear_weight(self):
        rng = np.random.default_rng(10)
        xs = rng.uniform(-1, 1, 64)
        ys = np.tanh(0.6 * xs)
        data = Dataset(inputs=xs, targets=ys)
        model = StandardFCM(weights=np.zeros((2, 2)), activation="tanh")
        config = PSOConfig(iterations=200, seed=3)
        trained, history = pso_train_fcm(model, data, config)
        assert history[-1] <= 1e-6
        assert trained.weights[1, 0] == pytest.approx(0.6, abs=0.01)

    def test_history_non_increasing(self):
        rng = np.random.default_rng(11)
        data = Dataset(inputs=rng.uniform(-1, 1, 32), targets=rng.uniform(0, 1, 32))
        model = StandardFCM(weights=np.zeros((2, 2)), activation="smooth_clip")
        _, history = pso_train_fcm(model, data, PSOConfig(iterations=80, seed=1))
        assert len(history) == 80
        assert (np.diff(history) <= 0).all()

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        data = Dataset(inputs=rng.uniform(-1, 1, 24), targets=rng.uniform(0, 1, 24))
        outs = []
        for _ in range(2):
            model = StandardFCM(weights=np.zeros((2, 2)), activation="tanh")
            trained, history = pso_train_fcm(model, data, PSOConfig(iterations=40, seed=7))
            outs.append((trained.weights.tobytes(), history.tobytes()))
        assert outs[0] == outs[1]

    def test_weights_respect_bounds(self):
        rng = np.random.default_rng(13)
        data = Dataset(inputs=rng.uniform(-1, 1, 16), targets=rng.uniform(0, 1, 16))
        model = StandardFCM(weights=np.zeros((2, 2)), activation="tanh")
        trained, _ = pso_train_fcm(model, data, PSOConfig(iterations=30, seed=2))
        assert (np.abs(trained.weights) <= 1.0).all()


# ---------------------------------------------------------------- grid search


def synthetic_task(G, config, splits):
    if G == 6:
        raise DivergenceError("synthetic failure")
    return (G - 5.0) ** 2 + 10.0 * (0.11 - config.learning_rate) + 2000.0 / config.epochs


class TestGridSearch:
    def space(self):
        return GridSearchSpace(
            grid_sizes=[4, 5, 6], learning_rates=[0.01, 0.1], epoch_values=[500, 1000]
        )

    def test_space_defaults(self):
        space = GridSearchSpace()
        assert space.grid_sizes == list(range(4, 20))
        assert space.learning_rates == [0.001, 0.01, 0.05, 0.1]
        assert space.epoch_values == [500, 611, 722, 833, 944, 1056, 1167, 1278, 1389, 1500]
        with pytest.raises(ValueError, match="non-empty"):
            GridSearchSpace(grid_sizes=[])

    def test_best_and_failed_rows(self):
        report = grid_search(self.space(), None, synthetic_task, base_seed=0)
        assert len(report.rows) == 12
        failed = [r for r in report.rows if r.status == "failed"]
        assert len(failed) == 4 and all(math.isnan(r.val_error) for r in failed)
        assert report.best["G"] == 5
        assert report.best["learning_rate"] == 0.1
        assert report.best["epochs"] == 1000
        assert report.best["seed"] == derive_cell_seed(0, 5, 0.1, 1000)

    def test_correlation_signs(self):
        report = grid_search(self.space(), None, synthetic_task)
        assert report.correlations["learning_rate"] < 0
        assert report.correlations["epochs"] < 0

    def test_deterministic_and_parallel_equal(self):
        a = grid_search(self.space(), None, synthetic_task, base_seed=3)
        b = grid_search(self.space(), None, synthetic_task, base_seed=3)
        assert [(r.G, r.eta, r.epochs, r.status) for r in a.rows] == [
            (r.G, r.eta, r.epochs, r.status) for r in b.rows
        ]
        for ra, rb in zip(a.rows, b.rows):
            assert ra.val_error == rb.val_error or (
                math.isnan(ra.val_error) and math.isnan(rb.val_error)
            )

    def test_resume_skips_completed(self):
        calls = []

        def counting_task(G, config, splits):
            calls.append((G, config.learning_rate, config.epochs))
            return synthetic_task(G, config, splits)

        done = {(4, 0.01, 500): GridRow(4, 0.01, 500, -1.0, "ok")}
        report = grid_search(self.space(), None, counting_task, completed=done)
        assert (4, 0.01, 500) not in calls
        row = [r for r in report.rows if (r.G, r.eta, r.epochs) == (4, 0.01, 500)][0]
        assert row.val_error == -1.0
        assert report.best["val_error"] == -1.0

    def test_cell_seeds_stable_and_distinct(self):
        s1 = derive_cell_seed(0, 4, 0.01, 500)
        s2 = derive_cell_seed(0, 4, 0.01, 500)
        s3 = derive_cell_seed(0, 4, 0.1, 500)
        s4 = derive_cell_seed(1, 4, 0.01, 500)
        assert s1 == s2
        assert len({s1, s3, s4}) == 3

    def test_all_failed_raises(self):
        def always_fail(G, config, splits):
            raise DivergenceError("boom")

        with pytest.raises(DivergenceError, match="every grid cell failed"):
            grid_search(self.space(), None, always_fail)

    def test_csv_round_trip(self, tmp_path):
        report = grid_search(self.space(), None, synthetic_task)
        path = tmp_path / "grid.csv"
        save_grid_csv(report.rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "G,eta,epochs,val_error,status"
        loaded = load_grid_rows(path)
        assert len(loaded) == len(report.rows)
        for orig, back in zip(report.rows, loaded):
            assert (back.G, back.eta, back.epochs, back.status) == (
                orig.G,
                orig.eta,
                orig.epochs,
                orig.status,
            )
            assert back.val_error == orig.val_error or (
                math.isnan(back.val_error) and math.isnan(orig.val_error)
            )

    def test_summary_json(self, tmp_path):
        import json

        report = grid_search(self.space(), None, synthetic_task)
        path = tmp_path / "summary.json"
        save_grid_summary(report, path)
        payload = json.loads(path.read_text())
        assert payload["best"]["G"] == 5
        assert set(payload["correlations"]) == {"G", "learning_rate", "epochs"}
