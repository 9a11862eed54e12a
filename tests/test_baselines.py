"""Tests for the MLP baseline."""

import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kafcm.baselines import (
    HIDDEN_WIDTH,
    MLPParams,
    default_mlp_config,
    mlp_forward,
    mlp_gradient,
    mlp_init,
    mlp_train,
)
from kafcm.cli_harness import save_model
from kafcm.cognitive_graph import DivergenceError
from kafcm.datagen import Dataset, gen_sine, gen_yerkes, split_dataset, yerkes_law
from kafcm.training import TrainConfig


def same_view(a, b):
    """a and b hold equal values at the same address with the same shape."""
    return a.shape == b.shape and a.ctypes.data == b.ctypes.data and np.array_equal(a, b)


def reference_forward(params, x):
    """Independent straight-line reimplementation used as the oracle."""
    h1 = []
    for r in range(HIDDEN_WIDTH):
        z = params.b1[r]
        for c in range(params.n_in):
            z += params.W1[r, c] * x[c]
        h1.append(max(z, 0.0))
    h2 = []
    for r in range(HIDDEN_WIDTH):
        z = params.b2[r]
        for c in range(HIDDEN_WIDTH):
            z += params.W2[r, c] * h1[c]
        h2.append(max(z, 0.0))
    out = []
    for r in range(params.n_out):
        z = params.b3[r]
        for c in range(HIDDEN_WIDTH):
            z += params.W3[r, c] * h2[c]
        out.append(np.tanh(z))
    return np.array(out)


def reference_loss_and_grads(params, X, Y):
    """The allocating MLP epoch, one fresh array per expression: the oracle
    the in-place workspace must match bit for bit."""
    T = len(X)
    Z1 = X @ params.W1.T + params.b1
    H1 = np.maximum(Z1, 0.0)
    Z2 = H1 @ params.W2.T + params.b2
    H2 = np.maximum(Z2, 0.0)
    P = np.tanh(H2 @ params.W3.T + params.b3)
    loss = float(np.mean(np.sum((P - Y) ** 2, axis=1)))
    dZ3 = (2.0 / T) * (P - Y) * (1.0 - P**2)
    dZ2 = (dZ3 @ params.W3) * (Z2 > 0)
    dZ1 = (dZ2 @ params.W2) * (Z1 > 0)
    grads = MLPParams(
        W1=dZ1.T @ X,
        b1=dZ1.sum(axis=0),
        W2=dZ2.T @ H1,
        b2=dZ2.sum(axis=0),
        W3=dZ3.T @ H2,
        b3=dZ3.sum(axis=0),
    )
    return loss, grads


def reference_train(params, X, Y, learning_rate, epochs):
    history = np.empty(epochs)
    for epoch in range(epochs):
        history[epoch], grads = reference_loss_and_grads(params, X, Y)
        for p, g in zip(params.arrays(), grads.arrays()):
            p -= learning_rate * g
    return params, history


LAYER_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")

# (T, n_in, n_out): random batches, one output and several, up to mackey's
# 957-row training split
EXACT_SHAPES = [(1, 1, 1), (37, 3, 2), (400, 1, 1), (957, 4, 1), (1200, 2, 3)]


def random_batch(T, n_in, n_out, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (T, n_in)), rng.uniform(-0.9, 0.9, (T, n_out))


def zero_params(n_in=1, n_out=1):
    h = HIDDEN_WIDTH
    return MLPParams(
        W1=np.zeros((h, n_in)),
        b1=np.zeros(h),
        W2=np.zeros((h, h)),
        b2=np.zeros(h),
        W3=np.zeros((n_out, h)),
        b3=np.zeros(n_out),
    )


class TestParams:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shapes"):
            MLPParams(
                W1=np.zeros((32, 1)),
                b1=np.zeros(32),
                W2=np.zeros((32, 32)),
                b2=np.zeros(32),
                W3=np.zeros((1, 32)),
                b3=np.zeros(1),
            )

    @pytest.mark.parametrize(
        "layer, value",
        [
            ("W1", 0.5),  # 0-d
            ("W1", np.zeros(64)),  # 1-d
            ("W1", np.zeros((64, 1, 1))),
            ("b1", np.zeros(63)),
            ("W2", np.zeros((64, 63))),
            ("W3", np.zeros(64)),
            ("b3", np.zeros(2)),
        ],
        ids=["W1-0d", "W1-1d", "W1-3d", "b1", "W2", "W3-1d", "b3"],
    )
    def test_mis_shaped_layer_rejected(self, layer, value):
        layers = dict(zip(LAYER_NAMES, zero_params(1, 1).arrays()))
        layers[layer] = value
        with pytest.raises(ValueError, match="shapes"):
            MLPParams(**layers)

    def test_theta_is_the_layers_in_order(self):
        p = mlp_init(3, 2, seed=0)
        np.testing.assert_array_equal(p.theta, np.concatenate([a.ravel() for a in p.arrays()]))
        assert p.theta.size == 64 * 3 + 64 + 64 * 64 + 64 + 2 * 64 + 2
        for name, layer in zip(LAYER_NAMES, p.arrays()):
            assert np.shares_memory(layer, p.theta), name
            assert same_view(getattr(p, name), layer), name
        p.W2[5, 7] = 42.0
        assert p.theta[64 * 3 + 64 + 5 * 64 + 7] == 42.0

    @pytest.mark.parametrize(
        "make_copy", [copy.deepcopy, copy.copy, lambda p: pickle.loads(pickle.dumps(p))], ids=["deepcopy", "copy", "pickle"]
    )
    def test_a_copy_writes_and_trains_its_own_theta(self, make_copy, tmp_path):
        p = mlp_init(1, 1, seed=1)
        theta = p.theta.copy()
        q = make_copy(p)
        if make_copy is copy.copy:  # a shallow copy shares theta, so give it its own
            q.theta = p.theta.copy()
        q.W2[5, 7] = 42.0
        assert q.theta[64 + 64 + 5 * 64 + 7] == 42.0 and not np.shares_memory(q.theta, p.theta)
        for name, layer in zip(LAYER_NAMES, q.views(q.theta)):
            assert same_view(getattr(q, name), layer), name
        x = np.linspace(-1, 1, 5)[:, None]
        before = mlp_forward(q, x)
        save_model(q, tmp_path / "before.json")
        mlp_train(q, gen_yerkes(16, seed=2), TrainConfig(learning_rate=0.05, epochs=3))
        save_model(q, tmp_path / "after.json")
        assert not np.array_equal(mlp_forward(q, x), before)
        saved = [json.loads((tmp_path / f"{when}.json").read_text())["W3"] for when in ("before", "after")]
        assert saved[0] != saved[1] and saved[1] == q.W3.tolist()
        np.testing.assert_array_equal(p.theta, theta)

    def test_constructor_copies_and_layers_cannot_be_rebound(self):
        W1 = np.zeros((64, 1))
        p = MLPParams(W1, *zero_params(1, 1).arrays()[1:])
        W1[0, 0] = 1.0
        assert p.W1[0, 0] == 0.0
        with pytest.raises(AttributeError):
            p.W1 = np.ones((64, 1))

    def test_dimensions(self):
        p = mlp_init(4, 1, seed=0)
        assert p.W1.shape == (64, 4)
        assert p.W2.shape == (64, 64)
        assert p.W3.shape == (1, 64)
        assert (p.n_in, p.n_out) == (4, 1)


class TestInit:
    def test_uniform_bounds_per_layer(self):
        p = mlp_init(4, 2, seed=1)
        assert np.abs(p.W1).max() <= 1 / np.sqrt(4)
        assert np.abs(p.b1).max() <= 1 / np.sqrt(4)
        assert np.abs(p.W2).max() <= 1 / np.sqrt(64)
        assert np.abs(p.W3).max() <= 1 / np.sqrt(64)

    def test_deterministic_and_seed_sensitive(self):
        a = mlp_init(2, 1, seed=5)
        b = mlp_init(2, 1, seed=5)
        c = mlp_init(2, 1, seed=6)
        assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))
        assert not np.array_equal(a.W1, c.W1)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError, match="at least 1"):
            mlp_init(0, 1)


class TestForward:
    def test_zero_params_give_zero(self):
        p = zero_params(3, 2)
        np.testing.assert_array_equal(mlp_forward(p, np.array([0.4, -0.2, 1.0])), np.zeros(2))

    def test_dead_relu_region_ignores_input(self):
        p = zero_params(1, 1)
        p.b1[:] = -1.0  # layer 1 never activates
        p.b2[:] = 0.5
        rng = np.random.default_rng(0)
        p.W3[:] = rng.uniform(-0.1, 0.1, p.W3.shape)
        y1 = mlp_forward(p, np.array([0.9]))
        y2 = mlp_forward(p, np.array([-0.9]))
        expected = np.tanh(p.W3 @ np.maximum(p.b2, 0.0) + p.b3)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_allclose(y1, expected, rtol=1e-15)

    def test_matches_reference_implementation(self):
        for n_in, x in ((1, np.array([0.3])), (4, np.array([0.3, -0.7, 0.1, 0.9]))):
            p = mlp_init(n_in, 2, seed=3)
            np.testing.assert_allclose(
                mlp_forward(p, x), reference_forward(p, x), rtol=1e-12, atol=1e-15
            )

    def test_batch_matches_vector(self):
        p = mlp_init(2, 1, seed=4)
        X = np.random.default_rng(1).uniform(-1, 1, (5, 2))
        batch = mlp_forward(p, X)
        for t in range(5):
            np.testing.assert_allclose(batch[t], mlp_forward(p, X[t]), rtol=1e-13)

    def test_outputs_strictly_inside_unit_interval(self):
        p = mlp_init(3, 2, seed=7)
        X = np.random.default_rng(2).uniform(-1, 1, (200, 3))
        out = mlp_forward(p, X)
        assert (out > -1).all() and (out < 1).all()

    def test_dimension_mismatch(self):
        p = mlp_init(3, 1, seed=0)
        with pytest.raises(ValueError, match="does not match"):
            mlp_forward(p, np.zeros(2))


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        p = mlp_init(2, 1, seed=8)
        X = rng.uniform(-1, 1, (12, 2))
        Y = rng.uniform(-0.8, 0.8, (12, 1))
        data = Dataset(X, Y)
        grads = mlp_gradient(p, data)

        def loss():
            out = mlp_forward(p, X)
            return float(np.mean(np.sum((out - Y) ** 2, axis=1)))

        h = 1e-6
        checked = 0
        for arr, g in zip(p.arrays(), grads.arrays()):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for k in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                x0 = flat[k]
                flat[k] = x0 + h
                hi = loss()
                flat[k] = x0 - h
                lo = loss()
                flat[k] = x0
                fd = (hi - lo) / (2 * h)
                assert gflat[k] == pytest.approx(fd, rel=1e-4, abs=1e-9)
                checked += 1
        assert checked >= 30

    def test_relu_subgradient_zero_at_zero(self):
        p = zero_params(1, 1)
        p.W3[:] = 0.1
        # all pre-activations sit exactly at 0: hidden grads must vanish
        data = Dataset(np.array([0.5]), np.array([0.3]))
        grads = mlp_gradient(p, data)
        assert np.all(grads.W1 == 0.0)
        assert np.all(grads.b1 == 0.0)
        assert np.any(grads.b3 != 0.0)

    def test_non_finite_gradient_names_its_layer(self):
        # hidden units at 1e308 under a zero output layer: the loss is
        # finite, but d W3 = dZ3.T @ H2 overflows and no other layer's does
        p = mlp_init(1, 1)
        p.b2[:] = 1e308
        p.W2[:] = p.W3[:] = 0.0
        data = Dataset(np.array([[0.5]]), np.array([[2.0]]))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
            mlp_gradient(p, data)
        assert str(info.value) == "non-finite loss or gradient, layer W3"


class TestExactness:
    """The in-place workspace against the allocating reference, bit for bit."""

    @pytest.mark.parametrize("T,n_in,n_out", EXACT_SHAPES)
    def test_gradient_equals_reference(self, T, n_in, n_out):
        X, Y = random_batch(T, n_in, n_out, seed=T)
        p = mlp_init(n_in, n_out, seed=n_in + n_out)
        grads = mlp_gradient(p, Dataset(X, Y))
        _, ref = reference_loss_and_grads(p, X, Y)
        for name, g, r in zip(("W1", "b1", "W2", "b2", "W3", "b3"), grads.arrays(), ref.arrays()):
            assert np.array_equal(g, r), name

    @pytest.mark.parametrize("T,n_in,n_out", EXACT_SHAPES)
    def test_training_equals_reference(self, T, n_in, n_out):
        X, Y = random_batch(T, n_in, n_out, seed=T + 1)
        trained, hist = mlp_train(mlp_init(n_in, n_out, seed=T), Dataset(X, Y), TrainConfig(0.05, epochs=25))
        ref, ref_hist = reference_train(mlp_init(n_in, n_out, seed=T), X, Y, 0.05, 25)
        assert np.array_equal(hist, ref_hist)
        for a, b in zip(trained.arrays(), ref.arrays()):
            assert np.array_equal(a, b)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        T=st.integers(1, 1300),
        n_in=st.integers(1, 6),
        n_out=st.integers(1, 4),
        zeros=st.sampled_from([0.0, 0.1, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    # one row, where a (1, 1) factor makes np.dot scale a vector, and the
    # recipe's yerkes/sine and mackey layouts
    @example(T=1, n_in=1, n_out=1, zeros=0.5, seed=0)
    @example(T=256, n_in=1, n_out=1, zeros=0.1, seed=1)
    @example(T=957, n_in=4, n_out=1, zeros=0.1, seed=2)
    def test_bit_equal_to_reference_with_signed_zeros(self, T, n_in, n_out, zeros, seed):
        """mlp_gradient and mlp_train, whose products are np.dot, against
        the allocating reference, whose products are `@`, with a share of
        the inputs and parameters set to 0.0 and -0.0."""
        rng = np.random.default_rng(seed)
        X, Y = random_batch(T, n_in, n_out, seed)
        params = mlp_init(n_in, n_out, seed=seed % 1000)
        for a in (X, params.theta):
            hit = rng.random(a.shape) < zeros
            a[hit] = np.where(rng.random(int(hit.sum())) < 0.5, 0.0, -0.0)
        grads = mlp_gradient(params, Dataset(X, Y))
        _, ref = reference_loss_and_grads(params, X, Y)
        assert np.array_equal(grads.theta.view(np.uint64), ref.theta.view(np.uint64))
        config = TrainConfig(0.05, epochs=3)
        trained, hist = mlp_train(MLPParams(*params.arrays()), Dataset(X, Y), config)
        ref, ref_hist = reference_train(MLPParams(*params.arrays()), X, Y, 0.05, 3)
        assert np.array_equal(hist.view(np.uint64), ref_hist.view(np.uint64))
        assert np.array_equal(trained.theta.view(np.uint64), ref.theta.view(np.uint64))

    def test_yerkes_recipe_equals_reference(self):
        train, _, _ = split_dataset(gen_yerkes(400, seed=0), (0.64, 0.16, 0.2), seed=0)
        trained, hist = mlp_train(mlp_init(1, 1, seed=0), train, TrainConfig(0.05, epochs=200))
        ref, ref_hist = reference_train(mlp_init(1, 1, seed=0), train.inputs, train.targets, 0.05, 200)
        assert np.array_equal(hist, ref_hist)
        assert all(np.array_equal(a, b) for a, b in zip(trained.arrays(), ref.arrays()))


class TestTrain:
    def test_deterministic(self):
        data = gen_yerkes(64, seed=3)
        outs = []
        for _ in range(2):
            p = mlp_init(1, 1, seed=9)
            trained, hist = mlp_train(p, data, TrainConfig(learning_rate=0.05, epochs=30))
            outs.append((hist.tobytes(), *(a.tobytes() for a in trained.arrays())))
        assert outs[0] == outs[1]

    def test_history_decreases(self):
        data = gen_yerkes(128, noise_sd=0.0, seed=4)
        p = mlp_init(1, 1, seed=10)
        _, hist = mlp_train(p, data, TrainConfig(learning_rate=0.05, epochs=300))
        assert len(hist) == 300
        assert hist[-1] < hist[0]

    def test_yerkes_accuracy(self):
        # scored against the noise-free law: noisy targets put a 2.5e-3
        # floor under any raw-MSE comparison at noise_sd = 0.05
        train, _, test = split_dataset(gen_yerkes(400, seed=0), (0.64, 0.16, 0.2), seed=0)
        p = mlp_init(1, 1, seed=0)
        p, _ = mlp_train(p, train, default_mlp_config())
        clean = yerkes_law(test.inputs)
        mse = float(np.mean((mlp_forward(p, test.inputs) - clean) ** 2))
        assert mse <= 1e-3

    def test_sine_accuracy(self):
        train, _, test = split_dataset(gen_sine(400, seed=0), (0.64, 0.16, 0.2), seed=0)
        p = mlp_init(1, 1, seed=0)
        p, _ = mlp_train(p, train, default_mlp_config())
        mse = float(np.mean((mlp_forward(p, test.inputs) - test.targets) ** 2))
        assert mse <= 5e-3

    def test_zero_epochs_disallowed(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    def test_lam_rejected(self):
        data = gen_yerkes(8, seed=1)
        with pytest.raises(ValueError, match="l1"):
            mlp_train(mlp_init(1, 1), data, TrainConfig(lam=0.1))

    def test_dataset_shape_mismatch(self):
        data = gen_yerkes(8, seed=1)
        with pytest.raises(ValueError, match="does not match"):
            mlp_train(mlp_init(4, 1), data, TrainConfig())

    def test_divergence_aborts_with_epoch(self):
        data = gen_yerkes(16, seed=2)
        p = mlp_init(1, 1, seed=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="epoch"
        ):
            mlp_train(p, data, TrainConfig(learning_rate=1e200, epochs=10))

    def test_divergence_leaves_parameters_bit_equal(self):
        data = gen_yerkes(16, seed=2)
        p = mlp_init(1, 1, seed=1)
        before = [a.copy() for a in p.arrays()]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
            mlp_train(p, data, TrainConfig(learning_rate=1e300, epochs=10))
        assert str(info.value).startswith("non-finite") and len(info.value.history) >= 1
        for name, a, b in zip(("W1", "b1", "W2", "b2", "W3", "b3"), p.arrays(), before):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name

    @pytest.mark.parametrize(
        "learning_rate, message",
        [
            (1e300, "non-finite loss at epoch 1"),
            # inf * 0 puts NaN into every layer; W1 comes first
            (float("inf"), "non-finite parameters after epoch 0, layer W1"),
        ],
        ids=["loss", "parameters"],
    )
    def test_divergence_message(self, learning_rate, message):
        data = gen_yerkes(16, seed=2)
        config = TrainConfig(epochs=10)
        config.learning_rate = learning_rate  # set past TrainConfig's check, which rejects inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
            mlp_train(mlp_init(1, 1, seed=1), data, config)
        assert str(info.value) == message
        assert len(info.value.history) == 1  # the loss of epoch 0

    def test_non_finite_gradient_names_its_layer(self):
        # hidden units at 1e308 under a zero output layer: the loss is 4, but
        # d W3 = dZ3.T @ H2 = -4e308 overflows while every other layer's
        # gradient stays finite
        p = zero_params(1, 1)
        p.b2[:] = 1e308
        data = Dataset(np.array([[0.5]]), np.array([[2.0]]))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
            mlp_train(p, data, TrainConfig(learning_rate=0.05, epochs=5))
        assert str(info.value) == "non-finite gradient at epoch 0, layer W3"
        np.testing.assert_array_equal(info.value.history, [4.0])

    def test_training_writes_into_the_callers_arrays(self):
        data = gen_yerkes(16, seed=2)
        p = mlp_init(1, 1, seed=1)
        arrays = p.arrays()
        trained, _ = mlp_train(p, data, TrainConfig(learning_rate=0.05, epochs=3))
        assert trained is p
        assert all(same_view(a, b) for a, b in zip(trained.arrays(), arrays))
        assert not np.array_equal(arrays[0], mlp_init(1, 1, seed=1).W1)
        assert np.shares_memory(trained.W1, trained.theta)
