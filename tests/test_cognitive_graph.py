"""KA-FCM and standard-FCM inference, simulation, and model properties."""

import copy
import math
import pickle
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from kafcm.cognitive_graph import (
    DivergenceError,
    KAFCMModel,
    StandardFCM,
    apply_bounding,
    bounding_grad,
    fcm_step,
    kafcm_step,
    new_kafcm,
    simulate,
)
from kafcm.datagen import Dataset
from kafcm.edge_functions import BASE_KINDS, EdgeFunction, edge_eval, silu
from kafcm.spline_core import make_uniform_grid
from kafcm.training import predict_one_step


class TestBounding:
    def test_smooth_clip_is_logistic_with_steepness_8(self):
        # independent evaluation of logistic(8*(x-0.5))
        for x in (-1.0, 0.0, 0.3, 0.5, 1.0, 2.0):
            ref = 1.0 / (1.0 + math.exp(-8.0 * (x - 0.5)))
            assert apply_bounding("smooth_clip", x) == pytest.approx(ref, rel=1e-12)

    def test_smooth_clip_near_hard_clip(self):
        assert apply_bounding("smooth_clip", 0.0) == pytest.approx(0.01799, abs=1e-5)
        assert apply_bounding("smooth_clip", 1.0) == pytest.approx(0.98201, abs=1e-5)

    def test_no_overflow(self):
        assert apply_bounding("smooth_clip", -1e4) == 0.0
        assert apply_bounding("smooth_clip", 1e4) == 1.0

    def test_grads_match_finite_differences(self):
        xs = np.linspace(-2, 3, 31)
        h = 1e-6
        for kind in ("smooth_clip", "tanh", "identity"):
            fd = (apply_bounding(kind, xs + h) - apply_bounding(kind, xs - h)) / (2 * h)
            npt.assert_allclose(bounding_grad(kind, xs), fd, rtol=1e-5, atol=1e-9)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown bounding"):
            apply_bounding("relu", 0.5)


def two_node_model(bounding="identity", base="silu", seed=0):
    grid = make_uniform_grid(-1, 1, 4, 3)
    mask = np.array([[False, False], [True, False]])
    return new_kafcm(2, grid, mask=mask, bounding=bounding, base=base, seed=seed)


class TestKafcmStep:
    def test_all_edges_absent_smooth_clip(self):
        grid = make_uniform_grid(-1, 1, 4, 3)
        m = new_kafcm(3, grid, mask=np.zeros((3, 3), dtype=bool), bounding="smooth_clip")
        out = kafcm_step(m, [0.2, 0.4, 0.9])
        ref = 1.0 / (1.0 + math.exp(4.0))  # logistic(8*(0-0.5))
        npt.assert_allclose(out, ref, rtol=1e-12)

    def test_all_edges_absent_identity(self):
        grid = make_uniform_grid(-1, 1, 4, 3)
        m = new_kafcm(3, grid, mask=np.zeros((3, 3), dtype=bool), bounding="identity")
        npt.assert_array_equal(kafcm_step(m, [0.2, 0.4, 0.9]), np.zeros(3))

    def test_single_silu_edge(self):
        m = two_node_model()
        e = m.edges[1][0]
        e.alpha[:] = 0.0
        e.w_base = 1.0
        for x in (-0.8, 0.0, 0.63):
            out = kafcm_step(m, [x, 0.0])
            assert out[0] == 0.0
            assert out[1] == pytest.approx(silu(x), rel=1e-12)

    def test_dimension_mismatch(self):
        m = two_node_model()
        with pytest.raises(ValueError, match="does not match model size"):
            kafcm_step(m, [0.1, 0.2, 0.3])

    def test_bounded_ranges(self):
        rng = np.random.default_rng(31)
        grid = make_uniform_grid(-1, 1, 5, 3)
        for scale in (0.3, 50.0):
            for bounding, lo, hi in (("smooth_clip", 0.0, 1.0), ("tanh", -1.0, 1.0)):
                m = new_kafcm(4, grid, mask=np.ones((4, 4), dtype=bool), bounding=bounding, seed=1)
                for i, j, e in m.present_edges():
                    e.w_base = rng.normal() * scale
                    e.w_spline = rng.normal() * scale
                    e.alpha[:] = rng.normal(size=e.alpha.shape) * scale
                for _ in range(20):
                    out = kafcm_step(m, rng.uniform(-1, 1, 4))
                    # strictly interior for moderate sums; float underflow can
                    # land exactly on the boundary for extreme parameters
                    if scale <= 0.3:
                        assert (out > lo).all() and (out < hi).all()
                    else:
                        assert (out >= lo).all() and (out <= hi).all()

    def test_masked_edges_have_no_influence(self):
        grid = make_uniform_grid(-1, 1, 4, 3)
        mask = np.array([[False, True], [False, False]])
        m = new_kafcm(2, grid, mask=mask, bounding="tanh", seed=5)
        # crank the parameters parked in a masked slot
        e = m.edges[1][0]
        e.w_base, e.w_spline, e.alpha = 99.0, 99.0, np.full(grid.basis_count, 9.0)
        state = np.array([0.3, -0.4])
        before = kafcm_step(m, state)
        m.edges[1][0].w_base = -99.0
        m.edges[1][0].alpha[:] = -9.0
        npt.assert_array_equal(kafcm_step(m, state), before)


class TestEdgeViews:
    """model.edges[i][j] reads and writes the model's own arrays."""

    @pytest.mark.parametrize("write", ["alpha", "w_spline"])
    def test_write_through_a_view_changes_the_next_step(self, write):
        m = new_kafcm(3, make_uniform_grid(-1, 1, 4, 3), bounding="tanh", seed=2)
        c0 = np.array([0.3, -0.6, 0.8])
        data = Dataset(c0[None, :], np.zeros((1, 3)))
        before = simulate(m, c0, 3).states, predict_one_step(m, data)
        e = m.edges[2][0]
        if write == "alpha":
            e.alpha[3] += 0.5  # x = 0.3 lies in the support of basis 3
        else:
            e.w_spline = 2.0
        after = simulate(m, c0, 3).states, predict_one_step(m, data)
        assert m.alpha[2, 0, 3] == e.alpha[3] and m.w_spline[2, 0] == e.w_spline
        assert not np.array_equal(after[0][1, 2], before[0][1, 2])
        npt.assert_array_equal(after[0][1, :2], before[0][1, :2])  # other targets untouched
        assert not np.array_equal(after[1][0, 2], before[1][0, 2])
        npt.assert_array_equal(after[0][1], after[1][0])

    def test_assigning_an_edge_copies_it_in(self):
        grid = make_uniform_grid(-1, 1, 4, 3)
        m = new_kafcm(2, grid, base="identity", seed=1)
        src = EdgeFunction(0.25, -1.5, np.arange(grid.basis_count, dtype=float), grid, base="identity")
        e = m.edges[0][1]
        e.w_base, e.w_spline, e.alpha = src.w_base, src.w_spline, src.alpha
        assert (e.w_base, e.w_spline, e.base) == (0.25, -1.5, "identity")
        npt.assert_array_equal(e.alpha, src.alpha)
        assert not np.shares_memory(e.alpha, src.alpha)
        for x in (-0.9, 0.1, 0.7):
            assert edge_eval(e, x) == edge_eval(src, x)

    def test_one_base_per_model(self):
        grid = make_uniform_grid(-1, 1, 4, 3)
        m = new_kafcm(3, grid, base="identity", seed=1)
        theta = m.theta.copy()
        assert m.base == "identity" and all(e.base == "identity" for _, _, e in m.present_edges())
        for base in ("identity", "silu"):  # a view's base and grid are the model's, read-only
            with pytest.raises(AttributeError):
                m.edges[2][1].base = base
        with pytest.raises(AttributeError):
            m.edges[0][2].grid = make_uniform_grid(-1, 1, 5, 3)
        npt.assert_array_equal(m.theta.view(np.uint64), theta.view(np.uint64))
        assert m.base == "identity" and m.grid == grid
        with pytest.raises(ValueError, match="unknown base kind: 'relu'"):
            KAFCMModel(2, grid, base="relu")

    @pytest.mark.parametrize("make_copy", [copy.deepcopy, copy.copy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_edge_writes_on_a_copy_land_in_the_copy(self, make_copy):
        m = new_kafcm(3, make_uniform_grid(-1, 1, 4, 3), seed=1)
        theta = m.theta.copy()
        twin = make_copy(m)
        if make_copy is copy.copy:  # a shallow copy shares theta, so give it its own
            twin.theta = m.theta.copy()
        e = twin.edges[2][0]
        e.w_base, e.w_spline = 7.0, -3.0
        e.alpha[1] = 5.0
        npt.assert_array_equal(m.theta, theta)
        assert (twin.w_base[2, 0], twin.w_spline[2, 0], twin.alpha[2, 0, 1]) == (7.0, -3.0, 5.0)
        assert not np.shares_memory(twin.theta, m.theta)
        w_base, w_spline, alpha = twin.views(twin.theta)  # the copy's theta, not a view of its own
        assert (w_base[2, 0], w_spline[2, 0], alpha[2, 0, 1]) == (7.0, -3.0, 5.0)

    def test_rebinding_theta_rebuilds_the_views(self):
        m = new_kafcm(3, make_uniform_grid(-1, 1, 4, 3), seed=1)
        old = m.theta
        m.theta = old * 2.0
        assert np.shares_memory(m.w_base, m.theta) and not np.shares_memory(m.alpha, old)
        m.edges[1][0].w_spline = 9.0
        assert m.views(m.theta)[1][1, 0] == 9.0 and old[m.n_nodes**2 + m.n_nodes] != 9.0

    def test_bad_index_kind_and_row_assignment(self):
        m = new_kafcm(2, make_uniform_grid(-1, 1, 4, 3), seed=1)
        with pytest.raises(IndexError):
            m.edges[2]
        with pytest.raises(IndexError):
            m.edges[0][2]
        theta = m.theta.copy()
        with pytest.raises(AttributeError):
            m.edges[1][0].base = "relu"
        with pytest.raises(TypeError):
            m.edges[1] = m.edges[0]
        with pytest.raises(TypeError):
            m.edges[1][0] = m.edges[0][1]
        npt.assert_array_equal(m.theta.view(np.uint64), theta.view(np.uint64))
        # a slice is no edge index; ints, NumPy integers and negative indices are
        with pytest.raises(TypeError):
            m.edges[1][0:2]
        with pytest.raises(TypeError):
            m.edges[0:2][1]
        e = m.edges[np.int64(-1)][np.uint8(0)]
        assert (e.i, e.j) == (1, 0) and e.alpha.shape == (m.K,)


class TestFcmStep:
    def test_zero_weights(self):
        m = StandardFCM(np.zeros((3, 3)), activation="tanh")
        npt.assert_array_equal(fcm_step(m, [0.5, -0.2, 0.9]), np.zeros(3))

    def test_identity_single_node(self):
        m = StandardFCM(np.array([[1.0]]), activation="identity")
        npt.assert_array_equal(fcm_step(m, [0.3]), [0.3])

    def test_two_node_tanh(self):
        m = StandardFCM(np.array([[0.0, 0.0], [0.5, 0.0]]), activation="tanh")
        out = fcm_step(m, [0.8, 0.0])
        npt.assert_allclose(out, [0.0, math.tanh(0.4)], rtol=1e-12)

    def test_dimension_mismatch(self):
        m = StandardFCM(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="does not match model size"):
            fcm_step(m, [1.0])


class TestReductionToStandardFCM:
    @pytest.mark.parametrize("bounding", ["smooth_clip", "tanh", "identity"])
    def test_identity_base_zero_alpha_reduces(self, bounding):
        rng = np.random.default_rng(1234)
        grid = make_uniform_grid(-1, 1, 6, 3)
        n = 4
        W = rng.uniform(-1, 1, (n, n))
        fcm = StandardFCM(W, activation=bounding)
        kafcm = KAFCMModel(n, grid, np.ones((n, n), dtype=bool), bounding, base="identity")
        kafcm.w_base[:] = W
        for _ in range(100):
            state = rng.uniform(-1, 1, n)
            npt.assert_allclose(kafcm_step(kafcm, state), fcm_step(fcm, state), atol=1e-12)


class TestSimulate:
    def test_one_step_equals_step_call(self):
        m = two_node_model(seed=3)
        c0 = np.array([0.4, 0.0])
        traj = simulate(m, c0, 1)
        assert traj.states.shape == (2, 2)
        npt.assert_array_equal(traj.states[0], c0)
        npt.assert_array_equal(traj.states[1], kafcm_step(m, c0))

    def test_zero_edge_identity_goes_to_zero(self):
        grid = make_uniform_grid(-1, 1, 4, 3)
        m = new_kafcm(3, grid, mask=np.zeros((3, 3), dtype=bool), bounding="identity")
        traj = simulate(m, [0.3, -0.7, 0.2], 5)
        npt.assert_array_equal(traj.states[1:], np.zeros((5, 3)))

    def test_fixed_point_stays_fixed(self):
        # contract to a fixed point by iteration, then verify it is preserved
        grid = make_uniform_grid(-1, 1, 5, 3)
        m = new_kafcm(3, grid, mask=~np.eye(3, dtype=bool), bounding="smooth_clip", seed=9)
        state = np.full(3, 0.5)
        for _ in range(200):
            state = kafcm_step(m, state)
        npt.assert_allclose(kafcm_step(m, state), state, atol=1e-10)
        traj = simulate(m, state, 10)
        npt.assert_allclose(traj.states, np.tile(state, (11, 1)), atol=1e-8)

    def test_standard_fcm_simulation(self):
        m = StandardFCM(np.array([[0.0, 0.5], [0.5, 0.0]]), activation="tanh")
        traj = simulate(m, [0.9, -0.9], 3)
        assert traj.states.shape == (4, 2)
        npt.assert_allclose(traj.states[1], fcm_step(m, [0.9, -0.9]), rtol=1e-12)

    def test_non_finite_abort(self):
        m = StandardFCM(np.array([[2.0]]), activation="identity")
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="non-finite state"):
            simulate(m, [1e308], 10)

    def test_divergence_names_step_and_first_node(self):
        # identity base and bounding, self-loops only: node k is multiplied by
        # w[k] each step, so nodes 1 and 3 overflow to inf at step 2, node 2 later
        grid = make_uniform_grid(-1, 1, 4, 3)
        m = new_kafcm(4, grid, mask=np.eye(4, dtype=bool), bounding="identity", base="identity")
        for k, w in enumerate([1.0, 1e200, 1e100, 1e200]):
            m.edges[k][k].w_base, m.edges[k][k].w_spline = w, 0.0
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            simulate(m, [0.5, 1.0, 1.0, 1.0], 10)
        assert str(err.value) == "non-finite state at step 2, node 1"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_state_names_its_node(self, bad):
        # a non-finite input is a caller error, not a divergence: no step runs
        kafcm = new_kafcm(3, make_uniform_grid(-1, 1, 4, 3), bounding="tanh")
        fcm = StandardFCM(np.full((3, 3), 0.5))
        state = [0.1, bad, bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: kafcm_step(kafcm, state),
                lambda: simulate(kafcm, state, 5),
                lambda: fcm_step(fcm, state),
                lambda: simulate(fcm, state, 5),
            ):
                with pytest.raises(ValueError, match=rf"state value {bad!r} at node 1 is not finite"):
                    call()

    def test_invalid_horizon(self):
        m = StandardFCM(np.zeros((1, 1)))
        with pytest.raises(ValueError, match="T must be"):
            simulate(m, [0.0], 0)

    def test_packed_path_matches_stepwise(self):
        grid = make_uniform_grid(-1, 1, 7, 3)
        for base in BASE_KINDS:
            m = new_kafcm(5, grid, mask=np.ones((5, 5), dtype=bool), bounding="tanh", base=base, seed=12)
            c0 = np.random.default_rng(0).uniform(-1, 1, 5)
            traj = simulate(m, c0, 8)  # dense path
            state = c0
            for t in range(8):
                # reference: the per-edge loop sigma(sum_j phi_ij(c_j))
                pre = np.zeros(5)
                for i, j, e in m.present_edges():
                    pre[i] += edge_eval(e, state[j])
                state = np.tanh(pre)
                npt.assert_allclose(traj.states[t + 1], state, atol=1e-12)
