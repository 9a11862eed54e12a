"""Generators, the delay-equation integrator, embedding, and splits."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from kafcm.cognitive_graph import DivergenceError
from kafcm.datagen import (
    Dataset,
    MackeyGlassParams,
    gaussian_from_uniform,
    gen_mackey,
    gen_mackey_glass,
    gen_sine,
    gen_yerkes,
    lag_embed,
    load_dataset,
    save_dataset,
    split_dataset,
    yerkes_law,
)


class TestYerkes:
    def test_law_values(self):
        assert yerkes_law(0.0) == pytest.approx(0.6)
        assert yerkes_law(1.0) == pytest.approx(1.6 * np.exp(-4) - 1)
        assert yerkes_law(1.0) == pytest.approx(-0.9707, abs=1e-4)
        xs = np.linspace(0, 1, 50)
        npt.assert_array_equal(yerkes_law(xs), yerkes_law(-xs))

    def test_generator_shapes_and_domain(self):
        ds = gen_yerkes(1000, 0.05, seed=0)
        assert ds.inputs.shape == (1000, 1)
        assert ds.targets.shape == (1000, 1)
        assert (np.abs(ds.inputs) <= 1).all()

    def test_noiseless_matches_law(self):
        ds = gen_yerkes(200, 0.0, seed=3)
        npt.assert_array_equal(ds.targets, yerkes_law(ds.inputs))

    def test_noise_magnitude(self):
        ds = gen_yerkes(20000, 0.05, seed=1)
        resid = ds.targets - yerkes_law(ds.inputs)
        assert resid.std() == pytest.approx(0.05, rel=0.05)
        assert abs(resid.mean()) < 0.002

    def test_deterministic_and_regenerable(self):
        a = gen_yerkes(100, 0.05, seed=7)
        meta = a.metadata
        b = gen_yerkes(meta["n"], meta["noise_sd"], meta["seed"])
        npt.assert_array_equal(a.inputs, b.inputs)
        npt.assert_array_equal(a.targets, b.targets)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            gen_yerkes(0)
        for noise_sd in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_sd"):
                gen_yerkes(10, noise_sd=noise_sd)


def test_gaussian_transform_is_standard_normal():
    rng = np.random.default_rng(5)
    z = gaussian_from_uniform(rng, 200000)
    assert z.mean() == pytest.approx(0.0, abs=0.01)
    assert z.std() == pytest.approx(1.0, rel=0.01)
    assert np.isfinite(z).all()


class TestSine:
    def test_law_points(self):
        ds = gen_sine(50, 3.0, seed=2)
        npt.assert_allclose(ds.targets, np.sin(3 * ds.inputs), rtol=1e-15)
        assert float(np.sin(3 * (np.pi / 6))) == pytest.approx(1.0)

    def test_oddness(self):
        ds = gen_sine(100, 3.0, seed=0)
        x = ds.inputs[:, 0]
        npt.assert_allclose(np.sin(3 * -x), -np.sin(3 * x), atol=1e-15)

    def test_regenerable(self):
        a = gen_sine(64, 3.0, seed=9)
        meta = a.metadata
        b = gen_sine(meta["n"], meta["frequency"], meta["seed"])
        npt.assert_array_equal(a.inputs, b.inputs)
        npt.assert_array_equal(a.targets, b.targets)


def reference_mackey_glass(params: MackeyGlassParams) -> np.ndarray:
    """The delay-equation integrator on NumPy float64 scalars: the oracle the
    Python-float integrator must match bit for bit."""
    spu = round(1.0 / params.dt)
    delay_steps = round(params.tau / params.dt)
    hist = np.full(delay_steps, float(params.x0))
    idx, x = 0, float(params.x0)
    dt, beta, gamma, nexp = params.dt, params.beta, params.gamma, params.exponent
    samples = np.empty(params.total_steps)
    for step in range(params.total_steps * spu):
        if step % spu == 0:
            samples[step // spu] = x
        xd = hist[idx]
        drive = beta * xd / (1.0 + xd**nexp)
        k1 = drive - gamma * x
        k2 = drive - gamma * (x + 0.5 * dt * k1)
        k3 = drive - gamma * (x + 0.5 * dt * k2)
        k4 = drive - gamma * (x + dt * k3)
        hist[idx] = x
        idx = (idx + 1) % delay_steps
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x):
            raise DivergenceError(f"non-finite value at integration step {step}")
    return samples[params.washout :]


@st.composite
def mackey_params(draw):
    dt = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]))
    unit = st.floats(0.0, 1.0)
    return MackeyGlassParams(
        beta=0.05 + 0.45 * draw(unit),
        gamma=0.02 + 0.28 * draw(unit),
        exponent=draw(st.sampled_from([0.5, 2.0, 3.0, 10.0]) | st.floats(0.5, 15.0)),
        tau=dt * draw(st.integers(1, 300)),
        dt=dt,
        total_steps=draw(st.integers(20, 300)),
        washout=draw(st.integers(0, 19)),
        x0=0.1 + 1.9 * draw(unit),
    )


class TestMackeyGlass:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mackey_params())
    @example(MackeyGlassParams())
    def test_bit_equal_to_float64_scalar_reference(self, params):
        got = gen_mackey_glass(params)
        assert np.array_equal(got.view(np.uint64), reference_mackey_glass(params).view(np.uint64))

    # a growing series whose delayed power overflows, a negative base under a
    # fractional power, and a negative exponent: where math.pow raises
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "params", [dict(gamma=-0.1), dict(beta=-0.5, exponent=2.5), dict(exponent=-2.0, total_steps=600)]
    )
    def test_overflow_and_domain_errors_match_reference(self, params):
        p = MackeyGlassParams(**params)
        try:
            want = reference_mackey_glass(p)
        except DivergenceError as err:
            with pytest.raises(DivergenceError, match=str(err)):
                gen_mackey_glass(p)
        else:
            assert np.array_equal(gen_mackey_glass(p).view(np.uint64), want.view(np.uint64))

    def test_fixed_point_at_one(self):
        # beta*1/(1+1) - gamma*1 = 0 for beta=0.2, gamma=0.1
        p = MackeyGlassParams(x0=1.0, total_steps=40, washout=0)
        series = gen_mackey_glass(p)
        tau_units = int(p.tau)
        npt.assert_allclose(series[: tau_units + 1], 1.0, atol=1e-9)

    def test_canonical_range(self):
        p = MackeyGlassParams()
        series = gen_mackey_glass(p)
        assert len(series) == 1500
        assert np.isfinite(series).all()
        assert series.min() > 0.2
        assert series.max() < 1.5

    def test_chaotic_not_constant(self):
        series = gen_mackey_glass(MackeyGlassParams())
        assert series.std() > 0.1

    def test_dt_must_divide_tau(self):
        with pytest.raises(ValueError, match="must divide tau"):
            MackeyGlassParams(tau=17.0, dt=0.3)

    def test_dt_must_divide_unit(self):
        with pytest.raises(ValueError, match="unit sampling"):
            MackeyGlassParams(tau=20.0, dt=0.8)

    def test_washout_bounds(self):
        with pytest.raises(ValueError, match="total_steps"):
            MackeyGlassParams(total_steps=100, washout=100)

    def test_x0_positive(self):
        for x0 in (0.0, float("nan")):
            with pytest.raises(ValueError, match="x0"):
                gen_mackey_glass(MackeyGlassParams(x0=x0))

    @pytest.mark.parametrize("field", ["dt", "tau"])
    @pytest.mark.parametrize("value", [0.0, float("nan"), float("inf")])
    def test_dt_and_tau_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match="dt and tau must be positive and finite"):
            MackeyGlassParams(**{field: value})

    def test_deterministic(self):
        p = MackeyGlassParams(total_steps=600, washout=100)
        npt.assert_array_equal(gen_mackey_glass(p), gen_mackey_glass(p))

    def test_dt_convergence(self):
        # halving dt moves the first 200 samples by under 2% RMS
        a = gen_mackey_glass(MackeyGlassParams(dt=0.1, total_steps=200, washout=0))
        b = gen_mackey_glass(MackeyGlassParams(dt=0.05, total_steps=200, washout=0))
        rel = np.sqrt(np.mean(((a - b) / b) ** 2))
        assert rel <= 0.02


class TestLagEmbed:
    def test_example(self):
        ds = lag_embed([1, 2, 3, 4, 5, 6], 4)
        npt.assert_array_equal(ds.inputs, [[1, 2, 3, 4], [2, 3, 4, 5]])
        npt.assert_array_equal(ds.targets, [[5], [6]])

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            lag_embed([1, 2, 3], 3)

    def test_constant_series(self):
        ds = lag_embed(np.full(10, 0.7), 4)
        npt.assert_array_equal(ds.inputs, np.full((6, 4), 0.7))
        npt.assert_array_equal(ds.targets, np.full((6, 1), 0.7))

    def test_round_trip_invariant(self):
        series = np.random.default_rng(0).uniform(0.2, 1.4, 50)
        ds = lag_embed(series, 4)
        npt.assert_array_equal(ds.inputs[1:, -1], ds.targets[:-1, 0])

    def test_metadata_without_a_series_record(self):
        ds = lag_embed(np.random.default_rng(1).uniform(0, 1, 30), 3)
        assert ds.metadata == {"generator": "lag_embed", "lag": 3}

    def test_regenerable_from_mackey_metadata(self):
        p = MackeyGlassParams(total_steps=60, washout=10)
        series = gen_mackey_glass(p)
        meta = {"generator": "mackey_glass", "params": p.to_dict(), "seed": 0}
        a = lag_embed(series, 4, series_metadata=meta)
        assert a.metadata == {"generator": "lag_embed", "lag": 4, "series": meta}
        b = gen_mackey(a.metadata["lag"], meta["seed"], **meta["params"])
        assert b.metadata == a.metadata
        npt.assert_array_equal(a.inputs, b.inputs)
        npt.assert_array_equal(a.targets, b.targets)


@pytest.mark.parametrize(
    "generator, args, kwargs, name",
    [
        pytest.param(gen_yerkes, (True,), {}, "n", id="yerkes-n-bool"),
        pytest.param(gen_yerkes, (5.0,), {}, "n", id="yerkes-n-float"),
        pytest.param(gen_sine, (False,), {}, "n", id="sine-n-bool"),
        pytest.param(gen_sine, (5,), {"frequency": float("inf")}, "frequency", id="sine-frequency-inf"),
        pytest.param(gen_sine, (5,), {"frequency": float("-inf")}, "frequency", id="sine-frequency-minus-inf"),
        pytest.param(gen_sine, (5,), {"frequency": float("nan")}, "frequency", id="sine-frequency-nan"),
        pytest.param(lag_embed, (np.arange(10.0), True), {}, "lag", id="lag_embed-lag-bool"),
        pytest.param(lag_embed, (np.arange(10.0), 2.5), {}, "lag", id="lag_embed-lag-float"),
        pytest.param(lag_embed, (np.arange(10.0), 0), {}, "lag", id="lag_embed-lag-zero"),
        pytest.param(lag_embed, (np.zeros((10, 2)), 2), {}, "series", id="lag_embed-series-2d"),
        pytest.param(lag_embed, (np.float64(1.0), 1), {}, "series", id="lag_embed-series-0d"),
        pytest.param(gen_mackey, (True,), {"total_steps": 60, "washout": 10}, "lag", id="mackey-lag-bool"),
    ],
)
def test_invalid_argument_named(generator, args, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        generator(*args, **kwargs)


def test_numpy_integer_counts_accepted():
    a, b = gen_yerkes(np.int64(20), seed=1), gen_yerkes(20, seed=1)
    assert a.metadata == b.metadata and type(a.metadata["n"]) is int
    npt.assert_array_equal(a.targets, b.targets)
    assert lag_embed(np.arange(6.0), np.int32(4)).metadata == {"generator": "lag_embed", "lag": 4}


class TestSplitDataset:
    def test_floor_then_distribute_sizes(self):
        ds = Dataset(np.arange(10)[:, None], np.arange(10)[:, None], {"generator": "t"})
        train, val, test = split_dataset(ds, (0.64, 0.16, 0.2), shuffle=False)
        assert (len(train), len(val), len(test)) == (6, 2, 2)

    def test_chronological_concat(self):
        ds = Dataset(np.arange(17)[:, None], np.arange(17)[:, None], {"generator": "t"})
        train, val, test = split_dataset(ds, (0.5, 0.25, 0.25), shuffle=False)
        joined = np.concatenate([train.inputs, val.inputs, test.inputs])
        npt.assert_array_equal(joined, ds.inputs)

    def test_shuffled_disjoint_exhaustive(self):
        ds = Dataset(np.arange(101)[:, None], np.arange(101)[:, None], {"generator": "t"})
        parts = split_dataset(ds, (0.64, 0.16, 0.2), shuffle=True, seed=4)
        seen = np.concatenate([p.inputs[:, 0] for p in parts])
        assert len(seen) == 101
        npt.assert_array_equal(np.sort(seen), np.arange(101))

    def test_invalid_fractions(self):
        ds = Dataset(np.zeros((4, 1)), np.zeros((4, 1)), {})
        with pytest.raises(ValueError, match="sum to 1"):
            split_dataset(ds, (0.5, 0.5, 0.5))
        for fractions in ((0.5, 0.5, 0.0), (0.5, 0.5), (float("nan"), 0.5, 0.5), (0.5, float("nan"), 0.5)):
            with pytest.raises(ValueError, match="fractions must be three positive numbers"):
                split_dataset(ds, fractions)

    def test_deterministic_and_regenerable(self):
        base = gen_yerkes(50, 0.05, seed=2)
        a = split_dataset(base, (0.64, 0.16, 0.2), shuffle=True, seed=3)
        b = split_dataset(base, (0.64, 0.16, 0.2), shuffle=True, seed=3)
        for x, y in zip(a, b):
            assert x.metadata == y.metadata == {}
            npt.assert_array_equal(x.inputs, y.inputs)
            npt.assert_array_equal(x.targets, y.targets)


class TestDatasetFiles:
    def test_save_load_round_trip(self, tmp_path):
        ds = gen_yerkes(25, 0.05, seed=6)
        path = tmp_path / "yerkes.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        npt.assert_array_equal(back.inputs, ds.inputs)
        npt.assert_array_equal(back.targets, ds.targets)
        assert back.metadata == ds.metadata

    def test_header_shape(self, tmp_path):
        ds = lag_embed(np.arange(10.0), 4)
        path = tmp_path / "mg.csv"
        save_dataset(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "x_0,x_1,x_2,x_3,y_0"

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = gen_sine(40, 3.0, seed=8)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_dataset(ds, p1)
        meta = ds.metadata
        save_dataset(gen_sine(meta["n"], meta["frequency"], meta["seed"]), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_rows_wider_than_header_rejected(self, tmp_path):
        ds = gen_sine(5, 3.0, seed=1)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0]] + [line + ",nan" for line in lines[1:]]) + "\n")
        with pytest.raises(ValueError, match="header names 2 columns, the rows hold 3"):
            load_dataset(path)
