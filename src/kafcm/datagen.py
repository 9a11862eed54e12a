"""Synthetic data generators, the Mackey-Glass integrator, and splitting.

Every Dataset carries metadata sufficient to regenerate it bit-identically
via `regenerate`. Randomness comes from numpy's PCG64 (`default_rng(seed)`);
Gaussian noise is drawn by the Box-Muller transform over that uniform stream
(see `gaussian_from_uniform`) so the exact byte stream can be reproduced in
any language with a PCG64 implementation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
import json
import math

import numpy as np

from .atomic_io import atomic_write, write_json
from .cognitive_graph import DivergenceError


def _as_columns(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[:, None]
    if x.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D array, got shape {x.shape}")
    return x

__all__ = [
    "Dataset",
    "MackeyGlassParams",
    "gaussian_from_uniform",
    "yerkes_law",
    "gen_yerkes",
    "gen_sine",
    "gen_mackey_glass",
    "gen_mackey",
    "lag_embed",
    "split_dataset",
    "regenerate",
    "save_dataset",
    "load_dataset",
]


@dataclass
class Dataset:
    """Supervised pairs: inputs (n, d_in), targets (n, d_out), plus metadata.

    One-dimensional arrays are treated as n scalar samples (one column).
    """

    inputs: np.ndarray
    targets: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = _as_columns(self.inputs)
        self.targets = _as_columns(self.targets)
        if len(self.inputs) != len(self.targets):
            raise ValueError(
                f"inputs ({len(self.inputs)}) and targets ({len(self.targets)}) differ in length"
            )

    def __len__(self) -> int:
        return len(self.inputs)


def gaussian_from_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller: z = sqrt(-2 ln(1-u1)) cos(2 pi u2).

    u1 and u2 are two consecutive blocks of n uniforms from rng.random(n);
    1-u1 lies in (0, 1], keeping the log finite.
    """
    u1 = rng.random(n)
    u2 = rng.random(n)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def yerkes_law(x):
    """Noise-free inverted-U law y = 1.6 exp(-4 x^2) - 1 (peak 0.6 at x=0)."""
    return 1.6 * np.exp(-4.0 * np.asarray(x, dtype=float) ** 2) - 1.0


def gen_yerkes(n: int, noise_sd: float = 0.05, seed: int = 0) -> Dataset:
    """x ~ U[-1,1]; y = yerkes_law(x) + eps, eps ~ N(0, noise_sd^2)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer of at least 1, got {n!r}")
    if not noise_sd >= 0:
        raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    y = yerkes_law(x)
    if noise_sd > 0:
        y = y + noise_sd * gaussian_from_uniform(rng, n)
    meta = {"generator": "yerkes", "n": int(n), "noise_sd": float(noise_sd), "seed": int(seed)}
    return Dataset(x[:, None], y[:, None], meta)


def gen_sine(n: int, frequency: float = 3.0, seed: int = 0) -> Dataset:
    """x ~ U[-1,1]; y = sin(frequency * x), noiseless."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer of at least 1, got {n!r}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    y = np.sin(frequency * x)
    meta = {"generator": "sine", "n": int(n), "frequency": float(frequency), "seed": int(seed)}
    return Dataset(x[:, None], y[:, None], meta)


@dataclass
class MackeyGlassParams:
    """dx/dt = beta x(t-tau) / (1 + x(t-tau)^exponent) - gamma x(t).

    total_steps counts unit-time samples; washout samples are discarded from
    the front. dt must divide both tau and the unit sampling interval.
    """

    beta: float = 0.2
    gamma: float = 0.1
    exponent: float = 10.0
    tau: float = 17.0
    dt: float = 0.1
    total_steps: int = 2000
    washout: int = 500
    x0: float = 1.2

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.tau < math.inf):
            raise ValueError("dt and tau must be positive and finite")
        if abs(self.tau / self.dt - round(self.tau / self.dt)) > 1e-9:
            raise ValueError(f"dt={self.dt} must divide tau={self.tau} exactly")
        if abs(1.0 / self.dt - round(1.0 / self.dt)) > 1e-9:
            raise ValueError(f"dt={self.dt} must divide the unit sampling interval exactly")
        if self.total_steps <= self.washout:
            raise ValueError("total_steps must exceed washout")
        if self.washout < 0:
            raise ValueError("washout must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)


def gen_mackey_glass(params: MackeyGlassParams, seed: int = 0) -> np.ndarray:
    """Integrate the delay equation; returns total_steps - washout samples
    spaced one time unit apart.

    Integration is RK4 over steps of dt with the delayed term held constant
    within each step; the delay history starts as the constant x0. The
    integrator is deterministic: seed is accepted only so callers can record
    a uniform metadata shape.
    """
    if not params.x0 > 0:
        raise ValueError(f"x0 must be positive, got {params.x0}")
    spu = round(1.0 / params.dt)  # micro steps per unit time
    delay_steps = round(params.tau / params.dt)
    hist = np.full(delay_steps, float(params.x0))
    idx = 0
    x = float(params.x0)
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


def lag_embed(series, lag: int, series_metadata: dict | None = None) -> Dataset:
    """Windows of `lag` consecutive values predicting the next one.

    series_metadata, when given, is embedded so the Dataset stays regenerable;
    otherwise the raw series values are stored in the metadata.
    """
    series = np.asarray(series, dtype=float)
    if lag < 1:
        raise ValueError(f"lag must be at least 1, got {lag}")
    if len(series) <= lag:
        raise ValueError(f"series of length {len(series)} is too short for lag {lag}")
    inputs = np.stack([series[i : len(series) - lag + i] for i in range(lag)], axis=1)
    targets = series[lag:][:, None]
    if series_metadata is None:
        series_meta = {"series_values": [float(v) for v in series]}
    else:
        series_meta = series_metadata
    meta = {"generator": "lag_embed", "lag": int(lag), "series": series_meta}
    return Dataset(inputs, targets, meta)


def gen_mackey(lag: int, seed: int = 0, **params) -> Dataset:
    """The series of MackeyGlassParams(**params), lag-embedded; regenerable."""
    series_params = MackeyGlassParams(**params)
    series = gen_mackey_glass(series_params, seed)
    series_meta = {"generator": "mackey_glass", "params": series_params.to_dict(), "seed": seed}
    return lag_embed(series, lag, series_metadata=series_meta)


def _split_sizes(n: int, fractions) -> list[int]:
    """Floor each share, then hand out the remainder by largest fractional part."""
    raw = [f * n for f in fractions]
    sizes = [int(np.floor(r)) for r in raw]
    remainders = [r - s for r, s in zip(raw, sizes)]
    for _ in range(n - sum(sizes)):
        i = int(np.argmax(remainders))
        sizes[i] += 1
        remainders[i] = -1.0
    return sizes


def split_dataset(data: Dataset, fractions=(0.64, 0.16, 0.2), shuffle: bool = True, seed: int = 0):
    """Deterministic (train, val, test) partition; chronological when shuffle=False."""
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ValueError("fractions must be three positive numbers")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = len(data)
    order = np.arange(n)
    if shuffle:
        order = np.random.default_rng(seed).permutation(n)
    sizes = _split_sizes(n, fractions)
    parts = []
    start = 0
    for name, size in zip(("train", "val", "test"), sizes):
        sel = order[start : start + size]
        meta = {
            "generator": "split",
            "part": name,
            "fractions": list(fractions),
            "shuffle": bool(shuffle),
            "seed": int(seed),
            "parent": data.metadata,
        }
        parts.append(Dataset(data.inputs[sel], data.targets[sel], meta))
        start += size
    return tuple(parts)


def regenerate(metadata: dict) -> Dataset:
    """Rebuild a Dataset from its metadata, bit-identically."""
    gen = metadata.get("generator")
    if gen == "yerkes":
        return gen_yerkes(metadata["n"], metadata["noise_sd"], metadata["seed"])
    if gen == "sine":
        return gen_sine(metadata["n"], metadata["frequency"], metadata["seed"])
    if gen == "lag_embed":
        series_meta = metadata["series"]
        if "series_values" in series_meta:
            series = np.asarray(series_meta["series_values"], dtype=float)
            return lag_embed(series, metadata["lag"])
        if series_meta.get("generator") == "mackey_glass":
            return gen_mackey(metadata["lag"], series_meta.get("seed", 0), **series_meta["params"])
        raise ValueError(f"unknown series metadata: {series_meta!r}")
    if gen == "split":
        parent = regenerate(metadata["parent"])
        parts = split_dataset(parent, tuple(metadata["fractions"]), metadata["shuffle"], metadata["seed"])
        index = {"train": 0, "val": 1, "test": 2}[metadata["part"]]
        return parts[index]
    raise ValueError(f"unknown generator: {gen!r}")


def save_dataset(data: Dataset, csv_path) -> None:
    """CSV with header x_0,...,y_0,... plus a .json metadata sidecar."""
    csv_path = str(csv_path)
    d_in = data.inputs.shape[1]
    d_out = data.targets.shape[1]
    header = ",".join([f"x_{i}" for i in range(d_in)] + [f"y_{i}" for i in range(d_out)])
    with atomic_write(csv_path) as fh:
        fh.write(header + "\n")
        for xs, ys in zip(data.inputs, data.targets):
            fh.write(",".join(repr(float(v)) for v in list(xs) + list(ys)) + "\n")
    write_json(data.metadata, _sidecar_path(csv_path))


def _sidecar_path(csv_path: str) -> str:
    return csv_path[: -len(".csv")] + ".json" if csv_path.endswith(".csv") else csv_path + ".json"


def load_dataset(csv_path) -> Dataset:
    """Read a dataset written by save_dataset.

    Raises ValueError if the rows do not have the header's column count, and
    names the first row and column that hold a NaN or an infinity: every model would train on them (or silently skip them if they
    fall outside the training split), so they are a data error, not a
    divergence.
    """
    csv_path = str(csv_path)
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if len(rows) and rows.shape[1] != len(header):
        raise ValueError(f"{csv_path}: the header names {len(header)} columns, the rows hold {rows.shape[1]}")
    bad = np.argwhere(~np.isfinite(rows))
    if len(bad):
        r, c = bad[0]
        raise ValueError(
            f"{csv_path}: non-finite value {rows[r, c]} in data row {r} (line {r + 2}), column {header[c]}"
        )
    d_in = sum(1 for c in header if c.startswith("x_"))
    with open(_sidecar_path(csv_path)) as fh:
        meta = json.load(fh)
    return Dataset(rows[:, :d_in], rows[:, d_in:], meta)
