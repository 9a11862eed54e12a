"""Property tests of the CLI's exit codes under malformed input.

Each example takes one shipped config (or one model file written by `kafcm
train`), replaces one key with a wrong type, NaN, +-Infinity, 0, a negative
value or a large value, and runs the commands that read it. `main` must
return one of its documented exit codes (0, 2, 3, 4) and never raise, and a
config it rejects with exit code 2 gets a message that names the replaced
key. Large values of the keys that size an allocation or a loop are capped,
so that no example allocates more than a few MB, and every dataset and fit
is tiny.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from kafcm.cli_harness import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED = {path.name: json.loads(path.read_text()) for path in sorted((ROOT / "configs").glob("*.json"))}
EXIT_CODES = (0, 2, 3, 4)

# a dataset of a few dozen rows for each experiment, and a short fit
TINY_DATASETS = {
    "yerkes": {"n": 40, "noise_sd": 0.05},
    "sine": {"n": 40, "frequency": 3.0},
    "mackey": {"lag": 4, "total_steps": 80, "washout": 20},
}
TINY_EPOCHS = 5
# the large value a key takes; a key that sizes an allocation or a loop is capped
LARGE = 10**9
CAPS = {
    "n": 400, "total_steps": 400, "washout": 400, "lag": 400, "grid_size": 40, "degree": 6,
    "epochs": 60, "swarm_size": 40, "iterations": 60, "n_nodes": 40,
}
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def replacements(key):
    return ["text", [1, 2], {"a": 1}, None, True, math.nan, math.inf, -math.inf, 0, -1, -2.5, CAPS.get(key, LARGE)]


def key_paths(value, prefix=()):
    """The path of every key in nested JSON objects and lists, parents first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from key_paths(child, (*prefix, key))


def mutated(payload, path, value):
    """A deep copy of payload with the entry at path set to value."""
    payload = copy.deepcopy(payload)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return payload


def tiny_config(raw, out):
    """The shipped config raw on its tiny dataset and a short fit, writing into out."""
    train = dict(raw["train"], epochs=TINY_EPOCHS)
    return dict(raw, dataset=TINY_DATASETS[raw["experiment"]], train=train, out=str(out))


CONFIG_CASES = [
    (name, path) for name, raw in SHIPPED.items() for path in key_paths(tiny_config(raw, "out")) if path != ("out",)
]


@st.composite
def config_mutations(draw):
    name, path = draw(st.sampled_from(CONFIG_CASES))
    return name, path, draw(st.sampled_from(replacements(path[-1])))


@SETTINGS
@given(config_mutations())
@example(("experiment1.json", ("seed",), -1))
@example(("experiment3.json", ("train", "seed"), -1))
def test_mutated_config_exits_with_a_documented_code(tmp_path_factory, case):
    name, path, value = case
    tmp = tmp_path_factory.mktemp("config")
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(mutated(tiny_config(SHIPPED[name], tmp / "out"), path, value)))
    for command in ("generate", "train"):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, "--config", str(cfg)])
        assert code in EXIT_CODES
        if code == 2:
            assert re.search(rf"\b{path[-1]}\b", err.getvalue()), err.getvalue()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(config path, model path, model payload) of a tiny trained mackey KA-FCM."""
    tmp = tmp_path_factory.mktemp("model")
    cfg = tmp / "config.json"
    raw = dict(tiny_config(SHIPPED["experiment3.json"], tmp / "out"), grid_size=4)
    cfg.write_text(json.dumps(raw))
    assert main(["generate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    model = tmp / "out" / "model_kafcm.json"
    payload = json.loads(model.read_text())
    assert payload["version"] == 2 and {"base", "grid"}.isdisjoint(payload["edges"][0])
    return str(cfg), model, payload


@SETTINGS
@given(data=st.data())
def test_mutated_model_file_exits_with_a_documented_code(trained, data):
    cfg, model, payload = trained
    path = data.draw(st.sampled_from(list(key_paths(payload))))
    value = data.draw(st.sampled_from(replacements(path[-1])))
    model.write_text(json.dumps(mutated(payload, path, value)))
    assert main(["evaluate", "--config", cfg]) in EXIT_CODES
