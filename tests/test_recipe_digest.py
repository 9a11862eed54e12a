"""tools/recipe_digest.py: the README recipe rerun into the same directory
overwrites every artifact with the same bytes."""

import importlib.util
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location("recipe_digest", os.path.join(ROOT, "tools", "recipe_digest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recipe_rerun_overwrites_identically(tmp_path):
    tool = _load_tool()
    first = tool.file_digests(tool.run_recipe(tmp_path, seed=0, experiments=["yerkes"]))
    second = tool.file_digests(tool.run_recipe(tmp_path, seed=0, experiments=["yerkes"]))
    assert len(first) == 14 and all(path.startswith("yerkes/") for path in first)
    assert second == first
    assert tool.combined_digest(second) == tool.combined_digest(first)


def test_recipe_digest_prints_every_file_and_the_combined_digest(tmp_path, capsys, monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "run_recipe", lambda workdir, seed, experiments: str(tmp_path))
    (tmp_path / "a.txt").write_text("a\n")
    assert tool.main(["--seed", "1", "yerkes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    digests = tool.file_digests(tmp_path)
    assert lines == [f"{digests['a.txt']}  a.txt", f"{tool.combined_digest(digests)}  combined (1 files)"]


def test_stderr_names_blas_threads_numpy_and_blas(tmp_path, capsys, monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "run_recipe", lambda workdir, seed, experiments: str(tmp_path))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert tool.main(["yerkes"]) == 0
    fields = capsys.readouterr().err.split()
    assert fields[0] == "OPENBLAS_NUM_THREADS=1" and fields[2] == "MKL_NUM_THREADS=(unset)"
    assert fields[3:] == [f"numpy={np.__version__}", f"blas={tool.blas_library()}"]

    def no_dict_mode(*args, **kwargs):  # numpy < 1.25
        raise TypeError("show_config() got an unexpected keyword argument 'mode'")

    monkeypatch.setattr(np, "show_config", no_dict_mode)
    assert tool.main(["yerkes"]) == 0
    assert capsys.readouterr().err.split()[-1] == "blas=unknown"
