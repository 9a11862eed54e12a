"""tools/recipe_digest.py: the README recipe rerun into the same directory
overwrites every artifact with the same bytes."""

import importlib.util
import os

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
