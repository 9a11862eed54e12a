"""README's minimal library session and its CLI recipe run as written and
do what they say."""

import json
import pathlib
import re
import shutil

from kafcm import cli_harness

ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_block(intro: str, language: str) -> str:
    readme = (ROOT / "README.md").read_text()
    return re.search(rf"{re.escape(intro)}\n\n```{language}\n(.*?)```", readme, re.DOTALL).group(1)


def test_minimal_library_session(capsys):
    block = readme_block("A minimal library session:", "python")
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["history"][-1] < 1e-9
    top = scope["fit_candidates"](scope["sample_edge"](scope["model"].edges[1][0], 200))[0]
    assert top.form == "sinusoid"
    assert 2.95 <= top.coefficients[1] <= 3.05
    assert capsys.readouterr().out.count("\n") == 2


def test_cli_recipe(tmp_path, monkeypatch):
    """Each `kafcm` line of the recipe succeeds in a directory holding a copy
    of configs/, and the file the `cat` line shows ranks a sinusoid of
    frequency about 3 first."""
    lines = readme_block("A full reproduction of one experiment is:", "sh").splitlines()
    assert [line.split()[0] for line in lines] == ["kafcm"] * (len(lines) - 1) + ["cat"]
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for line in lines[:-1]:
        assert cli_harness.main(line.split()[1:]) == 0, line
    top = json.loads(pathlib.Path(lines[-1].split()[1]).read_text())[0]
    assert top["form"] == "sinusoid"
    assert 2.95 <= top["coefficients"][1] <= 3.05
