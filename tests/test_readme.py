"""README's minimal library session runs as written and does what its
comments say."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_minimal_library_session(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"A minimal library session:\n\n```python\n(.*?)```", readme, re.DOTALL).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["history"][-1] < 1e-9
    top = scope["fit_candidates"](scope["sample_edge"](scope["model"].edges[1][0], 200))[0]
    assert top.form == "sinusoid"
    assert 2.95 <= top.coefficients[1] <= 3.05
    assert capsys.readouterr().out.count("\n") == 2
