"""Run the README recipe into a temporary directory and print the sha256 of
every artifact it writes, plus one combined digest.

For each experiment the recipe runs `generate`, then `train` and `evaluate`
for each model kind (kafcm, fcm, mlp), then `extract`, on the shipped
config with its model kind set and `--seed` applied; an experiment's
shipped config is the file under `configs/` whose `experiment` key names
it. All three experiments write 42 files. The combined digest is the
sha256 of the `sha256sum`-style listing (`<sha256>  <path>`, one line per
file, sorted by path), so two trees that write the same bytes print the
same combined digest.

    python tools/recipe_digest.py --seed 0                # all three experiments
    python tools/recipe_digest.py --seed 0 yerkes sine    # a subset

The package is imported from this tree's `src/`. The bytes of the MLP
baseline's artifacts depend on the BLAS thread count, so the digest is
comparable only between runs with the same setting; pin it before numpy
loads (for example `OPENBLAS_NUM_THREADS=1`), and with the same numpy
and BLAS library. The tool prints the `OPENBLAS_NUM_THREADS`,
`OMP_NUM_THREADS` and `MKL_NUM_THREADS` settings, the numpy version and
the BLAS library (`unknown` on numpy < 1.25) to standard error, so the
listing on standard output stays comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from kafcm.cli_harness import EXPERIMENTS, MODEL_KINDS, main as kafcm_main  # noqa: E402

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STEPS = (
    [("generate", "kafcm")]
    + [(command, kind) for kind in MODEL_KINDS for command in ("train", "evaluate")]
    + [("extract", "kafcm")]
)


def blas_library() -> str:
    """The BLAS version numpy was built against, or 'unknown'."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def shipped_configs() -> dict:
    """Experiment -> the raw JSON of the file under configs/ that names it."""
    configs = {}
    for name in sorted(os.listdir(os.path.join(ROOT, "configs"))):
        with open(os.path.join(ROOT, "configs", name)) as fh:
            raw = json.load(fh)
        configs[raw["experiment"]] = raw
    return configs


def run_recipe(workdir, seed: int = 0, experiments=EXPERIMENTS) -> str:
    """Run the recipe with artifacts under workdir/out/<experiment>; returns
    workdir/out. Rerunning into the same workdir overwrites the artifacts."""
    config_dir = os.path.join(workdir, "configs")
    out_root = os.path.join(workdir, "out")
    os.makedirs(config_dir, exist_ok=True)
    shipped = shipped_configs()
    for exp in experiments:
        raw = shipped[exp]
        configs = {}
        for kind in MODEL_KINDS:
            configs[kind] = os.path.join(config_dir, f"{exp}_{kind}.json")
            with open(configs[kind], "w") as fh:
                json.dump(dict(raw, model=kind), fh)
        for command, kind in STEPS:
            argv = [command, "--config", configs[kind], "--out", os.path.join(out_root, exp), "--seed", str(seed)]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = kafcm_main(argv)
            if rc != 0:
                raise RuntimeError(f"kafcm {' '.join(argv)} exited with {rc}")
    return out_root


def file_digests(root) -> dict:
    """Relative path (with '/') -> sha256 of every file under root."""
    digests = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            digests[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return digests


def combined_digest(digests: dict) -> str:
    listing = "".join(f"{digests[path]}  {path}\n" for path in sorted(digests))
    return hashlib.sha256(listing.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="the --seed of every command")
    parser.add_argument(
        "experiments", nargs="*", metavar="experiment", help=f"any of {', '.join(EXPERIMENTS)} (default: all)"
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.experiments) - set(EXPERIMENTS))
    if unknown:
        parser.error(f"unknown experiments: {unknown}")
    settings = [f"{name}={os.environ.get(name, '(unset)')}" for name in BLAS_THREAD_VARIABLES]
    print(" ".join(settings + [f"numpy={np.__version__}", f"blas={blas_library()}"]), file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="recipe-") as workdir:
        digests = file_digests(run_recipe(workdir, args.seed, args.experiments or EXPERIMENTS))
    for path in sorted(digests):
        print(f"{digests[path]}  {path}")
    print(f"{combined_digest(digests)}  combined ({len(digests)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
