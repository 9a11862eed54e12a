"""kafcm benchmark: one run of one workload, printing its metrics as JSON.

    python3 benchmark/run.py --workload reproduce --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. With `--trace 0` the run
times passes of the workload until `--seconds` is spent (at least the
workload's minimum number of passes) and reports the end-to-end metrics of
BENCHMARK.json from the fastest repeat of each timed operation. With
`--trace 1` it runs one untraced pass, one traced pass, the shape probes and
the layer tour, and reports the per-layer metrics. Every pass checks the
program's outputs. The last line of standard output is the result object;
the lines before it record the environment and per-stage detail. Spans of a traced run go to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "benchmark" / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread unless the caller chose otherwise, set before numpy loads.
# On two shared cores, BLAS worker threads contending with the neighbours'
# load made the MLP baseline's time, and so `wall_s`, twice as noisy.
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("reproduce", "dense_map"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def import_seconds(src):
    """Wall time of a fresh interpreter importing the CLI module from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import kafcm.cli_harness"], cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL
    )
    return time.perf_counter() - t0


def environment(args):
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": commit,
        "machine": platform.machine(),
    }


def combine(passes):
    """Group totals of each op's fastest time over passes.

    On a shared machine the CPU runs at one of several speeds for seconds at
    a time, depending on neighbours. The fastest repeat of one operation
    estimates its cost on an uncontended core; medians over runs do the rest.
    """
    fastest = {op: min(p.times[op] for p in passes if op in p.times) for op in passes[0].times}
    return {g: sum(fastest[o] for o in ops) for g, ops in passes[0].groups.items()}


SETUPS = 12  # set-ups spread over a timed run, besides the one after it


def timed_run(cls, args, src, tmp):
    setups, passes = [], []

    def set_up():
        imported = import_seconds(src)
        wl = cls(ROOT, args.seed, tmp)
        t0 = time.perf_counter()
        wl.setup()
        setups.append(imported + time.perf_counter() - t0)
        return wl

    # Set-ups are due at even intervals over the run, and one follows the
    # last pass, so their median does not fall in a single slow spell of the
    # machine. A pass runs on the workload of the latest set-up.
    start = time.perf_counter()
    while True:
        while len(setups) * args.seconds / SETUPS <= time.perf_counter() - start:
            wl = set_up()
        passes.append(wl.run_pass(len(passes)))
        elapsed = time.perf_counter() - start
        if len(passes) >= wl.min_passes and elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
    if wl.reruns:
        t0 = time.perf_counter()
        wl.rerun(passes[-1])
        round_s = time.perf_counter() - t0
        while time.perf_counter() - start + round_s < args.seconds:
            wl.rerun(passes[-1])
    set_up()
    wl.check_run(passes)

    sums = combine(passes)
    fit = sums.get("fit", 0.0)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sums.get("wall", 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kafcm_s": sums.get("kafcm", 0.0),
        "fit_epochs_per_s": passes[0].fit_epochs / fit if fit else 0.0,
    }
    detail = wl.stages(sums) if sums.get("wall") else {}
    detail.update(pass_wall_s=[p.wall_s for p in passes], setup_samples_s=setups)
    return metrics, passes, detail


def traced_run(cls, args, tmp, env):
    import probes
    import tracer
    from workloads import PassResult

    wl = cls(ROOT, args.seed, tmp)
    # a traced pass runs each operation once, so span totals count one recipe
    wl.reruns = 0
    wl.setup()
    untraced = wl.run_pass(0)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = wl.run_pass(1)
    finally:
        tr.uninstall()
    wl.check_run([untraced, traced])

    # the shape probes time themselves, so they run untraced; the tour has
    # its own tracer, so its spans never enter the workload's totals
    probe_metrics, failures, missing = probes.shape_probes(args.seed)
    tour = tracer.Tracer()
    tour.install()
    try:
        tour_bytes, tour_failures, tour_missing = probes.layer_tour(args.seed, tmp)
    finally:
        tour.uninstall()
    probe_ops = PassResult(attempted=probes.OPS, failures=failures + tour_failures)

    metrics, from_tour = tracer.layer_metrics(tr.spans, traced.bytes_written, tour.spans, tour_bytes)
    metrics.update(probe_metrics)
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    missing = sorted(set(tr.missing + tour.missing + missing + tour_missing))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tr.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", {"env": env, "missing": missing})
    detail = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "spans": len(tr.spans),
        "from_tour": from_tour,
        "missing": missing,
    }
    return metrics, [untraced, traced, probe_ops], detail


def main(argv=None):
    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "kafcm" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"benchmark: no kafcm sources (src/kafcm, configs/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import kafcm

    if Path(kafcm.__file__).resolve().parent != (src / "kafcm").resolve():
        print(f"benchmark: imported kafcm from {kafcm.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    env = environment(args)
    cls = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR)
    try:
        if args.trace:
            raw, passes, detail = traced_run(cls, args, tmp, env)
        else:
            raw, passes, detail = timed_run(cls, args, src, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    for message in failures:
        print(f"benchmark: FAILED {message}", file=sys.stderr)
    metrics = {}
    for entry in declared:
        if entry["name"] not in raw:
            print(f"benchmark: metric {entry['name']} was not measured; reporting 0", file=sys.stderr)
        metrics[entry["name"]] = {"value": raw.get(entry["name"], 0), "unit": entry["unit"]}
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
