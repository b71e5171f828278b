"""scanfisher benchmark: one experiment per fresh single-thread process, repeated.

    python3 perfbench/run.py --workload loto-nested --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The inputs of a workload are generated from ``--seed`` with the
package's public generator and writers before anything is timed. Each
repetition is a fresh process (perfbench/worker.py) with
``SCANPATH_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` pinned
to 1: it imports the package and loads the files (``setup_s``), runs
``loto_cv`` or ``binary_comprehension_eval`` and writes the report
(``wall_s``), and reports its ``ru_maxrss`` (``peak_rss_mb``). Repetitions
continue, closed-loop, for ``--seconds``; processes that only set up fill
the rest of that time. Each metric is the median over its processes.

This process and its workers share one core. While an experiment runs, this
process times the speed probe of perfbench/probe.py on that core; the
end-to-end time metric is ``wall_norm``, the experiment's wall time divided
by the mean probe time over it, because on a shared host ``wall_s`` itself
drifts with the neighbours by more than any bound allows. ``wall_s`` and
``probe_s`` are printed too.

Every report must have the workload's fold count, equal the first
repetition's bytes, and, at the reference seed, match the recorded digest;
a repetition that fails any check, or raises, counts as failed and the run
goes on. ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of perfbench/layertrace.py (medians over the
traced repetitions) plus ``trace.overhead_s``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit). The lines
before it give the environment and each metric's median, highest percentile
with at least ten samples above it, and sample count.
"""

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import LAYER_METRICS
from workloads import REFERENCE_DIGESTS, REFERENCE_SEED, WORKLOADS, expected_folds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".perfbench_work"

PINNED_ENV = {
    "SCANPATH_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# A run must end within 180 s; no repetition starts that could cross this.
RUN_LIMIT_S = 150.0
WORKER_TIMEOUT_S = 170.0
MIN_SETUPS = 9


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "threads": {k: os.environ.get(k) for k in PINNED_ENV},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def generate(workload: dict, seed: int, data_dir: Path) -> None:
    from scanfisher.corpus import save_frequency_table, save_texts
    from scanfisher.events import save_scanpaths
    from scanfisher.synth import SynthConfig, gen_dataset

    synth = gen_dataset(SynthConfig(seed=seed, **workload["synth"]))
    scanpaths = synth.scanpaths
    if workload["mode"] == "comprehension":
        # binary labels from the reader index parity, as in tests/test_eval.py
        scanpaths = [dataclasses.replace(sp, label=int(sp.reader_id[1:]) % 2)
                     for sp in scanpaths]
    data_dir.mkdir(parents=True)
    save_texts(data_dir / "texts.json", synth.texts)
    save_frequency_table(data_dir / "freq.tsv", synth.freq)
    save_scanpaths(data_dir / "scanpaths.jsonl", scanpaths)


def run_worker(name: str, data_dir: Path, out_dir: Path, mode: str, timeout: float):
    """One worker process; its result dict, or None if it raised or timed out.

    While the worker runs, this process times the speed probe on the same
    core between sleeps of probe.PERIOD_S, whatever the mode, so that every
    process shares the core alike; an experiment's result gets ``probe_s``,
    the mean probe time over its span, and ``wall_norm``.
    """
    import probe  # imports numpy, so only after main() pinned the thread variables

    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(WORKER), str(data_dir), name, str(out_dir), mode]
    samples = []
    with open(out_dir / "stdout", "wb") as out, open(out_dir / "stderr", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env={**os.environ, **PINNED_ENV})
        deadline = time.perf_counter() + timeout
        try:
            while proc.poll() is None:
                if time.perf_counter() > deadline:
                    print(f"{mode} in {out_dir.name} timed out after {timeout:.0f} s",
                          file=sys.stderr)
                    return None
                samples.append(probe.probe())
                time.sleep(probe.PERIOD_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    samples.append(probe.probe())
    if proc.returncode != 0:
        stderr = (out_dir / "stderr").read_text(encoding="utf-8", errors="replace")
        print(f"{mode} in {out_dir.name} failed:\n{stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads((out_dir / "stdout").read_text(encoding="utf-8").strip().splitlines()[-1])
    if "span" in result:
        result["probe_s"] = probe.mean_probe_s(samples, *result["span"])
        result["wall_norm"] = result["wall_s"] / result["probe_s"]
    return result


def repeat(name: str, data_dir: Path, run_dir: Path, seconds: float, traced_run: bool,
           t_start: float) -> list:
    """(mode, result) per worker process, run closed-loop for `seconds`.

    Experiments repeat while the next one fits in `seconds`: at least three,
    or in a traced run at least two, alternating untraced and traced. In an
    untraced run, set-up-only processes then fill the time left, and make up
    at least MIN_SETUPS set-up samples, so that setup_s is a median over many
    processes.
    """
    min_experiments = 2 if traced_run else 3
    reps = []
    longest = 0.0
    start = time.perf_counter()

    def launch(mode):
        nonlocal longest
        begun = time.perf_counter()
        timeout = max(1.0, WORKER_TIMEOUT_S - (begun - t_start))
        reps.append((mode, run_worker(name, data_dir, run_dir / f"{len(reps)}-{mode}", mode,
                                      timeout)))
        now = time.perf_counter()
        longest = max(longest, now - begun)
        return now, now - begun

    while True:
        now, _ = launch("trace" if traced_run and len(reps) % 2 == 1 else "run")
        if now + longest - t_start > RUN_LIMIT_S:
            return reps
        if len(reps) >= min_experiments and now + longest - start > seconds:
            break
    took = 0.0
    while not traced_run and now + took - t_start < RUN_LIMIT_S and (
            len(reps) < MIN_SETUPS or now + took - start < seconds):
        now, took = launch("setup")
    return reps


def check(name: str, seed: int, reps: list) -> tuple[int, int]:
    """Attempted and failed runs.

    Every experiment counts as attempted, and a set-up-only process only if
    it failed. A run fails if it raised, or its report has the wrong fold
    count or bytes that differ from the reference or the first report.
    """
    workload = WORKLOADS[name]
    reference = REFERENCE_DIGESTS.get(name) if seed == REFERENCE_SEED else None
    first_digest = first_counts = None
    attempted = failed = 0
    for index, (mode, result) in enumerate(reps):
        if mode != "setup" or result is None:
            attempted += 1
        if result is None:
            failed += 1
            continue
        if mode == "setup":
            continue
        problems = []
        if result["folds"] != expected_folds(workload):
            problems.append(f"{result['folds']} folds, expected {expected_folds(workload)}")
        if reference is not None and result["digest"] != reference:
            problems.append(f"report {result['digest']} != reference {reference}")
        first_digest = first_digest or result["digest"]
        if result["digest"] != first_digest:
            problems.append(f"report {result['digest']} != first repetition's {first_digest}")
        if mode == "trace":
            counts = {k: v for k, v in result["layers"].items()
                      if LAYER_METRICS[k][0] in ("count", "bytes")}
            first_counts = first_counts or counts
            if counts != first_counts:
                problems.append("layer counts differ from the first traced repetition")
        if problems:
            failed += 1
            print(f"repetition {index} failed: " + "; ".join(problems), file=sys.stderr)
    return attempted, failed


def describe(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples above it, and n."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    if n > 10:
        text += f", p{100.0 * (n - 10) / n:.4g} {sorted(values)[n - 11]:.6g}"
    else:
        text += ", no percentile with 10 samples above it"
    return text + f", n={n}"


def summarize(name: str, reps: list, attempted: int, failed: int, traced_run: bool) -> dict:
    done = [(mode, r) for mode, r in reps if r is not None]
    plain = [r for mode, r in done if mode == "run"]
    traced = [r for mode, r in done if mode == "trace"]
    metrics = {}

    def show(metric, unit, values):
        print(f"  {metric} [{unit}]: {describe(values)}")

    def put(metric, unit, values):
        show(metric, unit, values)
        metrics[metric] = {"value": statistics.median(values), "unit": unit}

    print(f"{name}: error_rate [share]: {failed / attempted:.6g} ({failed} of {attempted} failed)")
    if plain or traced:
        first = (plain or traced)[0]
        print(f"  report {first['digest']}, {first['folds']} folds, "
              f"mean_accuracy [share] {first['mean_accuracy']!r}")
    warnings = {}
    for r in plain + traced:
        for key, value in r["warnings"].items():
            warnings[key] = warnings.get(key, 0) + value
    print(f"  scanfisher log records (all repetitions): {json.dumps(warnings, sort_keys=True)}")
    if not traced_run:
        if plain:
            put("wall_norm", "probes", [r["wall_norm"] for r in plain])
            show("wall_s", "s", [r["wall_s"] for r in plain])
            show("probe_s", "s", [r["probe_s"] for r in plain])
            put("setup_s", "s", [r["setup_s"] for _, r in done])
            put("peak_rss_mb", "MB", [r["peak_rss_mb"] for r in plain])
        return metrics

    if not traced:
        return metrics
    missing = sorted({m for r in traced for m in r["missing"]})
    if missing:
        print(f"  missing (no hook target, or nothing to divide by): {', '.join(missing)}")
    for metric, (unit, _) in LAYER_METRICS.items():
        values = [r["layers"][metric] for r in traced if metric in r["layers"]]
        if values:
            put(metric, unit, values)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    if plain:
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        print(f"  traced wall {traced_wall:.6g} s, untraced wall {untraced_wall:.6g} s")
        metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    for r in traced:
        shares = {k: v / r["wall_s"] for k, v in r["layers"].items() if LAYER_METRICS[k][0] == "s"}
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:5]
        print(f"  self time, share of traced wall {r['wall_s']:.6g} s: total {sum(shares.values()):.2%}; "
              + ", ".join(f"{k} {v:.1%}" for k, v in top))
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced_run: bool, t_start: float) -> dict:
    run_dir = WORK / f"{name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    generate(WORKLOADS[name], seed, run_dir / "data")
    reps = repeat(name, run_dir / "data", run_dir, seconds, traced_run, t_start)
    attempted, failed = check(name, seed, reps)
    metrics = summarize(name, reps, attempted, failed, traced_run)
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scanfisher" / "__init__.py").is_file():
        print(f"no scanfisher sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    # One core for this process, its experiment processes and the probe: see probe.py.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    print("env: " + json.dumps(environment(), sort_keys=True))

    names = [args.workload]
    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [w["name"] for w in spec["workloads"]]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              time.perf_counter() if args.workload == "all" else t_start)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
