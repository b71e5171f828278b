"""Smoke test of the benchmark itself on the tiny ``smoke`` workload (about a minute).

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that no scanfisher log line reaches stderr, that layer self times are
non-negative and, with evaluate.self_s, account for the traced wall time,
that layer counts repeat exactly across two traced runs, and that a hook
whose target is gone is reported missing instead of crashing the run.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
from run import PINNED_ENV, WORK, generate, run_worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

failures = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def bench(trace: int, seed: int = 3) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    expect(proc.returncode == 0, f"run.py --trace {trace} exited {proc.returncode}")
    expect(proc.stderr == "", f"run.py --trace {trace} wrote to stderr: {proc.stderr[:300]!r}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], "result keys")
    expect(result["correct"] and result["failed"] == 0, f"run.py --trace {trace} not correct")
    return result


def check_units(metrics: dict, declared: list[dict], what: str) -> None:
    for entry in declared:
        got = metrics.get(entry["name"])
        expect(got is not None and got["unit"] == entry["unit"],
               f"{what} metric {entry['name']} [{entry['unit']}] printed as {got}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    plain = bench(0)
    check_units(plain["metrics"], spec["end_to_end"], "end-to-end")
    first, second = bench(1), bench(1)
    check_units(first["metrics"], spec["per_layer"], "per-layer")
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in (first, second)]
    expect(counts[0] == counts[1], f"layer counts differ between runs: {counts}")
    for name in ("svm.smo_iterations", "fit.lbfgs_iterations", "fisher.instances_scored"):
        expect(counts[0].get(name, 0) > 0, f"{name} is {counts[0].get(name)}")

    # one traced repetition, read directly: self times against the traced wall
    run_dir = WORK / "smoke-check"
    shutil.rmtree(run_dir, ignore_errors=True)
    generate(WORKLOADS["smoke"], 3, run_dir / "data")
    os.environ.update(PINNED_ENV)
    rep = run_worker("smoke", run_dir / "data", run_dir / "rep", "trace", 170)
    layers = rep["layers"]
    seconds = {k: v for k, v in layers.items() if layertrace.LAYER_METRICS[k][0] == "s"}
    expect(all(v >= 0 for v in seconds.values()), f"negative self time: {seconds}")
    total = sum(seconds.values())
    expect(abs(total - rep["wall_s"]) <= 0.03 * rep["wall_s"],
           f"self times sum to {total:.4f} s, traced wall {rep['wall_s']:.4f} s")
    expect(layers["evaluate.self_s"] <= 0.25 * rep["wall_s"],
           f"evaluate.self_s {layers['evaluate.self_s']:.4f} s: hooks miss most of the work")

    # a hook whose target is gone is reported missing, and the rest still works
    trace = layertrace.Trace(Counter())
    gone = layertrace.Hook("scanfisher.svm", "no_such_solver", "svm.solve_dual")
    trace.install([gone, *(h for h in layertrace.HOOKS if h.span != "svm.solve_dual")])
    values, missing = trace.layer_metrics(wall_s=1.0)
    expect(trace.missing_hooks == ["scanfisher.svm.no_such_solver"], f"{trace.missing_hooks}")
    expect("svm.solve_dual_s" in missing and "svm.solves" in missing, f"missing {missing}")
    expect("fit.fit_model_s" in values, "installed hooks still report")

    print("smoke: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
