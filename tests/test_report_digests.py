"""Report bytes of the benchmark workloads at the reference seed.

Each workload's dataset is generated the way `perfbench/run.py` generates it
(the public writers, parity labels for comprehension, a reload from the
files), the experiment runs, and the sha256 of the report written by
`write_report_json` must equal the digest pinned in `perfbench/workloads.py`.
The benchmark's worker script must also still run against the package, traced,
and print its result as strict JSON on the last line of its output.
"""

import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scanfisher.corpus import load_frequency_table, load_texts, save_frequency_table, save_texts
from scanfisher.evaluate import (
    PipelineConfig,
    ReadingDataset,
    binary_comprehension_eval,
    loto_cv,
    write_report_json,
)
from scanfisher.events import load_scanpaths, save_scanpaths
from scanfisher.synth import SynthConfig, gen_dataset
from scanfisher.util import sha256_file

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

EXPERIMENTS = {"identification": loto_cv, "comprehension": binary_comprehension_eval}


def _generated_dataset(workload: dict, data_dir: Path) -> ReadingDataset:
    synth = gen_dataset(SynthConfig(seed=workloads.REFERENCE_SEED, **workload["synth"]))
    scanpaths = synth.scanpaths
    if workload["mode"] == "comprehension":
        scanpaths = [dataclasses.replace(sp, label=int(sp.reader_id[1:]) % 2) for sp in scanpaths]
    save_texts(data_dir / "texts.json", synth.texts)
    save_frequency_table(data_dir / "freq.tsv", synth.freq)
    save_scanpaths(data_dir / "scanpaths.jsonl", scanpaths)
    return ReadingDataset(
        texts={t.text_id: t for t in load_texts(data_dir / "texts.json")},
        freq=load_frequency_table(data_dir / "freq.tsv"),
        scanpaths=load_scanpaths(data_dir / "scanpaths.jsonl"),
    )


@pytest.mark.parametrize("name", sorted(workloads.REFERENCE_DIGESTS))
def test_report_digest_at_reference_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    dataset = _generated_dataset(workload, tmp_path)
    report = EXPERIMENTS[workload["mode"]](dataset, PipelineConfig(**workload["pipeline"]))
    write_report_json(tmp_path / "report.json", report)
    assert sha256_file(tmp_path / "report.json") == workloads.REFERENCE_DIGESTS[name]


def _reject_constant(name):
    raise ValueError(f"{name} in the worker's result is not strict JSON")


@pytest.mark.parametrize("name, folds, scanpaths",
                         [("smoke", 3, 18), ("comprehend", 4, 576), ("loto-long", 3, 54), ("loto-nested", 6, 150)],
                         ids=["smoke", "comprehend", "loto-long", "loto-nested"])
def test_benchmark_worker_prints_a_traced_result(tmp_path, name, folds, scanpaths):
    # one traced repetition of the workload, as perfbench/run.py starts it
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    out.mkdir()
    _generated_dataset(workloads.WORKLOADS[name], data)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), str(data), name, str(out), "trace"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert {"setup_s", "wall_s", "span", "peak_rss_mb", "digest", "folds", "mean_accuracy",
            "warnings", "layers", "missing"} <= set(result)
    assert result["folds"] == folds
    assert result["digest"] == workloads.REFERENCE_DIGESTS.get(name, result["digest"])
    # every hook target the layer trace wraps still exists, and every
    # per-layer metric has its data
    assert result["missing"] == []
    assert all(math.isfinite(value) for value in result["layers"].values())
    # each scanpath is extracted once per experiment
    assert result["layers"]["events.scanpaths"] == scanpaths
