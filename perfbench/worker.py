"""One benchmark repetition in a fresh process: set up, run one experiment, report.

    python3 perfbench/worker.py DATA_DIR WORKLOAD OUT_DIR {setup,run,trace}

``setup_s`` runs from the first line of this script to the dataset being in
memory (importing scanfisher and loading texts.json, freq.tsv and
scanpaths.jsonl); mode ``setup`` stops there. ``wall_s`` runs from there to
the report being written; mode ``trace`` adds the layer trace. ``span``
gives the start and end of ``wall_s`` on ``time.perf_counter``, which on Linux
is the system-wide monotonic clock, so run.py can match its probe times to it.
The result is one JSON object on standard output. run.py starts this script
with the thread variables pinned to 1.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scanfisher.corpus import load_frequency_table, load_texts  # noqa: E402
from scanfisher.evaluate import (  # noqa: E402
    PipelineConfig,
    ReadingDataset,
    binary_comprehension_eval,
    loto_cv,
    write_report_json,
)
from scanfisher.events import load_scanpaths  # noqa: E402

import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXPERIMENTS = {"identification": loto_cv, "comprehension": binary_comprehension_eval}


def main(data_dir: str, workload_name: str, out_dir: str, mode: str) -> dict:
    data = Path(data_dir)
    texts = load_texts(data / "texts.json")
    dataset = ReadingDataset(
        texts={t.text_id: t for t in texts},
        freq=load_frequency_table(data / "freq.tsv"),
        scanpaths=load_scanpaths(data / "scanpaths.jsonl"),
    )
    t1 = time.perf_counter()
    if mode == "setup":
        return {"setup_s": t1 - _T0}

    workload = WORKLOADS[workload_name]
    config = PipelineConfig(**workload["pipeline"])
    experiment = EXPERIMENTS[workload["mode"]]
    report_path = Path(out_dir) / "report.json"
    counters = Counter()
    layertrace.route_logging(counters)
    trace = None
    if mode == "trace":
        trace = layertrace.Trace(counters)
        trace.install()

    t2 = time.perf_counter()
    report = experiment(dataset, config)
    write_report_json(report_path, report)
    t3 = time.perf_counter()

    report_bytes = report_path.read_bytes()
    result = {
        "setup_s": t1 - _T0,
        "wall_s": t3 - t2,
        "span": [t2, t3],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": "sha256:" + hashlib.sha256(report_bytes).hexdigest(),
        "folds": len(report.folds),
        "mean_accuracy": report.mean_accuracy,
        "warnings": {k: v for k, v in counters.items() if k.endswith(".warnings")},
    }
    if trace is not None:
        layers, missing = trace.layer_metrics(t3 - t2)
        result["layers"] = layers
        result["missing"] = missing + trace.missing_hooks
        with open(Path(out_dir) / "spans.jsonl", "w", encoding="utf-8") as out:
            for span in trace.spans:
                out.write(json.dumps(span) + "\n")
    return result


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:5])))
