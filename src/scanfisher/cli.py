"""Command-line entry point wiring the pipeline into reproducible runs.

Every emitted artifact embeds a provenance block: tool version, the
subcommand configuration, the seed, and content hashes of all inputs.  All
subcommands are pure functions of (inputs, config, seed); reruns produce
byte-identical files.
"""

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .corpus import (
    CorpusError,
    NormStats,
    load_frequency_table,
    load_texts,
    norm_stats,
    save_frequency_table,
    save_texts,
)
from .evaluate import (
    EvalError,
    LeakageError,
    PipelineConfig,
    ReadingDataset,
    binary_comprehension_eval,
    event_table,
    loto_cv,
    summarize_report,
    write_report_csv,
    write_report_json,
)
from .events import AMP_FLOOR, ScanpathError, load_scanpaths, save_scanpaths
from .fisher import (
    MetricError,
    ScoreFileError,
    default_ridge,
    empirical_information,
    fisher_metric,
    gram_matrix,
    read_scores,
    score_matrix,
    write_scores,
)
from .fit import FitConfig, FitError, fit_model_detailed
from .model import ModelError, ModelParams
from .svm import KernelProblem, SvmError, train_multiclass
from .synth import SynthConfig, gen_dataset
from .util import canonical_json, read_json, sha256_file, write_json

PARSE_ERROR = 2
RUN_ERROR = 3

_PARSE_EXCEPTIONS = (CorpusError, ScanpathError, ScoreFileError, FileNotFoundError, json.JSONDecodeError, KeyError)
_RUN_EXCEPTIONS = (FitError, EvalError, SvmError, MetricError, ModelError, LeakageError, ValueError)


_PATH_KEYS = {"out", "meta", "metric_out", "texts", "freq", "scanpaths", "scores", "model", "report"}


def _provenance(args: argparse.Namespace, inputs: dict[str, str], seed=None) -> dict:
    # paths are machine-local; inputs are identified by content hash instead
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k != "func"
        and isinstance(v, (str, int, float, bool, list, tuple, type(None)))
        and not (k in _PATH_KEYS and isinstance(v, str))
    }
    return {
        "tool": "scanfisher",
        "version": __version__,
        "config": config,
        "seed": seed,
        "input_hashes": {name: sha256_file(path) for name, path in sorted(inputs.items())},
    }


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _load_dataset(args) -> ReadingDataset:
    texts = load_texts(args.texts)
    freq = load_frequency_table(args.freq)
    scanpaths = load_scanpaths(args.scanpaths)
    known = {t.text_id for t in texts}
    missing = {sp.text_id for sp in scanpaths} - known
    if missing:
        raise CorpusError(f"scanpaths reference unknown texts: {sorted(missing)}")
    return ReadingDataset(texts={t.text_id: t for t in texts}, freq=freq, scanpaths=scanpaths)


def _pipeline_config(args) -> PipelineConfig:
    # comprehend takes neither identification setting and leaves both at their defaults
    return PipelineConfig(
        lambda_grid=args.lambda_grid,
        c_grid=args.c_grid,
        ridge_scales=args.ridge_grid,
        inner_folds=getattr(args, "inner_folds", PipelineConfig.inner_folds),
        feature_elimination=not args.no_elimination,
        run_generative_baseline=not getattr(args, "no_baseline", False),
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    config = SynthConfig(
        num_readers=args.readers,
        num_texts=args.texts,
        lines_per_text=args.lines,
        words_per_line=args.words_per_line,
        num_flags=args.flags,
        sigma_reader=args.sigma,
        min_fixations=args.min_fixations,
        max_fixations=args.max_fixations,
        seed=args.seed,
    )
    dataset = gen_dataset(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    texts_path = out / "texts.json"
    freq_path = out / "freq.tsv"
    sps_path = out / "scanpaths.jsonl"
    save_texts(texts_path, dataset.texts)
    save_frequency_table(freq_path, dataset.freq)
    save_scanpaths(sps_path, dataset.scanpaths)
    truth = {
        "config": config.to_dict(),
        "reader_params": {
            rid: params.to_dict()
            for rid, params in zip(dataset.reader_ids, dataset.reader_params)
        },
        "_provenance": _provenance(
            args,
            {"texts": texts_path, "freq": freq_path, "scanpaths": sps_path},
            seed=args.seed,
        ),
    }
    write_json(out / "ground_truth.json", truth)
    print(f"wrote {texts_path}, {freq_path}, {sps_path}, {out / 'ground_truth.json'}")
    return 0


def cmd_fit(args) -> int:
    dataset = _load_dataset(args)
    stats = norm_stats([dataset.texts[t] for t in dataset.text_ids()], dataset.freq)
    table = event_table(dataset, stats.layout)
    config = FitConfig(lam=args.reg_lambda, tol=args.tol, max_iter=args.max_iter)
    outcome = fit_model_detailed(table.gather(range(len(table.scanpaths)), stats)[0], config)
    payload = replace(outcome.params, feature_layout=stats.layout).to_dict()
    payload["norm_stats"] = stats.to_dict()
    payload["amp_floor"] = AMP_FLOOR
    payload["_provenance"] = _provenance(
        args,
        {"texts": args.texts, "freq": args.freq, "scanpaths": args.scanpaths},
        seed=None,
    )
    write_json(args.out, payload)
    write_json(str(args.out) + ".log.json", {"groups": [asdict(g) for g in outcome.groups]})
    print(f"wrote {args.out} (fit log: {args.out}.log.json)")
    return 0


def cmd_score(args) -> int:
    payload = read_json(args.model)
    if payload.get("amp_floor", AMP_FLOOR) != AMP_FLOOR:
        raise ScanpathError(f"{args.model}: amp_floor {payload['amp_floor']!r} is not {AMP_FLOOR}, "
                            "the amplitude floor every model is fitted with")
    params = ModelParams.from_dict(payload)
    stats = NormStats.from_dict(payload["norm_stats"])
    dataset = _load_dataset(args)
    table = event_table(dataset, stats.layout)
    events, lengths = table.gather(range(len(table.scanpaths)), stats)
    scores = score_matrix(events.split(lengths), params)
    write_scores(args.out, scores)
    meta_path = args.meta or str(args.out) + ".meta.json"
    write_json(
        meta_path,
        {
            "instances": [
                {"reader_id": sp.reader_id, "text_id": sp.text_id, "line_id": sp.line_id, "label": sp.label}
                for sp in table.scanpaths
            ],
            "_provenance": _provenance(
                args,
                {"model": args.model, "texts": args.texts, "freq": args.freq, "scanpaths": args.scanpaths},
            ),
        },
    )
    print(f"wrote {args.out} ({scores.shape[0]} instances x {scores.shape[1]} dims), meta: {meta_path}")
    return 0


def cmd_kernel(args) -> int:
    scores = read_scores(args.scores)
    info = empirical_information(scores)
    ridge = default_ridge(info, args.ridge_scale)
    metric = fisher_metric(info, ridge)
    gram = gram_matrix(metric, scores)
    provenance = _provenance(args, {"scores": args.scores})
    lines = [f"# provenance: {canonical_json(provenance)}"]
    lines.extend(",".join(f"{v:.17g}" for v in row) for row in gram)
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    metric_path = args.metric_out or str(args.out) + ".metric.json"
    write_json(
        metric_path,
        {
            "ridge": ridge,
            "ridge_scale": args.ridge_scale,
            "dim": int(scores.shape[1]),
            "n_instances": int(scores.shape[0]),
            "_provenance": provenance,
        },
    )
    print(f"wrote {args.out} ({gram.shape[0]}x{gram.shape[1]}), metric: {metric_path}")
    return 0


def cmd_train_svm(args) -> int:
    scores = read_scores(args.scores)
    meta = read_json(args.meta)
    labels = [inst["label"] if inst["label"] is not None else inst["reader_id"]
              for inst in meta["instances"]]
    info = empirical_information(scores)
    metric = fisher_metric(info, default_ridge(info, args.ridge_scale))
    mc = train_multiclass(KernelProblem(gram_matrix(metric, scores)), labels, C=args.C)
    references = {"scores": sha256_file(args.scores), "meta": sha256_file(args.meta)}
    if args.model:
        references["model"] = sha256_file(args.model)
    payload = mc.to_dict(references=references)
    payload["ridge_scale"] = args.ridge_scale
    payload["_provenance"] = _provenance(
        args, {"scores": args.scores, "meta": args.meta}
    )
    write_json(args.out, payload)
    print(f"wrote {args.out} ({len(mc.classes)} classes)")
    return 0


def cmd_evaluate(args) -> int:
    """Run the subcommand's experiment (`loto_cv` or `binary_comprehension_eval`) and write its reports."""
    report = args.experiment(_load_dataset(args), _pipeline_config(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    provenance = _provenance(args, {"texts": args.texts, "freq": args.freq, "scanpaths": args.scanpaths})
    write_report_json(out / "report.json", report, provenance=provenance)
    write_report_csv(out / "report.csv", report,
                     provenance_comment=f"provenance: {canonical_json(provenance)}")
    print(summarize_report(report.to_dict()))
    print(f"wrote {out / 'report.json'}, {out / 'report.csv'}")
    return 0


def cmd_report(args) -> int:
    print(summarize_report(read_json(args.report)))
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--texts", required=True, help="texts JSON file")
    p.add_argument("--freq", required=True, help="frequency table TSV")
    p.add_argument("--scanpaths", required=True, help="scanpaths JSONL file")


def _add_pipeline_args(p: argparse.ArgumentParser, identification: bool) -> None:
    defaults = PipelineConfig()
    p.add_argument("--lambda-grid", type=_float_list, default=defaults.lambda_grid)
    p.add_argument("--c-grid", type=_float_list, default=defaults.c_grid)
    p.add_argument("--ridge-grid", type=_float_list, default=defaults.ridge_scales)
    if identification:
        p.add_argument("--inner-folds", type=int, default=defaults.inner_folds)
        p.add_argument("--no-baseline", action="store_true")
    p.add_argument("--no-elimination", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scanfisher")
    parser.add_argument("--version", action="version", version=f"scanfisher {__version__}")
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"), default="warning",
        help="lowest level of scanfisher log records written to stderr (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus and dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--readers", type=int, default=5)
    p.add_argument("--texts", type=int, default=12)
    p.add_argument("--lines", type=int, default=6)
    p.add_argument("--words-per-line", type=int, default=20)
    p.add_argument("--flags", type=int, default=0)
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--min-fixations", type=int, default=7)
    p.add_argument("--max-fixations", type=int, default=13)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit model parameters by regularized ML")
    _add_data_args(p)
    p.add_argument("--out", required=True)
    fit_defaults = FitConfig()
    p.add_argument("--reg-lambda", "--lambda", dest="reg_lambda", type=float, default=fit_defaults.lam)
    p.add_argument("--tol", type=float, default=fit_defaults.tol)
    p.add_argument("--max-iter", type=int, default=fit_defaults.max_iter)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", help="emit per-line Fisher scores for a fitted model")
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--meta", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("kernel", help="emit the Fisher-kernel Gram matrix of a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ridge-scale", type=float, default=1e-6)
    p.add_argument("--metric-out", default=None)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("train-svm", help="train a one-vs-rest SVM on Fisher scores")
    p.add_argument("--scores", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", default=None, help="model file to reference by hash")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--ridge-scale", type=float, default=1e-6)
    p.set_defaults(func=cmd_train_svm)

    for name, experiment, about in (
        ("identify", loto_cv, "leave-one-text-out reader identification"),
        ("comprehend", binary_comprehension_eval, "binary label prediction over 50/50 splits"),
    ):
        p = sub.add_parser(name, help=about)
        _add_data_args(p)
        p.add_argument("--out", required=True)
        _add_pipeline_args(p, identification=experiment is loto_cv)
        p.set_defaults(func=cmd_evaluate, experiment=experiment)

    p = sub.add_parser("report", help="summarize a report JSON file")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)

    return parser


@contextmanager
def _log_to_stderr(level: str):
    """Write `scanfisher.*` records at `level` and above to stderr, named by logger."""
    logger = logging.getLogger("scanfisher")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = logger.level
    logger.setLevel(level.upper())
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _log_to_stderr(args.log_level):
        try:
            return args.func(args)
        except _PARSE_EXCEPTIONS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return PARSE_ERROR
        except _RUN_EXCEPTIONS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return RUN_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
