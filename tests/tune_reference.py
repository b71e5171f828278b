"""Full-scan tuners, kept as test oracles for the saturation stops.

`tune_full_scan` is `scanfisher.evaluate._tune` as it was before it stopped
at inner accuracy 1.0: it scores every grid point of every feature subset it
tries and runs every elimination round to the end.  `tune_baseline_full_scan`
scores every lambda of the baseline's grid, even a grid of one.  Both must
choose what the stopping tuners choose.  Both are generators that pass the
fits they lack up to `scanfisher.evaluate._lockstep`, as `_tune` does.
"""

from typing import Sequence

import numpy as np

from scanfisher import evaluate


def tune_full_scan(contexts: list, config, layout: Sequence[str], train, decide):
    """Grid search over (lambda, ridge scale, C) with greedy feature elimination, never stopping early."""
    keep = tuple(range(len(layout)))
    if not contexts:
        return evaluate._Tuned(lam=config.lambda_grid[0], ridge_scale=config.ridge_scales[0],
                               C=config.c_grid[0], keep=keep, inner_accuracy=None)

    def accuracies(stage, kernels):
        by_c, model = {}, None
        for C in sorted(set(config.c_grid)):
            model = train(stage, kernels, C, model)
            by_c[C] = evaluate._accuracy_from_curves(evaluate._decide_groups(model, kernels, decide)[0])[0]
        return [by_c[C] for C in config.c_grid]

    def grid(keep):
        best = None
        for lam in config.lambda_grid:
            stages = yield from evaluate._fit_stages(contexts, lam, [layout[i] for i in keep])
            for ridge_scale in config.ridge_scales:
                per_context = [accuracies(stage, evaluate._kernel_stage(stage, ridge_scale)) for stage in stages]
                for C, accs in zip(config.c_grid, zip(*per_context)):
                    acc = float(np.mean(accs))
                    if best is None or acc > best[0]:
                        best = (acc, lam, ridge_scale, C)
        return best

    acc, lam, ridge_scale, C = yield from grid(keep)
    while config.feature_elimination and len(keep) > 1:
        best = None
        for drop in keep[1:]:
            cand = tuple(i for i in keep if i != drop)
            result = yield from grid(cand)
            if best is None or result[0] > best[0][0]:
                best = (result, cand)
        if best[0][0] <= acc:
            break
        (acc, lam, ridge_scale, C), keep = best
    return evaluate._Tuned(lam=lam, ridge_scale=ridge_scale, C=C, keep=keep, inner_accuracy=acc)


def tune_baseline_full_scan(contexts: list, config):
    """The baseline's lambda search, run over the whole grid even when it leaves no choice."""
    if not contexts:
        return config.lambda_grid[0]
    best = None
    for lam in config.lambda_grid:
        accs = [evaluate._accuracy_from_curves(curves)[0]
                for curves in (yield from evaluate._baseline_curves(contexts, lam))]
        if best is None or float(np.mean(accs)) > best[0]:
            best = (float(np.mean(accs)), lam)
    return best[1]
