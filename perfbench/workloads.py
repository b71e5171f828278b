"""Workload table for the scanfisher benchmark (why each was chosen: BENCHMARK.json).

Plain data only: this module imports nothing from scanfisher (nor numpy), so
run.py reads it before it pins the thread variables and imports numpy.

Each workload names the synthetic dataset to generate (``SynthConfig`` fields
minus the seed, which comes from the benchmark's ``--seed``), the experiment
to run (``loto_cv`` for identification, ``binary_comprehension_eval`` for
comprehension) and the ``PipelineConfig`` fields.
"""

# Report digests are checked against this table only at this seed; at any
# other seed every run's report must equal the first run's.
REFERENCE_SEED = 1

WORKLOADS = {
    # Feature elimination is off in every workload: how many elimination
    # rounds run depends on the data, which spread wall_s by 28% across seeds
    # on comprehend.
    "loto-nested": {
        "mode": "identification",
        # Sized so that one experiment takes about 5 s and several fit in a
        # run. SMO's share grows with the training-set size and the number of
        # C values (fits and scoring do not): one lambda, three C values and
        # 5 lines keep it at 53-55%; 4 lines gave 45%.
        "synth": dict(num_readers=5, num_texts=6, lines_per_text=5, words_per_line=12,
                      min_fixations=5, max_fixations=9, sigma_reader=0.3),
        # The generative baseline is off: its per-reader fits took 60% of the
        # time, and loto-long measures it.
        "pipeline": dict(lambda_grid=(1e-2,), c_grid=(0.1, 1.0, 10.0), ridge_scales=(1e-6,),
                         inner_folds=1, feature_elimination=False,
                         run_generative_baseline=False),
    },
    "loto-long": {
        "mode": "identification",
        # 3 texts and two lambdas (48 fits -> 36) bring one experiment to
        # about 5 s; the fits hit max_iter more often with 3 lines per text.
        "synth": dict(num_readers=3, num_texts=3, lines_per_text=6, words_per_line=40,
                      min_fixations=25, max_fixations=35, sigma_reader=0.3),
        "pipeline": dict(lambda_grid=(1e-2, 1.0), c_grid=(1.0,),
                         ridge_scales=(1e-6,), inner_folds=1, feature_elimination=False,
                         run_generative_baseline=True),
    },
    "comprehend": {
        "mode": "comprehension",
        # 12 texts, not 6: with 6, the inner tuning split (2 readers x 1 text)
        # left 3 to 10 L-BFGS groups per seed at max_iter, which spread wall_s
        # by 31% across seeds.
        "synth": dict(num_readers=8, num_texts=12, lines_per_text=6, words_per_line=12,
                      sigma_reader=0.5),
        "pipeline": dict(lambda_grid=(0.0, 1e-2), c_grid=(0.1, 1.0, 10.0), ridge_scales=(1e-6,),
                         feature_elimination=False),
    },
    # A tiny configuration for perfbench/smoke.py; not listed in BENCHMARK.json.
    "smoke": {
        "mode": "identification",
        "synth": dict(num_readers=3, num_texts=3, lines_per_text=2, words_per_line=10,
                      min_fixations=6, max_fixations=10, sigma_reader=0.5),
        "pipeline": dict(lambda_grid=(1e-2,), c_grid=(1.0,), ridge_scales=(1e-6,),
                         inner_folds=1, feature_elimination=False,
                         run_generative_baseline=True),
    },
}

# sha256 of the report file each workload writes at REFERENCE_SEED.
REFERENCE_DIGESTS = {
    "loto-nested": "sha256:cc96b760a8eb8d5e7772c9c8450215198932e54a3b99d4c410991f440f93cd6c",
    "loto-long": "sha256:78f4fd3fcd9b65866b70eff4514b86764a60d39a1f6a2148395527934b83be7b",
    "comprehend": "sha256:5a0564a074256994e901d42c506191de24330c7877cebb3df332e048b1ed4cb6",
}


def expected_folds(workload: dict) -> int:
    """Folds a correct report has: one per text, or the four comprehension splits."""
    if workload["mode"] == "comprehension":
        return 4
    return workload["synth"]["num_texts"]
