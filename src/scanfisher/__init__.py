"""scanfisher: generative scanpath models, Fisher kernels, and reader identification."""

__version__ = "0.1.0"

from .corpus import (
    FrequencyTable,
    NormStats,
    Text,
    TextFeatures,
    Word,
    compute_features,
    load_frequency_table,
    load_texts,
)
from .events import (
    EventBatch,
    Scanpath,
    classify_saccade,
    extract_events,
    load_scanpaths,
    word_at,
)
from .fisher import (
    FisherMetric,
    fisher_metric,
    gram_matrix,
    score_matrix,
)
from .fit import FitConfig, fit_model, fit_pi
from .model import (
    ModelParams,
    batch_loglik,
    sample_events,
    sample_scanpath,
)
from .svm import KernelProblem, MulticlassSvm, SvmModel, solve_dual, train_multiclass
from .synth import SynthConfig, gen_corpus, gen_dataset, gen_readers
from .evaluate import (
    EvalReport,
    PipelineConfig,
    ReadingDataset,
    auc_score,
    binary_comprehension_eval,
    loto_cv,
    wilcoxon_signed_rank,
)
