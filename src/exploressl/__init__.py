"""Seeded clustering and classification that can discover classes beyond the
seeded ones, with penalized-likelihood model selection and CRP-Gibbs
baselines."""

from .criteria import (
    CriterionConfig,
    CriterionKind,
    js_criterion,
    minmax_criterion,
)
from .crp import CrpConfig, PickRule, crp_gibbs, crp_pick_standard, mod_crp_pick
from .data import (
    Dataset,
    Norm,
    SeedPartition,
    load_dataset,
    make_partitions,
    tfidf_weight,
)
from .engine import (
    EngineConfig,
    RunResult,
    SeedStart,
    calibrate_random_rate,
    exploratory_em,
    seed_start,
    semisup_em,
)
from .evaluation import (
    ConfusionMatrix,
    EvaluationReport,
    align_confusion,
    paired_significance,
    seed_macro_f1,
)
from .models import (
    ModelFamily,
    ModelState,
    data_log_likelihood,
    free_parameter_count,
    init_from_seeds,
    init_new_class,
    m_step,
    posterior,
)
from .selection import (
    SelectionCriterion,
    SelectionScore,
    accept_exploratory,
    score_model,
)
from .synth import GeneratorFamily, SyntheticSpec, generate_synthetic

__version__ = "0.1.0"
