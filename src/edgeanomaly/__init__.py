"""Edge-exchangeable modeling of directed multigraphs with conformal
anomaly decisions.

The library splits into focused modules: graph_core for vocabularies,
corpora, and CSV I/O; adnd for the generative model, variational fitting,
and sampling; conformal for smoothed p-values and verdicts; rhss for the
count-based baseline; evaluation for metrics and simulations; cli for the
command line front end.
"""

from .adnd import (
    FitDiagnostics,
    FittedModel,
    HyperParams,
    SamplerParams,
    TruncationLevels,
    VariationalState,
    compute_elbo,
    expected_log_sticks,
    fit,
    fit_state,
    init_state,
    load_model,
    predictive_log_likelihood,
    sample_edges,
    save_model,
    stick_weights,
    update_corpus_level,
    update_document_level,
)
from .conformal import (
    CalibrationScores,
    Verdicts,
    calibration_scores,
    detect_corpus,
    full_conformal_p_values,
    nonconformity_score,
)
from .evaluation import (
    FprPoint,
    LabeledScores,
    auc,
    fpr_simulation,
    ks_uniformity,
    precision_recall_at_k,
    roc_points,
)
from .graph_core import (
    Edge,
    EdgeCorpus,
    EdgeCsvError,
    NodeVocab,
    split_train_calib,
    write_edge_csv,
)
from .rhss import StreamHistory

__version__ = "0.1.0"
