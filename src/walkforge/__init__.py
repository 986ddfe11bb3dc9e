"""Incremental random-walk node embeddings for evolving transaction graphs."""

__version__ = "0.1.0"

from .errors import (
    AppendOrderError,
    ConfigError,
    InputError,
    ModeMismatchError,
    ParseError,
    StateMismatchError,
    UnknownNodeError,
    VersionMismatchError,
    WalkforgeError,
)
from .graph import (
    GraphDelta,
    TransactionGraph,
    TxEdge,
    apply_batch,
    diff_graphs,
    ingest_edges,
    load_graph,
    read_edge_csv,
    save_graph,
    segment_schedule,
    segment_sizes,
)
from .walks import (
    MODE_MH,
    MODE_UNIFORM,
    LeapSampler,
    UniformSampler,
    WalkConfig,
    WalkCorpus,
    generate_corpus,
    leap_transition_matrix,
    load_corpus,
    mean_defacto_length,
    mh_acceptance,
    save_corpus,
)
from .incremental import (
    DrawCounter,
    UpdatePlan,
    naive_update,
    plan_update,
    unbiased_update,
)
from .embedding import (
    EmbeddingMatrix,
    SkipGramConfig,
    context_pairs,
    decode_prob,
    export_embeddings,
    import_embeddings,
    nll_loss,
    train,
    warm_retrain,
)
from .evaluation import (
    EvalReport,
    LogRegConfig,
    LogRegModel,
    TransitionTable,
    accuracy_f1,
    balanced_sets,
    classify_eval,
    delta_mae,
    empirical_transitions,
    theoretical_transitions,
    train_logreg,
)
