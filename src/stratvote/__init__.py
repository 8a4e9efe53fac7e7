"""Strategic voting under poll uncertainty.

Decision models mapping (utilities, poll) to a Plurality vote, pivot
probability machinery, behavioral classification of observed votes, a
synthetic vote generator, and a leave-one-out fitting and evaluation
harness with a small neural baseline.
"""

from .core import (
    Candidate,
    Poll,
    UtilityFunction,
    WinnerSet,
    outcome_with_vote,
    plurality_winners,
    poll_ranking,
    preference_order,
    winner_set_utility,
)
from .models import (
    DecisionContext,
    Family,
    ModelDescriptor,
    attainability,
    au_score,
    decide,
    decide_au,
    decide_best_response,
    decide_ld,
    decide_ld_lb,
    decide_pragmatist,
    decide_tmg,
    decide_truth,
    undominated_set,
)
from .pivot import (
    BeliefModel,
    BudgetExceededError,
    McConfig,
    PivotTable,
    composition_count,
    cv_gain_scores,
    decide_cv,
    pivot_prob_exact,
    pivot_prob_mc,
    pivot_table_exact,
    pivot_table_mc,
)
from .behavior import (
    VoterProfile,
    action_ratios,
    build_profile,
    classify_scenario,
    find_inconsistent,
    is_unjustified,
    scenario_or_none,
    voter_type,
)
from .data import (
    DataError,
    Dataset,
    GeneratorConfig,
    ParamSampler,
    PopulationGroup,
    VoteRecord,
    format_action,
    generate_synthetic,
    load_dataset,
    parse_action,
    save_dataset,
)
from .evaluation import (
    ConfusionMatrix,
    EvaluationReport,
    Metrics,
    ParameterGrid,
    error_breakdown,
    loo_evaluate,
    metrics_from_confusion,
    parameter_distribution,
    poll_size_bucket,
    upper_bound_evaluate,
)

__version__ = "0.1.0"
