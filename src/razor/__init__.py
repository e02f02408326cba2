"""razor: learns optimal definite-program hypotheses from examples and
background knowledge, pruning the search space by detecting rules whose
captured literals are redundant (implied by the rest of the body) or
indiscriminate (unable to exclude any negative example)."""

from .datalog import (
    FactStore,
    UnsafeRuleError,
    covers_rule,
    implies,
    least_model,
)
from .generate import (
    AuditRecord,
    Bias,
    BiasError,
    Constraint,
    ConstraintKind,
    ConstraintStore,
    HypothesisGenerator,
)
from .logic import (
    Const,
    Hypothesis,
    Literal,
    Rule,
    Substitution,
    Var,
    canonicalize,
    captured,
    connected,
    hypothesis_size,
    is_basic,
    renamed_subrule,
    subrule,
)
from .oracle import OracleCeilingError, enumerate_all, oracle_optimal
from .pointless import (
    DetectMode,
    Detector,
    PointlessEvidence,
    PointlessKind,
    find_pointless,
    is_indiscriminate_direct,
    is_reducible,
)
from .search import (
    CostScore,
    LearnConfig,
    LearnResult,
    Stats,
    learn,
)
from .taskio import (
    Task,
    TaskError,
    parse_rules,
    parse_task,
    parse_task_strings,
    render_evidence,
    render_hypothesis,
    render_rule,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the audit re-check runs on the slow references, which import razor
    # does not load
    if name == "verify_audit":
        from .reference import verify_audit
        return verify_audit
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AuditRecord", "Bias", "BiasError", "Const", "Constraint",
    "ConstraintKind", "ConstraintStore", "CostScore", "DetectMode", "Detector",
    "FactStore", "Hypothesis", "HypothesisGenerator", "LearnConfig",
    "LearnResult", "Literal", "OracleCeilingError", "PointlessEvidence",
    "PointlessKind", "Rule", "Stats", "Substitution", "Task", "TaskError",
    "UnsafeRuleError", "Var", "canonicalize", "captured", "connected",
    "covers_rule", "enumerate_all", "find_pointless", "hypothesis_size",
    "implies", "is_basic", "is_indiscriminate_direct", "is_reducible",
    "learn", "least_model", "oracle_optimal", "parse_rules", "parse_task",
    "parse_task_strings", "render_evidence", "render_hypothesis",
    "render_rule", "renamed_subrule", "subrule", "verify_audit",
]
