"""domainlearn: active-learning simulation of domain-based access-control
policy administration, with query-cost ledgers checked against closed-form
bounds."""

from .digraph import (
    LabeledDigraph,
    equivalence_partition,
    error_set,
    induced_subgraph,
    is_irreducible,
)
from .learners import (
    ConservativeLearner,
    From,
    LearnerInternalError,
    Loop,
    TirelessLearner,
    To,
    TreeNode,
    classify,
    edg,
    make_learner,
    revise,
)
from .oracle import is_strong_homomorphism
from .protocol import (
    ProtocolViolation,
    QueryLedger,
    SC1Violation,
    SC2Violation,
    Session,
    Teacher,
)
from .rng import SplitMix64, derive_seed
from .summarize import summarize
from .teacher import (
    IidUniform,
    IidWeighted,
    NovelLast,
    Scripted,
    SyntheticTeacher,
    TeacherExhausted,
    TemplateGenerationError,
    WorldTemplate,
    generate_template,
    parse_schedule,
)

__all__ = [
    "ConservativeLearner",
    "From",
    "IidUniform",
    "IidWeighted",
    "LabeledDigraph",
    "LearnerInternalError",
    "Loop",
    "NovelLast",
    "ProtocolViolation",
    "QueryLedger",
    "SC1Violation",
    "SC2Violation",
    "Scripted",
    "Session",
    "SplitMix64",
    "SyntheticTeacher",
    "Teacher",
    "TeacherExhausted",
    "TemplateGenerationError",
    "TirelessLearner",
    "To",
    "TreeNode",
    "WorldTemplate",
    "classify",
    "derive_seed",
    "edg",
    "equivalence_partition",
    "error_set",
    "generate_template",
    "induced_subgraph",
    "is_irreducible",
    "is_strong_homomorphism",
    "make_learner",
    "parse_schedule",
    "revise",
    "summarize",
]
