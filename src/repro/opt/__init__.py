"""repro.opt — the analysis-driven WAM code optimizer and its reports.

Closes the paper's loop: :mod:`repro.analysis` computes interprocedural
modes/types/aliasing, :mod:`repro.lint.dataflow` supplies the
intra-predicate CFG/liveness/determinacy substrate, and this package
*rewrites* compiled code areas with the facts — first-argument dispatch
tables, specialized get/unify instructions, dead-clause elimination —
then proves each rewrite with translation validation
(:mod:`repro.opt.validate`): the optimized code area must be
verifier-clean and produce identical solutions to the original.
Two reports change no code: :mod:`.specialize`, the optimizer's
dry run, and :mod:`.parallel`, Independent And-Parallelism detection
(goal-pair independence with CGE-style run-time conditions).
"""

from .parallel import (
    ClauseParallelism,
    GoalPairInfo,
    ParallelReport,
    annotate_parallelism,
)
from .pipeline import (
    OptimizationReport,
    OptimizedProgram,
    PredicateOptimization,
    goal_entry_specs,
    optimize_program,
)
from .specialize import Annotation, SpecializationReport, specialize
from .validate import GoalValidation, ValidationReport, validate

__all__ = [
    "Annotation",
    "ClauseParallelism",
    "GoalPairInfo",
    "GoalValidation",
    "OptimizationReport",
    "OptimizedProgram",
    "ParallelReport",
    "PredicateOptimization",
    "SpecializationReport",
    "ValidationReport",
    "annotate_parallelism",
    "goal_entry_specs",
    "optimize_program",
    "specialize",
    "validate",
]
