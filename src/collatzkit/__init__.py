"""Collatz dynamics: trajectories, closed loops, residue-class
transition graphs, and high-throughput range verification."""

from .cycles import (
    ClosedLoop,
    EmptySequenceError,
    EndpointMismatchError,
    LoopError,
    LoopTooShortError,
    StepMismatchError,
    ZeroElementError,
    find_cycle,
    loop_power,
    validate_loop,
)
from .dynamics import (
    DEFAULT_STEP_BUDGET,
    DomainError,
    EntersCycle,
    MapVariant,
    ReachesOne,
    TrajectoryOutcome,
    TrajectoryRecord,
    Unresolved,
    classify_trajectory,
    col,
    col_star,
    iterate_k,
    preimage,
    step_function,
    total_stopping_time,
)
from .residue import (
    BranchLabel,
    Edge,
    ResidueClass,
    TransitionGraph,
    build_graph,
    class_of,
    edge_witness,
    from_json,
    out_degree,
    strongly_connected_components,
    to_dot,
    to_json,
    transition_targets,
)

__version__ = "0.1.0"

# The verifier needs numpy, which costs more than the rest of the package
# to import; these names load it on first access.
_VERIFIER_NAMES = frozenset({
    "DENSE_CACHE_ENTRIES",
    "ConfigError",
    "RecordStat",
    "VerifyConfig",
    "VerifyReport",
    "merge_reports",
    "verify_range",
})


def __getattr__(name: str):
    if name in _VERIFIER_NAMES:
        from . import verifier

        return getattr(verifier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BranchLabel",
    "ClosedLoop",
    "ConfigError",
    "DEFAULT_STEP_BUDGET",
    "DENSE_CACHE_ENTRIES",
    "DomainError",
    "Edge",
    "EmptySequenceError",
    "EndpointMismatchError",
    "EntersCycle",
    "LoopError",
    "LoopTooShortError",
    "MapVariant",
    "ReachesOne",
    "RecordStat",
    "ResidueClass",
    "StepMismatchError",
    "TrajectoryOutcome",
    "TrajectoryRecord",
    "TransitionGraph",
    "Unresolved",
    "VerifyConfig",
    "VerifyReport",
    "ZeroElementError",
    "build_graph",
    "class_of",
    "classify_trajectory",
    "col",
    "col_star",
    "edge_witness",
    "find_cycle",
    "from_json",
    "iterate_k",
    "loop_power",
    "merge_reports",
    "out_degree",
    "preimage",
    "step_function",
    "strongly_connected_components",
    "to_dot",
    "to_json",
    "total_stopping_time",
    "transition_targets",
    "validate_loop",
    "verify_range",
]
