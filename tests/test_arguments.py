"""One rule for every public integer argument: plain ints and int-likes
such as numpy integers are accepted and stored as plain ints; bool is
refused, with a message that names the argument."""

import json
from dataclasses import is_dataclass, replace

import numpy as np
import pytest

from collatzkit import (
    DomainError,
    ResidueClass,
    TransitionGraph,
    VerifyConfig,
    ZeroElementError,
    build_graph,
    class_of,
    classify_trajectory,
    col,
    col_star,
    find_cycle,
    iterate_k,
    loop_power,
    out_degree,
    preimage,
    total_stopping_time,
    transition_targets,
    validate_loop,
    verify_range,
)

LOOP = validate_loop((1, 4, 2, 1))
GRAPH = build_graph(10)


CONFIG = VerifyConfig(100, 300, worker_count=1, dense_cache_entries=64)


def sweep(**fields):
    config = replace(CONFIG, **fields)
    # json.dumps refuses numpy integers, so this fails unless the
    # validated config holds plain ints.
    return config.validated(), json.dumps(verify_range(config).payload())


CASES = [
    ("col", "x", lambda v: col(v), 27),
    ("col_star", "x", lambda v: col_star(v), 27),
    ("iterate_k", "x", lambda v: iterate_k(v, 5), 27),
    ("iterate_k", "k", lambda v: iterate_k(27, v), 5),
    ("total_stopping_time", "x", lambda v: total_stopping_time(v), 27),
    ("total_stopping_time", "step_budget", lambda v: total_stopping_time(27, v), 200),
    ("preimage", "x", lambda v: preimage(v), 16),
    ("classify_trajectory", "x", lambda v: classify_trajectory(v, record_values=True), 27),
    ("classify_trajectory", "step_budget", lambda v: classify_trajectory(27, step_budget=v), 50),
    ("classify_trajectory", "value_bound", lambda v: classify_trajectory(27, value_bound=v), 100),
    ("find_cycle", "start", lambda v: find_cycle(v), 27),
    ("find_cycle", "step_budget", lambda v: find_cycle(27, step_budget=v), 200),
    ("loop_power", "m", lambda v: loop_power(LOOP, v), 3),
    ("validate_loop", "loop element", lambda v: validate_loop((v, 4, 2, v)), 1),
    ("ResidueClass", "modulus", lambda v: ResidueClass(v, 3), 10),
    ("ResidueClass", "residue", lambda v: ResidueClass(10, v), 3),
    ("class_of", "x", lambda v: class_of(v, 10), 27),
    ("class_of", "modulus", lambda v: class_of(27, v), 10),
    ("transition_targets", "modulus", lambda v: transition_targets(v, 8), 10),
    ("transition_targets", "residue", lambda v: transition_targets(10, v), 8),
    ("build_graph", "modulus", lambda v: build_graph(v), 10),
    ("TransitionGraph", "modulus", lambda v: TransitionGraph(v, GRAPH.edges), 10),
    ("edges_from", "residue", lambda v: GRAPH.edges_from(v), 8),
    ("out_degree", "residue", lambda v: out_degree(GRAPH, v), 8),
    ("VerifyConfig", "range_lo", lambda v: sweep(range_lo=v), 100),
    ("VerifyConfig", "range_hi", lambda v: sweep(range_hi=v), 300),
    ("VerifyConfig", "step_budget", lambda v: sweep(step_budget=v), 60),
    ("VerifyConfig", "assume_verified_below", lambda v: sweep(assume_verified_below=v), 50),
    ("VerifyConfig", "worker_count", lambda v: sweep(worker_count=v), 1),
    ("VerifyConfig", "dense_cache_entries", lambda v: sweep(dense_cache_entries=v), 100),
]


def numpy_leaves(obj):
    """Every numpy scalar inside obj, through dataclasses and containers."""
    if is_dataclass(obj):
        obj = vars(obj)
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [leaf for item in obj for leaf in numpy_leaves(item)]
    return [obj] if isinstance(obj, np.generic) else []


@pytest.mark.parametrize(
    "name, call, good", [c[1:] for c in CASES], ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_integer_argument_rule(name, call, good):
    # ConfigError is a DomainError; loop elements raise ZeroElementError.
    for flag in (True, False):
        with pytest.raises((DomainError, ZeroElementError)) as info:
            call(flag)
        assert str(info.value).startswith(f"{name} must be"), info.value
    result = call(np.int64(good))
    assert result == call(good)
    assert numpy_leaves(result) == []
