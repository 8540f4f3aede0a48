"""Fixtures shared by the simulator and adapter tests."""

import numpy as np
import pytest

from advice_lab.adapters import pointmass_steps
from advice_lab.qsim import (
    BasisState,
    BitStringOracle,
    ClassicalSpec,
    PureState,
    apply_oracle,
    query_magnitudes,
)


def _reference_run(alg, oracle, run_input=None):
    """The run loop assembled from the public per-query pieces: step,
    PureState, query_magnitudes, then apply_oracle.  A classical spec's
    transitions run as point-mass statevector steps.  Returns the final state
    and the T x N magnitude rows, row t taken right before query t+1."""
    if alg.marks_of is not None:
        oracle = BitStringOracle(alg.marks_of(run_input)[oracle.table], oracle.forbidden)
    steps = pointmass_steps(alg.layout, alg.steps) if isinstance(alg, ClassicalSpec) else alg.steps
    step = steps(run_input)
    state = PureState(step(0, BasisState(alg.layout, (0, 0, 0)).amplitudes), alg.layout)
    rows = np.empty((alg.num_queries, alg.layout.num_positions))
    for t in range(alg.num_queries):
        rows[t] = query_magnitudes(state)
        state = apply_oracle(state, oracle)
        state = PureState(step(t + 1, state.amplitudes), alg.layout)
    return state, rows


@pytest.fixture
def reference_run():
    return _reference_run
