"""Built-in query algorithms: classical adapters and quantum instances.

Classical deterministic algorithms are ``ClassicalSpec`` transitions that
``qsim.run`` executes as transcripts: each step moves one basis coordinate
triple (position = next query, workspace = scratch), so each query puts mass
1 on the position it reads and a run's trace keeps the positions the
classical execution read, in order.

Inversion algorithms come as families: ``preprocess`` turns an oracle into an
advice bit string, ``spec`` rebuilds the runnable algorithm from those bits,
which is exactly what a decoder holding only the advice can do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import advice as advice_mod
from .qsim import (
    AlgorithmSpec,
    BasisLayout,
    ClassicalSpec,
    NonUnitaryStepError,
    PermutationOracle,
    amplification_spec,
    default_grover_iterations,
    grover_spec,
)
from .util import read_index


class InversionFamily(Protocol):
    """A preprocessing scheme plus the query algorithm that consumes it."""

    name: str

    def preprocess(self, f: PermutationOracle) -> str: ...

    def spec(self, advice: str, n_elements: int) -> AlgorithmSpec: ...


# ---------------------------------------------------------------------------
# Point-mass embedding of classical programs: the dense reference that tests
# compare ``ClassicalSpec`` transcripts against.  No run path uses it.
# ---------------------------------------------------------------------------

def pointmass_steps(layout: BasisLayout, transition_factory):
    """Wrap a classical transition into a step function on statevectors.

    ``transition_factory(run_input)`` returns ``transition(t, pos, ans, work)
    -> (pos, ans, work)``.  The state must be a single basis vector; its
    amplitude (phase included) is carried to the relabeled vector, so the step
    preserves norm on every state a classical run actually produces.
    """

    def steps(run_input):
        transition = transition_factory(run_input)

        def step(t: int, amps: np.ndarray) -> np.ndarray:
            idx = int(np.argmax(np.abs(amps)))
            if abs(abs(amps[idx]) - 1.0) > 1e-9:
                raise NonUnitaryStepError("classical adapter fed a non-basis state")
            out = np.zeros_like(amps)
            out[layout.index(*transition(t, *layout.coords(idx)))] = amps[idx]
            return out

        return step

    return steps


# ---------------------------------------------------------------------------
# Parity-pad box answerer
# ---------------------------------------------------------------------------

def parity_box_algorithm(pad: advice_mod.ParityPad, j: int) -> AlgorithmSpec:
    """Answer bit j of a string without touching position j: read the rest of
    j's group, fold the answers into the workspace parity, then fold in the
    group's advice bit.  The result lands in the workspace register."""
    n = pad.num_positions
    members, pad_bit = pad.reads(j)
    num_queries = len(members)

    def transition_factory(_run_input):
        def transition(t, pos, ans, work):
            if t == 0:
                if num_queries == 0:
                    return 0, 0, pad_bit
                return members[0], 0, 0
            if t < num_queries:
                return members[t], 0, work ^ ans
            return pos, 0, work ^ ans ^ pad_bit
        return transition

    return ClassicalSpec(
        name=f"parity-pad[m={pad.m},j={j}]",
        layout=BasisLayout(n, 2, 2),
        num_queries=num_queries,
        steps=transition_factory,
        output_register="workspace",
    )


# ---------------------------------------------------------------------------
# Grover restricted to the allowed box positions
# ---------------------------------------------------------------------------

def masked_box_grover(n_positions: int) -> AlgorithmSpec:
    """Amplitude amplification over every position except the run input index,
    with the round count that suits the N - 1 allowed positions.  The excluded
    index never acquires amplitude, so forbidden-index oracles accept every
    query.  The index is read by ``util.read_index``."""
    iterations = default_grover_iterations(n_positions - 1)
    return amplification_spec(f"box-grover[{iterations}]", n_positions, iterations,
                              lambda j: np.arange(n_positions) != read_index(j, n_positions))


# ---------------------------------------------------------------------------
# Inversion families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroverInversion:
    """Advice-free amplification of the preimage; one query per round, with
    the default round count for the domain size."""

    name = "grover[auto]"

    def preprocess(self, f: PermutationOracle) -> str:
        return ""

    def spec(self, advice: str, n_elements: int) -> AlgorithmSpec:
        return grover_spec(n_elements, default_grover_iterations(n_elements))


@dataclass(frozen=True)
class LookupInversion:
    """Inverse-table inversion (``advice.lookup_walk``) embedded as a query
    algorithm; its single query confirms the preimage the advice names."""

    name = "lookup[verify]"

    def preprocess(self, f: PermutationOracle) -> str:
        return advice_mod.lookup_bits(f)

    def spec(self, advice: str, n_elements: int) -> AlgorithmSpec:
        inverse = advice_mod.parse_lookup_bits(advice, n_elements)
        return ClassicalSpec(
            name=self.name,
            layout=BasisLayout(n_elements, n_elements, 1),
            num_queries=1,
            steps=lambda y: advice_mod.lookup_walk(inverse, read_index(y, n_elements)),
            output_register="position",
        )


@dataclass(frozen=True)
class HellmanInversion:
    """Anchor-table inversion (``advice.hellman_walk``) embedded as a query
    algorithm.  The query budget is fixed at 2s + 2; once the preimage is
    found the walk parks on it and the remaining queries re-query it.
    """

    s: int

    @property
    def name(self) -> str:
        return f"hellman[s={self.s}]"

    def preprocess(self, f: PermutationOracle) -> str:
        return advice_mod.hellman_build(f, self.s).to_bits()

    def parse_advice(self, advice: str, n_elements: int) -> dict[int, int]:
        return advice_mod.parse_hellman_bits(advice, n_elements)

    def spec(self, advice: str, n_elements: int) -> AlgorithmSpec:
        anchors = self.parse_advice(advice, n_elements)
        return ClassicalSpec(
            name=self.name,
            layout=BasisLayout(n_elements, n_elements, 2),
            num_queries=2 * self.s + 2,
            steps=lambda y: advice_mod.hellman_walk(anchors, read_index(y, n_elements)),
            output_register="position",
        )


# ---------------------------------------------------------------------------
# Seeded random-unitary algorithm (for distance and audit experiments)
# ---------------------------------------------------------------------------

def haar_scrambler(layout: BasisLayout, num_queries: int, seed: int) -> AlgorithmSpec:
    """T queries interleaved with fixed Haar-random unitaries on the full
    state.  Deterministic given the seed: one draw holds, for each unitary,
    the real block of its Gaussian matrix and then the imaginary block."""
    if num_queries < 0:
        raise ValueError("negative query count")
    d = layout.dim
    g = np.random.default_rng(seed).normal(size=(num_queries + 1, 2, d, d))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    unitaries = q * (diag / np.abs(diag))[:, None, :]

    def steps(_run_input):
        def step(t: int, amps: np.ndarray) -> np.ndarray:
            return unitaries[t] @ amps
        return step

    return AlgorithmSpec(
        name=f"scrambler[T={num_queries},seed={seed}]",
        layout=layout,
        num_queries=num_queries,
        steps=steps,
        output_register="position",
    )
