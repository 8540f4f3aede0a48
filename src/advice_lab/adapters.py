"""Built-in query algorithms: classical adapters and quantum instances.

Classical deterministic algorithms are embedded as statevector programs whose
state is always a single basis vector.  Each step relabels that basis vector
(position = next query, workspace = scratch), so per-step query magnitudes are
exactly 0 or 1 and the trace of a run is the literal transcript of the
classical execution.

Inversion algorithms come as families: ``preprocess`` turns an oracle into an
advice bit string, ``spec`` rebuilds the runnable algorithm from those bits,
which is exactly what a decoder holding only the advice can do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from . import advice as advice_mod
from .qsim import (
    AlgorithmSpec,
    BasisLayout,
    NonUnitaryStepError,
    PermutationOracle,
    default_grover_iterations,
    grover_spec,
)
from .util import bits_to_int, bitstring, ceil_log2, int_to_bits, parse_bitstring


class InversionFamily(Protocol):
    """A preprocessing scheme plus the query algorithm that consumes it."""

    name: str

    def preprocess(self, f: PermutationOracle) -> str: ...

    def spec(self, advice: str, n_elements: int) -> AlgorithmSpec: ...


# ---------------------------------------------------------------------------
# Point-mass embedding of classical programs
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
    layout = BasisLayout(n, 2, 2)

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

    return AlgorithmSpec(
        name=f"parity-pad[m={pad.m},j={j}]",
        layout=layout,
        num_queries=num_queries,
        steps=pointmass_steps(layout, transition_factory),
        output_register="workspace",
        advice=bitstring(pad.parities),
    )


# ---------------------------------------------------------------------------
# Grover restricted to the allowed box positions
# ---------------------------------------------------------------------------

def masked_box_grover(n_positions: int, iterations: Optional[int] = None) -> AlgorithmSpec:
    """Amplitude amplification over every position except the run input index.

    The run input is the excluded index; preparation and the reflection both
    live in the subspace of allowed positions, so the excluded one never
    acquires amplitude and forbidden-index oracles accept every query.
    """
    if iterations is None:
        iterations = default_grover_iterations(n_positions - 1)
    layout = BasisLayout(n_positions, 2, 1)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)

    def steps(run_input):
        j = int(run_input)
        allowed = np.full(n_positions, 1.0 / math.sqrt(n_positions - 1))
        allowed[j] = 0.0

        def step(t: int, amps: np.ndarray) -> np.ndarray:
            if t == 0:
                return np.outer(allowed, minus).reshape(-1).astype(np.complex128)
            grid = amps.reshape(n_positions, 2)
            coef = allowed @ grid
            return (2.0 * np.outer(allowed, coef) - grid).reshape(-1)

        return step

    return AlgorithmSpec(
        name=f"box-grover[{iterations}]",
        layout=layout,
        num_queries=iterations,
        steps=steps,
        output_register="position",
    )


# ---------------------------------------------------------------------------
# Inversion families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroverInversion:
    """Advice-free amplification of the preimage; one query per round."""

    iterations: Optional[int] = None

    @property
    def name(self) -> str:
        return f"grover[{self.iterations if self.iterations is not None else 'auto'}]"

    def preprocess(self, f: PermutationOracle) -> str:
        return ""

    def spec(self, advice: str, n_elements: int) -> AlgorithmSpec:
        iters = self.iterations if self.iterations is not None else default_grover_iterations(n_elements)
        return grover_spec(n_elements, iters)


@dataclass(frozen=True)
class LookupInversion:
    """Advice is the full inverse table (N times n bits); the algorithm reads
    the answer off the advice and, when verifying, spends its single query
    confirming it."""

    verify: bool = True

    @property
    def name(self) -> str:
        return "lookup[verify]" if self.verify else "lookup"

    def preprocess(self, f: PermutationOracle) -> str:
        n_elements = f.num_positions
        n = ceil_log2(n_elements)
        inverse = np.empty(n_elements, dtype=np.int64)
        inverse[f.table] = np.arange(n_elements)
        return "".join(bitstring(int_to_bits(int(x), n)) for x in inverse)

    def spec(self, advice: str, n_elements: int) -> AlgorithmSpec:
        n = ceil_log2(n_elements)
        if len(advice) != n_elements * n:
            raise ValueError("advice length does not match the domain")
        inverse = [bits_to_int(parse_bitstring(advice[y * n:(y + 1) * n])) for y in range(n_elements)]
        layout = BasisLayout(n_elements, n_elements, 1)
        num_queries = 1 if self.verify else 0

        def transition_factory(run_input):
            x0 = inverse[int(run_input)]

            def transition(t, pos, ans, work):
                if t == 0:
                    return x0, 0, 0
                return pos, ans, work
            return transition

        return AlgorithmSpec(
            name=self.name,
            layout=layout,
            num_queries=num_queries,
            steps=pointmass_steps(layout, transition_factory),
            output_register="position",
            advice=advice,
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
        layout = BasisLayout(n_elements, n_elements, 2)
        return AlgorithmSpec(
            name=self.name,
            layout=layout,
            num_queries=2 * self.s + 2,
            steps=pointmass_steps(layout, lambda y: advice_mod.hellman_walk(anchors, int(y))),
            output_register="position",
            advice=advice,
        )


# ---------------------------------------------------------------------------
# Seeded random-unitary algorithm (for distance and audit experiments)
# ---------------------------------------------------------------------------

def haar_scrambler(layout: BasisLayout, num_queries: int, seed: int) -> AlgorithmSpec:
    """T queries interleaved with fixed Haar-random unitaries on the full
    state.  Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    unitaries = []
    for _ in range(num_queries + 1):
        z = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(size=(layout.dim, layout.dim))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        unitaries.append(q)

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
