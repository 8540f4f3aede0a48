"""Exact simulation of oracle query algorithms.

The state space is a triple register (position, answer, workspace).  A query
XORs the oracle's answer for the position coordinate into the answer register,
which is unitary for any oracle table.  Between queries a quantum algorithm
applies arbitrary norm-preserving transformations of the full statevector; a
classical program (``ClassicalSpec``) runs as its transcript, one coordinate
triple moved by its transition, and ends in a ``BasisState`` that stores only
those coordinates.  Every query step is instrumented: a ``Transcript`` keeps
the position each query reads, and a ``DenseTrace`` adds the squared amplitude
mass sitting on each position right before the query into per-position totals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .util import NORM_TOL, bit_array, int_array, read_index, read_index_set, read_permutation

FORBIDDEN_MASS_TOL = 1e-12

# Squared mass of any state whose norm is within NORM_TOL of 1.
MASS_RANGE = ((1 - NORM_TOL) ** 2, (1 + NORM_TOL) ** 2)

REGISTERS = ("position", "answer", "workspace")


class ForbiddenIndexError(RuntimeError):
    """Raised when a query puts amplitude mass on a position that is off limits."""


class NonUnitaryStepError(RuntimeError):
    """Raised when a step transformation fails to preserve the state norm."""


class _StateNormError(ValueError):
    """PureState's norm check failed; ``run`` reports it for its last step."""


# ---------------------------------------------------------------------------
# State space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisLayout:
    """Shape of the register triple.  Basis index = (position, answer, workspace)
    flattened in row-major order.  TypeError for a size that is not an
    integer."""

    num_positions: int
    answer_dim: int
    workspace_dim: int = 1

    def __post_init__(self):
        for name in ("num_positions", "answer_dim", "workspace_dim"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.num_positions < 2:
            raise ValueError("need at least two query positions")
        if self.answer_dim < 2 or self.workspace_dim < 1:
            raise ValueError("bad register dimensions")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.num_positions, self.answer_dim, self.workspace_dim

    @property
    def dim(self) -> int:
        return self.num_positions * self.answer_dim * self.workspace_dim

    def check(self, position: int, answer: int, workspace: int = 0) -> tuple[int, int, int]:
        """The coordinates as ints: TypeError for a non-integer, ValueError
        when one leaves its register's range."""
        position, answer, workspace = (operator.index(position), operator.index(answer),
                                       operator.index(workspace))
        if not (0 <= position < self.num_positions and 0 <= answer < self.answer_dim
                and 0 <= workspace < self.workspace_dim):
            raise ValueError(f"coordinates {(position, answer, workspace)} outside {self.shape}")
        return position, answer, workspace

    def index(self, position: int, answer: int, workspace: int = 0) -> int:
        position, answer, workspace = self.check(position, answer, workspace)
        return (position * self.answer_dim + answer) * self.workspace_dim + workspace

    def coords(self, index: int) -> tuple[int, int, int]:
        index, workspace = divmod(index, self.workspace_dim)
        position, answer = divmod(index, self.answer_dim)
        return position, answer, workspace

    def axis(self, register: str) -> int:
        if register not in REGISTERS:
            raise ValueError(f"unknown register {register!r}")
        return REGISTERS.index(register)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector over a BasisLayout."""

    amplitudes: np.ndarray
    layout: BasisLayout

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.layout.dim,):
            raise ValueError("amplitude vector does not match layout dimension")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects a NaN norm
            raise _StateNormError(f"state norm {norm} is not 1 within {NORM_TOL}")

    def grid(self) -> np.ndarray:
        """View as (position, answer, workspace)."""
        return self.amplitudes.reshape(self.layout.shape)


@dataclass(frozen=True)
class BasisState:
    """The basis vector with phase 1 at ``coords`` = (position, answer,
    workspace), stored as its coordinates.  ``amplitudes`` builds the dense
    vector only when read."""

    layout: BasisLayout
    coords: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "coords", self.layout.check(*self.coords))

    @property
    def amplitudes(self) -> np.ndarray:
        amps = np.zeros(self.layout.dim, dtype=np.complex128)
        amps[self.layout.index(*self.coords)] = 1.0
        return amps


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _check_power_of_two(n: int):
    if n & (n - 1) or n < 2:
        raise ValueError(f"XOR answers need a power-of-two range, got {n}")


@dataclass(frozen=True, eq=False)
class FunctionOracle:
    """An arbitrary map [N] -> [N], N = 2^n.  Queries XOR the n-bit value f(i)
    into the answer register.  Used for hybrid oracles that are constant on
    part of the domain.  TypeError for a non-integer table entry."""

    table: np.ndarray

    def __post_init__(self):
        table = int_array(self.table)
        object.__setattr__(self, "table", table)
        n = len(table)
        _check_power_of_two(n)
        if table.min() < 0 or table.max() >= n:
            raise ValueError("table values out of range")

    @property
    def num_positions(self) -> int:
        return len(self.table)

    @property
    def answer_dim(self) -> int:
        return len(self.table)

    @property
    def forbidden(self) -> Optional[int]:
        return None


class PermutationOracle(FunctionOracle):
    """A FunctionOracle whose table is read by ``util.read_permutation``."""

    def __post_init__(self):
        super().__post_init__()
        read_permutation(self.table)


@dataclass(frozen=True, eq=False)
class BitStringOracle:
    """An N-bit string; queries XOR bit x_j into a two-dimensional answer
    register.  An optional forbidden index rejects any query touching it.
    Bits are read by ``util.bit_array``; the forbidden index by
    ``util.read_index``."""

    bits: np.ndarray
    forbidden: Optional[int] = None

    def __post_init__(self):
        bits = bit_array(self.bits)
        object.__setattr__(self, "bits", bits)
        if len(bits) < 2:
            raise ValueError("need at least two positions")
        if self.forbidden is not None:
            object.__setattr__(self, "forbidden", read_index(self.forbidden, len(bits)))

    @property
    def num_positions(self) -> int:
        return len(self.bits)

    @property
    def answer_dim(self) -> int:
        return 2

    @property
    def table(self) -> np.ndarray:
        return self.bits


Oracle = FunctionOracle | BitStringOracle
State = PureState | BasisState


def oracle_delta(a: Oracle, b: Oracle) -> np.ndarray:
    """Positions where two same-shape oracles disagree."""
    ta, tb = a.table, b.table
    if len(ta) != len(tb) or a.answer_dim != b.answer_dim:
        raise ValueError("oracles have different shapes")
    return np.flatnonzero(ta != tb)


def _check_layout(lay: BasisLayout, oracle: Oracle) -> None:
    if lay.num_positions != oracle.num_positions or lay.answer_dim != oracle.answer_dim:
        raise ValueError("state layout incompatible with oracle")


def _gather_index(lay: BasisLayout, oracle: Oracle) -> np.ndarray:
    """The query as a flat gather: ``amps[index]`` maps basis state (i, a, w)
    to (i, a XOR table[i], w)."""
    grid = np.arange(lay.dim).reshape(lay.shape)
    xor_cols = np.arange(lay.answer_dim)[None, :] ^ np.asarray(oracle.table)[:, None]
    return grid[np.arange(lay.num_positions)[:, None], xor_cols, :].reshape(lay.dim)


def _check_forbidden(oracle: Oracle, step) -> None:
    """Reject a query step with mass on the oracle's forbidden position; ``step``
    is a dense step's position masses, or the position a transcript queries."""
    j = oracle.forbidden
    if j is None:
        return
    mass = step[j] if isinstance(step, np.ndarray) else float(step == j)
    if mass > FORBIDDEN_MASS_TOL:
        raise ForbiddenIndexError(f"query magnitude {mass:.3e} on forbidden position {j}")


def apply_oracle(state: State, oracle: Oracle) -> PureState:
    """One query: basis state (i, a, w) maps to (i, a XOR table[i], w)."""
    _check_layout(state.layout, oracle)
    index = _gather_index(state.layout, oracle)
    _check_forbidden(oracle, query_magnitudes(state))
    return PureState(state.amplitudes[index], state.layout)


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

def query_magnitudes(state: State) -> np.ndarray:
    """Squared amplitude mass per position coordinate; sums to 1."""
    return _position_mass(state.amplitudes, state.layout)


def _position_mass(amps: np.ndarray, lay: BasisLayout) -> np.ndarray:
    grid = amps.reshape(lay.shape)
    return np.sum(np.abs(grid) ** 2, axis=(1, 2))


@dataclass(frozen=True, eq=False)
class Transcript:
    """A classical run's query record: the T positions it queried, in order, each
    in [0, N).  ``mass_on`` counts the queries that read a set of distinct
    positions (``util.read_index_set``); ``totals`` counts each position's
    reads, built only when read."""

    num_positions: int
    positions: np.ndarray

    def __post_init__(self):
        positions = int_array(self.positions)
        object.__setattr__(self, "positions", positions)
        listed = positions.tolist()  # Python's min and max beat numpy's on T entries
        if listed and not 0 <= min(listed) <= max(listed) < self.num_positions:
            raise ValueError("queried position outside [0, N)")

    @property
    def num_queries(self) -> int:
        return len(self.positions)

    def mass_on(self, indices) -> float:
        members = set(read_index_set(indices, self.num_positions))
        return float(sum(map(members.__contains__, self.positions.tolist())))

    @property
    def total_mass(self) -> float:
        return float(len(self.positions))

    @property
    def totals(self) -> np.ndarray:
        return np.bincount(self.positions, minlength=self.num_positions).astype(np.float64)


@dataclass(frozen=True, eq=False)
class DenseTrace:
    """A dense run's query record: N nonnegative totals, entry i the mass on
    position i summed over the T queries, at most T * MASS_RANGE[1] in all.
    ``mass_on`` sums them over a set of distinct positions, read by
    ``util.read_index_set``."""

    num_queries: int
    totals: np.ndarray

    def __post_init__(self):
        totals = np.asarray(self.totals, dtype=np.float64)
        object.__setattr__(self, "totals", totals)
        if totals.ndim != 1:
            raise ValueError("totals must be one value per position")
        if totals.size and not totals.min() >= 0:
            raise ValueError("negative or NaN query magnitude")
        if totals.sum() > self.num_queries * MASS_RANGE[1]:
            raise ValueError("total query magnitude exceeds the query count")

    @property
    def num_positions(self) -> int:
        return len(self.totals)

    def mass_on(self, indices) -> float:
        return float(self.totals[read_index_set(indices, self.num_positions)].sum())

    @property
    def total_mass(self) -> float:
        return float(self.totals.sum())


QueryTrace = Transcript | DenseTrace


# ---------------------------------------------------------------------------
# Algorithms
# ---------------------------------------------------------------------------

StepFn = Callable[[int, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AlgorithmSpec:
    """A T-query algorithm: step transformations interleaved with queries.

    ``steps(run_input)`` returns the step function used for one run; it is
    called with (t, amplitudes) for t = 0..T and must preserve the norm of the
    states it receives (a ``ClassicalSpec`` has no norm to keep: its steps move
    one basis coordinate triple).  ``marks_of(run_input)``, when set, is a 0/1
    array over the base oracle's answers, and the run queries the bit string
    ``marks[table]``: position i answers a mark of f(i), so it changes only
    where the base table changes (e.g. Grover's predicate f(i) == y).
    """

    name: str
    layout: BasisLayout
    num_queries: int
    steps: Callable[[object], StepFn]
    output_register: str = "position"
    marks_of: Optional[Callable[[object], np.ndarray]] = None

    def __post_init__(self):
        if self.num_queries < 0:
            raise ValueError("negative query count")
        self.layout.axis(self.output_register)


class ClassicalSpec(AlgorithmSpec):
    """A deterministic program, run as its transcript from (0, 0, 0):
    ``steps(run_input)`` returns the transition ``(t, pos, ans, work) ->
    (pos, ans, work)``, and each query XORs ``table[pos]`` into ``ans``."""


def run(alg: AlgorithmSpec, oracle: Oracle, run_input=None) -> tuple[State, QueryTrace]:
    """Execute: step 0, then T rounds of (record magnitudes, query, step).

    A spec with ``marks_of`` queries the bit string its marks make of the
    oracle.  A ``ClassicalSpec`` run ends in a ``BasisState``, its final
    coordinates (each transition must keep them inside the layout, or
    ValueError), and its ``Transcript`` keeps the position each query reads;
    any other run ends in a dense ``PureState`` and adds each step's position
    masses into its ``DenseTrace``'s totals.  NonUnitaryStepError is raised
    when a dense step leaves the norm more than NORM_TOL from 1: before a
    query its squared norm is the sum of those masses, and the last step's
    norm is PureState's own check."""
    if alg.marks_of is not None:
        oracle = BitStringOracle(alg.marks_of(run_input)[oracle.table], oracle.forbidden)
    lay, num_queries = alg.layout, alg.num_queries
    _check_layout(lay, oracle)
    step = alg.steps(run_input)
    if isinstance(alg, ClassicalSpec):
        pos, ans, work = lay.check(*step(0, 0, 0, 0))
        queried = []
        for t in range(num_queries):
            _check_forbidden(oracle, pos)
            queried.append(pos)
            pos, ans, work = lay.check(*step(t + 1, pos, ans ^ int(oracle.table[pos]), work))
        return BasisState(lay, (pos, ans, work)), Transcript(lay.num_positions, queried)
    index = _gather_index(lay, oracle)
    totals = np.zeros(lay.num_positions, dtype=np.float64)
    amps = np.zeros(lay.dim, dtype=np.complex128)
    amps[0] = 1.0
    for t in range(num_queries):
        amps = np.asarray(step(t, amps), dtype=np.complex128)
        mass = _position_mass(amps, lay)
        squared_norm = mass.sum()
        if not MASS_RANGE[0] <= squared_norm <= MASS_RANGE[1]:
            raise NonUnitaryStepError(
                f"step {t} of {alg.name} produced norm {math.sqrt(squared_norm)}")
        _check_forbidden(oracle, mass)
        totals += mass
        amps = amps[index]
    amps = step(num_queries, amps)
    try:
        final = PureState(amps, lay)
    except _StateNormError as err:
        raise NonUnitaryStepError(f"step {num_queries} of {alg.name}: {err}") from err
    return final, DenseTrace(num_queries, totals)


# ---------------------------------------------------------------------------
# Measurement and distances
# ---------------------------------------------------------------------------

def measurement_distribution(state: State, register: str = "position") -> np.ndarray:
    """Marginal Born probabilities of one register (one-hot for a basis state)."""
    axis = state.layout.axis(register)
    if isinstance(state, BasisState):
        dist = np.zeros(state.layout.shape[axis])
        dist[state.coords[axis]] = 1.0
        return dist
    return (np.abs(state.grid()) ** 2).sum(axis=tuple(i for i in range(3) if i != axis))


def top_two(state: State, register: str = "position") -> tuple[int, float, float]:
    """A register's most likely outcome, its probability and the runner-up's
    (0.0 for a one-value register); a basis state reads its coordinates."""
    if isinstance(state, BasisState):
        return state.coords[state.layout.axis(register)], 1.0, 0.0
    dist = measurement_distribution(state, register)
    outcome = int(np.argmax(dist))
    runner_up = float(np.partition(dist, -2)[-2]) if len(dist) > 1 else 0.0
    return outcome, float(dist[outcome]), runner_up


def euclidean_distance(a: State, b: State) -> float:
    """Norm of a - b; two basis states with phase 1 are 0 or sqrt(2) apart."""
    if a.layout != b.layout:
        raise ValueError("states live in different layouts")
    if isinstance(a, BasisState) and isinstance(b, BasisState):
        return 0.0 if a.coords == b.coords else math.sqrt(2.0)
    return float(np.linalg.norm(a.amplitudes - b.amplitudes))


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """1-norm distance between probability vectors (no 1/2 factor)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions have different sizes")
    return float(np.abs(p - q).sum())


# ---------------------------------------------------------------------------
# Grover inversion, one query per amplification round
# ---------------------------------------------------------------------------

def default_grover_iterations(n_elements: int) -> int:
    return int(math.floor((math.pi / 4) * math.sqrt(n_elements)))


def amplification_spec(name: str, n_positions: int, iterations: int,
                       allowed_of: Callable[[object], np.ndarray]) -> AlgorithmSpec:
    """Amplitude amplification over the positions ``allowed_of(run_input)``
    marks True, one query per round.

    The answer register is held in the |0>-|1> difference state so a predicate
    query kicks back a phase flip.  Step 0 prepares the uniform state over the
    allowed rows; each later step reflects them about that state, so positions
    outside the mask never acquire amplitude.
    """
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)

    def steps(run_input) -> StepFn:
        allowed = allowed_of(run_input)
        weights = np.where(allowed, 1.0 / math.sqrt(allowed.sum()), 0.0)
        rows = slice(None) if allowed.all() else allowed  # a view, not a copy, when unmasked

        def step(t: int, amps: np.ndarray) -> np.ndarray:
            if t == 0:
                return np.outer(weights, minus).reshape(-1).astype(np.complex128)
            grid = amps.reshape(n_positions, 2)
            out = -grid
            out[rows] += 2.0 * grid[rows].mean(axis=0)
            return out.reshape(-1)
        return step

    return AlgorithmSpec(name, BasisLayout(n_positions, 2, 1), iterations, steps, "position")


def grover_spec(n_elements: int, iterations: int) -> AlgorithmSpec:
    """Search every position for the unique one whose image is the run input:
    TypeError for an input that is not an integer, ValueError for one outside
    [0, N)."""
    spec = amplification_spec(f"grover[{iterations}]", n_elements, iterations,
                              lambda _run_input: np.ones(n_elements, dtype=bool))
    return replace(spec, marks_of=lambda y: np.arange(n_elements) == read_index(y, n_elements))


def grover_invert(f: PermutationOracle, y: int):
    """Amplify the preimage of y under f for default_grover_iterations(N)
    rounds; returns (candidate, exact success probability of the candidate,
    trace).  Other round counts run as ``run(grover_spec(N, k), f, y)``."""
    n = f.num_positions
    alg = grover_spec(n, default_grover_iterations(n))
    final, trace = run(alg, f, y)
    candidate, p, _ = top_two(final)
    return candidate, p, trace
