"""advice-lab: a desk-scale laboratory for query/advice tradeoffs.

Exact statevector simulation of oracle query algorithms with per-position
query-magnitude accounting, classical advice constructions (parity pads,
iterate tables), verifiers for the oracle-perturbation inequalities, and a
bit-exact permutation compression codec driven by inversion algorithms.
"""

from .qsim import (
    AlgorithmSpec,
    BasisLayout,
    BasisState,
    BitStringOracle,
    ClassicalSpec,
    ForbiddenIndexError,
    FunctionOracle,
    NonUnitaryStepError,
    PermutationOracle,
    PureState,
    QueryTrace,
    apply_oracle,
    default_grover_iterations,
    euclidean_distance,
    grover_invert,
    grover_spec,
    measurement_distribution,
    query_magnitudes,
    run,
    top_two,
    tv_distance,
)
from .advice import (
    CorruptTableError,
    HellmanTable,
    ParityPad,
    hellman_build,
    hellman_invert,
    measure_tradeoff,
    parity_answer,
    parity_answer_sweep,
    parity_preprocess,
)
from .adapters import (
    GroverInversion,
    HellmanInversion,
    LookupInversion,
    haar_scrambler,
    masked_box_grover,
    parity_box_algorithm,
)
from .hybrid import (
    ParityAdviceScheme,
    SwapReport,
    TvReport,
    box_experiment,
    collision_in_window,
    expectation_check,
    perturbation_bound,
    verify_swapping,
    verify_tv,
)
from .compress import (
    AmbiguousDecodeError,
    CompressionParams,
    CorruptEncodingError,
    CountingReport,
    DecodeFailure,
    Encoding,
    build_h,
    counting_check,
    decode,
    encode,
    encoding_from_json,
    encoding_to_json,
    good_set,
    inversion_set,
    length_bound_bits,
    rank_perm,
    rank_set,
    sample_R,
    unrank_perm,
    unrank_set,
)

__version__ = "0.1.0"
