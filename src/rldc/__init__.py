"""Relaxed local decoding toolkit.

Core machinery for the combinatorial structure of non-adaptive local
decoders: daisy extraction from weighted set systems, decoder preprocessing
(flatten / amplify / randomness reduction), and a sample-based global decoder
that recovers whole messages from valid codewords, with exact-arithmetic
verification suites for every quantitative guarantee.
"""

from types import ModuleType as _ModuleType

from .daisy import (
    DaisyLevel,
    HeavyDaisy,
    build_daisy_sequence,
    pick_heavy_level,
    pluck_simple_daisy,
)
from .decoders import (
    REJECT,
    AdaptiveDecoder,
    Code,
    ExplicitViews,
    LocalView,
    NonAdaptiveDecoder,
    TreeNode,
    hadamard_code,
    identity_code,
    parse_code_spec,
    repetition_code,
    shared_pivot_code,
)
from .exact import PowerBound, floor_power_bound
from .global_decoder import (
    GlobalDecodeOutcome,
    IndexDecodePackage,
    SampleBytes,
    build_decode_packages,
    decode_index,
    fully_queried_petals,
    run_global_decoder,
    sample_coordinates,
)
from .harness import (
    ClaimReport,
    ExperimentConfig,
    run_global_trials,
    scaling_study,
    verify_claims,
    wrapup_sanity,
)
from .preprocessing import (
    ReductionFailedError,
    ReductionReport,
    amplify,
    flatten_adaptive,
    preprocess_pipeline,
    reduce_randomness,
)
from .set_system import (
    ContractError,
    DaisyCertificate,
    DaisyReport,
    SetSystem,
    WeightedSetSystem,
    covered_elements,
    system_from_json,
    system_to_json,
    verify_daisy,
)

__all__ = [n for n in dir() if not (n.startswith("_") or isinstance(globals()[n], _ModuleType))]
__version__ = "0.1.0"
