"""Density estimation from grouped observations.

Given n observations of Y = X_1 + ... + X_K with i.i.d. summands, the
density of X is recovered by taking the distinguished-logarithm K-th root
of the empirical characteristic function of Y and applying spectral-cutoff
Fourier inversion, with a fully data-driven choice of the cutoff.
"""

from .bandwidth import (
    CutoffRecord,
    adaptive_cutoff,
    cap_spread,
    cutoff_cap,
    default_oracle_grid,
    diagnostic_threshold_u,
    estimate,
    threshold_value,
)
from .charfn import CfEvaluation, SpreadEcf, UGrid
from .errors import (
    CutoffExceedsRange,
    DataFormatError,
    DenominatorTooSmall,
    GroupDeconvError,
    LevelNotReached,
    ParameterError,
)
from .experiments import (
    ReplicationResult,
    RiskReport,
    ScenarioGrid,
    run_grid,
    run_replication,
)
from .inversion import (
    DensityEstimate,
    XGrid,
    default_xgrid,
    invert,
    l2_distance,
    oracle_risks,
    oracle_table,
)
from .rootlog import (
    RootEstimate,
    default_step,
    denominator_floor,
    distinguished_root,
    feasible_root,
)
from .samples import (
    Gamma,
    GroupedSample,
    Gumbel,
    Laplace,
    Normal,
    TestLaw,
    benchmark_laws,
    generate_grouped,
    law_from_name,
    load_sample,
    make_rng,
)

__version__ = "0.1.0"
