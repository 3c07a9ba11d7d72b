"""Rigorous p-value certificates against local realism from Bell-test trial data.

The package turns sequences of measurement-setting/outcome records into valid
upper bounds on the worst-case local-realistic probability of the observed
evidence, via a mean-based Hoeffding certificate and two prediction-based-
ratio protocols, together with asymptotic gain-rate analytics and a seeded
quantum trial simulator.
"""

from .errors import (
    BellcertError,
    ScenarioMismatchError,
    SizeLimitError,
    StandardizationError,
    TrialFormatError,
    UnknownFunctionalError,
)
from .functionals import (
    Functional,
    StandardizedFunctional,
    build_function_set,
    catalog_names,
    chsh_functional,
    cglmp_functional,
    expectation,
    load_functional_file,
    no_signaling_functionals,
    standardize,
    trivial_standardized,
)
from .gainrates import GainReport, gain_curve, gain_martingale, gain_spbr, optimal_gain
from .lrpolytope import (
    enumerate_strategies,
    lr_maximum,
    mixture_distribution,
    strategy_count,
    strategy_distribution,
    strategy_result_indices,
)
from .optim import (
    GainOptimum,
    LRProjection,
    OptimizerControls,
    kl_divergence,
    kl_project_lr,
    log_gain,
    maximize_log_gain,
)
from .protocols import (
    FullPbrAnalysis,
    MartingaleAnalysis,
    SimplifiedPbrAnalysis,
    azuma_pvalue,
    martingale_pvalue,
    pbr_pvalue,
    run_full_pbr,
    run_martingale,
    run_simplified_pbr,
)
from .quantum import MeasurementBank, PureState, born_distribution, chsh_config, cglmp_config
from .scenario import (
    Distribution,
    Scenario,
    decode_result,
    empirical_distribution,
    encode_result,
    read_distribution,
    read_trials,
    result_space_size,
    uniform_outcome_distribution,
    write_distribution,
    write_trials,
)
from .sim import (
    GENERATOR_ID,
    ExperimentResult,
    SimulationPlan,
    run_experiment,
    run_seed_sweep,
    sample_encoded,
    validity_exceedance,
)

__version__ = "0.1.0"
