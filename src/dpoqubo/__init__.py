"""Dynamic portfolio optimization on a block-structured QUBO.

The pipeline: price series -> interval log returns and risk matrices ->
integer portfolio weights encoded in binary -> a block tridiagonal QUBO ->
solved whole or block by block, in float64 or through a signed 8-bit
device emulation -> scored on budget feasibility, net returns, and a
return/risk ratio.
"""

from .backends import (
    BackendError,
    ExhaustiveSolver,
    FinitePrecisionAdapter,
    SimulatedAnnealingSolver,
    SolveRequest,
    SolveResult,
    TabuSolver,
    canonical_qubo,
    make_backend,
)
from .bcd import (
    BcdBackendError,
    BcdConfig,
    BcdResult,
    BcdTraceRecord,
    bcd_solve,
    extract_subproblem,
    solve_block,
    write_back,
)
from .harness import (
    ALL_VARIANTS,
    AllocationScore,
    EvaluationReport,
    FeasibilityCheck,
    RunRecord,
    StrategyVariant,
    check_feasibility,
    emit_report,
    net_mean_return,
    run_matrix,
    score_allocation,
    sharpe_ratio,
)
from .market import (
    PriceTable,
    ReturnPanel,
    append_cash_asset,
    bundled_prices_path,
    compute_returns,
    daily_log_returns,
    generate_synthetic,
    load_bundled_prices,
    load_prices,
    normalize_prices,
    parse_prices,
    save_prices,
)
from .model import (
    Covariance,
    DpoConfig,
    ObjectiveTerms,
    PortfolioAllocation,
    RiskMatrix,
    Semicovariance,
    Shrinkage,
    ShrinkageDiagnostics,
    as_allocation,
    config_from_dict,
    config_to_dict,
    covariance_risk,
    decode,
    encode_qubo,
    load_config,
    objective_terms,
    resolved_rho,
    risk_matrices,
    save_config,
    semicovariance_risk,
    shrinkage_risk,
)
from .planted import PlantedInstance, make_scale_separated_qubo
from .precision import (
    DynamicRange,
    QuantizationLossReport,
    QuantizedIsing,
    TuningResult,
    TuningStep,
    coefficient_values,
    dynamic_range,
    quantization_loss_report,
    quantize_int8,
    reduce_dynamic_range,
)
from .qubo import (
    BlockPartition,
    IsingModel,
    Model,
    Qubo,
    ScaleSeparation,
    as_bits,
    as_spins,
    ising_energy,
    ising_to_qubo,
    qubo_energies,
    qubo_energy,
    qubo_to_ising,
    scale_separation_report,
    verify_block_tridiagonal,
)
from .serialize import (
    ModelFormatError,
    dump_model,
    load_model,
    parse_model,
    save_model,
)

__version__ = "0.1.0"
