"""qubofolio: multi-period friction-aware portfolio optimization compiled
to QUBO/BQP/Ising, with classical solvers, a statevector quantum
simulator, and an evaluation harness.

No module imports scipy: `quantum` optimizes QAOA angles with a
port of scipy 1.17.1's Nelder-Mead (BSD licence), pinned to scipy's
iterates by tests/test_quantum.py.
"""

from .evaluation import (
    Metrics,
    ParetoRow,
    ParetoTable,
    economic_metrics,
    gap,
    sweep_q,
)
from .market_data import (
    BlockPrices,
    CovarianceSeries,
    MarketDataError,
    PriceTable,
    estimate_covariance,
    load_prices,
    normalize_blocks,
    psd_repair,
)
from .model import (
    FrictionParams,
    ModelError,
    ProblemSpec,
    Trajectory,
    VariableLayout,
    constraint_residuals,
    decode_assignment,
    encode_assignment,
    is_feasible,
    spec_from_json,
    spec_to_json,
)
from .quantum import (
    AnnealSchedule,
    DiagonalCost,
    QaoaParams,
    QuantumSimError,
    anneal_run,
    diagonalize_cost,
    normalize_ising,
    qaoa_optimize,
    qaoa_run,
)
from .qubo import (
    BlockQubo,
    IsingModel,
    QuboError,
    QuboParseError,
    SparseQubo,
    build_qubo,
    delta_energies,
    energy,
    ising_value,
    objective_breakdown,
    read_qubo_text,
    step_components,
    to_dense,
    to_ising,
    to_sparse,
    write_bqp_json,
    write_ising_text,
    write_qubo_text,
)
from .solvers import (
    SolveBudget,
    SolveReport,
    local_descent,
    solve_abs,
    solve_bnb,
    solve_exact,
    solve_sa,
)
from .toy import cash_only_bits, random_sparse_qubo, synthetic_spec, toy_spec

__version__ = "0.1.0"
