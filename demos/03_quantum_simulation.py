"""Run the portfolio model through the quantum-algorithm simulators:
adiabatic annealing and QAOA on a toy instance small enough for exact
statevector evolution, next to a uniform random draw, the baseline
every quantum result must beat.

Run: python3 demos/03_quantum_simulation.py
"""
from qubofolio import (
    AnnealSchedule,
    QaoaParams,
    anneal_run,
    build_qubo,
    diagonalize_cost,
    normalize_ising,
    qaoa_optimize,
    qaoa_run,
    solve_exact,
    to_ising,
    to_sparse,
    toy_spec,
)

spec = toy_spec(n=2, T=2, q=1e-5, seed=0)
qubo = build_qubo(spec)
print(f"portfolio instance: {qubo.num_vars} variables -> {qubo.num_vars} qubits")

# currency-scale couplings would dwarf the unit driver, so normalize
ising, scale = normalize_ising(to_ising(qubo))
cost = diagonalize_cost(ising)
print(f"coefficient scale factored out: {scale:.3e}")
print(f"exact ground energy: {cost.ground_energy * scale:,.2f}")

exact = solve_exact(to_sparse(qubo))
print(f"classical exact optimum:  {exact.best_energy:,.2f}\n")

# zero QAOA layers leave the uniform superposition: a draw of random bits
doc = qaoa_run(ising, QaoaParams((), ()), shots=0)
print(f"uniform draw: ground probability {doc['ground_probability']:.3g}")

doc = anneal_run(ising, AnnealSchedule(total_time=50, dt=0.01), shots=2048, seed=0)
print(f"anneal (tau=50): ground probability {doc['ground_probability']:.3f}, "
      f"best bits {doc['best_bits']}")

params, report = qaoa_optimize(ising, layers=3, seed=0)
doc = qaoa_run(ising, params, shots=2048, seed=0)
print(f"qaoa (p=3): expectation {doc['expectation'] * scale:,.2f}, "
      f"ground probability {doc['ground_probability']:.3f}")
