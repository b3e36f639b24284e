"""Classical solution engines: exact enumeration, branch-and-bound,
simulated annealing, and adaptive pooled search.

All solvers consume either a BlockQubo or a SparseQubo and return a
SolveReport; a SparseQubo is searched as a one-block BlockQubo, so every
solver runs on the flip kernels of qubo.py.  Descent and the tabu walk
take an argmin over every delta, so they keep them all with apply_flip
(17-27 us a flip on exp1, whose steps are 1,210 wide).  Annealing
reads only the delta it proposes, so it keeps qubo._flip_state instead:
each step's core_t @ g_t and the budget residual's dot products with the
distinct budget columns (200 + 12 numbers a step on exp1).  There a
proposal costs 0.8-1.5 us and an accepted flip 2.2-4.5 us.
Randomized solvers draw from one ``default_rng(seed)`` stream.
Operator adaptation follows bit flips and the annealing schedule follows
proposals: deterministic work counts rather than wall-clock time, so a
run with a fixed ``max_iterations`` is bit-for-bit repeatable; purely
time-limited runs are only as repeatable as the clock.
"""
from __future__ import annotations

import hashlib
import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from .model import _zero_one
from .qubo import (
    BlockQubo,
    QuboError,
    _as_block,
    _dense_vars,
    _flip_state,
    _one_block,
    _runs,
    all_energies,
    apply_flip,
    delta_energies,
    energy,
    to_dense,
)

__all__ = [
    "SolveBudget",
    "SolveReport",
    "solve_exact",
    "solve_bnb",
    "solve_sa",
    "solve_abs",
    "local_descent",
    "rle_encode",
    "rle_decode",
]

EXACT_CAP = 26
_SA_FINAL_RATIO = 1e-3  # final temperature as a fraction of T0
_SA_BLOCK = 512  # SA proposals drawn at once; the time limit is tested per block
_HALFLIFE_FLIPS = 20_000.0  # operator-score half-life, in bit flips
_MUTATION_MEAN_BITS = 3.0  # mean of the geometric k-bit mutation size
_POOL_SIZE = 16  # elite assignments ABS keeps
_PG_ITERS = 100  # projected-gradient steps per branch-and-bound node


@dataclass(frozen=True)
class SolveBudget:
    time_limit: float = 60.0
    max_iterations: int | None = None
    seed: int = 0
    target_energy: float | None = None

    def __post_init__(self):
        if not self.time_limit > 0:  # written so that NaN fails too
            raise ValueError("time_limit must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class SolveReport:
    best: np.ndarray
    best_energy: float
    lower_bound: float | None
    trace: list[tuple[float, float]]  # (elapsed seconds, energy) improvement events
    iterations: int
    solver_name: str
    seed: int

    @property
    def tts(self) -> float:
        """Seconds from the start of the solve to its last improvement."""
        return self.trace[-1][0] if self.trace else 0.0

    def to_json(self) -> dict:
        return {
            "solver": self.solver_name,
            "seed": self.seed,
            "best_energy": self.best_energy,
            "lower_bound": self.lower_bound,
            "tts_seconds": self.tts,
            "iterations": self.iterations,
            "trace": [[t, e] for t, e in self.trace],
            "bits": rle_encode(self.best),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SolveReport":
        return cls(
            best=rle_decode(doc["bits"]),
            best_energy=doc["best_energy"],
            lower_bound=doc.get("lower_bound"),
            trace=[tuple(ev) for ev in doc["trace"]],
            iterations=doc["iterations"],
            solver_name=doc["solver"],
            seed=doc["seed"],
        )


def rle_encode(bits) -> str:
    """Run-length encode a 0/1 vector as e.g. ``0x5 1x3 0x2``."""
    ids, starts = _runs(np.asarray(bits, dtype=np.int8).ravel())
    return " ".join(f"{bit}x{count}" for bit, count in zip(ids, np.diff(starts)))


def _rle_runs(text: str) -> tuple[list[int], list[int]]:
    """(bits, counts) of the tokens ``0xN`` and ``1xN``, N >= 1; anything else is a ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"run-length bits must be text, got {text!r}")
    bits, counts = [], []
    for token in text.split():
        bit, _, count = token.partition("x")
        if bit not in ("0", "1") or not count.isdecimal() or int(count) < 1:
            raise ValueError(f"bad run-length token {token!r}")
        bits.append(int(bit))
        counts.append(int(count))
    return bits, counts


def rle_decode(text: str) -> np.ndarray:
    bits, counts = _rle_runs(text)
    return np.repeat(np.array(bits, dtype=np.int8), counts)


def bit_hash(bits) -> int:
    """Deterministic 64-bit hash of an assignment; collisions treated as duplicates."""
    digest = hashlib.blake2b(np.ascontiguousarray(bits, dtype=np.int8).tobytes(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little")


# --- the run record ------------------------------------------------------------


class _Run:
    """One solve's clock, budget, incumbent and improvement trace."""

    def __init__(self, name: str, block: BlockQubo, budget: SolveBudget | None):
        self.name = name
        self.block = block
        self.budget = budget or SolveBudget()
        self.start = time.perf_counter()
        self.best_e = math.inf
        self.best_x: np.ndarray | None = None
        self.trace: list[tuple[float, float]] = []

    def spent(self, iterations: int) -> bool:
        """True once the iteration cap is reached or the time limit has passed."""
        cap = self.budget.max_iterations
        return ((cap is not None and iterations >= cap)
                or time.perf_counter() - self.start > self.budget.time_limit)

    def offer(self, e: float, x: np.ndarray) -> bool:
        """Keep x if e improves on the best; True once target_energy is reached.

        The incumbent's own bits offered at a lower e (a running energy
        drifts by ulps) lower best_e but are no new improvement.  For the
        same reason a best_e within 1e-9 * max(1, |target|) of the target
        is decided by the incumbent's `energy`.
        """
        if e < self.best_e:
            if self.best_x is None or not np.array_equal(x, self.best_x):
                self.best_x = x.copy()
                self.trace.append((time.perf_counter() - self.start, e))
            self.best_e = e
        target = self.budget.target_energy
        if target is not None and abs(self.best_e - target) <= 1e-9 * max(1.0, abs(target)):
            return energy(self.block, self.best_x) <= target
        return target is not None and self.best_e <= target

    def report(self, iterations: int, bound: float | None = None) -> SolveReport:
        """The incumbent at its `energy`; lower_bound is min(bound, best) when bound is given."""
        best_e = energy(self.block, self.best_x)
        self.trace[-1] = (self.trace[-1][0], best_e)
        return SolveReport(
            best=self.best_x,
            best_energy=best_e,
            lower_bound=None if bound is None else min(bound, best_e),
            trace=self.trace,
            iterations=iterations,
            solver_name=self.name,
            seed=self.budget.seed,
        )


# --- exact enumeration -------------------------------------------------------


def _dense(qubo) -> tuple[np.ndarray, float, BlockQubo]:
    """E = x'Ax + offset, and the BlockQubo whose `energy` the report reads.

    A file becomes the one block of the matrix it was densified into.
    """
    A, offset = to_dense(qubo)
    return A, offset, qubo if isinstance(qubo, BlockQubo) else _one_block(A, offset)


_CHUNK_BITS = 18  # free bits evaluated together: chunks of 2^18 completions


def _restrict(A: np.ndarray, offset: float, fixed: np.ndarray):
    """(const, lin, M), E = const + lin.y + y'My with M's diagonal 0, over fixed's -1 bits y."""
    free = np.flatnonzero(fixed < 0)
    fx = np.flatnonzero(fixed > 0)
    const = offset + float(A[np.ix_(fx, fx)].sum())
    Aff = A[np.ix_(free, free)]
    lin = np.diagonal(Aff) + 2.0 * A[np.ix_(free, fx)].sum(axis=1)
    return const, lin, Aff - np.diag(np.diagonal(Aff))


def _enumerate(run: _Run, A: np.ndarray, offset: float, fixed: np.ndarray) -> int:
    """Offer the `energy` of the best completion of each chunk of `fixed`'s -1 bits.

    Chunk c sets the free bits past the lowest _CHUNK_BITS to the bits of
    c, so completions count up in binary.  Returns the number enumerated:
    all, unless the budget, counted in completions, is spent between chunks.
    """
    free = np.flatnonzero(fixed < 0)
    low, high = free[:_CHUNK_BITS], free[_CHUNK_BITS:]
    done = 0
    for c in range(1 << len(high)):
        if done and run.spent(done):
            break
        x = fixed.copy()
        x[high] = (c >> np.arange(len(high))) & 1
        const, lin, M = _restrict(A, offset, x)
        E = all_energies(const, lin, 2.0 * np.triu(M, 1), 0.0)
        x[low] = (int(np.argmin(E)) >> np.arange(len(low))) & 1
        run.offer(energy(run.block, x), x)
        done += len(E)
    return done


def _check_exact(n: int) -> None:
    """The exact solver's cap, raised by solve_exact and by `solve --qubo` on a file's header."""
    if n > EXACT_CAP:
        raise QuboError(f"solve_exact supports at most {EXACT_CAP} variables, got {n}")


def solve_exact(qubo, budget: SolveBudget | None = None) -> SolveReport:
    """Global minimum by chunked enumeration of all 2^n assignments.

    The budget is tested between chunks, an iteration being one assignment;
    a stopped enumeration certifies nothing and reports no lower bound.
    """
    n = _dense_vars(qubo)
    _check_exact(n)
    A, offset, block = _dense(qubo)
    run = _Run("exact", block, budget)
    done = _enumerate(run, A, offset, np.full(n, -1, dtype=np.int8))
    return run.report(done, bound=math.inf if done == 1 << n else None)


# --- branch and bound --------------------------------------------------------

_LEAF_SIZE = 12  # subtrees at most this wide are enumerated outright


def _bounds(const, lin, M):
    """(bounds, relaxation points) of const + lin.y + y'My over the box, per column of lin.

    The binary identity x^2 = x lets a uniform diagonal shift convexify the
    quadratic; projected gradient, Y <- clip(G Y + r, 0, 1), descends every
    column's surrogate at once, and the supporting hyperplane at each final
    iterate certifies its bound.
    """
    if len(lin) == 0:
        return const, lin
    eigs = np.linalg.eigvalsh(M)
    shift = max(0.0, -float(eigs[0])) * 1.1 + 1e-12
    L = 2.0 * (float(eigs[-1]) + shift) + 1e-12
    lin_c = lin - shift
    G = np.eye(len(lin)) * (1.0 - 2.0 * shift / L) - (2.0 / L) * M
    r = lin_c / -L
    Y = np.full(lin.shape, 0.5)
    GY = np.empty_like(Y)
    for _ in range(_PG_ITERS):
        np.matmul(G, Y, out=GY)
        GY += r
        np.maximum(GY, 0.0, out=GY)
        np.minimum(GY, 1.0, out=Y)
    MY = M @ Y + shift * Y
    grad = 2.0 * MY + lin_c
    support = np.minimum(-Y * grad, (1.0 - Y) * grad).sum(0)
    bound = (Y * MY).sum(0) + (lin_c * Y).sum(0) + const + support
    return bound - 1e-9 * (1.0 + np.abs(bound)), Y


def solve_bnb(qubo, budget: SolveBudget | None = None) -> SolveReport:
    """Best-bound-first branch and bound on the penalty (QUBO) form.

    Anytime: returns the incumbent at budget expiry; when the tree is
    exhausted the incumbent is proven optimal and lower_bound equals it.
    """
    A, offset, block = _dense(qubo)
    n = A.shape[0]
    run = _Run("bnb", block, budget)

    x = np.zeros(n, dtype=np.int8)
    e = energy(block, x)
    desc, desc_e, _ = _descend(block, x.copy())
    if desc_e < e:
        x, e = desc, desc_e
    run.offer(e, x)

    root_fixed = np.full(n, -1, dtype=np.int8)
    root_bound, root_y = _bounds(*_restrict(A, offset, root_fixed))
    counter = 0
    heap = [(float(root_bound), counter, root_fixed, root_y)]
    nodes = 0
    while heap and not run.spent(nodes):
        bound, _, fixed, y = heapq.heappop(heap)
        nodes += 1
        if bound >= run.best_e:
            continue
        free = np.flatnonzero(fixed < 0)
        if len(free) <= _LEAF_SIZE:
            _enumerate(run, A, offset, fixed)
            continue
        k = int(np.argmin(np.abs(y - 0.5)))
        # both children at once: bit k at 1 adds lin[k] and 2 M[k] to the others' terms
        const, lin, M = _restrict(A, offset, fixed)
        rest = np.delete(np.arange(len(free)), k)
        bounds, Y = _bounds(np.array([const, const + lin[k]]),
                            np.stack([lin[rest], lin[rest] + 2.0 * M[k, rest]], axis=1),
                            M[np.ix_(rest, rest)])
        for value in (0, 1):
            if bounds[value] < run.best_e:
                child = fixed.copy()
                child[free[k]] = value
                counter += 1
                heapq.heappush(heap, (float(bounds[value]), counter, child, Y[:, value]))
    return run.report(nodes, bound=min((item[0] for item in heap), default=math.inf))


# --- local descent ------------------------------------------------------------


def _descend(qubo: BlockQubo, x: np.ndarray):
    """Steepest single-flip descent to a 1-flip local minimum.

    Returns (assignment, exact energy, flips performed); mutates x in place.
    """
    deltas = delta_energies(qubo, x)
    flips = 0
    while len(deltas):
        i = int(np.argmin(deltas))
        if not deltas[i] < 0.0:  # also a NaN delta, so no input can spin the loop
            break
        apply_flip(qubo, x, i, deltas)
        flips += 1
    return x, energy(qubo, x), flips


def local_descent(qubo, bits) -> np.ndarray:
    """Steepest-descent refinement; the result has no improving single flip."""
    block = _as_block(qubo)
    out, _, _ = _descend(block, _zero_one(bits, block.num_vars, QuboError).astype(np.int8))
    return out


# --- simulated annealing --------------------------------------------------------


def solve_sa(qubo, budget: SolveBudget | None = None) -> SolveReport:
    """Metropolis single-flip annealing with a geometric temperature schedule.

    T0 is the 90th percentile of |delta| at a random start; the schedule
    cools to T0 * 1e-3 over max_iterations proposals (default 200 per
    variable).  Proposals are drawn in blocks of _SA_BLOCK: one array of
    uniforms u and one of indices, each u turned into the threshold
    -T * log(1 - u) at its proposal's temperature.  A flip is accepted iff
    its delta is at most its threshold, which is the Metropolis rule
    u < exp(-delta / T) in distribution.  The time limit is tested before
    each block.

    After the one delta_energies call that sets T0, the search keeps
    _flip_state and no delta table: a proposal forms its one delta from
    the step's core_t @ g_t, and an accepted flip updates that step's n + k
    numbers, not its w deltas: on exp1 (n = 200, k = 12, w = 1,210), 212
    numbers instead of 1,210.  There, on a 2-core Xeon VM, a proposal
    costs 0.8-1.5 us and an accepted flip 2.2-4.5 us.
    """
    qubo = _as_block(qubo)
    n = qubo.num_vars
    run = _Run("sa", qubo, budget)
    rng = np.random.default_rng(run.budget.seed)
    x = rng.integers(0, 2, size=n).astype(np.int8)
    e = energy(qubo, x)
    run.offer(e, x)
    if n == 0:  # the empty assignment is the only one
        return run.report(0)
    t0 = max(float(np.percentile(np.abs(delta_energies(qubo, x)), 90)), 1e-12)
    tf = t0 * _SA_FINAL_RATIO
    max_it = run.budget.max_iterations or 200 * n
    cooling, span = tf / t0, max(max_it - 1, 1)
    x, delta, flip = _flip_state(qubo, x)
    iterations = 0
    while iterations < max_it and not run.spent(iterations):
        m = min(_SA_BLOCK, max_it - iterations)
        u = rng.random(m)
        picks = rng.integers(n, size=m).tolist()
        temps = t0 * cooling ** (np.arange(iterations, iterations + m) / span)
        thresholds = (-temps * np.log1p(-u)).tolist()
        for k, (i, thr) in enumerate(zip(picks, thresholds)):
            change = delta(i)
            if change <= thr:
                flip(i)
                e += change
                if e < run.best_e and run.offer(e, x):
                    return run.report(iterations + k + 1)
        iterations += m
    return run.report(iterations)


# --- adaptive pooled search ------------------------------------------------------


_OPERATORS = ("descent-restart", "tabu-flip", "uniform-crossover", "k-bit-mutation")


class _OperatorScores:
    """Exponentially decayed improvement-per-work scores of the _OPERATORS,
    driving softmax selection.

    Work is counted in bit flips, so that adaptation stays deterministic.
    """

    def __init__(self):
        self.scores = {op: 0.0 for op in _OPERATORS}

    def pick(self, rng: np.random.Generator) -> str:
        vals = np.array([self.scores[op] for op in _OPERATORS])
        vals = vals - vals.max()
        probs = np.exp(vals)
        probs /= probs.sum()
        return _OPERATORS[int(rng.choice(len(_OPERATORS), p=probs))]

    def update(self, op: str, improvement: float, work: float) -> None:
        work = max(work, 1.0)
        decay = 0.5 ** (work / _HALFLIFE_FLIPS)
        rate = max(improvement, 0.0) / work
        self.scores[op] = decay * self.scores[op] + (1.0 - decay) * rate


def _tabu_walk(qubo: BlockQubo, x, tenure, steps):
    """`steps` tabu-limited flips from x; returns the best assignment on the walk.

    Each step takes the best non-tabu move, even uphill.  At most
    tenure - 1 bits are tabu at a step, and tenure <= n, so a move always
    exists.
    """
    deltas = delta_energies(qubo, x)
    tabu_until = np.zeros(qubo.num_vars, dtype=np.int64)
    e = energy(qubo, x)
    best_x, best_e = x.copy(), e
    for step in range(steps):
        i = int(np.argmin(np.where(tabu_until > step, np.inf, deltas)))
        e += apply_flip(qubo, x, i, deltas)
        tabu_until[i] = step + tenure
        if e < best_e:
            best_e, best_x = e, x.copy()
    return best_x


def solve_abs(qubo, budget: SolveBudget | None = None) -> SolveReport:
    """Adaptive pooled search: operator selection by decayed improvement
    rate among the four _OPERATORS, candidates refined by steepest descent,
    and an elite pool of the _POOL_SIZE best distinct assignments."""
    qubo = _as_block(qubo)
    n = qubo.num_vars
    run = _Run("abs", qubo, budget)
    tenure = math.ceil(math.sqrt(n))

    # pool entries: (energy, bit_hash, bits); kept sorted, unique by hash
    elite: list[tuple[float, int, np.ndarray]] = []
    hashes: set[int] = set()

    def admit(e: float, x: np.ndarray) -> None:
        hx = bit_hash(x)
        if hx in hashes:
            return
        heapq_entry = (e, hx, x.copy())
        elite.append(heapq_entry)
        hashes.add(hx)
        elite.sort(key=lambda item: (item[0], item[1]))
        while len(elite) > _POOL_SIZE:
            _, old_hash, _ = elite.pop()
            hashes.discard(old_hash)

    scores = _OperatorScores()
    rng = np.random.default_rng(run.budget.seed)

    iterations = 0
    while True:
        op = scores.pick(rng)
        work = 0.0
        if op == "uniform-crossover" and len(elite) >= 2:
            pa, pb = rng.choice(len(elite), size=2, replace=False)
            mask = rng.integers(0, 2, size=n).astype(bool)
            x = np.where(mask, elite[pa][2], elite[pb][2]).astype(np.int8)
        elif op == "k-bit-mutation" and elite:
            x = elite[int(rng.integers(len(elite)))][2].copy()
            kbits = int(rng.geometric(1.0 / _MUTATION_MEAN_BITS))
            flip_idx = rng.choice(n, size=min(kbits, n), replace=False)
            x[flip_idx] ^= 1
        elif op == "tabu-flip" and elite:
            x = elite[int(rng.integers(len(elite)))][2].copy()
            x = _tabu_walk(qubo, x, tenure, 2 * tenure)
            work += 2 * tenure
        else:  # descent-restart, or fallback when the pool is still empty
            x = rng.integers(0, 2, size=n).astype(np.int8)
        x, e, flips = _descend(qubo, x)
        work += flips
        iterations += 1
        improvement = (run.best_e - e) if math.isfinite(run.best_e) else 0.0
        scores.update(op, improvement, work)
        admit(e, x)
        if run.offer(e, x) or run.spent(iterations) or n == 0:  # n = 0: one assignment
            break
    return run.report(iterations)
