"""Learning stochastic languages with unitary-circuit hypotheses.

Global evolutionary search over circuit structures with Lamarckian local
parameter optimization, temperature-controlled acceptance of inferior
candidates, rank/fitness/tournament selection, and multi-armed-bandit
adaptation of every stochastic operator distribution. A separate trainer
fits fixed ansatz templates by nonlinear cost minimization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import circuits as qc
from .channels import hermitian_coordinates, real_transfer_offsets
from .circuits import Circuit, GateStack, compile_circuit
from .lang import (DistributionTable, Sequence, check_table_budget, divergence_avg,
                   forward_plan)
from .models import (QhmmKraus, QhmmUnitary, block_symbol_map,
                     distribution_tables, to_kraus)
from .optimize import OPTIMIZER_LABELS, ObjectiveSpec, get_optimizer


# --- hypotheses ---------------------------------------------------------------

RHO0_KINDS = ("ground", "maximally_mixed", "maximally_entangled")


def initial_state(kind: str, dim: int) -> np.ndarray:
    """Initial density for a hypothesis: ground |0><0|, maximally mixed I/N,
    or (for a square dim with two halves) the maximally entangled pair state.
    A one-qubit space has no internal split, so 'maximally_entangled'
    degrades to maximally mixed there."""
    if kind == "ground":
        rho = np.zeros((dim, dim), dtype=np.complex128)
        rho[0, 0] = 1.0
        return rho
    if kind == "maximally_mixed":
        return np.eye(dim, dtype=np.complex128) / dim
    if kind == "maximally_entangled":
        half = math.isqrt(dim)
        if half * half == dim and half >= 2:
            v = np.zeros(dim, dtype=np.complex128)
            for i in range(half):
                v[i * half + i] = 1.0 / math.sqrt(half)
            return np.outer(v, v.conj())
        return np.eye(dim, dtype=np.complex128) / dim
    raise ValueError(f"unknown initial-state kind {kind!r}")


def symbol_order(symbol_map) -> list[str]:
    """Alphabet of a symbol map, in order of first appearance."""
    return list(dict.fromkeys(symbol_map))


def register_qubits(dim_s: int, dim_e: int) -> int:
    """Qubit count of a system register and an emission register; each
    dimension must be a power of two."""
    for name, dim in (("dim_s", dim_s), ("dim_e", dim_e)):
        if dim < 1 or dim & (dim - 1):
            raise ValueError(f"{name} must be a power of two, got {dim}")
    return int(math.log2(dim_s)) + int(math.log2(dim_e))


def _check_circuit_size(circuit: Circuit, dim_s: int, dim_e: int) -> None:
    nq = register_qubits(dim_s, dim_e)
    if circuit.n_qubits != nq:
        raise ValueError(f"circuit has {circuit.n_qubits} qubits, dims need {nq}")


@dataclass
class AnsatzSpec:
    """The circuit model both learners search: a reset-mode circuit on a
    system and an emission register, the emission register measured and reset
    to |0>, a symbol map over the emission indices and a start state. The
    circuit's angles may be unbound (a template to fit) or bound."""

    circuit: Circuit
    dim_s: int
    dim_e: int
    symbol_map: tuple[str, ...]
    rho0: Optional[np.ndarray] = None  # default: the maximally mixed state

    def __post_init__(self):
        _check_circuit_size(self.circuit, self.dim_s, self.dim_e)

    def initial_density(self) -> np.ndarray:
        if self.rho0 is not None:
            return np.asarray(self.rho0, dtype=np.complex128)
        return initial_state("maximally_mixed", self.dim_s)

    def engine(self) -> ChannelEngine:
        return ChannelEngine(self.circuit, self.dim_s, self.dim_e,
                             tuple(self.symbol_map), self.initial_density())

    def model(self, params) -> QhmmKraus:
        """Kraus form at the given angles, alphabet in symbol-map order."""
        return to_kraus(QhmmUnitary(
            alphabet=symbol_order(self.symbol_map), dim_s=self.dim_s,
            dim_e=self.dim_e,
            u=compile_circuit(self.circuit.with_parameters(params)),
            symbol_map=tuple(self.symbol_map), rho0=self.initial_density(),
        ))


@dataclass
class Hypothesis(AnsatzSpec):
    """A member of the evolutionary search, angles bound once fitted."""

    fitness: Optional[float] = None


@dataclass
class LearnSpace:
    """Hypothesis-space configuration shared by generation and mutation."""

    alphabet: list[str]
    dim_s: int = 2
    dim_e: int = 2
    # the named single-qubit types plus controlled placements: a genotype
    # without any two-qubit gate factorizes and can only express i.i.d.
    # languages, so the entangling variants stay in the default pool
    gate_set: tuple[str, ...] = ("X", "Y", "RX", "RY", "CX", "CRY")
    min_gates: int = 3
    max_gates: int = 12
    rho0_kind: str = "maximally_mixed"
    symbol_map: Optional[tuple[str, ...]] = None
    optimizers: tuple[str, ...] = ("nm", "cbla", "bfsg")
    opt_budget: int = 70  # local-search evaluations per circuit parameter

    def __post_init__(self):
        register_qubits(self.dim_s, self.dim_e)
        for kind, names, known in (("gate type", self.gate_set, qc.GATE_ARITY),
                                   ("optimizer label", self.optimizers,
                                    OPTIMIZER_LABELS)):
            unknown = [n for n in names if n not in known]
            if unknown:
                raise ValueError(f"unknown {kind}s {unknown}")
            if not names:
                raise ValueError(f"no {kind}s given")
        if self.rho0_kind not in RHO0_KINDS:
            raise ValueError(f"unknown initial-state kind {self.rho0_kind!r}; "
                             f"choose from {RHO0_KINDS}")
        if not 0 <= self.min_gates <= self.max_gates:
            raise ValueError(f"gate counts need 0 <= min_gates <= max_gates, "
                             f"got {self.min_gates} and {self.max_gates}")
        if self.opt_budget < 1:
            raise ValueError(f"opt_budget must be >= 1, got {self.opt_budget}")
        self.alphabet = [str(a) for a in self.alphabet]
        if self.symbol_map is None:
            self.symbol_map = block_symbol_map(self.alphabet, self.dim_e)
        self.symbol_map = tuple(str(s) for s in self.symbol_map)
        if symbol_order(self.symbol_map) != self.alphabet:
            raise ValueError(
                f"symbol_map must list the alphabet {self.alphabet} in order "
                f"of first appearance, got {symbol_order(self.symbol_map)}"
            )
        if self.n_qubits < 2:  # the qubit-pair distribution needs a pair
            raise ValueError(
                f"the search needs at least two qubits, got dim_s "
                f"{self.dim_s} and dim_e {self.dim_e}"
            )

    def budget_for(self, n_params: int) -> int:
        """Total evaluations for one Lamarckian fit; simplex methods need
        room proportional to the parameter count."""
        return max(40, self.opt_budget * max(1, n_params))

    @property
    def n_qubits(self) -> int:
        return register_qubits(self.dim_s, self.dim_e)


@dataclass
class HyperParams:
    mu: int = 30
    lam: int = 10
    gamma_bandit: float = 0.3
    prog_window: int = 10
    g_max: int = 60
    target_fitness: float = -0.01
    c_q: float = 0.01
    c_e: float = 0.01
    n_max: int = 5

    def __post_init__(self):
        if self.mu < 2:
            raise ValueError("population size must be >= 2")
        if self.lam < 1:
            raise ValueError("offspring size must be >= 1")
        if not 0.0 <= self.gamma_bandit <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.g_max < 0:
            raise ValueError(f"g_max must be >= 0, got {self.g_max}")
        if self.prog_window < 1:
            raise ValueError(f"prog_window must be >= 1, got {self.prog_window}")
        for name in ("c_q", "c_e"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not math.isfinite(self.target_fitness):
            raise ValueError(
                f"target_fitness must be finite, got {self.target_fitness}")


# --- compiled evaluation engine -------------------------------------------------

# a (B, P) block is evaluated in near-equal runs of rows whose largest
# intermediates take about this many bytes in all (a run holds at least one
# row), which bounds the transient memory of a call
BLOCK_BYTES = 1 << 20


@functools.cache  # keyed by sample count: few keys
def _dft_rows(size: int) -> np.ndarray:
    """The real (2(n + 1), S) map from S = 2n + 1 equispaced samples of a
    real trigonometric polynomial of degree n to its coefficients c_j, as
    rows (Re c_j, -Im c_j) for j = 0..n with each pair j > 0 doubled: the
    polynomial at phase phi is e^{ij phi}, viewed as real pairs, times
    them. Read-only."""
    j, s = np.arange(size // 2 + 1)[:, None], np.arange(size)
    turn = 2 * math.pi / size * (j * s % size)
    rows = np.stack([np.cos(turn), np.sin(turn)], axis=1) * np.where(
        j > 0, 2.0, 1.0)[:, None] / size
    rows = rows.reshape(-1, size)
    rows.setflags(write=False)
    return rows


class ChannelEngine:
    """Parameter vector -> unitary (``GateStack``) -> augmented forward step
    gathered from the unitary -> exact lex-ordered probability vectors from
    a ``lang.forward_plan``, with all structure precomputed.

    The Kraus operator of emission e, the emission register reset to 0, is
    K_e[s, s'] = U[s*dim_e + e, s'*dim_e]. A channel maps Hermitian
    operators to Hermitian ones, so the recursion runs in float64 on the
    real coordinates of rho (``channels.hermitian_coordinates``): the step
    holds each symbol's real transfer matrix and effect column, each entry
    a signed sum of products of U's real and imaginary parts. Two arrays of
    offsets into U viewed as float64 pick both factors of every product,
    one holds their signs (``channels.real_transfer_offsets``), and one
    ``reduceat`` sums them into every entry. A (B, P) block of parameter
    vectors runs through the same path with a leading batch axis, in runs
    of at most BLOCK_BYTES; each row's result equals that vector's alone and
    each length's vector that length's alone, bit for bit. ``line_probs``
    gives the probabilities along one angle from one such block.

    The forward plan of each tuple of lengths asked for is built once and
    kept, so a call pays only for ``unitary``, the gather and the
    arithmetic.

    This is the hot path behind fitness and ansatz cost; the object-based
    route (AnsatzSpec.model / models.distribution_tables) computes the same
    quantities independently and cross-checks it.
    """

    def __init__(self, circuit: Circuit, dim_s: int, dim_e: int,
                 symbol_map, rho0: np.ndarray):
        _check_circuit_size(circuit, dim_s, dim_e)
        if len(symbol_map) != dim_e:
            raise ValueError("symbol_map must label every emission index")
        self.dim_s, self.dim_e = dim_s, dim_e
        self.gates = GateStack(circuit)
        self.rho0 = hermitian_coordinates(rho0)
        self.trace = np.eye(dim_s).ravel()  # the trace in those coordinates
        alphabet = symbol_order(symbol_map)
        self.n_symbols = len(alphabet)
        self.left, self.right, self.signs, self.sums = real_transfer_offsets(
            dim_s, dim_e, tuple(alphabet.index(s) for s in symbol_map))
        self.flat_shape = (2 * self.gates.dim**2,)  # U's re and im, row-major
        self.step_shape = (dim_s**2, self.n_symbols * (dim_s**2 + 1))
        # bytes of all that one row allocates: the phases (reals), their
        # complex form and the coefficients, the factors and their tree
        # product (complex), the two gathers and the step (reals)
        k, width = self.gates.stack.shape[:2]
        self.row_bytes = 8 * k * width + 16 * (
            2 * k * width + 2 * k * self.gates.dim**2) + 8 * (
            2 * self.left.size + self.sums.size)
        self._plans = {}  # lengths tuple -> its forward plan

    def unitary(self, x) -> np.ndarray:
        return self.gates(x)

    def level_probs(self, x, lengths) -> list[np.ndarray]:
        """Probability vectors over lex-ordered sequences for each length;
        (m**t,) for (P,) parameters, (B, m**t) for a (B, P) block."""
        x = np.asarray(x, dtype=float)
        lengths = tuple(lengths)
        forward = self._plans.get(lengths) or self._plans.setdefault(
            lengths, forward_plan(self.n_symbols, self.rho0, self.trace, lengths))
        if x.ndim == 2 and len(x) > 1:
            # plus every level's product, which its probabilities and the
            # next states view: the top's, and at most twice the one below it
            m, top = self.n_symbols, max(lengths, default=0)
            row = self.row_bytes + 8 * (self.dim_s**2 + 1) * (
                m**top + 2 * m ** max(top - 1, 0))
            runs = min(len(x), -(-len(x) * row // BLOCK_BYTES))
            if runs > 1:
                pieces = [forward(self.step(rows)) for rows in np.array_split(x, runs)]
                return [np.concatenate(level) for level in zip(*pieces)]
        return forward(self.step(x))

    def line_probs(self, x, axis: int, lengths):
        """The concatenated level probabilities of (P,) parameters x as a
        function of angle ``axis``, exact up to rounding.

        The angle enters U only as e^{ikt/2} in its own gate's terms
        (``GateStack.multipliers``), and each step entry is quadratic in U,
        so a length-L probability is a trigonometric polynomial in t whose
        frequencies are multiples of g = gcd(k - k')/2 up to L max|k - k'|/2:
        n_max = L max|k - k'|/2 / g of them, g = 1 for RX, RY, RZ and P and
        1/2 for CRY and CRZ. One block of S = 2 n_max + 1 equispaced samples
        over the period 2 pi/g, through ``level_probs``, and one real matmul
        by their DFT rows give the polynomial's coefficients; the returned
        function sums them at an angle with no kernel call.
        """
        k = self.gates.multipliers[axis]
        spread, unit = k.max() - k.min(), np.gcd.reduce(k - k.min())
        n = max(lengths) * spread // unit
        period, size = 4 * math.pi / unit, 2 * n + 1
        samples = np.tile(np.asarray(x, dtype=float), (size, 1))
        samples[:, axis] = period * np.arange(size) / size
        probs = np.concatenate(self.level_probs(samples, lengths), axis=-1)
        coef = _dft_rows(size) @ probs
        phases = 2j * math.pi / period * np.arange(n + 1)

        def at(t: float) -> np.ndarray:
            return np.exp(phases * (t % period)).view(float) @ coef

        return at

    def objective(self, lengths, value, budget: int = 1000) -> ObjectiveSpec:
        """The ``ObjectiveSpec`` of ``value``, which maps the concatenated
        level probabilities, (S,) or (B, S), to a float or (B,) values: it
        takes (P,) parameters or a (B, P) block (row values equal bit for
        bit) and reads one angle's values from ``line_probs``."""
        lengths = tuple(lengths)

        def evaluate(x):
            return value(np.concatenate(self.level_probs(x, lengths), axis=-1))

        def line(x, axis: int):
            probs = self.line_probs(x, axis, lengths)
            return lambda t: value(probs(t))

        return ObjectiveSpec(arity=self.gates.n_params, evaluate=evaluate,
                             budget=budget, line=line)

    def step(self, x) -> np.ndarray:
        """The real (..., N^2, m*(N^2 + 1)) augmented step of
        ``lang.forward_plan`` at (P,) parameters or a (B, P) block: per
        symbol, its transfer matrix on ``hermitian_coordinates`` (row: input
        coordinate, column: output coordinate), then its effect column."""
        u = self.unitary(x)
        lead = u.shape[:-2]
        flat = u.view(float).reshape(lead + self.flat_shape)
        terms = flat.take(self.left, axis=-1)
        terms *= flat.take(self.right, axis=-1)
        terms *= self.signs
        return np.add.reduceat(terms, self.sums, axis=-1).reshape(
            lead + self.step_shape)


# --- fitness ------------------------------------------------------------------

def complexity(hyp: Hypothesis, c_q: float, c_e: float) -> float:
    """c_q * (two-qubit gate count / qubit pairs) + c_e * M / N^2."""
    nq = hyp.circuit.n_qubits
    pairs = nq * (nq - 1) // 2
    gate_term = 0.0 if pairs == 0 else hyp.circuit.two_qubit_count / pairs
    return c_q * gate_term + c_e * hyp.dim_e / hyp.dim_s**2


def _sorted_target(target: list[DistributionTable]) -> list[DistributionTable]:
    if not target:
        raise ValueError("the target needs at least one distribution table")
    return sorted(target, key=lambda tab: tab.t)


@dataclass(frozen=True)
class TargetLevels:
    """Target tables in the engine's layout: their lengths in ascending
    order, their lex-ordered vectors over m symbols concatenated, and where
    each length starts in that vector."""

    n_symbols: int
    lengths: list
    vector: np.ndarray
    starts: np.ndarray


def target_levels(target: list[DistributionTable], m: int) -> TargetLevels:
    """The tables' ``TargetLevels`` over m symbols; a table past
    ``lang.TABLE_BUDGET`` is refused."""
    targets = _sorted_target(target)
    check_table_budget(m, targets[-1].t)
    vectors = [tab.vector(m) for tab in targets]
    return TargetLevels(m, [tab.t for tab in targets], np.concatenate(vectors),
                        np.cumsum([0] + [len(v) for v in vectors[:-1]]))


class FitnessEngine:
    """Compiled fitness of one circuit structure against fixed target tables,
    given as tables or as their ``TargetLevels``, which a search prepares
    once for all its engines."""

    def __init__(self, hyp: Hypothesis,
                 target: list[DistributionTable] | TargetLevels,
                 c_q: float = 0.01, c_e: float = 0.01):
        self.engine = hyp.engine()
        self.complexity = complexity(hyp, c_q, c_e)
        m = self.engine.n_symbols
        if not isinstance(target, TargetLevels):
            target = target_levels(target, m)
        elif target.n_symbols != m:
            raise ValueError(f"target over {target.n_symbols} symbols for a "
                             f"hypothesis over {m}")
        self.lengths, self.target = target.lengths, target.vector
        self.level_starts = target.starts

    def objective(self, budget: int = 1000) -> ObjectiveSpec:
        """-fitness as an ``ObjectiveSpec`` (``ChannelEngine.objective``):
        the average over lengths of the max-divergence, plus complexity."""
        target, starts, count = self.target, self.level_starts, len(self.lengths)
        complexity = self.complexity

        def neg_fitness(probs):
            gaps = np.abs(probs - target)
            per_length = np.maximum.reduceat(gaps, starts, axis=-1)
            return np.add.reduce(per_length, axis=-1) / count + complexity

        return self.engine.objective(self.lengths, neg_fitness, budget)


def fitness(
    hyp: Hypothesis,
    target: list[DistributionTable],
    c_q: float = 0.01,
    c_e: float = 0.01,
) -> float:
    """F = -(average max-divergence against the target + complexity); always
    <= 0, equal to 0 only at zero divergence and zero complexity."""
    params = hyp.circuit.parameters()
    if any(p is None for p in params):
        raise ValueError("circuit has unbound parameters")
    return -float(FitnessEngine(hyp, target, c_q, c_e).objective().evaluate(
        np.array(params, dtype=float)
    ))


def fitness_reference(
    hyp: Hypothesis,
    target: list[DistributionTable],
    c_q: float = 0.01,
    c_e: float = 0.01,
) -> float:
    """Object-path fitness used to cross-check the compiled engine."""
    targets = _sorted_target(target)
    by_len = distribution_tables(hyp.model(hyp.circuit.parameters()),
                                 [tab.t for tab in targets])
    div = divergence_avg(targets, [by_len[tab.t] for tab in targets])
    return -(div + complexity(hyp, c_q, c_e))


def optimize_parameters(
    hyp: Hypothesis,
    target: list[DistributionTable] | TargetLevels,
    optimizer_label: str = "nm",
    budget: int = 80,
    c_q: float = 0.01,
    c_e: float = 0.01,
) -> Hypothesis:
    """Lamarckian step: fit all circuit angles against the target (tables
    or their ``TargetLevels``), write them back into the genotype, and
    record the reached fitness."""
    obj = FitnessEngine(hyp, target, c_q, c_e).objective(budget)
    x0 = np.array([p if p is not None else 0.0 for p in hyp.circuit.parameters()])
    res = get_optimizer(optimizer_label)(obj, x0)
    tuned = hyp.circuit.with_parameters(res.best_params)
    return replace(hyp, circuit=tuned, fitness=-res.best_value)


# --- adaptive distributions ----------------------------------------------------

# how far selection probabilities may sum from 1, as Generator.choice allows
PROBS_TOL = math.sqrt(np.finfo(float).eps)


@dataclass
class AdaptiveDistribution:
    """Bandit arm set: a finite domain with selection probabilities, reward
    counts for the current generation, and a log of draws awaiting credit.
    The probabilities are checked once, as ``Generator.choice`` checks them,
    and each draw takes one ``rng.random()`` and gives the index ``choice``
    would give."""

    domain: list
    probs: np.ndarray = None
    rewards: np.ndarray = None
    draws: list = field(default_factory=list)
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.domain)
        if k == 0:
            raise ValueError("empty domain")
        if self.probs is None:
            self.probs = np.full(k, 1.0 / k)
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != (k,):
            raise ValueError(f"probs must hold one probability per arm ({k}), "
                             f"got shape {self.probs.shape}")
        if not ((self.probs >= 0).all()
                and abs(math.fsum(self.probs) - 1.0) <= PROBS_TOL):
            raise ValueError(f"probs must be non-negative and sum to 1, got "
                             f"{self.probs.tolist()}")
        # Generator.choice's CDF: the index of a draw u is the first entry
        # above u
        self.cdf = self.probs.cumsum()
        self.cdf /= self.cdf[-1]
        if self.rewards is None:
            self.rewards = np.zeros(k)
        self.rewards = np.asarray(self.rewards, dtype=float)

    def sample(self, rng: np.random.Generator):
        i = int(self.cdf.searchsorted(rng.random(), side="right"))
        self.draws.append(i)
        return self.domain[i]

    def clear_draws(self):
        self.draws.clear()

    def credit_draws(self):
        for i in self.draws:
            self.rewards[i] += 1.0
        self.draws.clear()

    def reward_value(self, value):
        self.rewards[self.domain.index(value)] += 1.0


def bandit_update(d: AdaptiveDistribution, gamma: float) -> AdaptiveDistribution:
    """p_i = gamma/k + (1-gamma) r_i / sum(r); uniform when no rewards came in.
    Rewards are cleared for the next generation."""
    if d.rewards.min() < 0:
        raise ValueError("rewards must be nonnegative")
    k = len(d.domain)
    total = d.rewards.sum()
    if total == 0:
        probs = np.full(k, 1.0 / k)
    else:
        probs = gamma / k + (1.0 - gamma) * d.rewards / total
        probs = probs / probs.sum()
    return AdaptiveDistribution(domain=list(d.domain), probs=probs,
                                rewards=np.zeros(k))


SELECTION_STRENGTHS = [0.1, 0.2, 0.5, 0.7, 1.0]
MUTATION_RATES = [0.1, 0.2, 0.3, 0.4, 0.5]
MUTATION_TYPES = ["gte", "qbt", "rpl", "dlt", "ins"]


def default_distributions(space: LearnSpace) -> dict[str, AdaptiveDistribution]:
    nq = space.n_qubits
    pairs = [(c, d) for c in range(nq) for d in range(nq) if c != d]
    return {
        "selection_type": AdaptiveDistribution(["fitness", "rank", "tournament"]),
        "selection_strength": AdaptiveDistribution(list(SELECTION_STRENGTHS)),
        "survival_type": AdaptiveDistribution(["fitness", "rank"]),
        "survival_strength": AdaptiveDistribution(list(SELECTION_STRENGTHS)),
        "gates": AdaptiveDistribution(list(space.gate_set)),
        "qubit": AdaptiveDistribution(list(range(nq))),
        "qubit_pair": AdaptiveDistribution(pairs),
        "local_search_len": AdaptiveDistribution(list(range(1, 11))),
        "local_search_type": AdaptiveDistribution(["depth", "breadth"]),
        "mutation_rate": AdaptiveDistribution(list(MUTATION_RATES)),
        "mutation_type": AdaptiveDistribution(list(MUTATION_TYPES)),
        "optimizer": AdaptiveDistribution(list(space.optimizers)),
    }


# --- annealing and selection ----------------------------------------------------

def temperature(t: int) -> float:
    """tau(t) = (t^(3/2) + 1)^(-1/4); tau(0) = 1, strictly decreasing."""
    if t < 0:
        raise ValueError("step count must be >= 0")
    return float((t**1.5 + 1.0) ** -0.25)


def acceptance_probability(f_old: float, f_new: float, tau: float) -> float:
    """Probability of keeping a non-superior candidate at temperature tau.

    Improvements are always kept; a perfect incumbent (fitness ~ 0) never
    yields to a strictly worse candidate.
    """
    if f_new >= f_old:
        return 1.0
    if abs(f_old) < 1e-12:
        return 0.0
    p = math.exp((0.6 / tau) * (f_old - f_new) / f_old)
    return min(max(p, 0.0), 1.0)


def _ranked(pop: list[Hypothesis]) -> list[Hypothesis]:
    return sorted(pop, key=lambda h: h.fitness, reverse=True)


def select_parents(
    pop: list[Hypothesis],
    count: int,
    method: str,
    strength: float,
    rng: np.random.Generator,
) -> list[Hypothesis]:
    """Sample ``count`` parents with replacement.

    rank:       P[rank i] ~ (mu - i)^s with rank 1 the fittest (the last rank
                always gets weight 0, so s = 0 is uniform over ranks 1..mu-1);
    fitness:    weights shifted to (F - min F + eps);
    tournament: best of k = max(2, ceil(4 s)) uniform candidates per draw.
    """
    if not pop:
        raise ValueError("empty population")
    ranked = _ranked(pop)
    mu = len(ranked)
    if method == "tournament":
        k = max(2, math.ceil(strength * 4))
        out = []
        for _ in range(count):
            picks = rng.integers(mu, size=k)
            out.append(ranked[int(picks.min())])
        return out
    if method == "rank":
        base = np.array([mu - i for i in range(1, mu + 1)], dtype=float)
        weights = np.where(base > 0, base**strength, 0.0)
    elif method == "fitness":
        f = np.array([h.fitness for h in ranked])
        weights = f - f.min() + 1e-9
    else:
        raise ValueError(f"unknown selection method {method!r}")
    if weights.sum() <= 0:
        weights = np.ones(mu)
    probs = weights / weights.sum()
    idx = rng.choice(mu, size=count, replace=True, p=probs)
    return [ranked[int(i)] for i in idx]


def select_survivors(
    pool: list[Hypothesis],
    mu: int,
    method: str,
    strength: float,
    rng: np.random.Generator,
) -> list[Hypothesis]:
    """Sample mu distinct survivors from the mu+lambda pool.

    rank:    P[rank r] ~ 1/(d_r + 1) with d_r = exp(s (r - pool size));
    fitness: shifted-fitness weights sharpened by the strength exponent.
    The incumbent best hypothesis always survives.
    """
    pool = _ranked(pool)
    size = len(pool)
    if size < mu:
        raise ValueError(f"pool of {size} cannot fill a population of {mu}")
    if method == "rank":
        d = np.exp(strength * (np.arange(1, size + 1, dtype=float) - size))
        weights = 1.0 / (d + 1.0)
    elif method == "fitness":
        f = np.array([h.fitness for h in pool])
        weights = (f - f.min() + 1e-9) ** (4.0 * strength)
    else:
        raise ValueError(f"unknown survival method {method!r}")
    if weights.sum() <= 0 or not np.isfinite(weights).all():
        weights = np.ones(size)
    probs = weights / weights.sum()
    idx = list(rng.choice(size, size=mu, replace=False, p=probs))
    if 0 not in idx:  # elitism: keep the best no matter what was drawn
        worst = max(range(len(idx)), key=lambda j: idx[j])
        idx[worst] = 0
    return [pool[int(i)] for i in sorted(idx)]


# --- generation and modification -------------------------------------------------

def random_hypothesis(
    space: LearnSpace,
    target: list[DistributionTable] | TargetLevels,
    rng: np.random.Generator,
    dists: dict[str, AdaptiveDistribution],
    c_q: float = 0.01,
    c_e: float = 0.01,
) -> Hypothesis:
    """Uniform random gate count in [min_gates, max_gates], random gates
    from the gate and qubit distributions, then a Lamarckian parameter fit
    by an optimizer from the optimizer distribution."""
    n_gates = int(rng.integers(space.min_gates, space.max_gates + 1))
    gates = tuple(qc.random_gate(dists, rng) for _ in range(n_gates))
    hyp = Hypothesis(
        circuit=Circuit(space.n_qubits, gates),
        dim_s=space.dim_s,
        dim_e=space.dim_e,
        symbol_map=tuple(space.symbol_map),
        rho0=initial_state(space.rho0_kind, space.dim_s),
    )
    label = dists["optimizer"].sample(rng)
    budget = space.budget_for(hyp.circuit.num_parameters)
    return optimize_parameters(hyp, target, label, budget, c_q, c_e)


def _mutate_sweep(
    circuit: Circuit,
    rate: float,
    dists: dict,
    rng: np.random.Generator,
) -> Circuit:
    """Per-position Bernoulli mutations over one sweep of the gate list."""
    c = circuit
    pos = 0
    while pos < len(c.gates):
        if rng.random() < rate:
            m_type = dists["mutation_type"].sample(rng)
            before = len(c.gates)
            c = qc.mutate(c, pos, m_type, dists, rng)
            if len(c.gates) > before:
                pos += 2  # skip the freshly inserted gate
            elif len(c.gates) == before:
                pos += 1
            # deletion: the next original gate slid into pos
        else:
            pos += 1
    if not c.gates and rng.random() < rate:
        # an empty genotype would be an absorbing state; give it one insert try
        c = qc.mutate(c, 0, "ins", dists, rng)
    return c


def modify_hypothesis(
    hyp: Hypothesis,
    tau: float,
    dists: dict[str, AdaptiveDistribution],
    space: LearnSpace,
    target: list[DistributionTable] | TargetLevels,
    rng: np.random.Generator,
    c_q: float = 0.01,
    c_e: float = 0.01,
) -> Hypothesis:
    """Stochastic local search around a parent.

    Runs a random number of steps; each step mutates the current anchor with
    a drawn rate, refits parameters, tracks the best find, and moves the
    anchor on temperature acceptance (depth mode walks, breadth mode keeps the
    anchor pinned at the parent). A final temperature acceptance may hand back
    the last candidate instead of the best one.
    """
    best = hyp
    current = hyp
    candidate = hyp
    steps = dists["local_search_len"].sample(rng)
    for _ in range(steps):
        s_type = dists["local_search_type"].sample(rng)
        rate = dists["mutation_rate"].sample(rng)
        mutated = _mutate_sweep(current.circuit, rate, dists, rng)
        if mutated is current.circuit:
            candidate = current
        else:
            candidate = replace(hyp, circuit=mutated, fitness=None)
            label = dists["optimizer"].sample(rng)
            budget = space.budget_for(candidate.circuit.num_parameters)
            candidate = optimize_parameters(
                candidate, target, label, budget, c_q, c_e
            )
        if candidate.fitness > best.fitness:
            best = candidate
        accept_p = acceptance_probability(current.fitness, candidate.fitness, tau)
        if s_type == "depth" and rng.random() < accept_p:
            current = candidate
    if rng.random() < acceptance_probability(best.fitness, candidate.fitness, tau):
        best = candidate
    return best


# --- the evolutionary loop --------------------------------------------------------

@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    temperature: float
    children: int
    improved_children: int


@dataclass
class LearningReport:
    generations: list[GenerationStats]
    best_trace: list[float]
    bandit_traces: dict[str, list[list[float]]]
    best: Hypothesis
    target_reached: bool


def evolve(
    target: list[DistributionTable],
    space: LearnSpace,
    hp: HyperParams,
    seed: int = 0,
) -> LearningReport:
    """Adaptive evolutionary search for a hypothesis matching the target.

    The temperature cools with the progress counter and resets to maximum
    when the best fitness stagnates for prog_window generations; every
    stochastic operator distribution is bandit-updated each generation.
    """
    rng = np.random.default_rng(seed)
    dists = default_distributions(space)
    target = target_levels(sorted(target, key=lambda tab: tab.t)[: hp.n_max],
                           len(space.alphabet))

    pop = [
        random_hypothesis(space, target, rng, dists, hp.c_q, hp.c_e)
        for _ in range(hp.mu)
    ]
    pop = _ranked(pop)
    best = pop[0]
    best_trace = [best.fitness]
    bandit_traces: dict[str, list[list[float]]] = {
        name: [list(d.probs)] for name, d in dists.items()
    }
    stats: list[GenerationStats] = []
    g = 0
    t_progress = 0
    last_improvement = 0

    while best.fitness < hp.target_fitness and g < hp.g_max:
        tau = temperature(t_progress)
        sel_type = dists["selection_type"].sample(rng)
        sel_strength = dists["selection_strength"].sample(rng)
        parents = select_parents(pop, hp.lam, sel_type, sel_strength, rng)

        children = []
        improved_children = 0
        for parent in parents:
            # credit each child for its own draws only
            for d in dists.values():
                d.clear_draws()
            child = modify_hypothesis(
                parent, tau, dists, space, target, rng, hp.c_q, hp.c_e
            )
            children.append(child)
            if child.fitness > parent.fitness + 1e-15:
                improved_children += 1
                for d in dists.values():
                    d.credit_draws()

        surv_type = dists["survival_type"].sample(rng)
        surv_strength = dists["survival_strength"].sample(rng)
        pop = select_survivors(pop + children, hp.mu, surv_type, surv_strength, rng)
        g += 1

        gen_best = pop[0]
        if gen_best.fitness > best.fitness + 1e-15:
            best = gen_best
            last_improvement = g
            dists["selection_type"].reward_value(sel_type)
            dists["selection_strength"].reward_value(sel_strength)
            dists["survival_type"].reward_value(surv_type)
            dists["survival_strength"].reward_value(surv_strength)
        best_trace.append(best.fitness)

        if g - last_improvement >= hp.prog_window:
            t_progress = 0
        else:
            t_progress += 1

        for name, d in dists.items():
            dists[name] = bandit_update(d, hp.gamma_bandit)
            bandit_traces[name].append(list(dists[name].probs))

        stats.append(
            GenerationStats(
                generation=g,
                best_fitness=best.fitness,
                mean_fitness=float(np.mean([h.fitness for h in pop])),
                temperature=tau,
                children=len(children),
                improved_children=improved_children,
            )
        )

    return LearningReport(
        generations=stats,
        best_trace=best_trace,
        bandit_traces=bandit_traces,
        best=best,
        target_reached=best.fitness >= hp.target_fitness,
    )


# --- ansatz training ---------------------------------------------------------------

def ansatz_cost(
    target: list[tuple[Sequence, float]], current: list[tuple[Sequence, float]]
) -> float:
    """Sum of length-weighted squared errors over an aligned support."""
    if len(target) != len(current):
        raise ValueError("supports are not aligned")
    acc = 0.0
    for (seq_t, p_t), (seq_c, p_c) in zip(target, current):
        if tuple(seq_t) != tuple(seq_c):
            raise ValueError("supports are not aligned")
        acc += len(seq_t) * (p_t - p_c) ** 2
    return acc


@dataclass
class TrainResult:
    params: np.ndarray
    cost: float
    trace: list[float]
    evaluations: int


def ansatz_objective(spec: AnsatzSpec, target: list[tuple[Sequence, float]],
                     budget: int = 4000) -> ObjectiveSpec:
    """The length-weighted squared error of the template's sequence
    probabilities against the target (``ChannelEngine.objective``). A length
    whose table would pass ``lang.TABLE_BUDGET`` is refused."""
    lengths = sorted({len(seq) for seq, _ in target})
    if not lengths or lengths[0] == 0:
        raise ValueError("target support must be nonempty sequences")
    engine = spec.engine()
    m = engine.n_symbols
    check_table_budget(m, lengths[-1])
    for seq, _ in target:
        bad = [a for a in seq if not 0 <= a < m]
        if bad:
            raise ValueError(f"symbol index {bad[0]} of {seq} out of range "
                             f"for {m} symbols")
    # each supported sequence's position in the concatenated lex-ordered
    # levels, its reference probability and its length as the weight
    offset = dict(zip(lengths, np.cumsum([0] + [m**t for t in lengths[:-1]])))
    at = np.array([offset[len(seq)] + sum(a * m**i for i, a in
                                          enumerate(reversed(seq)))
                   for seq, _ in target], dtype=int)
    refs = np.array([p for _, p in target], dtype=float)
    weights = np.array([len(seq) for seq, _ in target], dtype=float)

    # a target that lists every sequence in order reads the levels as they are
    gather = not np.array_equal(at, np.arange(sum(m**t for t in lengths)))

    def value(probs):
        gap = (probs.take(at, axis=-1) if gather else probs) - refs
        return np.add.reduce(weights * gap * gap, axis=-1)

    return engine.objective(lengths, value, budget)


def _train_result(res) -> TrainResult:
    return TrainResult(params=res.best_params, cost=res.best_value,
                       trace=res.trace, evaluations=res.evaluations)


def train_ansatz(
    spec: AnsatzSpec,
    target: list[tuple[Sequence, float]],
    optimizer_label: str = "nm",
    x0=None,
    budget: int = 4000,
    rng: Optional[np.random.Generator] = None,
) -> TrainResult:
    """Fit the template's angles to the target sequence probabilities by
    minimizing the length-weighted squared error."""
    rng = rng or np.random.default_rng(0)
    obj = ansatz_objective(spec, target, budget)
    if x0 is None:
        x0 = rng.uniform(0.0, 2.0 * math.pi, size=obj.arity)
    res = get_optimizer(optimizer_label)(obj, np.asarray(x0, dtype=float))
    return _train_result(res)


def train_ansatz_restarts(
    spec: AnsatzSpec,
    target: list[tuple[Sequence, float]],
    optimizer_label: str = "nm",
    restarts: int = 10,
    budget: int = 4000,
    seed: int = 0,
) -> TrainResult:
    """Best result over seeded random restarts (the first with the lowest
    cost), fitted in lockstep: every tick evaluates the asks of all
    unfinished restarts in one objective call."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    obj = ansatz_objective(spec, target, budget)
    starts = np.array([
        np.random.default_rng(np.random.SeedSequence([seed, r])).uniform(
            0.0, 2.0 * math.pi, size=obj.arity)
        for r in range(restarts)
    ]).reshape(restarts, obj.arity)
    res = get_optimizer(optimizer_label)(obj, starts)
    return _train_result(res.fits[res.best_fit])
