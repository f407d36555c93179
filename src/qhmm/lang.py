"""Symbol sequences, per-length distribution tables, Hankel matrices and
divergence measures between stochastic process languages.

Sequences are tuples of alphabet indices; rendering to/from strings uses the
alphabet labels (single-character labels assumed for file round trips).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import numerical_rank, next_power_of_two

Sequence = tuple[int, ...]

HANKEL_MAX_SIDE = 512
TABLE_BUDGET = 4096  # most sequences in one exact distribution table


@dataclass
class DistributionTable:
    """Probabilities of all observed sequences of one fixed length."""

    t: int
    probs: dict[Sequence, float] = field(default_factory=dict)

    def prob(self, seq: Sequence) -> float:
        return self.probs.get(tuple(seq), 0.0)

    def total(self) -> float:
        return math.fsum(self.probs.values())

    def items(self):
        return self.probs.items()

    def __len__(self):
        return len(self.probs)


@dataclass
class HankelMatrix:
    prefixes: list[Sequence]
    suffixes: list[Sequence]
    values: np.ndarray


def sequences_of_length(m: int, t: int) -> list[Sequence]:
    """All length-t sequences over an m-symbol alphabet in lexicographic order."""
    return [tuple(s) for s in product(range(m), repeat=t)]


def enumerate_sequences(m: int, max_len: int) -> list[Sequence]:
    """Sequences of length 0..max_len, ordered by length then lexicographically."""
    out: list[Sequence] = []
    for t in range(max_len + 1):
        out.extend(sequences_of_length(m, t))
    return out


def render_sequence(seq: Sequence, alphabet: Iterable[str]) -> str:
    labels = list(alphabet)
    return "".join(labels[i] for i in seq)


def parse_sequence(text: str, alphabet: Iterable[str]) -> Sequence:
    index = {label: i for i, label in enumerate(alphabet)}
    try:
        return tuple(index[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"symbol {exc.args[0]!r} not in alphabet") from None


def lex_codes(samples: np.ndarray, base: int) -> np.ndarray:
    """One integer per row of a (n, t) array of symbol indices below
    ``base``, in the rows' lex order: Horner's rule over the columns. Codes
    are int64 while base**t fits, Python ints beyond."""
    t = samples.shape[1]
    codes = np.zeros(len(samples), dtype=np.int64 if base**t < 2**63 else object)
    for col in samples.T:
        codes *= base
        codes += col
    return codes


def empirical_table(samples: np.ndarray, t: int) -> DistributionTable:
    """Empirical frequencies of the rows of a (n, t) array of symbol indices,
    such as ``models.simulate``'s shots or a corpus's windows: counted by lex
    code, with tuple keys built for the distinct rows only. Counts are exact
    integers; no rows give an empty table."""
    base = int(samples.max()) + 1 if samples.size else 1
    codes, counts = np.unique(lex_codes(samples, base), return_counts=True)
    rows = np.empty((len(codes), samples.shape[1]), dtype=samples.dtype)
    for j in reversed(range(rows.shape[1])):
        codes, rows[:, j] = codes // base, codes % base
    n = len(samples)
    return DistributionTable(t=t, probs={
        s: c / n for s, c in zip(map(tuple, rows.tolist()), counts.tolist())})


def table_items(tables: dict[int, DistributionTable]) -> list[tuple[Sequence, float]]:
    """The (sequence, probability) pairs listed in ``tables``, by length,
    then in lex order within a length: the target of an ansatz fit."""
    return [(seq, tables[t].probs[seq])
            for t in sorted(tables) for seq in sorted(tables[t].probs)]


def forward_probs(ops, init, final, lengths) -> list[np.ndarray]:
    """Lex-ordered probability vectors of an observable-operator model.

    ``ops`` stacks one (D, D) operator per symbol; the probability of
    a_1 ... a_t is final . ops[a_t] ... ops[a_1] init. Classical models pass
    their observable operators, x0 and a vector of ones; quantum models pass
    their real per-symbol transfer matrices on Hermitian coordinates
    (``channels.real_transfer_matrix``), the coordinates of rho0 and the
    trace vector vec(I).
    Returns one vector of m**t entries per entry of ``lengths``, in order.
    A (..., m, D, D) operator stack gives (..., m**t) vectors, each row equal
    bit for bit to its operators' vectors alone. The operators are laid out
    once as the augmented step of ``forward_plan``, which runs the
    recursion.
    """
    ops = np.asarray(ops)
    m, d = ops.shape[-3], ops.shape[-1]
    # step[..., j, a, i] = ops[..., a, i, j], then effect a at i = D
    step = ops.swapaxes(-1, -2).swapaxes(-2, -3)
    effects = np.asarray(final) @ ops  # (..., m, D)
    step = np.concatenate([step, effects.swapaxes(-1, -2)[..., None]], axis=-1)
    return forward_plan(m, init, final, lengths)(
        step.reshape(step.shape[:-2] + (m * (d + 1),)))


def forward_plan(m: int, init, final, lengths) -> Callable:
    """The recursion behind ``forward_probs``, bound once for m symbols, the
    (D,) ``init`` and ``final`` and the ``lengths``: a function of the
    operators of the m symbols and their effects laid out as one augmented
    (..., D, m*(D + 1)) step, symbol a's D operator columns,
    step[..., j, a*(D + 1) + i] = ops[a][i, j], then its effect column,
    step[..., j, a*(D + 1) + D] = (final . ops[a])[j], that returns one
    lex-ordered probability vector per entry of ``lengths``, in order.

    One matmul of a level's states against the augmented step gives, read as
    (m**t, D + 1) rows, the next level's states and that level's
    probabilities, every symbol at once, both as views of the product: no
    operator chain is re-multiplied and no level is copied. The last level
    takes the effect columns alone, and its states are never expanded.
    ``lengths`` is any iterable of lengths, in any order and with repeats
    allowed, copied when the plan is built. The plan holds every level's
    row shape, whether it is read, and where each read level goes in the
    output; a call only multiplies, so a (P,) point pays for no shape logic.
    """
    lengths = tuple(lengths)
    if not lengths:
        return lambda step: []
    top = max(lengths)
    if min(lengths) < 0:
        raise ValueError("sequence lengths must be >= 0")
    init = np.asarray(init)[..., None, :]  # (..., m**t, D) at level t
    d = init.shape[-1]
    # the empty sequence's probability, once per operator stack
    empty = (init @ final).real if 0 in lengths else None
    # per expanded level, its rows' shape and whether its probabilities
    # are read; the top level's probabilities take the effect columns
    expanded = [((m**t, d + 1), t in lengths) for t in range(1, top)]
    last, effects = (m**top,), slice(d, None, d + 1)
    at = {t: i for i, t in enumerate(sorted(set(lengths)))}
    order = [at[t] for t in lengths]  # each length's place among the read
    if order == list(range(len(order))):  # sorted distinct lengths
        order = None

    def run(step):
        lead, states, levels = step.shape[:-2], init, []
        # a point's products are of matrices: np.dot is np.matmul's BLAS
        # product there, with less dispatch
        product = np.matmul if lead else np.dot
        if empty is not None:
            levels.append(np.zeros(lead + (1,)) + empty)
        for shape, read in expanded:
            rows = product(states, step).reshape(lead + shape)
            if read:
                levels.append(rows[..., d].real)
            states = rows[..., :d]
        if top:
            levels.append(product(states, np.ascontiguousarray(step[..., effects]))
                          .reshape(lead + last).real)
        return levels if order is None else [levels[i] for i in order]

    return run


def check_table_budget(m: int, t: int) -> None:
    """Refuse a table of all m**t sequences larger than TABLE_BUDGET."""
    if m**t > TABLE_BUDGET:
        raise ValueError(f"table of size {m}^{t} exceeds the supported budget "
                         f"of {TABLE_BUDGET} sequences")


def exact_tables(ops, init, final, lengths) -> dict[int, DistributionTable]:
    """Exact tables for several lengths from one ``forward_probs`` pass over
    one operator per symbol; rounding is clipped into [0, 1], and the empty
    sequence has probability 1."""
    lengths = sorted(set(int(t) for t in lengths))
    if not lengths:
        return {}
    m = len(ops)
    check_table_budget(m, max(lengths))
    vecs = forward_probs(ops, init, final, lengths)
    tables = {
        t: DistributionTable(t=t, probs={
            s: min(max(p, 0.0), 1.0)
            for s, p in zip(sequences_of_length(m, t), vec.tolist())
        })
        for t, vec in zip(lengths, vecs)
    }
    if 0 in tables:
        tables[0] = DistributionTable(t=0, probs={(): 1.0})
    return tables


def check_hankel_sides(m: int, max_prefix_len: int, max_suffix_len: int):
    """Raise ValueError if a side would list more than HANKEL_MAX_SIDE
    sequences."""
    rows, cols = (sum(m**t for t in range(n + 1))
                  for n in (max_prefix_len, max_suffix_len))
    if max(rows, cols) > HANKEL_MAX_SIDE:
        raise ValueError(f"Hankel budget exceeded: {rows} x {cols} "
                         f"(limit {HANKEL_MAX_SIDE} per side)")


def hankel(
    f: Callable[[Sequence], float],
    max_prefix_len: int,
    max_suffix_len: int,
    n_symbols: int,
) -> HankelMatrix:
    """H[p, s] = f(ps), one call per cell, axes ordered length-then-lex."""
    check_hankel_sides(n_symbols, max_prefix_len, max_suffix_len)
    prefixes = enumerate_sequences(n_symbols, max_prefix_len)
    suffixes = enumerate_sequences(n_symbols, max_suffix_len)
    values = np.empty((len(prefixes), len(suffixes)))
    for i, p in enumerate(prefixes):
        for j, s in enumerate(suffixes):
            values[i, j] = f(p + s)
    return HankelMatrix(prefixes=prefixes, suffixes=suffixes, values=values)


def hankel_blocks(levels, max_prefix_len: int, max_suffix_len: int,
                  m: int) -> HankelMatrix:
    """The matrix of ``hankel`` from ``levels(lengths)``, which returns one
    lex-ordered probability vector per length, as does
    ``partial(forward_probs, ops, init, final)``. Since lex(ps) = lex(p) *
    m**j + lex(s), the block for prefix length i and suffix length j is the
    length-(i + j) vector reshaped to (m**i, m**j). The side budget is checked
    before ``levels`` is called; with ``forward_probs`` the deepest expanded
    level then holds m**(P+S-1) <= 2**15 rows of N**2 + 1 float64 entries,
    (N**2 + 1) x 0.25 MiB, and every expanded level, whose product the
    probabilities view, at most twice that."""
    check_hankel_sides(m, max_prefix_len, max_suffix_len)
    vecs = levels(list(range(max_prefix_len + max_suffix_len + 1)))
    values = np.block([[vecs[i + j].reshape(m**i, m**j)
                        for j in range(max_suffix_len + 1)]
                       for i in range(max_prefix_len + 1)])
    return HankelMatrix(enumerate_sequences(m, max_prefix_len),
                        enumerate_sequences(m, max_suffix_len), values)


def table_vector(table: DistributionTable, m: int) -> np.ndarray:
    """Probabilities of all m**t sequences in lex order, unlisted ones 0."""
    return np.array([table.prob(s) for s in sequences_of_length(m, table.t)])


def hankel_from_tables(tables: dict[int, DistributionTable],
                       max_prefix_len: int, max_suffix_len: int,
                       n_symbols: int) -> HankelMatrix:
    """Hankel matrix read off a finite set of per-length tables (f(eps) = 1)."""
    max_needed = max_prefix_len + max_suffix_len
    missing = [t for t in range(1, max_needed + 1) if t not in tables]
    if missing:
        raise ValueError(f"tables missing for lengths {missing}")
    tables = {**tables, 0: DistributionTable(t=0, probs={(): 1.0})}
    return hankel_blocks(lambda ls: [table_vector(tables[t], n_symbols) for t in ls],
                         max_prefix_len, max_suffix_len, n_symbols)


@dataclass
class OrderEstimate:
    rank: int
    classical_order: int
    quantum_dim: int


def order_estimate(h: HankelMatrix, rel_tol: float = 1e-7) -> OrderEstimate:
    """Hankel rank, the implied minimal classical order, and the qubit-ready
    quantum dimension ceil(sqrt(rank)) rounded up to a power of two."""
    r = numerical_rank(h.values.astype(np.complex128), rel_tol)
    qdim = next_power_of_two(math.ceil(math.sqrt(r))) if r > 0 else 1
    return OrderEstimate(rank=r, classical_order=r, quantum_dim=qdim)


def delta(p_l: float, p_q: float) -> float:
    """Pointwise probability divergence |pL - pQ|."""
    return abs(p_l - p_q)


def divergence_max(d_l: DistributionTable, d_q: DistributionTable) -> float:
    """Max over the union of supports; missing keys read as 0."""
    if d_l.t != d_q.t:
        raise ValueError("tables must cover the same sequence length")
    keys = set(d_l.probs) | set(d_q.probs)
    if not keys:
        return 0.0
    return max(delta(d_l.prob(k), d_q.prob(k)) for k in keys)


def divergence_avg(
    target: list[DistributionTable], hyp: list[DistributionTable]
) -> float:
    """Mean of the per-length max divergences over aligned table lists."""
    if len(target) != len(hyp):
        raise ValueError("table lists must align per length")
    if not target:
        return 0.0
    return math.fsum(divergence_max(a, b) for a, b in zip(target, hyp)) / len(target)


def write_tables_csv(path, tables: Iterable[DistributionTable], alphabet) -> None:
    """CSV lines `sequence,probability` grouped by length (lex within length)."""
    with open(path, "w") as fh:
        fh.write("sequence,probability\n")
        for table in tables:
            for seq in sorted(table.probs):
                fh.write(f"{render_sequence(seq, alphabet)},{table.probs[seq]:.12g}\n")


def read_tables_csv(path):
    """Read `sequence,probability` lines into per-length tables.

    Returns (alphabet, {length: DistributionTable}); the alphabet is the
    symbols present, sorted by label. Every probability must lie in [0, 1],
    no sequence may be listed twice, and every length must total 1 within
    1e-6.
    """
    rows: list[tuple[str, float]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.lower().startswith("sequence,"):
                continue
            text, _, prob = line.rpartition(",")
            if not 0.0 <= float(prob) <= 1.0:  # also rejects nan
                raise ValueError(f"probability {prob} of {text!r} is not in [0, 1]")
            rows.append((text, float(prob)))
    alphabet = sorted({ch for text, _ in rows for ch in text}) or ["0", "1"]
    grouped: dict[int, dict[Sequence, float]] = {}
    for text, prob in rows:
        seq = parse_sequence(text, alphabet)
        probs = grouped.setdefault(len(seq), {})
        if seq in probs:
            raise ValueError(f"sequence {text!r} is listed twice")
        probs[seq] = prob
    tables = {
        t: DistributionTable(t=t, probs=probs)
        for t, probs in sorted(grouped.items())
        if t > 0
    }
    for t, table in tables.items():
        if abs(table.total() - 1.0) > 1e-6:
            raise ValueError(f"length-{t} probabilities total {table.total():.12g}, not 1")
    return alphabet, tables


def read_corpus(path):
    """One observed sequence per line; returns (alphabet, list of sequences),
    the alphabet being the symbols present, sorted by label."""
    lines = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                lines.append(line)
    alphabet = sorted({ch for line in lines for ch in line})
    return alphabet, [parse_sequence(line, alphabet) for line in lines]


def tables_from_corpus(corpus: list[Sequence], max_len: int) -> dict[int, DistributionTable]:
    """Sliding-window empirical tables for lengths 1..max_len: every length-t
    window of every corpus sequence, with multiplicity, stacked as one (n, t)
    array and counted by ``empirical_table``. A length that no sequence
    reaches gets no table."""
    seqs = [np.asarray(seq, dtype=np.intp) for seq in corpus]
    out: dict[int, DistributionTable] = {}
    for t in range(1, max_len + 1):
        windows = [sliding_window_view(seq, t) for seq in seqs if len(seq) >= t]
        if windows:
            out[t] = empirical_table(np.concatenate(windows), t)
    return out
