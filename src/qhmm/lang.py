"""Symbol sequences, per-length distribution tables, Hankel matrices and
divergence measures between stochastic process languages.

Sequences are tuples of alphabet indices; rendering to/from strings uses the
alphabet labels (single-character labels assumed for file round trips). A
distribution table holds no Python object per sequence: the sorted lex codes
of its listed sequences and their float64 probabilities, so an exact table is
the lex-ordered vector of ``forward_plan`` as it comes, clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Callable, Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import numerical_rank, next_power_of_two

Sequence = tuple[int, ...]

HANKEL_MAX_SIDE = 512
TABLE_BUDGET = 4096  # most sequences in one exact distribution table


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """Probabilities of the listed sequences of one length t over m symbols:
    their sorted ``lex_codes`` and one float64 each. An exact table lists all
    m**t sequences, a corpus, simulate or CSV table only those it read; an
    unlisted sequence has probability 0."""

    t: int
    m: int
    codes: np.ndarray
    values: np.ndarray

    @classmethod
    def from_items(cls, t: int, m: int, items) -> DistributionTable:
        """The table of (sequence, probability) pairs of distinct sequences,
        given in any order; a symbol outside 0..m-1 is refused."""
        pairs = sorted((tuple(seq), p) for seq, p in items)
        rows = np.array([seq for seq, _ in pairs], dtype=np.intp).reshape(len(pairs), t)
        if rows.size and not 0 <= rows.min() <= rows.max() < m:
            raise ValueError(f"a sequence has a symbol outside 0..{m - 1}")
        return cls(t, m, lex_codes(rows, m), np.array([p for _, p in pairs], dtype=float))

    def rows(self) -> np.ndarray:
        """The listed sequences as a (len, t) array of symbols, in lex order."""
        codes, rows = self.codes, np.empty((len(self), self.t), dtype=np.intp)
        for j in reversed(range(self.t)):
            codes, rows[:, j] = codes // self.m, codes % self.m
        return rows

    def coded(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The codes over m symbols and the probabilities of the listed
        sequences whose symbols are all below m."""
        if m == self.m:
            return self.codes, self.values
        rows = self.rows()
        keep = (rows < m).all(axis=1)
        return lex_codes(rows[keep], m), self.values[keep]

    def vector(self, m: int) -> np.ndarray:
        """Probabilities of all m**t sequences over m symbols in lex order."""
        codes, values = self.coded(m)
        out = np.zeros(m**self.t)
        out[codes] = values
        return out

    def prob(self, seq: Sequence) -> float:
        """0 for an unlisted sequence, one of another length or one with a
        symbol outside 0..m-1."""
        seq = tuple(seq)
        if len(seq) != self.t or not all(a in range(self.m) for a in seq):
            return 0.0
        code = reduce(lambda c, a: c * self.m + int(a), seq, 0)
        i = np.searchsorted(self.codes, code)
        return float(self.values[i]) if code in self.codes[i:i + 1] else 0.0

    def total(self) -> float:
        return math.fsum(self.values.tolist())

    def items(self):
        """The (sequence, probability) pairs in lex order, each sequence's
        tuple built as it is reached."""
        return zip((tuple(row.tolist()) for row in self.rows()), self.values.tolist())

    def __len__(self):
        return len(self.values)


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
    such as ``models.simulate``'s shots or a corpus's windows, counted by lex
    code over one more symbol than the largest present. Counts are exact
    integers; no rows give an empty table."""
    base = int(samples.max()) + 1 if samples.size else 1
    codes, counts = np.unique(lex_codes(samples, base), return_counts=True)
    return DistributionTable(t, base, codes, counts / len(samples))


def table_items(tables: dict[int, DistributionTable]) -> list[tuple[Sequence, float]]:
    """The (sequence, probability) pairs listed in ``tables``, by length,
    then in lex order within a length: the target of an ansatz fit."""
    return [pair for t in sorted(tables) for pair in tables[t].items()]


def forward_probs(ops, init, final, lengths) -> list[np.ndarray]:
    """Lex-ordered probability vectors of an observable-operator model.

    ``ops`` stacks one real (D, D) operator per symbol; the probability of
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
    # each symbol's operator rows, then its effect row final . ops[a], and
    # step[..., j, a*(D + 1) + i] = rows[..., a, i, j]
    rows = np.concatenate([ops, (np.asarray(final) @ ops)[..., None, :]], axis=-2)
    return forward_plan(m, init, final, lengths)(
        np.moveaxis(rows, -1, -3).reshape(ops.shape[:-3] + (d, m * (d + 1))))


def forward_plan(m: int, init, final, lengths) -> Callable:
    """The recursion behind ``forward_probs``, bound once for m symbols, the
    (D,) ``init`` and ``final`` and the ``lengths``: a function of the
    operators of the m symbols and their effects laid out as one augmented
    (..., D, m*(D + 1)) float64 step, symbol a's D operator columns,
    step[..., j, a*(D + 1) + i] = ops[a][i, j], then its effect column,
    step[..., j, a*(D + 1) + D] = (final . ops[a])[j], that returns one
    lex-ordered probability vector per entry of ``lengths``, in order.

    One matmul per level t of the level below's states against the step
    gives, read as (m**t, D + 1) rows, its probabilities in column D and its
    states in columns :D, every symbol at once, both as views of the
    product: no operator chain is re-multiplied, no level is copied, and a
    length gets the same products, so the same bits, whatever else is asked.
    ``lengths`` is any iterable of lengths, in any order and with repeats
    allowed, copied when the plan is built. The plan holds every level's
    row shape, whether it is read, and where each read level goes in the
    output; a call only multiplies, so a (P,) point pays for no shape logic.
    """
    lengths = tuple(lengths)
    if min(lengths, default=0) < 0:
        raise ValueError("sequence lengths must be >= 0")
    init = np.asarray(init)[..., None, :]  # (..., m**t, D) at level t
    d = init.shape[-1]
    # the empty sequence's probability, once per operator stack
    empty = init @ final if 0 in lengths else None
    # per level, its rows' shape and whether its probabilities are read
    per_level = [((m**t, d + 1), t in lengths)
                 for t in range(1, max(lengths, default=0) + 1)]
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
        for shape, read in per_level:
            rows = product(states, step).reshape(lead + shape)
            if read:
                levels.append(rows[..., d])
            states = rows[..., :d]
        return levels if order is None else [levels[i] for i in order]

    return run


def check_table_budget(m: int, t: int) -> None:
    """Refuse a table of all m**t sequences larger than TABLE_BUDGET."""
    if m**t > TABLE_BUDGET:
        raise ValueError(f"table of size {m}^{t} exceeds the supported budget "
                         f"of {TABLE_BUDGET} sequences")


def exact_tables(ops, init, final, lengths) -> dict[int, DistributionTable]:
    """Exact tables for several lengths from one ``forward_probs`` pass over
    one operator per symbol, each keeping its lex-ordered vector, clipped
    into [0, 1] with the values of min(max(p, 0), 1), signed zeros and NaN
    included; the empty sequence has probability 1."""
    lengths = sorted(set(int(t) for t in lengths))
    m = len(ops)
    check_table_budget(m, max(lengths, default=0))
    return {t: DistributionTable(t, m, np.arange(m**t),
                                 np.clip(vec, 0.0, 1.0) if t else np.ones(1))
            for t, vec in zip(lengths, forward_probs(ops, init, final, lengths))}


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
    before ``levels`` is called; with ``forward_probs`` of (D, D) operators
    the top level then holds m**(P+S) <= 511**2 rows (2**16 at m = 2) of
    D + 1 float64 entries, (D + 1) x 1.99 MiB, and all levels, whose
    products the probabilities view, at most (D + 1) x 2.0 MiB."""
    check_hankel_sides(m, max_prefix_len, max_suffix_len)
    vecs = levels(list(range(max_prefix_len + max_suffix_len + 1)))
    values = np.block([[vecs[i + j].reshape(m**i, m**j)
                        for j in range(max_suffix_len + 1)]
                       for i in range(max_prefix_len + 1)])
    return HankelMatrix(enumerate_sequences(m, max_prefix_len),
                        enumerate_sequences(m, max_suffix_len), values)


def hankel_from_tables(tables: dict[int, DistributionTable],
                       max_prefix_len: int, max_suffix_len: int,
                       n_symbols: int) -> HankelMatrix:
    """Hankel matrix read off a finite set of per-length tables (f(eps) = 1)."""
    max_needed = max_prefix_len + max_suffix_len
    missing = [t for t in range(1, max_needed + 1) if t not in tables]
    if missing:
        raise ValueError(f"tables missing for lengths {missing}")
    return hankel_blocks(lambda ls: [tables[t].vector(n_symbols) if t else np.ones(1)
                                     for t in ls],
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
    """Max over the union of the listed sequences; an unlisted one reads 0."""
    if d_l.t != d_q.t:
        raise ValueError("tables must cover the same sequence length")
    m = max(d_l.m, d_q.m)
    (codes_l, p_l), (codes_q, p_q) = d_l.coded(m), d_q.coded(m)
    # each code's slot among both tables' sorted codes: one listed in both
    # takes the same slot in both rows, and the slot after it reads 0 in both
    probs = np.zeros((2, len(codes_l) + len(codes_q)))
    probs[0, np.arange(len(codes_l)) + np.searchsorted(codes_q, codes_l)] = p_l
    probs[1, np.arange(len(codes_q)) + np.searchsorted(codes_l, codes_q)] = p_q
    return float(delta(*probs).max(initial=0.0))


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
    """CSV lines `sequence,probability` grouped by length, each table's
    listed sequences in lex order, probabilities rendered with %.12g."""
    labels = np.array(list(alphabet), dtype=object)
    with open(path, "w") as fh:
        fh.write("sequence,probability\n")
        for table in tables:
            fh.writelines(f"{''.join(text)},{p:.12g}\n" for text, p in
                          zip(labels[table.rows()].tolist(), table.values.tolist()))


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
    grouped: dict[int, list[tuple[Sequence, float]]] = {}
    seen: set[str] = set()
    for text, prob in rows:
        if text in seen:
            raise ValueError(f"sequence {text!r} is listed twice")
        seen.add(text)
        grouped.setdefault(len(text), []).append((parse_sequence(text, alphabet), prob))
    tables = {
        t: DistributionTable.from_items(t, len(alphabet), pairs)
        for t, pairs in sorted(grouped.items())
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
