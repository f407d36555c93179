import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qhmm import classical, lang, models
from qhmm.cli import _model_operators
from qhmm.lang import (
    DistributionTable,
    delta,
    divergence_avg,
    divergence_max,
    enumerate_sequences,
    forward_probs,
    hankel,
    hankel_blocks,
    hankel_from_tables,
    order_estimate,
    parse_sequence,
    read_corpus,
    read_tables_csv,
    render_sequence,
    sequences_of_length,
    tables_from_corpus,
    write_tables_csv,
)

from oracles import (
    DictTable,
    dict_divergence_avg,
    dict_divergence_max,
    dict_exact_tables,
    dict_read_tables_csv,
    dict_write_tables_csv,
    empirical_estimate,
    forward_levels,
    kl_divergence,
    table,
    random_channel,
    random_density,
    total_variation,
)


def test_sequence_rendering_round_trip():
    alphabet = ["0", "1", "2", "3"]
    seq = (0, 3, 1)
    assert render_sequence(seq, alphabet) == "031"
    assert parse_sequence("031", alphabet) == seq
    with pytest.raises(ValueError):
        parse_sequence("07", alphabet)


def test_enumerate_sequences_ordering():
    seqs = enumerate_sequences(2, 2)
    assert seqs == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_tables_from_corpus_windows():
    tables = tables_from_corpus([(0, 1, 0, 1)], 2)
    assert list(tables[2].items()) == [((0, 1), 2 / 3), ((1, 0), 1 / 3)]


def test_tables_from_corpus_too_long():
    assert sorted(tables_from_corpus([(0, 1)], 5)) == [1, 2]


def test_tables_from_corpus_identity():
    corpus = [(0, 1), (1, 1), (0, 0)]
    assert list(tables_from_corpus(corpus, 2)[2].items()) == [
        (s, 1 / 3) for s in sorted(corpus)]


def test_empirical_estimate_uniform():
    windows = [(0,), (1,), (0,), (1,)]
    table = empirical_estimate(windows, 1)
    assert table.prob((0,)) == 0.5 and table.prob((1,)) == 0.5
    assert abs(table.total() - 1.0) < 1e-15


def test_empirical_estimate_point_mass():
    table = empirical_estimate([(1, 1)] * 7, 2)
    assert table.prob((1, 1)) == 1.0


def test_empirical_estimate_empty():
    with pytest.raises(ValueError):
        empirical_estimate([], 1)


def test_empirical_estimate_converges(market):
    n = 20000
    seqs = classical.sample(market, 3, n, seed=8)
    estimate = empirical_estimate(seqs, 3)
    exact = classical.distribution(market, 3)
    assert divergence_max(exact, table(3, 2, estimate.probs)) < 3 * 0.5 / math.sqrt(n)


def test_forward_probs_order_and_empty_length(market):
    ops = np.stack(list(classical.observable_operators(market).values()))
    vecs = forward_probs(ops, market.x0, np.ones(market.n), [3, 0, 1])
    assert [len(v) for v in vecs] == [8, 1, 2]
    for t, vec in zip([3, 0, 1], vecs):
        for seq, p in zip(sequences_of_length(2, t), vec):
            assert abs(p - classical.sequence_probability(market, seq)) < 1e-15
    assert forward_probs(ops, market.x0, np.ones(market.n), []) == []
    with pytest.raises(ValueError):
        forward_probs(ops, market.x0, np.ones(market.n), [-1])


@pytest.mark.parametrize("seed", range(10))
def test_exact_tables_stay_in_unit_interval(seed, market):
    # a one-symbol model gives every length the probability 1, which the
    # recursion can round to 1.0000000000000002, and the quantized market's
    # length-0 entry tr(rho0) rounded so too; every entry is clipped into
    # [0, 1], and the empty sequence has probability 1 exactly
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    a = rng.random((n, n))
    x0 = rng.random(n)
    one = classical.ClassicalHmm(alphabet=["a"], A=a / a.sum(axis=0),
                                 B=np.ones((1, n)), x0=x0 / x0.sum())
    lengths = range(7)
    for tables in (classical.distribution_tables(one, lengths),
                   models.distribution_tables(models.quantize_classical(one),
                                              lengths),
                   models.distribution_tables(models.quantize_classical(market),
                                              lengths)):
        assert list(tables[0].items()) == [((), 1.0)]
        assert all(0.0 <= p <= 1.0 for tab in tables.values()
                   for _, p in tab.items())
    assert list(classical.distribution(one, 0).items()) == [((), 1.0)]


def _real_forward_inputs(lengths, lead):
    """Real operators, step, init and final for 3 symbols and D = 4."""
    rng = np.random.default_rng(sum(lengths) + len(lead))
    m, d = 3, 4
    return (m, rng.normal(size=lead + (m, d, d)),
            rng.normal(size=lead + (d, m * (d + 1))),
            rng.normal(size=d), rng.normal(size=d))


@pytest.mark.parametrize("lengths", [[2, 0, 2, 1], [3, 3], [0, 0], [1, 3, 0, 2, 1]])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["point", "block"])
def test_forward_levels_repeated_unsorted_and_zero_lengths(lengths, lead):
    # a repeated, unsorted or zero length changes no bit: each vector is the
    # one its length gets among the sorted distinct lengths and the one it
    # gets alone, and a stack's rows are their operators' vectors alone
    m, ops, step, init, final = _real_forward_inputs(lengths, lead)
    distinct = sorted(set(lengths))
    for run, stack in ((forward_probs, ops), (forward_levels, step)):
        vecs = run(stack, init, final, lengths)
        assert [v.shape for v in vecs] == [lead + (m**t,) for t in lengths]
        by_len = dict(zip(distinct, run(stack, init, final, distinct)))
        for t, vec in zip(lengths, vecs):
            assert np.array_equal(vec, by_len[t])
            assert np.array_equal(vec, run(stack, init, final, [t])[0])
        for i in range(lead[0] if lead else 0):
            rows = run(stack[i], init, final, lengths)
            assert all(np.array_equal(v[i], w) for v, w in zip(vecs, rows))


def _forward_probs_before_plan(ops, init, final, lengths):
    """``forward_probs`` as it was before ``forward_plan``: the same layout,
    then the recursion worked out from ``lengths`` on every call."""
    ops = np.asarray(ops)
    m, d = ops.shape[-3], ops.shape[-1]
    step = ops.swapaxes(-1, -2).swapaxes(-2, -3)
    effects = np.asarray(final) @ ops
    step = np.concatenate([step, effects.swapaxes(-1, -2)[..., None]], axis=-1)
    return _forward_levels_before_plan(
        step.reshape(step.shape[:-2] + (m * (d + 1),)), init, final, lengths)


def _forward_levels_before_plan(step, init, final, lengths):
    if not lengths:
        return []
    top, low = max(lengths), min(lengths)
    lead, d = step.shape[:-2], step.shape[-2]
    m = step.shape[-1] // (d + 1)
    states = np.asarray(init)[..., None, :]
    levels = [None] * (top + 1)
    if not low:
        levels[0] = np.zeros(lead + (1,)) + states @ final
    for t in range(1, top + 1):
        rows = (states @ step).reshape(lead + (m**t, d + 1))
        if t in lengths:
            levels[t] = rows[..., d]
        states = rows[..., :d]
    return [levels[t] for t in lengths]


@pytest.mark.parametrize("lengths", [[2, 0, 2, 1], [3, 3], [0, 0], [1, 3, 0, 2, 1]])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["point", "block"])
def test_forward_plan_keeps_the_bits_of_the_recursion_before_it(lengths, lead):
    # the inputs of test_forward_levels_repeated_unsorted_and_zero_lengths:
    # forward_probs and forward_levels give the bits they gave when the
    # recursion worked out its levels on every call
    _, ops, step, init, final = _real_forward_inputs(lengths, lead)
    for run, before, stack in ((forward_probs, _forward_probs_before_plan, ops),
                               (forward_levels, _forward_levels_before_plan, step)):
        got, want = run(stack, init, final, lengths), before(stack, init, final, lengths)
        assert len(got) == len(want) == len(lengths)
        assert all(g.shape == w.shape and np.array_equal(g, w)
                   for g, w in zip(got, want))


@pytest.mark.parametrize("lengths", [[2, 0, 2, 1], [3, 3], [0, 0], [1, 3, 0, 2, 1]])
def test_engine_plan_is_bound_to_the_lengths_asked(lengths):
    # ChannelEngine.level_probs binds one plan per lengths: for a point, a
    # (1, P) and a (B, P) block, the lengths as a list or a tuple, asked
    # first or again, on this engine or a fresh one, give the bits of the
    # recursion before plans on the engine's step; and a list changed in
    # place after a call is read as it is now
    from qhmm.circuits import efficient_su2
    from qhmm.learning import ChannelEngine, initial_state

    def fresh():
        return ChannelEngine(efficient_su2(3, 1), 2, 4, ("a", "b", "a", "c"),
                             initial_state("maximally_mixed", 2))

    def same(got, want):
        return len(got) == len(want) and all(
            g.shape == w.shape and np.array_equal(g, w) for g, w in zip(got, want))

    engine = fresh()
    xs = np.random.default_rng(len(lengths)).uniform(0.0, 2 * np.pi, size=(5, 6))
    for x in (xs[0], xs[:1], xs):
        want = _forward_levels_before_plan(fresh().step(x), engine.rho0,
                                           engine.trace, lengths)
        for asked in (list(lengths), tuple(lengths), list(lengths)):
            assert same(engine.level_probs(x, asked), want)
        assert same(fresh().level_probs(x, tuple(lengths)), want)
    asked = list(lengths)
    engine.level_probs(xs[0], asked)
    asked[:] = [t + 1 for t in reversed(asked)]  # as many, and new
    want = _forward_levels_before_plan(engine.step(xs[0]), engine.rho0,
                                       engine.trace, asked)
    assert same(engine.level_probs(xs[0], asked), want)
    assert same(engine.level_probs(xs[0], tuple(lengths)),
                _forward_levels_before_plan(engine.step(xs[0]), engine.rho0,
                                            engine.trace, lengths))


def test_every_length_gets_the_bits_it_gets_alone(market, gaussian4):
    # one product per level: a length's probabilities are the same products
    # whether it is asked alone or beside longer lengths, in exact tables of
    # classical and Kraus models and in the engine, for a point and a block,
    # and every level is float64
    from qhmm.experiments import MARKET_ANSATZ
    from qhmm.learning import AnsatzSpec
    from qhmm.circuits import efficient_su2

    for kind, model, top in ((models, models.quantize_classical(market), 12),
                             (models, models.quantize_classical(gaussian4), 6),
                             (classical, market, 12), (classical, gaussian4, 6)):
        joint = kind.distribution_tables(model, range(1, top + 1))
        for t in range(1, top + 1):
            alone = kind.distribution(model, t)
            assert alone.values.dtype == joint[t].values.dtype == np.float64
            assert np.array_equal(alone.values, joint[t].values), t
    for ops, init, final in (classical.forward_operators(market),
                             models.forward_operators(models.quantize_classical(market))):
        assert all(vec.dtype == np.float64
                   for vec in forward_probs(ops, init, final, [0, 1, 2]))
    monras = AnsatzSpec(efficient_su2(3, 3, "full", "RZ_RX"), 2, 4, ("0", "1", "2", "3"))
    # a 4-dimensional state space, D = 16: a product by the effect columns
    # alone rounds differently from the full step's there
    wide = AnsatzSpec(efficient_su2(3, 1), 4, 2, ("0", "1"))
    for spec, lengths in ((monras, (1, 2, 3, 4)), (MARKET_ANSATZ, tuple(range(1, 9))),
                          (wide, tuple(range(1, 9)))):
        engine = spec.engine()
        xs = np.random.default_rng(len(lengths)).uniform(
            0.0, 2 * np.pi, size=(5, engine.gates.n_params))
        for x in (xs[0], xs):
            levels = engine.level_probs(x, lengths)
            assert all(vec.dtype == np.float64 for vec in levels)
            for t, vec in zip(lengths, levels):
                assert np.array_equal(engine.level_probs(x, [t])[0], vec), t


def test_hankel_construction_oracle(damping_qhmm):
    f = lambda s: models.sequence_probability(damping_qhmm, s)
    h = hankel(f, 2, 2, 2)
    assert h.prefixes == enumerate_sequences(2, 2)
    assert h.suffixes == enumerate_sequences(2, 2)
    for i, p in enumerate(h.prefixes):
        for j, s in enumerate(h.suffixes):
            assert h.values[i, j] == f(p + s)
    assert h.values[0, 0] == 1.0


def test_hankel_zero_function_rank_one():
    f = lambda s: 1.0 if len(s) == 0 else 0.0
    h = hankel(f, 2, 2, 2)
    assert order_estimate(h).rank == 1


def test_hankel_budget():
    with pytest.raises(ValueError):
        hankel(lambda s: 0.0, 6, 6, 4)


def _random_model(kind, m, rng):
    """A random model of one kind over m symbols and its per-cell oracle."""
    if kind == "classical":
        n = int(rng.integers(1, 4))
        a, b, x0 = rng.random((n, n)) + 0.05, rng.random((m, n)), rng.random(n)
        h = classical.ClassicalHmm(alphabet=[str(i) for i in range(m)],
                                   A=a / a.sum(axis=0), B=b / b.sum(axis=0),
                                   x0=x0 / x0.sum())
        return h, lambda s: classical.sequence_probability(h, s)
    dim = int(rng.integers(1, 4))
    n_kraus = m + int(rng.integers(0, 3))
    q = models.QhmmKraus(alphabet=[str(i) for i in range(m)],
                         channel=random_channel(dim, n_kraus, rng, n_symbols=m),
                         rho0=random_density(dim, rng))
    model = q if kind == "kraus" else models.from_kraus(q, n_kraus)
    if kind == "unitary":
        q = models.to_kraus(model)
    return model, lambda s: models.sequence_probability(q, s)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["classical", "kraus", "unitary"]),
       st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
def test_hankel_blocks_match_cell_oracle(seed, kind, m, max_p, max_s):
    # the production Hankel matrix of `qhmm hankel --model` against one
    # sequence_probability call per cell
    model, f = _random_model(kind, m, np.random.default_rng(seed))
    h = hankel_blocks(partial(forward_probs, *_model_operators(model)),
                      max_p, max_s, m)
    oracle = hankel(f, max_p, max_s, m)
    assert h.prefixes == oracle.prefixes and h.suffixes == oracle.suffixes
    assert np.abs(h.values - oracle.values).max() < 1e-12


def test_hankel_blocks_budget_checked_before_levels():
    asked = []
    with pytest.raises(ValueError, match="Hankel budget exceeded"):
        hankel_blocks(asked.append, 6, 6, 4)
    with pytest.raises(ValueError, match="Hankel budget exceeded"):
        hankel_blocks(asked.append, 1, 9, 2)  # 1023 suffixes
    assert asked == []


def test_table_vector_lex_order_and_unlisted_zero():
    tab = table(2, 2, {(1, 0): 0.75, (0, 1): 0.25})
    assert tab.vector(2).tolist() == [0.0, 0.25, 0.75, 0.0]
    assert table(0, 1, {(): 1.0}).vector(3).tolist() == [1.0]
    # over another alphabet size: recoded, a symbol past it dropped
    assert tab.vector(3).tolist() == [0, 0.25, 0, 0.75, 0, 0, 0, 0, 0]
    assert table(1, 3, {(0,): 0.5, (2,): 0.5}).vector(2).tolist() == [0.5, 0.0]


def test_hankel_from_tables_matches_direct(market):
    tables = {t: classical.distribution(market, t) for t in range(1, 5)}
    h1 = hankel_from_tables(tables, 2, 2, 2)
    h2 = hankel(lambda s: classical.sequence_probability(market, s), 2, 2, 2)
    assert np.abs(h1.values - h2.values).max() < 1e-12


def test_hankel_from_tables_missing_length(market):
    with pytest.raises(ValueError):
        hankel_from_tables({1: classical.distribution(market, 1)}, 2, 2, 2)


def test_order_estimate_market(market):
    h = hankel(lambda s: classical.sequence_probability(market, s), 3, 3, 2)
    est = order_estimate(h)
    assert est.rank == 4
    assert est.classical_order == 4
    assert est.quantum_dim == 2


def test_order_estimate_monras(monras):
    h = hankel(lambda s: models.sequence_probability(monras, s), 2, 2, 4)
    est = order_estimate(h)
    assert est.rank == 3
    assert est.quantum_dim == 2  # ceil(sqrt(3)) -> 2, already a power of two


def test_order_estimate_rank_one():
    h = hankel(lambda s: 0.5 ** len(s), 2, 2, 1)
    est = order_estimate(h)
    assert est.rank == 1 and est.quantum_dim == 1


def test_delta_examples():
    assert delta(0.5, 0.5) == 0.0
    assert delta(0.75, 0.5) == 0.25


def test_divergence_max_identical(market):
    d = classical.distribution(market, 2)
    assert divergence_max(d, d) == 0.0


def test_divergence_max_point_masses():
    a = table(1, 2, {(0,): 1.0})
    b = table(1, 2, {(1,): 1.0})
    assert divergence_max(a, b) == 1.0


def test_divergence_max_missing_keys_read_zero():
    a = table(1, 2, {(0,): 0.3, (1,): 0.7})
    b = table(1, 2, {(0,): 0.3})
    assert abs(divergence_max(a, b) - 0.7) < 1e-15


def test_divergence_max_length_mismatch():
    a = table(1, 2, {(0,): 1.0})
    b = table(2, 2, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        divergence_max(a, b)


def test_divergence_avg_identical(market):
    tabs = [classical.distribution(market, t) for t in (1, 2, 3)]
    assert divergence_avg(tabs, tabs) == 0.0


def test_divergence_avg_single_length_offset():
    base = [table(t, 2, {(0,) * t: 1.0}) for t in range(1, 6)]
    other = list(base)
    other[2] = table(3, 2, {(0, 0, 0): 0.9, (1, 1, 1): 0.1})
    assert abs(divergence_avg(base, other) - 0.1 / 5) < 1e-15


def test_kl_identical_zero(market):
    d = classical.distribution(market, 2)
    assert kl_divergence(d, d) == 0.0


def test_kl_closed_form():
    p = table(1, 2, {(0,): 1.0, (1,): 0.0})
    q = table(1, 2, {(0,): 0.5, (1,): 0.5})
    assert abs(kl_divergence(p, q) - math.log(2)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**31 - 1))
def test_kl_pinsker_inequality(n_cells, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_cells))
    q = rng.dirichlet(np.ones(n_cells))
    dp = table(1, n_cells, {(i,): float(p[i]) for i in range(n_cells)})
    dq = table(1, n_cells, {(i,): float(q[i]) for i in range(n_cells)})
    kl = kl_divergence(dp, dq)
    tv = total_variation(dp, dq)
    assert kl >= 0.5 * tv**2 - 1e-12


def test_empirical_error_scales_with_sample_size(market):
    # soft 1/sqrt(m) trend: the larger sample should usually do better
    exact = classical.distribution(market, 3)
    small = empirical_estimate(classical.sample(market, 3, 500, seed=1), 3)
    large = empirical_estimate(classical.sample(market, 3, 50000, seed=2), 3)
    err_small = divergence_max(exact, table(3, 2, small.probs))
    err_large = divergence_max(exact, table(3, 2, large.probs))
    assert err_large < 3 * 0.5 / math.sqrt(50000)
    assert err_large < err_small  # logged trend; holds comfortably here


def test_tables_csv_round_trip(tmp_path, market):
    tables = [classical.distribution(market, t) for t in (1, 2)]
    path = tmp_path / "tables.csv"
    write_tables_csv(path, tables, market.alphabet)
    alphabet, back = read_tables_csv(path)
    assert alphabet == ["0", "1"]
    for t, tab in zip((1, 2), tables):
        for seq, p in tab.items():
            assert abs(back[t].prob(seq) - p) < 1e-12


@pytest.mark.parametrize("rows", [
    "0,nan\n1,1.0\n",
    "0,-0.5\n1,1.5\n",
    "0,inf\n1,0.0\n",
    "0,0.5\n1,0.4\n",
    "0,0.5\n1,0.5\n00,0.9\n",
])
def test_read_tables_csv_rejects_invalid_probabilities(tmp_path, rows):
    path = tmp_path / "bad.csv"
    path.write_text("sequence,probability\n" + rows)
    with pytest.raises(ValueError):
        read_tables_csv(path)


def test_read_tables_csv_accepts_rounded_totals(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("sequence,probability\n0,0.3333333\n1,0.6666666\n")
    _, tables = read_tables_csv(path)
    assert abs(tables[1].total() - 1.0) < 1e-6


def test_corpus_reading(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("0101\n1100\n\n01\n")
    alphabet, corpus = read_corpus(path)
    assert alphabet == ["0", "1"]
    assert corpus == [(0, 1, 0, 1), (1, 1, 0, 0), (0, 1)]
    tables = tables_from_corpus(corpus, 2)
    assert abs(tables[1].total() - 1.0) < 1e-12
    assert abs(tables[2].total() - 1.0) < 1e-12
    # the windows counted by empirical_table equal the per-tuple oracle on
    # ragged corpora with lines shorter than t, one line and one symbol
    rng = np.random.default_rng(11)
    ragged = [[tuple(rng.integers(m, size=n).tolist())
               for n in rng.integers(1, 9, size=lines)]
              for m, lines in ((2, 30), (3, 12), (4, 40))]
    for corpus in ragged + [[(2, 0, 1, 1, 2)], [(0,) * 6, (0,) * 2, (0,)],
                            [(0, 1, 0, 1)] + corpus]:
        tables = tables_from_corpus(corpus, 7)
        for t in range(1, 8):
            windows = [seq[i:i + t] for seq in corpus
                       for i in range(len(seq) - t + 1)]
            if not windows:
                assert t not in tables
                continue
            assert tables[t].t == t
            assert list(tables[t].items()) == sorted(empirical_estimate(windows, t).items())
            assert {type(a) for seq, _ in tables[t].items() for a in seq} == {int}
    assert tables_from_corpus([], 3) == {} and tables_from_corpus(corpus, 0) == {}


def test_sequences_of_length():
    assert sequences_of_length(3, 1) == [(0,), (1,), (2,)]
    assert len(sequences_of_length(2, 5)) == 32


# the array tables against the dict oracle: exact tables of random classical
# and quantized models, counts of random sample arrays and CSV round trips


def _bits(values) -> bytes:
    return np.array(list(values), dtype=float).tobytes()


def _same_as_oracle(got, want: DictTable, m: int, path) -> None:
    """``got`` equals the dict table on t, len, total, every listed and one
    unlisted prob, items in lex order, bit for bit, and the CSV bytes."""
    pairs = sorted(want.items())
    assert got.t == want.t and len(got) == len(want)
    assert got.total() == want.total()
    assert [s for s, _ in got.items()] == [s for s, _ in pairs]
    assert _bits(p for _, p in got.items()) == _bits(p for _, p in pairs)
    assert _bits(got.prob(s) for s, _ in pairs) == _bits(p for _, p in pairs)
    assert got.prob((0,) * (got.t + 1)) == 0.0
    if got.t:
        assert got.prob((m,) * got.t) == 0.0
    alphabet = [chr(ord("a") + a) for a in range(m)]
    write_tables_csv(path, [got], alphabet)
    dict_write_tables_csv(path.with_suffix(".want"), [want], alphabet)
    assert path.read_bytes() == path.with_suffix(".want").read_bytes()


def _random_hmm(rng, n: int, m: int) -> classical.ClassicalHmm:
    a, b, x0 = rng.random((n, n)) + 0.05, rng.random((m, n)) + 0.05, rng.random(n)
    return classical.ClassicalHmm(alphabet=[str(i) for i in range(m)],
                                  A=a / a.sum(axis=0), B=b / b.sum(axis=0),
                                  x0=x0 / x0.sum())


@seed(34)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 4),
       st.lists(st.integers(0, 5), min_size=1, max_size=4), st.booleans(),
       st.integers(1, 200))
def test_tables_equal_the_dict_oracle(tmp_path_factory, seed_, n, m, lengths,
                                      quantized, shots):
    rng = np.random.default_rng(seed_)
    lengths = [t for t in lengths if m**t <= 1024] or [1]
    h = _random_hmm(rng, n, m)
    model = models.quantize_classical(h) if quantized else h
    ops = _model_operators(model)
    path = tmp_path_factory.mktemp("tables") / "got.csv"
    got, want = lang.exact_tables(*ops, lengths), dict_exact_tables(*ops, lengths)
    assert list(got) == list(want)
    for t in got:
        _same_as_oracle(got[t], want[t], m, path)
    # counts of a sample array, whose base is its largest symbol plus one,
    # and divergences against the exact tables over m symbols
    t = max(lengths)
    rows = rng.integers(0, m, size=(shots, t))
    emp = lang.empirical_table(rows, t)
    emp_want = empirical_estimate([tuple(r) for r in rows.tolist()], t)
    _same_as_oracle(emp, emp_want, m, path)
    assert divergence_max(got[t], emp) == dict_divergence_max(want[t], emp_want)
    assert divergence_max(emp, got[t]) == dict_divergence_max(emp_want, want[t])
    ops = _model_operators(_random_hmm(rng, n, m))
    other, other_want = lang.exact_tables(*ops, lengths), dict_exact_tables(*ops, lengths)
    assert divergence_avg(list(got.values()), list(other.values())) == (
        dict_divergence_avg(list(want.values()), list(other_want.values())))
    # a CSV round trip of sparse tables, in file order, read back in lex order
    sparse = {}
    for t in sorted({t for t in lengths if t > 0}):
        listed = rng.permutation(m**t)[:int(rng.integers(1, min(m**t, 9) + 1))]
        probs = rng.dirichlet(np.ones(len(listed)))
        sparse[t] = DictTable(t, {tuple(int(c) // m**j % m for j in reversed(range(t))): p
                                  for c, p in zip(listed.tolist(), probs.tolist())})
    if sparse:
        dict_write_tables_csv(path, sparse.values(), [str(a) for a in range(m)])
        # the file's alphabet is its symbols present, so read both over it
        symbols, back = read_tables_csv(path)
        want_back = dict_read_tables_csv(path)
        assert list(back) == list(want_back) == list(sparse)
        for t in back:
            _same_as_oracle(back[t], want_back[t], len(symbols), path)


def test_exact_tables_clip_as_min_max_does():
    # NaN and values just outside [0, 1] keep the bits that min(max(p, 0), 1)
    # gives them
    ops = np.array([[[-0.0]], [[np.nan]], [[-1e-17]], [[1.5]], [[0.25]]])
    got = lang.exact_tables(ops, np.ones(1), np.ones(1), [1, 2])
    want = dict_exact_tables(ops, np.ones(1), np.ones(1), [1, 2])
    for t in (1, 2):
        assert _bits(p for _, p in got[t].items()) == _bits(p for _, p in want[t].items())
    assert np.isnan(got[1].values[1]) and got[1].values[[2, 3]].tolist() == [0.0, 1.0]


def test_corpus_table_of_long_sequences_lists_only_its_rows(tmp_path):
    # m = 4, t = 40: 4**40 sequences, of which the table holds the distinct
    # rows alone, as Python-int codes
    rng = np.random.default_rng(40)
    rows = rng.integers(0, 4, size=(5, 40))
    rows[3] = rows[0]
    corpus = [tuple(r) for r in rows.tolist()]
    tab = tables_from_corpus(corpus, 40)[40]
    want = empirical_estimate(corpus, 40)
    assert len(tab) == len(tab.codes) == len(tab.values) == 4 == len(set(corpus))
    assert tab.codes.dtype == object and tab.m == 4
    _same_as_oracle(tab, want, 4, tmp_path / "long.csv")
    assert divergence_max(tab, tab) == 0.0
    assert divergence_max(tab, lang.empirical_table(rows[:1], 40)) == (
        dict_divergence_max(want, empirical_estimate(corpus[:1], 40)))


def test_foreign_symbols_and_repeated_rows_are_refused(tmp_path):
    with pytest.raises(ValueError, match="outside 0..1"):
        DistributionTable.from_items(1, 2, [((2,), 1.0)])
    # the reader names a repeated row by its text
    path = tmp_path / "repeat.csv"
    path.write_text("sequence,probability\n0,0.5\n01,0.5\n1,0.5\n01,0.5\n")
    with pytest.raises(ValueError, match="sequence '01' is listed twice"):
        read_tables_csv(path)
