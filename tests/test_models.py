import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhmm import classical, models
from qhmm.channels import KrausChannel
from qhmm.lang import hankel, sequences_of_length
from qhmm.linalg import numerical_rank
from qhmm.models import (
    QhmmKraus,
    QhmmUnitary,
    block_symbol_map,
    distribution,
    distribution_tables,
    empirical_table,
    from_kraus,
    qhmm_from_json,
    qhmm_to_json,
    quantize_classical,
    sequence_probability,
    simulate,
    steady_state,
    to_kraus,
)

from oracles import choi, empirical_estimate, random_channel, random_density


def _choi_of_groups(ch):
    return choi(KrausChannel(dim=ch.dim, groups={"0": ch.operators()}))


def identity_unitary_model():
    return QhmmUnitary(
        alphabet=["0"],
        dim_s=2,
        dim_e=1,
        u=np.eye(2, dtype=complex),
        symbol_map=("0",),
        rho0=np.eye(2, dtype=complex) / 2,
    )


def test_block_symbol_map():
    assert block_symbol_map(["0", "1"], 4) == ("0", "0", "1", "1")
    assert block_symbol_map(["a", "b", "c"], 3) == ("a", "b", "c")
    with pytest.raises(ValueError):
        block_symbol_map(["0", "1"], 1)


def test_to_kraus_identity():
    q = to_kraus(identity_unitary_model())
    assert np.abs(q.channel.groups["0"][0] - np.eye(2)).max() < 1e-14


def test_to_kraus_rejects_carry_mode():
    m = identity_unitary_model()
    m.reset_mode = "carry"
    with pytest.raises(ValueError):
        to_kraus(m)


def test_to_kraus_damping_groups(damping_model):
    q = to_kraus(damping_model)
    # measured system register: groups hold the projector-composed family
    g0 = q.channel.groups["0"]
    g1 = q.channel.groups["1"]
    s = 1 / math.sqrt(2)
    k00 = np.array([[1, 0], [0, 0]], dtype=complex)
    k01 = np.array([[0, s], [0, 0]], dtype=complex)
    k10 = np.array([[0, 0], [0, s]], dtype=complex)
    assert len(g0) == 2 and len(g1) == 1
    assert np.abs(g0[0] - k00).max() < 1e-12
    assert np.abs(g0[1] - k01).max() < 1e-12
    assert np.abs(g1[0] - k10).max() < 1e-12


def test_from_kraus_round_trip_monras(monras):
    uq = from_kraus(monras, dim_e=4)
    back = to_kraus(uq)
    assert np.abs(_choi_of_groups(back.channel) - _choi_of_groups(monras.channel)).max() < 1e-8
    # per-symbol channels must agree too, not just the total map
    for a in monras.alphabet:
        ca = KrausChannel(dim=2, groups={"0": monras.channel.groups[a]})
        cb = KrausChannel(dim=2, groups={"0": [k for k in back.channel.groups[a]]})
        assert np.abs(choi(ca) - choi(cb)).max() < 1e-8


def test_from_kraus_round_trip_identity():
    q = QhmmKraus(
        alphabet=["0"],
        channel=KrausChannel(dim=2, groups={"0": [np.eye(2, dtype=complex)]}),
        rho0=np.eye(2, dtype=complex) / 2,
    )
    uq = from_kraus(q, dim_e=1)
    assert np.abs(uq.unitary() - np.eye(2)).max() < 1e-12


def test_from_kraus_round_trip_quantized_market(market):
    q = quantize_classical(market)
    dim_e = len(q.channel.operators())
    uq = from_kraus(q, dim_e=dim_e)
    back = to_kraus(uq)
    assert np.abs(_choi_of_groups(back.channel) - _choi_of_groups(q.channel)).max() < 1e-8


def test_from_kraus_dim_too_small(monras):
    with pytest.raises(ValueError):
        from_kraus(monras, dim_e=3)


def test_quantize_one_state():
    h = classical.ClassicalHmm(
        alphabet=["0", "1"],
        A=np.eye(1),
        B=np.array([[0.3], [0.7]]),
        x0=np.ones(1),
    )
    q = quantize_classical(h)
    assert np.abs(q.channel.groups["0"][0] - np.sqrt(0.3)).max() < 1e-12
    assert np.abs(q.channel.groups["1"][0] - np.sqrt(0.7)).max() < 1e-12


@pytest.mark.parametrize("fixture_name", ["market", "gaussian4"])
def test_quantize_preserves_distributions(request, fixture_name):
    h = request.getfixturevalue(fixture_name)
    q = quantize_classical(h)
    for t in range(1, 5):
        dc = classical.distribution(h, t)
        dq = distribution(q, t)
        diff = max(abs(dc.prob(s) - dq.prob(s)) for s, _ in dc.items())
        assert diff <= 1e-10


def test_sequence_probability_empty(monras):
    assert sequence_probability(monras, ()) == 1.0


def test_sequence_probability_monras_singles(monras):
    for a in range(4):
        assert abs(sequence_probability(monras, (a,)) - 0.25) < 1e-12


def test_sequence_probability_damping_00(damping_qhmm):
    assert abs(sequence_probability(damping_qhmm, (0, 0)) - 0.75) < 1e-12


def test_sequence_probability_unknown(monras):
    with pytest.raises(ValueError):
        sequence_probability(monras, (7,))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
def test_additive_consistency(seed, t):
    rng = np.random.default_rng(seed)
    chan = random_channel(2, 4, rng, n_symbols=2)
    q = QhmmKraus(alphabet=["0", "1"], channel=chan, rho0=random_density(2, rng))
    prefix = tuple(rng.integers(0, 2, size=t))
    p = sequence_probability(q, prefix)
    ext = sum(sequence_probability(q, prefix + (a,)) for a in range(2))
    assert abs(p - ext) < 1e-10


def test_distribution_t0(monras):
    d = distribution(monras, 0)
    assert list(d.items()) == [((), 1.0)]


def test_distribution_monras_len2_pattern(monras):
    # tr(K_b K_a rho K_a+ K_b+) = |<b|a>|^2 / 8 for the projector family:
    # 1/8 on repeats, 0 on orthogonal pairs, 1/16 on unbiased pairs
    d = distribution(monras, 2)
    assert abs(d.total() - 1.0) < 1e-9
    orthogonal = {(0, 1), (1, 0), (2, 3), (3, 2)}
    for a in range(4):
        for b in range(4):
            p = d.prob((a, b))
            if a == b:
                assert abs(p - 0.125) < 1e-12
            elif (a, b) in orthogonal:
                assert p < 1e-12
            else:
                assert abs(p - 0.0625) < 1e-12


def test_distribution_matches_sequence_probability(damping_qhmm):
    d = distribution_tables(damping_qhmm, [1, 2, 3])
    for t, tab in d.items():
        for seq, p in tab.items():
            assert abs(p - sequence_probability(damping_qhmm, seq)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(2, 4))
def test_distribution_tables_match_oracle_random_channels(seed, m, dim):
    rng = np.random.default_rng(seed)
    chan = random_channel(dim, m + int(rng.integers(0, 3)), rng, n_symbols=m)
    q = QhmmKraus(alphabet=[str(a) for a in range(m)], channel=chan,
                  rho0=random_density(dim, rng))
    tabs = distribution_tables(q, [1, 2, 3])
    for t in (1, 2, 3):
        assert [s for s, _ in tabs[t].items()] == sequences_of_length(m, t)
        for seq, p in tabs[t].items():
            assert abs(p - sequence_probability(q, seq)) < 1e-12


def test_never_emitted_symbol_is_an_empty_group():
    # a symbol without operators is a (0, N, N) group, written as [], and
    # keeps probability 0 through dilation and extraction; a file from before,
    # which padded that group with one zero operator, still loads the same
    h = classical.ClassicalHmm(alphabet=["a", "b", "c"],
                               A=[[0.9, 0.2], [0.1, 0.8]],
                               B=[[0.7, 0.4], [0.3, 0.6], [0.0, 0.0]],
                               x0=[0.5, 0.5])
    q = quantize_classical(h)
    assert q.channel.groups["c"].shape == (0, 2, 2)
    data = qhmm_to_json(q)
    assert data["channel"]["groups"]["c"] == []
    padded = json.loads(json.dumps(data))
    padded["channel"]["groups"]["c"] = [
        {"rows": 2, "cols": 2, "re": [0.0] * 4, "im": [0.0] * 4}]
    want = classical.distribution(h, 3)
    dilated = from_kraus(q, dim_e=len(q.channel.operators()) + 1)
    assert dilated.symbol_map.count("c") == 1
    back = to_kraus(dilated)  # the zero operator of index "c" is dropped
    assert back.channel.groups["c"].shape == (0, 2, 2)
    assert all(np.abs(ops).max(axis=(1, 2)).all()
               for ops in back.channel.groups.values())
    padded_dilation = from_kraus(q, dim_e=len(q.channel.operators()) + 3)
    assert all(np.abs(ops).max(axis=(1, 2)).all()
               for ops in to_kraus(padded_dilation).channel.groups.values())
    for model in (q, qhmm_from_json(data), qhmm_from_json(padded), back):
        got = distribution(model, 3)
        assert max(abs(got.prob(s) - p) for s, p in want.items()) < 1e-12
        assert all(p == 0.0 for s, p in got.items() if 2 in s)
    with pytest.raises(ValueError, match="no index for an empty group"):
        from_kraus(q, dim_e=len(q.channel.operators()))


def test_distribution_tables_empty_symbol_group():
    # an empty group between two others must read as probability zero, not
    # borrow the neighbouring group's operators
    rng = np.random.default_rng(7)
    ops = random_channel(3, 3, rng).operators()
    chan = KrausChannel(dim=3, groups={"0": ops[:2], "1": [], "2": ops[2:]})
    q = QhmmKraus(alphabet=["0", "1", "2"], channel=chan,
                  rho0=random_density(3, rng))
    tabs = distribution_tables(q, [1, 2])
    for t in (1, 2):
        assert abs(tabs[t].total() - 1.0) < 1e-12
        for seq, p in tabs[t].items():
            assert abs(p - sequence_probability(q, seq)) < 1e-12
            if 1 in seq:
                assert p == 0.0


def test_distribution_budget_guard(monras):
    with pytest.raises(ValueError):
        distribution(monras, 7)  # 4^7 exceeds the table budget


def test_steady_state_damping(damping_qhmm):
    rho = steady_state(damping_qhmm)
    assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-8


def test_steady_state_quantized_market(market):
    q = quantize_classical(market)
    rho = steady_state(q)
    x = classical.steady_state_classical(market)
    assert np.abs(rho - np.diag(x)).max() < 1e-8


def test_simulate_deterministic_identity():
    m = identity_unitary_model()
    out = simulate(m, 3, 20, seed=0)
    assert all(tuple(s) == (0, 0, 0) for s in out.tolist())


def test_simulate_seed_repeatability(damping_model):
    a = simulate(damping_model, 2, 200, seed=3)
    b = simulate(damping_model, 2, 200, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, simulate(damping_model, 2, 200, seed=4))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(1, 4), st.integers(1, 300),
       st.sampled_from([np.uint8, np.intp]), st.integers(0, 2**31 - 1))
def test_empirical_table_matches_empirical_estimate(t, m, shots, dtype, seed):
    # counting by lex code against the dict count over the rows as tuples
    rows = np.random.default_rng(seed).integers(0, m, size=(shots, t)).astype(dtype)
    got = empirical_table(rows, t)
    want = empirical_estimate([tuple(r) for r in rows.tolist()], t)
    assert got.t == want.t and list(got.items()) == sorted(want.items())
    assert all(type(a) is int for s, _ in got.items() for a in s)


def test_empirical_table_without_rows_and_beyond_int64_codes():
    assert list(empirical_table(np.zeros((0, 3), dtype=np.uint8), 3).items()) == []
    # 2**70 codes do not fit int64, so they are counted as Python ints
    rows = np.random.default_rng(0).integers(0, 2, size=(40, 70), dtype=np.uint8)
    rows[1] = rows[0]
    want = empirical_estimate([tuple(r) for r in rows.tolist()], 70)
    assert list(empirical_table(rows, 70).items()) == sorted(want.items())


def test_simulate_matches_exact(damping_model, damping_qhmm):
    shots = 20000
    out = simulate(damping_model, 2, shots, seed=11)
    emp = empirical_table(out, 2)
    exact = distribution(damping_qhmm, 2)
    for seq, _ in exact.items():
        assert abs(emp.prob(seq) - exact.prob(seq)) < 3 * 0.5 / math.sqrt(shots) + 0.005


def test_simulate_carry_mode_runs(damping_model):
    m = QhmmUnitary(
        alphabet=damping_model.alphabet,
        dim_s=2,
        dim_e=2,
        u=damping_model.u,
        symbol_map=damping_model.symbol_map,
        rho0=damping_model.rho0,
        reset_mode="carry",
        measured="system",
    )
    out = simulate(m, 3, 50, seed=5)
    assert len(out) == 50


def test_chi2_simulate_vs_exact(damping_model, damping_qhmm):
    shots = 20000
    out = simulate(damping_model, 2, shots, seed=21)
    emp = empirical_table(out, 2)
    exact = distribution(damping_qhmm, 2)
    chi2 = 0.0
    dof = 0
    for seq, p in exact.items():
        if p < 1e-12:
            assert emp.prob(seq) == 0.0
            continue
        expected = p * shots
        chi2 += (emp.prob(seq) * shots - expected) ** 2 / expected
        dof += 1
    # alpha = 0.001 quantiles for small dof
    quantile = {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47}[dof - 1]
    assert chi2 < quantile


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_rank_bound_for_random_qhmms(seed):
    # order-N models can realize languages of rank at most N^2
    rng = np.random.default_rng(seed)
    chan = random_channel(2, int(rng.integers(2, 5)), rng, n_symbols=2)
    q = QhmmKraus(alphabet=["0", "1"], channel=chan, rho0=random_density(2, rng))
    h = hankel(lambda s: sequence_probability(q, s), 2, 2, 2)
    assert numerical_rank(h.values.astype(complex)) <= 4


def test_monras_hankel_rank_three(monras):
    h = hankel(lambda s: sequence_probability(monras, s), 2, 2, 4)
    assert numerical_rank(h.values.astype(complex)) == 3


def test_qhmm_json_round_trip_kraus(monras):
    back = qhmm_from_json(qhmm_to_json(monras))
    assert isinstance(back, QhmmKraus)
    assert np.abs(_choi_of_groups(back.channel) - _choi_of_groups(monras.channel)).max() < 1e-15
    assert np.abs(back.rho0 - monras.rho0).max() < 1e-15


def test_qhmm_json_round_trip_unitary(damping_model):
    back = qhmm_from_json(qhmm_to_json(damping_model))
    assert isinstance(back, QhmmUnitary)
    assert back.measured == "system"
    assert back.reset_mode == "reset"
    assert np.abs(back.unitary() - damping_model.unitary()).max() < 1e-15
    d1 = distribution(to_kraus(back), 2)
    d2 = distribution(to_kraus(damping_model), 2)
    for seq, _ in d1.items():
        assert abs(d1.prob(seq) - d2.prob(seq)) < 1e-14


def test_models_compare_by_value(market):
    # == compares by value, not by raising on the arrays: the same type and
    # every field equal, arrays entry by entry; one array entry, the
    # alphabet or a register field apart reads unequal
    from dataclasses import replace

    def nudged(a):  # one entry moved, well inside every tolerance
        a = a.copy()
        a.flat[0] += 1e-13
        return a

    kraus, unitary = quantize_classical(market), models.amplitude_damping_model(0.3)
    relabel = {"0": "0'", "1": "1'"}  # all three models emit "0" and "1"
    for model, twin, apart in (
            (market, classical.market_model(),
             [replace(market, x0=nudged(market.x0)),
              replace(market, alphabet=list(relabel.values()))]),
            (kraus, quantize_classical(classical.market_model()),
             [replace(kraus, rho0=nudged(kraus.rho0)),
              QhmmKraus(list(relabel.values()), KrausChannel(kraus.dim, {
                  relabel[a]: ops for a, ops in kraus.channel.groups.items()}),
                  kraus.rho0)]),
            (unitary, models.amplitude_damping_model(0.3),
             [replace(unitary, u=nudged(unitary.u)),
              replace(unitary, alphabet=list(relabel.values()),
                      symbol_map=tuple(relabel[a] for a in unitary.symbol_map)),
              replace(unitary, e0=1), replace(unitary, reset_mode="carry")])):
        assert model == twin and not model != twin and model is not twin
        assert all(model != other and not model == other for other in apart)
        assert model != "model"
    assert market != kraus and kraus != unitary and unitary != market


def test_invariants_rejected():
    with pytest.raises(ValueError):
        QhmmUnitary(
            alphabet=["0", "1"],
            dim_s=2,
            dim_e=2,
            u=np.eye(4, dtype=complex),
            symbol_map=("0", "0"),  # symbol 1 has an empty class
            rho0=np.eye(2, dtype=complex) / 2,
        )
    with pytest.raises(ValueError):
        QhmmKraus(
            alphabet=["0"],
            channel=KrausChannel(dim=2, groups={"0": [0.5 * np.eye(2)]}),
            rho0=np.eye(2) / 2,
        )


def test_unitary_model_file_rejects_non_unitary_matrix(damping_model):
    # regression: a non-unitary "unitary" loaded, and simulate sampled from it
    from dataclasses import replace

    from qhmm.circuits import real_amplitudes

    bad = qhmm_to_json(replace(damping_model, u=np.diag([1.0, 1.0, 0.5, 2.0])))
    with pytest.raises(ValueError, match="not unitary"):
        qhmm_from_json(bad)
    # a unitary matrix and a circuit still load
    qhmm_from_json(qhmm_to_json(replace(damping_model, u=np.eye(4))))
    circ = real_amplitudes(2, reps=1).with_parameters([0.1, 0.2])
    qhmm_from_json(qhmm_to_json(replace(damping_model, u=circ)))


def test_circuit_model_file_rejects_bad_size_and_angles(bad_circuit_files):
    # regression: these loaded, and distribution then exited 1 with a
    # dimension error or a float() TypeError
    for label, d in bad_circuit_files.items():
        with pytest.raises(ValueError):
            qhmm_from_json(d)


_ONE = {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}


@pytest.mark.parametrize("read,data,message", [
    ("matrix", {**_ONE, "rows": 1.0}, "matrix.rows must be a JSON integer, got 1.0"),
    ("channel", {"dim": 1, "groups": {"0": [{**_ONE, "re": ["1"]}]}},
     "channel.groups.0[0].re[0] must be a JSON number, got '1'"),
    ("circuit", {"n_qubits": 1, "gates": [{"t": "RY", "q": [0], "p": [math.nan]}]},
     "circuit.gates[0].p[0] must be a JSON finite number, got nan"),
    ("circuit", {"n_qubits": 1}, "circuit.gates is missing"),
    ("classical", {"alphabet": ["0"], "A": [[1.0]], "B": [[1.0]], "x0": [True]},
     "x0[0] must be a JSON number, got True"),
    ("classical", ["0"], "value must be a JSON object, got ['0']"),
    ("unitary", "both", "a unitary model holds exactly one of unitary and circuit"),
    ("unitary", [1], "value must be a JSON object, got [1]"),
    ("matrix", {**_ONE, "re": []}, "matrix JSON entry count does not match rows*cols"),
    ("channel", {"dim": 1, "groups": {"0": [_ONE, {**_ONE, "im": []}]}},
     "channel.groups.0[1] JSON entry count does not match rows*cols"),
    ("unitary", {"type": "hmm"}, "unknown QHMM type 'hmm'"),
    ("unitary", "type-operators",
     "unknown QHMM type [{...}, {...}, {...}, {...}, {...}, {...}, ...]"),
], ids=["matrix-rows-float", "channel-entry-string", "circuit-angle-nan",
        "circuit-no-gates", "classical-x0-bool", "classical-list", "unitary-both",
        "qhmm-list", "matrix-entry-missing", "channel-entry-missing", "qhmm-type-string",
        "qhmm-type-operators"])
def test_each_json_reader_checks_its_schema_alone(read, data, message, damping_model):
    # each reader checks its own schema before any conversion, also when a
    # library caller uses it alone: before, int() and float() read 1.0 rows,
    # a string entry, a NaN angle and a bool x0 as numbers, a missing key
    # raised KeyError and a matrix beside a circuit was ignored; a QHMM value
    # that was not an object raised AttributeError; a short entry list did
    # not name its matrix, and an unknown type printed its whole repr (2,607
    # characters for the 12 operators of quantized gaussian4's symbol 0)
    from qhmm.channels import channel_from_json
    from qhmm.circuits import (amplitude_damping_circuit, circuit_from_json,
                               circuit_to_json)
    from qhmm.linalg import matrix_from_json

    if data == "both":  # the damping file's matrix beside its circuit
        data = qhmm_to_json(damping_model)
        data["circuit"] = circuit_to_json(amplitude_damping_circuit(math.pi / 2).step)
    if data == "type-operators":
        data = qhmm_to_json(quantize_classical(classical.gaussian4_model()))
        data["type"] = data["channel"]["groups"]["0"]
        assert len(data["type"]) == 12
    reader = {"matrix": matrix_from_json, "channel": channel_from_json,
              "circuit": circuit_from_json, "classical": classical.hmm_from_json,
              "unitary": qhmm_from_json}[read]
    with pytest.raises(ValueError) as exc:
        reader(data)
    assert str(exc.value) == message


@pytest.mark.parametrize("dilated", [False, True], ids=["kraus", "unitary"])
def test_each_model_file_matrix_is_checked_once(dilated, monkeypatch):
    # regression: the Kraus and unitary schemas nested the matrix schema, so
    # the quantized gaussian4 file's matrices were each checked three times
    # (file, channel and matrix readers) and its dilation's twice
    from qhmm import channels, circuits, linalg

    q = models.quantize_classical(classical.gaussian4_model())
    data = qhmm_to_json(from_kraus(q, 64) if dilated else q)
    matrices = [data["unitary"]] if dilated else [
        op for ops in data["channel"]["groups"].values() for op in ops]
    matrices.append(data["rho0"])
    checked, check = [], linalg.check_json

    def counted(value, kind, where=""):
        if kind is linalg.MATRIX_JSON:
            checked.append(id(value))
        check(value, kind, where)

    for module in (linalg, channels, circuits, models):
        monkeypatch.setattr(module, "check_json", counted)
    qhmm_from_json(data)
    assert len(matrices) == (2 if dilated else 57) and len(checked) == len(matrices)
    assert [checked.count(id(m)) for m in matrices] == [1] * len(matrices)


def test_near_tolerance_dilation_round_trips_through_json():
    # regression: the completion kept the input's 1e-10 isometry defect, so
    # the dilated matrix was unitary only to 1.5e-9 and its file was refused
    from qhmm.linalg import is_unitary

    rng = np.random.default_rng(0)
    v, _ = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
    ks = [(1.0 + 4e-10) * v[2 * i:2 * i + 2] for i in range(4)]
    q = QhmmKraus(
        alphabet=["0", "1"],
        channel=KrausChannel(dim=2, groups={"0": ks[:2], "1": ks[2:]}),
        rho0=np.eye(2) / 2,
    )
    u = from_kraus(q, 4)
    assert is_unitary(u.unitary(), 1e-14)
    back = qhmm_from_json(json.loads(json.dumps(qhmm_to_json(u))))
    assert np.array_equal(back.unitary(), u.unitary())


def test_from_kraus_accepts_channel_near_cptp_tolerance():
    # regression: a channel inside CPTP_TOL dilates to a matrix that is
    # unitary only to about the same tolerance; from_kraus must not reject it
    from qhmm.channels import CPTP_TOL

    rng = np.random.default_rng(0)
    v, _ = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
    ks = [(1.0 + 4e-10) * v[2 * i:2 * i + 2] for i in range(4)]
    q = QhmmKraus(
        alphabet=["0", "1"],
        channel=KrausChannel(dim=2, groups={"0": ks[:2], "1": ks[2:]}),
        rho0=np.eye(2) / 2,
    )
    assert 0.5 * CPTP_TOL < q.channel.completeness_defect() <= CPTP_TOL
    back = to_kraus(from_kraus(q, 4))
    for a in q.alphabet:
        for k, kb in zip(q.channel.groups[a], back.channel.groups[a]):
            assert np.allclose(k, kb, atol=1e-8)
