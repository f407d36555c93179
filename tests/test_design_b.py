"""Carry-mode (design b) simulation against a brute-force joint-state oracle.

The oracle enumerates every outcome branch of the full system+emission
density matrix without any reset, which is exactly what the carry design
produces physically; simulate() must match its distribution empirically.
"""

import math

import numpy as np
import pytest

from qhmm import models
from qhmm.models import QhmmUnitary, empirical_table, simulate


def _brute_force_distribution(q: QhmmUnitary, t: int) -> dict:
    """Enumerate measurement branches of the joint state, no reset."""
    ds, de = q.dim_s, q.dim_e
    u = q.unitary()
    e0 = np.zeros((de, de), dtype=complex)
    e0[q.e0, q.e0] = 1.0
    sym = {a: i for i, a in enumerate(q.alphabet)}
    outcome_symbol = [sym[s] for s in q.symbol_map]
    n_outcomes = de if q.measured == "emission" else ds

    def projector(o):
        p = np.zeros((ds * de, ds * de), dtype=complex)
        idx = np.arange(ds * de)
        reg = idx % de if q.measured == "emission" else idx // de
        sel = np.where(reg == o)[0]
        p[sel, sel] = 1.0
        return p

    projs = [projector(o) for o in range(n_outcomes)]
    branches = [(np.kron(q.rho0, e0), ())]
    for _ in range(t):
        nxt = []
        for rho, seq in branches:
            rho = u @ rho @ u.conj().T
            for o in range(n_outcomes):
                post = projs[o] @ rho @ projs[o]
                p = np.trace(post).real
                if p > 1e-14:
                    nxt.append((post, seq + (outcome_symbol[o],)))
        branches = nxt
    dist: dict = {}
    for rho, seq in branches:
        dist[seq] = dist.get(seq, 0.0) + np.trace(rho).real
    return dist


def _carry_model():
    design = models.amplitude_damping_model(math.pi / 3)
    return QhmmUnitary(
        alphabet=design.alphabet,
        dim_s=2,
        dim_e=2,
        u=design.u,
        symbol_map=design.symbol_map,
        rho0=design.rho0,
        reset_mode="carry",
        measured="system",
    )


def test_brute_force_oracle_normalizes():
    q = _carry_model()
    dist = _brute_force_distribution(q, 3)
    assert abs(sum(dist.values()) - 1.0) < 1e-10


def test_carry_differs_from_reset():
    # memory effects: without the reset the emission register carries state
    # between steps and the length-2 distribution shifts
    carry = _carry_model()
    reset = QhmmUnitary(
        alphabet=carry.alphabet, dim_s=2, dim_e=2, u=carry.u,
        symbol_map=carry.symbol_map, rho0=carry.rho0,
        reset_mode="reset", measured="system",
    )
    d_carry = _brute_force_distribution(carry, 2)
    d_reset = _brute_force_distribution(reset, 1)
    # sanity: one-step marginals agree (the first reset has not acted yet)
    one_carry = {}
    for seq, p in _brute_force_distribution(carry, 1).items():
        one_carry[seq] = p
    for seq, p in d_reset.items():
        assert abs(one_carry[seq] - p) < 1e-12
    exact_reset2 = models.distribution(models.to_kraus(reset), 2)
    diff = max(abs(d_carry.get(s, 0.0) - exact_reset2.prob(s))
               for s, _ in exact_reset2.items())
    assert diff > 1e-3


def test_simulate_carry_matches_brute_force():
    q = _carry_model()
    t, shots = 3, 20000
    exact = _brute_force_distribution(q, t)
    emp = empirical_table(simulate(q, t, shots, seed=17), t)
    for seq, p in exact.items():
        bound = 3 * math.sqrt(p * (1 - p) / shots) + 1e-3
        assert abs(emp.prob(seq) - p) < bound
    for seq, _ in emp.items():
        assert exact.get(seq, 0.0) > 0.0  # nothing impossible was sampled


def test_simulate_reset_matches_brute_force_emission_measured():
    # design a with the emission register measured, cross-checked both ways
    q = QhmmUnitary(
        alphabet=["0", "1"],
        dim_s=2,
        dim_e=2,
        u=models.amplitude_damping_model(math.pi / 2).u,
        symbol_map=("0", "1"),
        rho0=np.full((2, 2), 0.5, dtype=complex),
        reset_mode="reset",
        measured="emission",
    )
    exact = models.distribution(models.to_kraus(q), 2)
    t, shots = 2, 20000
    emp = empirical_table(simulate(q, t, shots, seed=23), t)
    for seq, _ in exact.items():
        p = exact.prob(seq)
        bound = 3 * math.sqrt(p * (1 - p) / shots) + 1e-3
        assert abs(emp.prob(seq) - p) < bound
