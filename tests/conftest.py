import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qhmm import classical, models
from qhmm.circuits import amplitude_damping_circuit


class UniformDraw:
    """Uniform draw from a finite domain by one ``rng.integers`` call."""

    def __init__(self, domain):
        self.domain = list(domain)

    def sample(self, rng):
        return self.domain[int(rng.integers(len(self.domain)))]


class UniformPair:
    """Uniform ordered pair of distinct qubits: the control by one
    ``rng.integers`` call, then the data qubit among the others by a second."""

    def __init__(self, n_qubits):
        self.n_qubits = n_qubits

    def sample(self, rng):
        c = int(rng.integers(self.n_qubits))
        d = int(rng.integers(self.n_qubits - 1))
        return (c, d + (d >= c))


def uniform_gate_dists(gate_set, n_qubits):
    """Uniform gate-type, qubit and qubit-pair samplers for
    ``circuits.random_gate`` and ``circuits.mutate``."""
    return {"gates": UniformDraw(gate_set), "qubit": UniformDraw(range(n_qubits)),
            "qubit_pair": UniformPair(n_qubits)}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def market():
    return classical.market_model()


@pytest.fixture(scope="session")
def gaussian4():
    return classical.gaussian4_model()


@pytest.fixture(scope="session")
def monras():
    return models.monras_qhmm()


@pytest.fixture(scope="session")
def damping_model():
    return models.amplitude_damping_model(math.pi / 2)


@pytest.fixture(scope="session")
def damping_qhmm():
    return models.amplitude_damping_qhmm(math.pi / 2)


@pytest.fixture
def bad_circuit_files(damping_model):
    """Circuit-form model files with a wrong qubit count, a bad angle or a
    qubit index outside the register."""
    step = amplitude_damping_circuit(math.pi / 2).step
    good = models.qhmm_to_json(replace(damping_model, u=step))
    models.qhmm_from_json(good)
    out = {}
    wide = json.loads(json.dumps(good))
    wide["circuit"]["n_qubits"] = 3
    out["three qubits"] = wide
    for label, angle in (("null", None), ("nan", math.nan), ("inf", math.inf)):
        d = json.loads(json.dumps(good))
        d["circuit"]["gates"][0]["p"] = [angle]
        out[label] = d
    for label, qubit in (("qubit -1", -1), ("qubit 2", 2)):
        d = json.loads(json.dumps(good))
        d["circuit"]["gates"][0] = {"t": "RY", "q": [qubit], "p": [0.3]}
        out[label] = d
    return out
