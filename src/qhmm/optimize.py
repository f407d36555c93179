"""Derivative-free and finite-difference local optimizers.

Three self-contained families cover the roles of the usual scipy solvers:
a Nelder-Mead simplex, central-difference gradient descent with backtracking,
and cyclic coordinate descent with golden-section refinement. Each family is
a generator body that yields the points it wants evaluated and is sent their
values; one driver, ``_run``, evaluates them against the budget. The label
table maps the conventional solver labels onto these families so adaptive
solver selection can keep its full label set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

Body = Generator[np.ndarray, float, None]  # yields points, is sent values

NM_INITIAL_STEP, NM_VALUE_TOL, NM_DIAMETER_TOL = 0.25, 1e-10, 1e-8
FD_STEP, FD_EPSILON, FD_GRAD_TOL = 0.5, 1e-5, 1e-7
COORD_SPAN, COORD_AXIS_TOL, COORD_VALUE_TOL = 1.0, 1e-8, 1e-12


@dataclass
class ObjectiveSpec:
    arity: int
    evaluate: Callable[[np.ndarray], float]
    budget: int = 1000

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be >= 0")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass
class OptResult:
    best_params: np.ndarray
    best_value: float
    evaluations: int
    converged: bool


def _requests(obj: ObjectiveSpec, x0: np.ndarray, body):
    """The points the body asks for, then ``None`` once it returns; with no
    parameters, x0 alone."""
    if obj.arity:
        yield from body(x0)
    else:
        yield x0
    yield None


def _run(obj: ObjectiveSpec, x0, body: Callable[[np.ndarray], Body]) -> OptResult:
    """Evaluate the points a body asks for, up to the budget.

    The fit converged when the body returned; it did not when the body asked
    for a point past the budget. The best point evaluated is returned either
    way.
    """
    x0 = np.asarray(x0, dtype=float)
    points = _requests(obj, x0, body)
    best_x, best_f = np.array(x0), math.inf
    x = next(points)
    for count in range(obj.budget):
        if x is None:
            return OptResult(best_x, best_f, count, True)
        f = float(obj.evaluate(np.asarray(x, dtype=float)))
        if f < best_f:
            best_x, best_f = np.array(x, dtype=float), f
        x = points.send(f)
    return OptResult(best_x, best_f, obj.budget, x is None)


def _nelder_mead_body(x0: np.ndarray) -> Body:
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    n = len(x0)
    simplex = np.tile(x0, (n + 1, 1))
    simplex[np.arange(1, n + 1), np.arange(n)] += NM_INITIAL_STEP
    values = np.empty(n + 1)
    for i in range(n + 1):
        values[i] = yield simplex[i]
    while True:
        order = np.argsort(values)
        simplex, values = simplex[order], values[order]
        spread = values[-1] - values[0]
        diameter = np.linalg.norm(simplex[1:] - simplex[0], axis=1).max()
        if spread < NM_VALUE_TOL and diameter < NM_DIAMETER_TOL:
            return
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = yield xr
        if fr < values[0]:
            xe = centroid + gamma * (xr - centroid)
            fe = yield xe
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            xc = centroid + rho * (simplex[-1] - centroid)
            fc = yield xc
            if fc < values[-1]:
                simplex[-1], values[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    x = simplex[0] + sigma * (simplex[i] - simplex[0])
                    simplex[i], values[i] = x, (yield x)


def nelder_mead(obj: ObjectiveSpec, x0) -> OptResult:
    """Simplex search with alpha=1, gamma=2, rho=0.5, sigma=0.5.

    The initial simplex is x0 plus per-coordinate steps; iteration stops when
    the simplex value spread and diameter fall under their tolerances or the
    evaluation budget runs out (best-so-far is returned either way).
    """
    return _run(obj, x0, _nelder_mead_body)


def _fd_body(x0: np.ndarray) -> Body:
    x = np.array(x0)
    fx = yield x
    while True:
        grad = np.zeros_like(x)
        for i in range(len(x)):
            e = np.zeros_like(x)
            e[i] = FD_EPSILON
            grad[i] = ((yield x + e) - (yield x - e)) / (2 * FD_EPSILON)
        if np.abs(grad).max() < FD_GRAD_TOL:
            return
        t = FD_STEP
        for _ in range(30):
            xt = x - t * grad
            ft = yield xt
            if ft <= fx - 1e-4 * t * float(grad @ grad):
                x, fx = xt, ft
                break
            t *= 0.5
        else:
            return  # no descent along the gradient at any scale


def fd_gradient_descent(obj: ObjectiveSpec, x0) -> OptResult:
    """Central-difference gradient descent with backtracking line search.

    Accepted values are monotonically nonincreasing; stops when the gradient
    infinity-norm falls below FD_GRAD_TOL or the budget runs out.
    """
    return _run(obj, x0, _fd_body)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(x: np.ndarray, axis: int, a: float, b: float):
    """Golden-section search along one axis of x on [a, b]; returns the
    best abscissa and its value."""

    def at(t):
        xt = np.array(x)
        xt[axis] = t
        return xt

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = yield at(c)
    fd = yield at(d)
    while abs(b - a) > COORD_AXIS_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = yield at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = yield at(d)
    return (c, fc) if fc < fd else (d, fd)


def _coordinate_body(x0: np.ndarray) -> Body:
    x = np.array(x0)
    fx = yield x
    while True:
        f_before = fx
        for axis in range(len(x)):
            center = x[axis]
            best_t, best_f = yield from _golden(
                x, axis, center - COORD_SPAN, center + COORD_SPAN)
            if best_f < fx:
                x[axis] = best_t
                fx = best_f
        if f_before - fx < COORD_VALUE_TOL:
            return


def coordinate_search(obj: ObjectiveSpec, x0) -> OptResult:
    """Cyclic coordinate descent; each axis is refined by golden-section
    search on a bracket of +-COORD_SPAN around the current point."""
    return _run(obj, x0, _coordinate_body)


_REGISTRY = {
    "tnc": coordinate_search,
    "cbla": coordinate_search,
    "bfsg": fd_gradient_descent,
    "gc": fd_gradient_descent,
    "slsqp": fd_gradient_descent,
    "nm": nelder_mead,
}


def get_optimizer(label: str) -> Callable:
    """Solver label -> implementation; the conventional labels alias the
    three in-repo families so adaptive selection keeps its full domain."""
    try:
        return _REGISTRY[label]
    except KeyError:
        raise KeyError(f"unknown optimizer label {label!r}") from None
