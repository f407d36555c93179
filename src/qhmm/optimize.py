"""Derivative-free and finite-difference local optimizers.

Three self-contained families cover the roles of the usual scipy solvers:
a Nelder-Mead simplex, central-difference gradient descent with backtracking,
and cyclic coordinate descent with golden-section refinement. The registry
maps the conventional solver labels onto these families so adaptive solver
selection can keep its full label set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class ObjectiveSpec:
    arity: int
    evaluate: Callable[[np.ndarray], float]
    budget: int = 1000
    target: Optional[float] = None  # stop once best <= target

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


class _Budget:
    """Counts evaluations, tracks the incumbent and enforces the budget."""

    def __init__(self, obj: ObjectiveSpec, x0: np.ndarray):
        self.obj = obj
        self.count = 0
        self.best_x = np.array(x0, dtype=float)
        self.best_f = math.inf
        self.exhausted = False

    def __call__(self, x: np.ndarray) -> float:
        if self.count >= self.obj.budget:
            self.exhausted = True
            raise _OutOfBudget
        self.count += 1
        f = float(self.obj.evaluate(np.asarray(x, dtype=float)))
        if f < self.best_f:
            self.best_f = f
            self.best_x = np.array(x, dtype=float)
        if self.obj.target is not None and self.best_f <= self.obj.target:
            raise _TargetReached
        return f

    def result(self, converged: bool) -> OptResult:
        return OptResult(
            best_params=self.best_x,
            best_value=self.best_f,
            evaluations=self.count,
            converged=converged and not self.exhausted,
        )


class _OutOfBudget(Exception):
    pass


class _TargetReached(Exception):
    pass


def _run(obj, x0, body) -> OptResult:
    x0 = np.asarray(x0, dtype=float)
    tracker = _Budget(obj, x0)
    if obj.arity == 0:
        try:
            tracker(x0)
        except (_OutOfBudget, _TargetReached):
            pass
        return tracker.result(converged=True)
    try:
        converged = body(tracker, x0)
    except _TargetReached:
        converged = True
    except _OutOfBudget:
        converged = False
    return tracker.result(converged)


def nelder_mead(
    obj: ObjectiveSpec,
    x0,
    initial_step: float = 0.25,
    value_tol: float = 1e-10,
    diameter_tol: float = 1e-8,
) -> OptResult:
    """Simplex search with alpha=1, gamma=2, rho=0.5, sigma=0.5.

    The initial simplex is x0 plus per-coordinate steps; iteration stops when
    the simplex value spread and diameter fall under their tolerances or the
    evaluation budget runs out (best-so-far is returned either way).
    """
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5

    def body(f, x0):
        n = len(x0)
        simplex = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
        simplex[np.arange(1, n + 1), np.arange(n)] += initial_step
        values = np.array([f(x) for x in simplex])
        while True:
            order = np.argsort(values)
            simplex, values = simplex[order], values[order]
            spread = values[-1] - values[0]
            diameter = np.linalg.norm(simplex[1:] - simplex[0], axis=1).max()
            if spread < value_tol and diameter < diameter_tol:
                return True
            centroid = np.mean(simplex[:-1], axis=0)
            xr = centroid + alpha * (centroid - simplex[-1])
            fr = f(xr)
            if fr < values[0]:
                xe = centroid + gamma * (xr - centroid)
                fe = f(xe)
                if fe < fr:
                    simplex[-1], values[-1] = xe, fe
                else:
                    simplex[-1], values[-1] = xr, fr
            elif fr < values[-2]:
                simplex[-1], values[-1] = xr, fr
            else:
                xc = centroid + rho * (simplex[-1] - centroid)
                fc = f(xc)
                if fc < values[-1]:
                    simplex[-1], values[-1] = xc, fc
                else:
                    for i in range(1, n + 1):
                        x = simplex[0] + sigma * (simplex[i] - simplex[0])
                        simplex[i], values[i] = x, f(x)

    return _run(obj, x0, body)


def fd_gradient_descent(
    obj: ObjectiveSpec,
    x0,
    step: float = 0.5,
    fd_epsilon: float = 1e-5,
    grad_tol: float = 1e-7,
) -> OptResult:
    """Central-difference gradient descent with backtracking line search.

    Accepted values are monotonically nonincreasing; stops when the gradient
    infinity-norm falls below grad_tol or the budget runs out.
    """

    def body(f, x0):
        x = np.array(x0, dtype=float)
        fx = f(x)
        while True:
            grad = np.zeros_like(x)
            for i in range(len(x)):
                e = np.zeros_like(x)
                e[i] = fd_epsilon
                grad[i] = (f(x + e) - f(x - e)) / (2 * fd_epsilon)
            gnorm = np.abs(grad).max()
            if gnorm < grad_tol:
                return True
            t = step
            improved = False
            for _ in range(30):
                xt = x - t * grad
                ft = f(xt)
                if ft <= fx - 1e-4 * t * float(grad @ grad):
                    x, fx = xt, ft
                    improved = True
                    break
                t *= 0.5
            if not improved:
                return True  # no descent along the gradient at any scale

    return _run(obj, x0, body)


def coordinate_search(
    obj: ObjectiveSpec,
    x0,
    span: float = 1.0,
    axis_tol: float = 1e-8,
    value_tol: float = 1e-12,
) -> OptResult:
    """Cyclic coordinate descent; each axis is refined by golden-section
    search on a bracket of +-span around the current point."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def golden(f, x, axis, lo, hi):
        a, b = lo, hi
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        xc = np.array(x)
        xc[axis] = c
        fc = f(xc)
        xd = np.array(x)
        xd[axis] = d
        fd = f(xd)
        while abs(b - a) > axis_tol:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                xc = np.array(x)
                xc[axis] = c
                fc = f(xc)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                xd = np.array(x)
                xd[axis] = d
                fd = f(xd)
        return (c, fc) if fc < fd else (d, fd)

    def body(f, x0):
        x = np.array(x0, dtype=float)
        fx = f(x)
        while True:
            f_before = fx
            for axis in range(len(x)):
                center = x[axis]
                best_t, best_f = golden(f, x, axis, center - span, center + span)
                if best_f < fx:
                    x[axis] = best_t
                    fx = best_f
            if f_before - fx < value_tol:
                return True

    return _run(obj, x0, body)


_REGISTRY = {
    "tnc": coordinate_search,
    "cbla": coordinate_search,
    "bfsg": fd_gradient_descent,
    "gc": fd_gradient_descent,
    "slsqp": fd_gradient_descent,
    "nm": nelder_mead,
}


def registry() -> dict[str, Callable]:
    """Solver label -> implementation; the conventional labels alias the
    three in-repo families so adaptive selection keeps its full domain."""
    return dict(_REGISTRY)


def get_optimizer(label: str) -> Callable:
    try:
        return _REGISTRY[label]
    except KeyError:
        raise KeyError(f"unknown optimizer label {label!r}") from None
