"""Derivative-free and finite-difference local optimizers.

Three self-contained families cover the roles of the usual scipy solvers:
a Nelder-Mead simplex, central-difference gradient descent with backtracking,
and cyclic coordinate descent with golden-section refinement. Each family is
a generator body that yields the points it wants evaluated, one point or a
(B, P) block at a time, or a golden-section point along one axis, and is
sent their values; it may also name the points it will likely ask next, to
be prepared as one block. A fit, ``_fit``, is a generator as well: it
drives one body against the budget, yields only the point or block the
objective must evaluate, and returns its ``OptResult``, so a caller's
generator can ``yield from`` it. ``_run`` evaluates the asks of its fits:
given an (R, P) array of starts, it runs R fits in lockstep, one objective
call for the asks of every live fit per tick. The label table maps the
conventional solver labels onto these families so adaptive solver
selection can keep its full label set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Generator, Optional, Union

import numpy as np

# yields a point, a (B, P) block or a golden-section point (x, axis, t), and
# is sent its value or the (B,) values; or yields a list of points to prepare,
# and is sent None
Body = Generator[Union[np.ndarray, tuple, list],
                 Union[float, np.ndarray, None], None]

NM_INITIAL_STEP, NM_VALUE_TOL, NM_DIAMETER_TOL = 0.25, 1e-10, 1e-8
# a fit prepares its next contraction while at least this share of its
# iterations after a contraction contracted again: a 2-row block costs
# 1.3-1.4 single points, so a prepare pays above a share of 0.3-0.4
NM_PREPARE_SHARE = 0.4
FD_STEP, FD_EPSILON, FD_GRAD_TOL = 0.5, 1e-5, 1e-7
FD_STEPS = [FD_STEP * 0.5**i for i in range(30)]  # the backtracking steps
COORD_SPAN, COORD_AXIS_TOL, COORD_VALUE_TOL = 1.0, 1e-8, 1e-12


@dataclass
class ObjectiveSpec:
    """The function to minimize: ``evaluate`` maps (P,) parameters to their
    value and a (B, P) block to the (B,) values of its rows. The optional
    ``line`` maps (P,) parameters x and an axis j to the function
    t -> evaluate(x with x[j] = t), equal up to rounding; coordinate search
    then reads the golden-section points of each axis search from one line
    instead of evaluating each.

    An objective with a line may also be asked for rows that are not
    evaluations: the samples of a line, and points a body prepared but did
    not read. Its ``evaluate`` must give each row of a block the value of
    that row alone, bit for bit. Every point a body reads, from a block,
    from a line or prepared, is one evaluation."""

    arity: int
    evaluate: Callable[[np.ndarray], Union[float, np.ndarray]]
    budget: int = 1000
    line: Optional[Callable[[np.ndarray, int], Callable[[float], float]]] = None

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be >= 0")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass
class OptResult:
    """A fit's best point and value, its evaluation count, whether its body
    returned within the budget, and the incumbent value after each
    evaluation. A lockstep run returns its best fit (the first with the
    lowest value) with ``evaluations`` summed over all fits, every fit's own
    result in ``fits``, in start order, and the best one's index there in
    ``best_fit``."""

    best_params: np.ndarray
    best_value: float
    evaluations: int
    converged: bool
    trace: list = field(default_factory=list)
    fits: list = field(default_factory=list)
    best_fit: int = 0


def _fit(obj: ObjectiveSpec, x0: np.ndarray, body: Callable[[np.ndarray], Body]
         ) -> Generator[np.ndarray, Union[float, np.ndarray], OptResult]:
    """One body driven against the budget, as a generator: it yields each
    (P,) point or (B, P) block that the objective must evaluate, is sent its
    value or the (B,) values of its rows, and returns the fit's
    ``OptResult``, with the best point evaluated. The fit converged when its
    body returned; it did not when the body asked for a point past the
    budget. A fit with no parameters asks for x0 alone and runs no body.

    A block is cut where the budget ends, so the count, the incumbent and
    the flag are those of asking its rows one by one; the body hears its
    values once all its rows are evaluated. A golden-section point
    (x, axis, t) is the point x with x[axis] = t or, when the objective has
    a line, is read from the line along that axis through x, built once per
    search (its x, one object for all its points). When the objective has a
    line, a list of points the body yields is asked as one block, cut where
    the budget ends (unless that leaves a single row), and a later ask of
    one of those points, the same object unchanged, is answered from it;
    without a line the list is passed over and the points are evaluated
    when asked. Each point the body reads is one evaluation, traced and kept
    as the incumbent as when it is asked alone; the count is the trace's
    length."""
    budget, line = obj.budget, obj.line
    best_x, best_f = np.array(x0), math.inf
    trace: list[float] = []
    along = None  # (x, line) of the last golden-section search
    ready = {}  # id(point) -> (point, value) of the prepared points
    asks = body(x0) if obj.arity else (x for x in [x0])  # x0 alone
    try:
        ask = asks.send(None)
        while len(trace) < budget:
            if type(ask) is np.ndarray:
                if ask.ndim == 1:  # a point, or a prepared point
                    if ready and id(ask) in ready:
                        f = ready.pop(id(ask))[1]
                    else:
                        f = float((yield ask))
                    if f < best_f:
                        best_x, best_f = np.array(ask, dtype=float), f
                    trace.append(best_f)
                    ask = asks.send(f)
                    continue
                rows = ask[:budget - len(trace)]  # a block
                values = [float(f) for f in (yield rows)]
                for x, f in zip(rows, values):
                    if f < best_f:
                        best_x, best_f = np.array(x, dtype=float), f
                    trace.append(best_f)
                if len(rows) < len(ask):
                    break
                ask = asks.send(np.array(values))
            elif type(ask) is list:  # points to prepare
                rows = ask[:budget - len(trace)]
                if line is not None and len(rows) > 1:
                    values = yield np.array(rows)[:]  # a view, as every block
                    ready = {id(x): (x, float(f)) for x, f in zip(rows, values)}
                ask = asks.send(None)
            else:  # a golden-section point
                x, axis, t = ask
                if line is None:  # a plain point, asked on the next pass
                    ask = np.array(x)
                    ask[axis] = t
                    continue
                if along is None or along[0] is not x:
                    along = (x, line(x, axis))
                f = float(along[1](t))
                if f < best_f:
                    best_x, best_f = np.array(x), f
                    best_x[axis] = t
                trace.append(best_f)
                ask = asks.send(f)
    except StopIteration:
        return OptResult(best_x, best_f, len(trace), True, trace)
    return OptResult(best_x, best_f, len(trace), False, trace)


def _run(obj: ObjectiveSpec, x0, body: Callable[[np.ndarray], Body]) -> OptResult:
    """Evaluate the points a body asks for, up to the budget.

    One fit (``_fit``) runs per row of an (R, P) x0, in lockstep: each tick
    evaluates the asks of every live fit in one objective call, a point
    asked by the only live fit as a point and a lone block as it is. A (P,)
    x0 returns its fit's result, an (R, P) x0 its best fit (see
    ``OptResult``). A start whose last axis is not the objective's arity,
    or an (R, P) start with no rows, is refused.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[-1] != obj.arity:
        raise ValueError(f"the objective takes {obj.arity} parameters, but "
                         f"the start has shape {x0.shape}")
    if x0.ndim == 2 and not len(x0):  # a (0,) start is one parameterless fit
        raise ValueError(f"the start array of shape {x0.shape} holds no starts")
    fits = [_fit(obj, start, body) for start in np.atleast_2d(x0)]
    results, sent = [None] * len(fits), [None] * len(fits)
    live = list(range(len(fits)))  # the fits still running, in start order
    evaluate = obj.evaluate
    while live:
        if len(live) == 1:  # a lone fit's ask, as it is
            r = live[0]
            try:
                ask = fits[r].send(sent[r])
            except StopIteration as done:
                results[r], live = done.value, []
                continue
            sent[r] = evaluate(ask)
            continue
        asks = []  # (fit index, ask) of each live fit
        for r in live:
            try:
                asks.append((r, fits[r].send(sent[r])))
            except StopIteration as done:
                results[r] = done.value
        live = [r for r, _ in asks]
        if len(asks) == 1:
            r, ask = asks[0]
            sent[r] = evaluate(ask)
        elif asks:
            blocks = [ask if ask.ndim == 2 else ask[None] for _, ask in asks]
            values, at = evaluate(np.concatenate(blocks)), 0
            for (r, ask), rows in zip(asks, blocks):
                sent[r] = values[at] if ask.ndim == 1 else values[at:at + len(rows)]
                at += len(rows)
    if x0.ndim == 1:
        return results[0]
    best = min(range(len(results)), key=lambda r: results[r].best_value)
    return replace(results[best], fits=results, best_fit=best,
                   evaluations=sum(res.evaluations for res in results))


def _nelder_mead_body(x0: np.ndarray) -> Body:
    gamma, rho, sigma = 2.0, 0.5, 0.5
    n = len(x0)
    simplex = np.tile(x0, (n + 1, 1))
    simplex[np.arange(1, n + 1), np.arange(n)] += NM_INITIAL_STEP
    values = yield simplex
    contracted, after, again = False, 1, 1  # one of each counted in
    while True:
        order = values.argsort()
        simplex, values = simplex.take(order, 0), values[order]
        if values[-1] - values[0] < NM_VALUE_TOL:
            # the diameter in np.linalg.norm's arithmetic, without its dispatch
            edges = simplex[1:] - simplex[0]
            if np.sqrt(np.add.reduce(edges * edges, 1)).max() < NM_DIAMETER_TOL:
                return
        centroid = np.add.reduce(simplex[:-1], 0) / n  # np.mean's arithmetic
        xr = centroid + (centroid - simplex[-1])  # alpha = 1
        xc = None
        if contracted and again >= NM_PREPARE_SHARE * after:
            xc = centroid + rho * (simplex[-1] - centroid)
            yield [xr, xc]  # likely to contract again: prepare both points
        fr = yield xr
        follows, contracted = contracted, False
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
            contracted = True
            if xc is None:
                xc = centroid + rho * (simplex[-1] - centroid)
            fc = yield xc
            if fc < values[-1]:
                simplex[-1], values[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + sigma * (simplex[1:] - simplex[0])
                values[1:] = yield simplex[1:]
        if follows:
            after, again = after + 1, again + contracted


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
    steps = FD_EPSILON * np.eye(len(x))
    ladder = 1  # trials the last accepted step took: that many are prepared
    while True:
        # central-difference probes x + e_i, x - e_i, in that order per axis
        probes = np.stack([x + steps, x - steps], axis=1).reshape(-1, len(x))
        fp = yield probes
        grad = (fp[0::2] - fp[1::2]) / (2 * FD_EPSILON)
        if np.abs(grad).max() < FD_GRAD_TOL:
            return
        slope = float(grad @ grad)
        for i, t in enumerate(FD_STEPS):
            if i % ladder == 0:
                trials = [x - s * grad for s in FD_STEPS[i:i + ladder]]
                if len(trials) > 1:
                    yield trials
            xt = trials[i % ladder]
            ft = yield xt
            if ft <= fx - 1e-4 * t * slope:
                x, fx, ladder = xt, ft, i + 1
                break
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
    best abscissa and its value. Each point t is asked as (x, axis, t), with
    one copy of x for the whole search, which ``_fit`` evaluates as a point
    or reads from the objective's line."""
    x = np.array(x)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = yield x, axis, c
    fd = yield x, axis, d
    while abs(b - a) > COORD_AXIS_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = yield x, axis, c
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = yield x, axis, d
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
    search on a bracket of +-COORD_SPAN around the current point. With the
    objective's ``line``, each axis costs one line and no further objective
    call; every golden-section point still counts as one evaluation."""
    return _run(obj, x0, _coordinate_body)


_REGISTRY = {
    "tnc": coordinate_search,
    "cbla": coordinate_search,
    "bfsg": fd_gradient_descent,
    "gc": fd_gradient_descent,
    "slsqp": fd_gradient_descent,
    "nm": nelder_mead,
}
OPTIMIZER_LABELS = tuple(_REGISTRY)


def get_optimizer(label: str) -> Callable:
    """Solver label -> implementation; the conventional labels alias the
    three in-repo families so adaptive selection keeps its full domain."""
    try:
        return _REGISTRY[label]
    except KeyError:
        raise KeyError(f"unknown optimizer label {label!r}") from None
