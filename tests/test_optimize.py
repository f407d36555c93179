import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhmm.optimize import (
    ObjectiveSpec,
    OptResult,
    coordinate_search,
    fd_gradient_descent,
    get_optimizer,
    nelder_mead,
)

ALL_OPTIMIZERS = [nelder_mead, fd_gradient_descent, coordinate_search]


def rowwise(f):
    """A one-point objective that also takes a (B, P) block, row by row, as
    ``ObjectiveSpec.evaluate`` must."""
    def evaluate(x):
        return np.array([f(row) for row in x]) if np.ndim(x) == 2 else f(x)

    return evaluate


def quadratic_1d():
    return ObjectiveSpec(arity=1, evaluate=rowwise(lambda x: (x[0] - 2.0) ** 2),
                         budget=500)


def rosenbrock(x):
    return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2


def test_nelder_mead_quadratic():
    res = nelder_mead(quadratic_1d(), [0.0])
    assert abs(res.best_params[0] - 2.0) < 1e-4
    assert res.converged


def test_nelder_mead_rosenbrock():
    obj = ObjectiveSpec(arity=2, evaluate=rowwise(rosenbrock), budget=5000)
    res = nelder_mead(obj, [-1.0, 1.0])
    assert res.best_value < 1e-6


def test_nelder_mead_constant_objective():
    obj = ObjectiveSpec(arity=2, evaluate=rowwise(lambda x: 1.0), budget=200)
    res = nelder_mead(obj, [3.0, 4.0])
    assert res.converged
    assert res.best_value == 1.0


def test_fd_quadratic_bowl():
    obj = ObjectiveSpec(arity=2, evaluate=rowwise(lambda x: (x**2).sum()),
                        budget=2000)
    res = fd_gradient_descent(obj, [1.0, -2.0])
    assert res.best_value < 1e-6


def test_fd_gradient_matches_analytic():
    # central differences on a quadratic are exact to O(eps^2)
    calls = []

    def f(x):
        calls.append(np.array(x))
        return 3 * x[0] ** 2 + 2 * x[0]

    obj = ObjectiveSpec(arity=1, evaluate=rowwise(f), budget=3)
    fd_gradient_descent(obj, [1.0])
    plus, minus = calls[1], calls[2]
    grad = (f(plus) - f(minus)) / (2e-5)
    assert abs(grad - 8.0) < 1e-6  # d/dx (3x^2+2x) at 1 = 8


def test_zero_arity_returns_x0():
    for opt in ALL_OPTIMIZERS:
        obj = ObjectiveSpec(arity=0, evaluate=rowwise(lambda x: 5.0), budget=10)
        res = opt(obj, np.zeros(0))
        assert res.best_value == 5.0
        assert res.evaluations == 1
        assert res.converged


@pytest.mark.parametrize("opt", ALL_OPTIMIZERS)
@pytest.mark.parametrize("arity,shape", [(3, (2,)), (0, (4,)), (2, (3,)),
                                         (3, (2, 5)), (0, (2, 1)), (1, ()),
                                         (2, (2, 2, 2))])
def test_start_must_match_the_arity(opt, arity, shape):
    # a start whose last axis is not the arity used to run a fit of its own
    # size (or, with no parameters, to evaluate it); it is refused before
    # any evaluation, naming both sizes
    seen = []
    obj = ObjectiveSpec(arity=arity, evaluate=lambda x: seen.append(x) or 0.0,
                        budget=50)
    with pytest.raises(ValueError) as err:
        opt(obj, np.ones(shape))
    assert f"takes {arity} parameters" in str(err.value)
    assert f"shape {shape}" in str(err.value)
    assert seen == []


@pytest.mark.parametrize("opt", ALL_OPTIMIZERS)
@pytest.mark.parametrize("arity", [2, 0])
def test_empty_start_array_is_refused(opt, arity):
    # an (R, P) start with no rows used to fail in the best-fit pick with
    # "min() arg is an empty sequence"; it is refused by name before any
    # evaluation, while a (0,) start stays one fit of no parameters
    seen = []
    obj = ObjectiveSpec(arity=arity, evaluate=lambda x: seen.append(x) or 0.0,
                        budget=50)
    with pytest.raises(ValueError, match=r"start array of shape \(0, "
                       f"{arity}\\) holds no starts"):
        opt(obj, np.zeros((0, arity)))
    assert seen == []


def test_coordinate_search_separable_quadratic():
    obj = ObjectiveSpec(
        arity=3,
        evaluate=rowwise(lambda x: ((x - np.array([1.0, -0.5, 0.25])) ** 2).sum()),
        budget=5000,
    )
    res = coordinate_search(obj, np.zeros(3))
    assert res.best_value < 1e-8


def test_coordinate_search_budget_one():
    obj = ObjectiveSpec(arity=2, evaluate=rowwise(lambda x: (x**2).sum()),
                        budget=1)
    res = coordinate_search(obj, [1.0, 1.0])
    assert res.evaluations == 1
    assert not res.converged
    assert res.best_value == 2.0


def test_budget_exhaustion_returns_best_so_far():
    obj = ObjectiveSpec(arity=2, evaluate=rowwise(rosenbrock), budget=25)
    res = nelder_mead(obj, [-1.0, 1.0])
    assert res.evaluations == 25
    assert not res.converged
    assert res.best_value <= rosenbrock(np.array([-1.0, 1.0])) + 1e-12


def test_registry_labels():
    labels = {"tnc": coordinate_search, "cbla": coordinate_search,
              "bfsg": fd_gradient_descent, "gc": fd_gradient_descent,
              "slsqp": fd_gradient_descent, "nm": nelder_mead}
    for label, opt in labels.items():
        assert get_optimizer(label) is opt


def test_registry_unknown_label():
    with pytest.raises(KeyError):
        get_optimizer("adam")


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_never_worse_than_start(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    h = a @ a.T + 0.1 * np.eye(dim)
    b = rng.normal(size=dim)

    def f(x):
        return float(x @ h @ x + b @ x)

    x0 = rng.normal(size=dim)
    f0 = f(x0)
    for opt in ALL_OPTIMIZERS:
        res = opt(ObjectiveSpec(arity=dim, evaluate=rowwise(f), budget=300), x0)
        assert res.best_value <= f0 + 1e-12


def test_determinism():
    for opt in ALL_OPTIMIZERS:
        obj1 = ObjectiveSpec(arity=2, evaluate=rowwise(rosenbrock), budget=400)
        obj2 = ObjectiveSpec(arity=2, evaluate=rowwise(rosenbrock), budget=400)
        r1 = opt(obj1, [0.5, 0.5])
        r2 = opt(obj2, [0.5, 0.5])
        assert np.array_equal(r1.best_params, r2.best_params)
        assert r1.best_value == r2.best_value
        assert r1.evaluations == r2.evaluations


@pytest.mark.parametrize(
    "name,f,x0,optimum,tol,budget",
    [
        ("sphere", lambda x: float((x**2).sum()), [1.2, -0.7, 0.4], 0.0, 1e-4, 3000),
        ("rosenbrock", rosenbrock, [-1.0, 1.0], 0.0, 1e-4, 6000),
        ("abs-corner", lambda x: float(np.abs(x).sum()), [0.8, -0.6], 0.0, 1e-4, 4000),
        ("rastrigin-basin",
         lambda x: float(10 * len(x) + (x**2 - 10 * np.cos(2 * np.pi * x)).sum()),
         [0.05, -0.04], 0.0, 1e-4, 4000),
        ("booth",
         lambda x: float((x[0] + 2 * x[1] - 7) ** 2 + (2 * x[0] + x[1] - 5) ** 2),
         [0.0, 0.0], 0.0, 1e-4, 6000),
    ],
)
def test_benchmark_functions_nm(name, f, x0, optimum, tol, budget):
    res = nelder_mead(
        ObjectiveSpec(arity=len(x0), evaluate=rowwise(f), budget=budget),
        np.array(x0))
    assert res.best_value - optimum < tol, name


# --- frozen oracles ---------------------------------------------------------
# Callable-style bodies and driver as they stood before the optimizers became
# generators. Each body calls f(x), which raises _OutOfBudget past the
# budget; the oracles use nothing from qhmm.optimize but its two dataclasses.

class _OutOfBudget(Exception):
    pass


class _Budget:
    """Counts evaluations, tracks the incumbent and enforces the budget."""

    def __init__(self, obj, x0):
        self.obj = obj
        self.count = 0
        self.best_x = np.array(x0, dtype=float)
        self.best_f = np.inf
        self.exhausted = False

    def __call__(self, x):
        if self.count >= self.obj.budget:
            self.exhausted = True
            raise _OutOfBudget
        self.count += 1
        f = float(self.obj.evaluate(np.asarray(x, dtype=float)))
        if f < self.best_f:
            self.best_f = f
            self.best_x = np.array(x, dtype=float)
        return f


def _frozen_run(obj, x0, body):
    x0 = np.asarray(x0, dtype=float)
    tracker = _Budget(obj, x0)
    if obj.arity == 0:
        try:
            tracker(x0)
        except _OutOfBudget:
            pass
        return OptResult(tracker.best_x, tracker.best_f, tracker.count, True)
    try:
        converged = body(tracker, x0)
    except _OutOfBudget:
        converged = False
    return OptResult(tracker.best_x, tracker.best_f, tracker.count,
                     converged and not tracker.exhausted)


def _reference_nelder_mead(obj, x0, initial_step=0.25, value_tol=1e-10,
                           diameter_tol=1e-8):
    """Frozen list-based Nelder-Mead body: the oracle for the array one."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5

    def body(f, x0):
        n = len(x0)
        simplex = [np.array(x0, dtype=float)]
        for i in range(n):
            x = np.array(x0, dtype=float)
            x[i] += initial_step
            simplex.append(x)
        values = [f(x) for x in simplex]
        while True:
            order = np.argsort(values)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            spread = values[-1] - values[0]
            diameter = max(np.linalg.norm(s - simplex[0]) for s in simplex[1:])
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
                    for i in range(1, len(simplex)):
                        simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                        values[i] = f(simplex[i])

    return _frozen_run(obj, x0, body)


def _reference_fd_gradient_descent(obj, x0, step=0.5, fd_epsilon=1e-5,
                                   grad_tol=1e-7):
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

    return _frozen_run(obj, x0, body)


def _reference_coordinate_search(obj, x0, span=1.0, axis_tol=1e-8,
                                 value_tol=1e-12):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0

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

    return _frozen_run(obj, x0, body)


FROZEN = {
    "nm": (nelder_mead, _reference_nelder_mead),
    "fd": (fd_gradient_descent, _reference_fd_gradient_descent),
    "coord": (coordinate_search, _reference_coordinate_search),
}


def _seeded_objective(kind, seed):
    rng = np.random.default_rng(seed)
    dim = 0 if kind == "empty" else int(rng.integers(2, 6))
    if kind == "quadratic":
        a = rng.normal(size=(dim, dim))
        h, b = a @ a.T + 0.1 * np.eye(dim), rng.normal(size=dim)
        f = lambda x: float(x @ h @ x + b @ x)  # noqa: E731
    elif kind == "rosenbrock":
        f = lambda x: float(((1 - x[:-1]) ** 2  # noqa: E731
                             + 100 * (x[1:] - x[:-1] ** 2) ** 2).sum())
    elif kind == "abs":  # nonsmooth: reaches shrink steps
        w = rng.uniform(0.5, 2.0, size=dim)
        f = lambda x: float((w * np.abs(x - 0.3)).sum())  # noqa: E731
    elif kind == "rugged":  # many local basins
        f = lambda x: float((x**2 - 3 * np.cos(3 * x)).sum())  # noqa: E731
    else:  # constant, and "empty": no parameters at all
        f = lambda x: 1.5  # noqa: E731
    return dim, f, rng.normal(size=dim)


@pytest.mark.parametrize(
    "kind", ["quadratic", "rosenbrock", "abs", "rugged", "constant", "empty"])
@pytest.mark.parametrize("seed", [0, 1, 2])
# the Nelder-Mead cases keep their bare budget ids from before the other
# families joined this test
@pytest.mark.parametrize(
    "family,budget", [(fam, b) for fam in FROZEN for b in (1, 60, 3000)],
    ids=[f"{b}" if fam == "nm" else f"{fam}-{b}"
         for fam in FROZEN for b in (1, 60, 3000)])
def test_nelder_mead_matches_frozen_list_body(family, budget, kind, seed):
    dim, f, x0 = _seeded_objective(kind, seed)
    runs = []
    for opt in FROZEN[family]:
        points = []

        def record(x):
            points.append(np.array(x))
            return f(x)

        res = opt(ObjectiveSpec(arity=dim, evaluate=rowwise(record),
                                budget=budget), x0)
        runs.append((points, res))
    (got, res), (want, ref) = runs
    assert len(got) == len(want) == res.evaluations
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(res.best_params, ref.best_params)
    assert (res.best_value, res.evaluations, res.converged) == (
        ref.best_value, ref.evaluations, ref.converged)


# --- blocks and lockstep ----------------------------------------------------

def _recording(f, points, spans=None):
    """An objective that records every row it evaluates and, given
    ``spans``, (first evaluation, size) of every block it is asked for."""
    def evaluate(x):
        if np.ndim(x) == 2:
            if spans is not None:
                spans.append((len(points), len(x)))
            return np.array([evaluate(row) for row in x])
        points.append(np.array(x))
        return f(x)

    return evaluate


def _block_spans(family, kind, seed):
    """(first evaluation, size) of every block a full-budget run asks for."""
    dim, f, x0 = _seeded_objective(kind, seed)
    spans = []
    FROZEN[family][0](ObjectiveSpec(dim, _recording(f, [], spans), 3000), x0)
    return spans


def _cut_budgets():
    """Budgets that end inside a Nelder-Mead initial simplex, a shrink step
    and an fd probe block, found by running each body to the end."""
    cases = []
    for family, kind, seed in [("nm", "quadratic", 0), ("nm", "quadratic", 1),
                               ("nm", "rugged", 2), ("fd", "quadratic", 0),
                               ("fd", "rosenbrock", 1)]:
        spans = _block_spans(family, kind, seed)
        first, size = spans[0]
        cases.append((family, kind, seed, first + size // 2, "first block"))
        if family == "nm":  # the blocks after the simplex are shrinks
            first, size = next(s for s in spans[1:] if s[1] > 1)
            cases.append((family, kind, seed, first + size // 2, "shrink"))
        else:
            first, size = spans[3]
            cases.append((family, kind, seed, first + size - 1, "probes"))
    return cases


@pytest.mark.parametrize("family,kind,seed,budget,where", _cut_budgets())
def test_budget_inside_a_block_matches_frozen_body(family, kind, seed, budget,
                                                    where):
    dim, f, x0 = _seeded_objective(kind, seed)
    got, want = [], []
    res = FROZEN[family][0](ObjectiveSpec(dim, _recording(f, got), budget), x0)
    ref = FROZEN[family][1](ObjectiveSpec(dim, _recording(f, want), budget), x0)
    assert len(got) == len(want) == res.evaluations == budget, where
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(res.best_params, ref.best_params)
    assert (res.best_value, res.converged) == (ref.best_value, ref.converged)
    assert not res.converged


def test_blocks_are_asked():
    # the simplex comes first as dim + 1 rows, a shrink as dim rows, and the
    # probes after the start point as 2 * dim rows; coordinate search asks
    # one point at a time
    dim = _seeded_objective("quadratic", 1)[0]
    spans = _block_spans("nm", "quadratic", 1)
    assert spans[0] == (0, dim + 1)
    assert {size for _, size in spans[1:]} == {dim}
    assert _block_spans("fd", "quadratic", 1)[:2] == [(1, 2 * dim),
                                                      (1 + 2 * dim + 2, 2 * dim)]
    assert _block_spans("coord", "quadratic", 1) == []


@pytest.mark.parametrize("kind", ["quadratic", "abs", "rugged", "empty"])
@pytest.mark.parametrize("budget", [1, 2, 60, 3000])
def test_coordinate_search_reads_golden_points_from_the_line(kind, budget):
    # with a line equal to the objective, every golden-section point is read
    # from one line per axis search: the objective sees only the start, and
    # the points, values, count, incumbent and trace are the plain run's
    dim, f, x0 = _seeded_objective(kind, 2)
    plain, evaluated, read, lines = [], [], [], []

    def line(x, axis):
        lines.append(axis)
        base = np.delete(x, axis)

        def at(t):
            xt = np.array(x)
            xt[axis] = t
            assert np.array_equal(np.delete(xt, axis), base)
            read.append(xt)
            return f(xt)

        return at

    ref = coordinate_search(ObjectiveSpec(dim, _recording(f, plain), budget), x0)
    res = coordinate_search(
        ObjectiveSpec(dim, _recording(f, evaluated), budget, line), x0)
    assert len(evaluated) == 1
    got = evaluated + read
    assert len(got) == len(plain) == res.evaluations == ref.evaluations
    assert all(np.array_equal(a, b) for a, b in zip(got, plain))
    assert np.array_equal(res.best_params, ref.best_params)
    assert (res.best_value, res.converged, res.trace) == (
        ref.best_value, ref.converged, ref.trace)
    assert lines == [i % dim for i in range(len(lines))]
    # a search on a bracket of 2 narrows to 1e-8 in 40 steps after its
    # first two points
    assert len(lines) == -(-len(read) // 42)


@pytest.mark.parametrize("family", sorted(FROZEN))
@pytest.mark.parametrize("kind", ["quadratic", "abs", "rugged", "empty"])
@pytest.mark.parametrize("budget", [1, 9, 200])
def test_lockstep_equals_sequential_fits(family, kind, budget):
    dim, f, _ = _seeded_objective(kind, 3)
    starts = np.random.default_rng(4).normal(size=(5, dim))
    opt = FROZEN[family][0]
    single = [opt(ObjectiveSpec(dim, rowwise(f), budget), x0) for x0 in starts]
    res = opt(ObjectiveSpec(dim, rowwise(f), budget), starts)
    assert len(res.fits) == len(starts)
    for got, want in zip(res.fits, single):
        assert np.array_equal(got.best_params, want.best_params)
        assert (got.best_value, got.evaluations, got.converged, got.trace) == (
            want.best_value, want.evaluations, want.converged, want.trace)
    first = min(range(len(single)), key=lambda r: single[r].best_value)
    assert res.best_fit == first
    assert np.array_equal(res.best_params, single[first].best_params)
    assert (res.best_value, res.converged) == (
        single[first].best_value, single[first].converged)
    assert res.evaluations == sum(fit.evaluations for fit in single)


def test_lockstep_picks_first_of_equal_fits():
    starts = np.arange(8.0).reshape(4, 2)
    res = nelder_mead(ObjectiveSpec(2, rowwise(lambda x: 1.5), 50), starts)
    assert res.best_fit == 0 and np.array_equal(res.best_params, starts[0])
    assert res.evaluations == 4 * res.fits[0].evaluations


def test_trace_is_the_incumbent_after_each_evaluation():
    values = []

    def f(x):
        values.append(float((x**2).sum()))
        return values[-1]

    res = fd_gradient_descent(ObjectiveSpec(2, rowwise(f), 40), [1.0, -2.0])
    assert res.trace == list(np.minimum.accumulate(values))
    assert res.trace[-1] == res.best_value


# --- prepared points --------------------------------------------------------

def _exact_line(f):
    """The line of a one-point objective: f itself along one axis."""
    def line(x, axis):
        def at(t):
            xt = np.array(x)
            xt[axis] = t
            return f(xt)

        return at

    return line


def _line_objective(kind):
    """(arity, evaluate, line, starts) of an objective with a line: a seeded
    one with an exact line, a FitnessEngine or an ansatz objective; the
    first start is the one a lone fit takes."""
    from qhmm import classical, experiments, learning
    from qhmm.circuits import Circuit, GateSpec, real_amplitudes

    starts = np.random.default_rng(3).uniform(0.0, 2 * np.pi, size=(3, 4))
    if kind == "fitness":
        angle = (None,)
        circuit = Circuit(2, (GateSpec("RY", (0,), angle), GateSpec("CX", (0, 1)),
                              GateSpec("RX", (1,), angle),
                              GateSpec("CRY", (1, 0), angle),
                              GateSpec("P", (0,), angle)))
        market = classical.market_model()
        obj = learning.FitnessEngine(
            learning.Hypothesis(circuit, 2, 2, ("0", "1")),
            [classical.distribution(market, t) for t in (1, 2, 3)]).objective()
        # fd backtracks deep near a minimum of this nonsmooth objective:
        # the lone fit starts where a short Nelder-Mead fit ended
        starts[0] = nelder_mead(ObjectiveSpec(4, obj.evaluate, 50),
                                starts[0]).best_params
        return 4, obj.evaluate, obj.line, starts
    if kind == "ansatz":
        obj = learning.ansatz_objective(
            learning.AnsatzSpec(real_amplitudes(2, 1, "linear"), 2, 2, ("0", "1")),
            experiments.market_target_items(max_len=3))
        return obj.arity, obj.evaluate, obj.line, starts[:, :obj.arity]
    dim, f, x0 = _seeded_objective(kind, 1)
    starts = np.random.default_rng(6).normal(size=(2, dim))
    return dim, rowwise(f), _exact_line(f), np.vstack([x0, starts])


def _same_fit(got, want):
    # a fit's count is its trace's length, and a lockstep's their sum
    assert got.evaluations == sum(len(fit.trace) for fit in got.fits or [got])
    return (np.array_equal(got.best_params, want.best_params)
            and (got.best_value, got.evaluations, got.converged, got.trace)
            == (want.best_value, want.evaluations, want.converged, want.trace))


@pytest.mark.parametrize("family", ["nm", "fd"])
@pytest.mark.parametrize("kind", ["abs", "rosenbrock", "fitness", "ansatz"])
def test_prepared_points_keep_every_fit(family, kind):
    # with a line, Nelder-Mead prepares its reflection and contraction after
    # a contraction (while its contractions tend to follow each other), and
    # fd its backtracking steps as many at a time as its last accepted step
    # took; every fit, alone and in lockstep, is the one without the line
    # bit for bit, and a prepare never adds an objective call. A lone fit
    # prepares within its first 60 evaluations, so fewer calls there; every
    # budget up to 60 is run, which cuts each of those prepared sets at each
    # of its rows. fd on the ansatz objective takes each first step and
    # prepares nothing
    arity, evaluate, line, starts = _line_objective(kind)
    opt = FROZEN[family][0]

    def fit(budget, x0, with_line):
        calls = []

        def counted(x):
            calls.append(x)
            return evaluate(x)

        res = opt(ObjectiveSpec(arity, counted, budget,
                                line if with_line else None), x0)
        return res, len(calls)

    for budget in [*range(1, 61), 400]:
        for x0 in (starts[0], starts):
            (res, calls), (ref, ref_calls) = (fit(budget, x0, with_line)
                                              for with_line in (True, False))
            assert _same_fit(res, ref), (budget, x0.ndim)
            assert calls <= ref_calls, (budget, x0.ndim)
            if x0.ndim == 2:
                assert res.best_fit == ref.best_fit
                assert all(_same_fit(a, b) for a, b in zip(res.fits, ref.fits))
            elif budget == 60 and (family, kind) != ("fd", "ansatz"):
                assert calls < ref_calls


@pytest.mark.parametrize("family,with_line", [("nm", False), ("nm", True),
                                              ("fd", False), ("fd", True),
                                              ("coord", False)])
@pytest.mark.parametrize("kind", ["abs", "rugged"])
def test_one_loop_asks_a_lone_fit_as_alone(family, with_line, kind):
    # a single fit and a lockstep run through the same loop: a lone fit's
    # asks reach the objective as (P,) points or as views of its own (B, P)
    # blocks, never copied into a concatenation; while two fits live each
    # call is one concatenated block, and once only the last fit is left,
    # its calls are those of its run alone, point for point and block for
    # block. Every fit of the lockstep is its run alone bit for bit. The
    # starts lie at growing distances, so that one fit runs longest
    dim, f, _ = _seeded_objective(kind, 5)
    starts = np.random.default_rng(7).normal(size=(4, dim)) * [[1], [2], [4], [8]]
    line = _exact_line(f) if with_line else None

    def run(x0):
        calls = []

        def evaluate(x):
            calls.append((np.array(x), x.flags.owndata))
            return rowwise(f)(x)

        return FROZEN[family][0](ObjectiveSpec(dim, evaluate, 3000, line),
                                 x0), calls

    alone = [run(x0) for x0 in starts]
    for _, calls in alone:
        assert all(x.ndim == 1 or not owns for x, owns in calls)
    res, calls = run(starts)
    assert all(_same_fit(got, want) for got, (want, _) in zip(res.fits, alone))
    ticks = sorted(len(lone) for _, lone in alone)
    assert len(calls) == ticks[-1] > ticks[-2]
    last = max((lone for _, lone in alone), key=len)
    assert all(x.ndim == 2 and owns for x, owns in calls[:ticks[-2]])
    tail = calls[ticks[-2]:]
    for (x, owns), (y, lone_owns) in zip(tail, last[ticks[-2]:]):
        assert x.ndim == y.ndim and np.array_equal(x, y) and owns == lone_owns
    assert with_line or any(x.ndim == 1 for x, _ in tail)
