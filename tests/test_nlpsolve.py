import numpy as np
import pytest

from auglobatto.nlpsolve import (
    MaxIterationsError,
    SingularKktError,
    SolverOptions,
    _hessian_fd,
    _lagrangian_gradient,
    solve,
)
from auglobatto.ocp import nonlinear_ivp, orbit_raising
from auglobatto.orthopoly import lobatto_nodes
from auglobatto.transcribe import Method, assemble_solution, transcribe


class QuadraticProbe:
    """min ||z||^2 subject to A z = b, with an explicit start point.

    Quacks like a Transcript as far as the solver cares: it only needs the
    guess, the sizes, the node labels and the three callbacks.  Each unknown
    is its own node, which is exact here: the Lagrangian Hessian is 2 I.
    """

    def __init__(self, A, b, guess):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.guess = np.asarray(guess, dtype=float)
        self.n_z = self.guess.size
        self.node_labels = np.arange(self.n_z)

    def initial_guess_vector(self):
        return self.guess.copy()

    def objective_gradient(self, z):
        return 2.0 * z

    def constraints(self, z):
        return self.A @ z - self.b

    def jacobian(self, z):
        return self.A.copy()


def pin_first_coordinate(n=3, guess=None):
    A = np.zeros((1, n))
    A[0, 0] = 1.0
    if guess is None:
        guess = np.full(n, 0.7)
    return QuadraticProbe(A, [1.0], guess)


# -- quadratic probes ------------------------------------------------------


def test_quadratic_probe_solution_and_multiplier():
    z, mult, report = solve(pin_first_coordinate())
    assert report.converged
    np.testing.assert_allclose(z, [1.0, 0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(mult, [-2.0], atol=1e-8)


def test_linear_quadratic_needs_one_newton_step():
    opts = SolverOptions(kkt_tolerance=1e-6)
    _, _, report = solve(pin_first_coordinate(guess=np.array([3.0, -2.0, 5.0])), opts)
    assert report.converged
    assert report.iterations == 1


def test_duplicated_constraint_hits_the_singular_path():
    # Two copies of "z_1 = 1": the Jacobian is rank one everywhere, so the
    # plain saddle matrix is singular and only the dual-shifted branch can
    # produce steps.  The multiplier family is {(a, b): a + b = -2}; the
    # least-squares refresh should land on the symmetric member.
    A = np.zeros((2, 3))
    A[:, 0] = 1.0
    z, mult, report = solve(QuadraticProbe(A, [1.0, 1.0], np.full(3, 0.4)))
    assert report.converged
    np.testing.assert_allclose(z, [1.0, 0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(mult.sum(), -2.0, atol=1e-8)
    np.testing.assert_allclose(mult[0], mult[1], atol=1e-8)


# -- grouped Hessian -------------------------------------------------------


def hessian_by_columns(t, z, mult, step=1e-7):
    """Reference: forward differences one unknown at a time."""
    base = _lagrangian_gradient(t, z, mult)
    H = np.empty((t.n_z, t.n_z))
    for j in range(t.n_z):
        bumped = z.copy()
        bumped[j] += step
        H[:, j] = (_lagrangian_gradient(t, bumped, mult) - base) / step
    return 0.5 * (H + H.T)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize(
    "factory", [orbit_raising, lambda: nonlinear_ivp()[0]], ids=["orbit", "ivp"]
)
def test_grouped_hessian_matches_column_loop(factory, method, monkeypatch):
    defn = factory()
    t = transcribe(defn, lobatto_nodes(9), method)
    rng = np.random.default_rng(7)
    z = t.initial_guess_vector() + 0.05 * rng.standard_normal(t.n_z)
    mult = rng.standard_normal(t.n_constraints)
    gradient = t.objective_gradient
    calls = []
    monkeypatch.setattr(t, "objective_gradient", lambda zz: calls.append(1) or gradient(zz))
    H = _hessian_fd(t, z, mult)
    # The base point plus one perturbation per state and control component.
    assert len(calls) == defn.n_x + defn.n_u + 1
    reference = hessian_by_columns(t, z, mult)
    # A gradient row of one node reads only that node's unknowns, so every
    # kept difference is computed from the same numbers as its column.
    np.testing.assert_array_equal(H, reference)
    assert np.any(reference != 0.0)
    same_node = t.node_labels[:, None] == t.node_labels[None, :]
    assert np.all(reference[~same_node] == 0.0)
    if method is Method.NEW_LOBATTO:
        extra = t.node_labels == t.n
        assert np.count_nonzero(extra) == defn.n_x
        assert np.all(reference[extra] == 0.0)
        assert np.all(reference[:, extra] == 0.0)


# -- options validation ----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kkt_tolerance": 0.0},
        {"kkt_tolerance": -1e-10},
        {"kkt_tolerance": 1e-4},
        {"max_iterations": 0},
        {"regularization_initial": 0.0},
        {"line_search_shrink": 0.0},
        {"line_search_shrink": 1.0},
        {"min_step": 0.0},
    ],
)
def test_bad_options_rejected(kwargs):
    with pytest.raises(ValueError):
        SolverOptions(**kwargs)


def test_default_options():
    opts = SolverOptions()
    assert opts.kkt_tolerance == 1e-10
    assert opts.max_iterations == 200
    assert opts.regularization_initial == 1e-8
    assert opts.line_search_shrink == 0.5
    assert opts.min_step == 1e-12


# -- benchmark solves ------------------------------------------------------


@pytest.fixture(scope="module")
def ivp_n15():
    defn, truth = nonlinear_ivp()
    t = transcribe(defn, lobatto_nodes(15), Method.NEW_LOBATTO)
    z, mult, report = solve(t)
    return t, truth, z, mult, report


def test_ivp_converges_within_budget(ivp_n15):
    _, _, _, _, report = ivp_n15
    assert report.converged
    # Reference runs take 8 iterations; 60 is the contractual ceiling.
    assert report.iterations <= 60


def test_converged_report_is_consistent(ivp_n15):
    t, _, z, mult, report = ivp_n15
    assert report.final_kkt_norm <= SolverOptions().kkt_tolerance
    grad = t.objective_gradient(z) + t.jacobian(z).T @ mult
    assert np.max(np.abs(grad)) <= 1e-10
    assert np.max(np.abs(t.constraints(z))) <= 1e-10


def test_ivp_solution_matches_analytic(ivp_n15):
    t, truth, z, mult, report = ivp_n15
    sol = assemble_solution(t, z, mult, report.final_kkt_norm)
    tc = t.collocation_times
    assert np.max(np.abs(sol.states[:15, 0] - truth.state_fn(tc))) < 1e-7
    assert np.max(np.abs(sol.costates[:, 0] - truth.costate_fn(tc))) < 1e-8


def test_accepted_merits_decrease(ivp_n15):
    _, _, _, _, report = ivp_n15
    merits = [m for _, m, _ in report.step_history]
    assert len(merits) == report.iterations
    assert all(b < a for a, b in zip(merits, merits[1:]))


def test_max_iterations_carries_report():
    defn, _ = nonlinear_ivp()
    t = transcribe(defn, lobatto_nodes(15), Method.NEW_LOBATTO)
    with pytest.raises(MaxIterationsError) as err:
        solve(t, SolverOptions(max_iterations=3))
    report = err.value.report
    assert not report.converged
    assert report.iterations == 3
    assert np.isfinite(report.final_kkt_norm)


def test_orbit_raising_converges():
    t = transcribe(orbit_raising(), lobatto_nodes(25), Method.NEW_LOBATTO)
    z, mult, report = solve(t)
    assert report.converged
    boundary = t.constraints(z)[t.n_defect :]
    assert boundary.size == 7
    assert np.max(np.abs(boundary)) <= 1e-9


def test_standard_method_states_fine_costates_wrong():
    # The square Lobatto transcript loses a Jacobian rank at the optimum,
    # so its multipliers are arbitrary within an affine family; states
    # still collocate sharply while recovered costates sit far from truth.
    defn, truth = nonlinear_ivp()
    t = transcribe(defn, lobatto_nodes(12), Method.STANDARD_LOBATTO)
    z, mult, report = solve(t)
    assert report.converged
    sol = assemble_solution(t, z, mult, report.final_kkt_norm)
    tc = t.collocation_times
    assert np.max(np.abs(sol.states[:, 0] - truth.state_fn(tc))) < 1e-4
    assert np.max(np.abs(sol.costates[:, 0] - truth.costate_fn(tc))) > 1e-3
