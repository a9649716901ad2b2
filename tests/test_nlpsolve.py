import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import auglobatto
from auglobatto import nlpsolve
from auglobatto.discretization import numerical_rank
from auglobatto.nlpsolve import (
    MaxIterationsError,
    SingularKktError,
    _inertia_band,
    _null_space,
    _solve_kkt,
    _stall,
    solve,
)
from auglobatto.ocp import nonlinear_ivp, orbit_raising
from auglobatto.orthopoly import lobatto_nodes
from auglobatto.transcribe import Method, assemble_solution, transcribe


class QuadraticProbe:
    """min (curvature / 2) ||z||^2 subject to A z = b, with an explicit start
    point; the default curvature gives min ||z||^2.

    Quacks like a Transcript as far as the solver cares: it only needs the
    guess, the size, the rank flag, the four callbacks and their stacked
    form.  The Lagrangian Hessian is exactly curvature * I.  The rank flag
    is that of A, the constraint Jacobian.
    """

    def __init__(self, A, b, guess, curvature=2.0):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.guess = np.asarray(guess, dtype=float)
        self.curvature = curvature
        self.n_z = self.guess.size
        self.full_row_rank = numerical_rank(self.A) == self.A.shape[0]

    def initial_guess_vector(self):
        return self.guess.copy()

    def objective_gradient(self, z):
        return self.curvature * z

    def constraints(self, z):
        return self.A @ z - self.b

    def jacobian(self, z):
        return self.A.copy()

    def hessian(self, z, mult, gradient):
        return self.curvature * np.eye(self.n_z)

    def evaluate_many(self, Z):
        callbacks = (self.objective_gradient, self.jacobian, self.constraints)
        return tuple(np.array([f(z) for z in Z]) for f in callbacks)


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
    _, _, report = solve(pin_first_coordinate(guess=np.array([3.0, -2.0, 5.0])))
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


# -- regularization start ------------------------------------------------


def first_coordinate_row(n=3):
    J = np.zeros((1, n))
    J[0, 0] = 1.0
    return J


def fresh_kkt(H, J, *args):
    """``_solve_kkt`` on a newly allocated KKT buffer."""
    size = H.shape[0] + J.shape[0]
    return _solve_kkt(np.empty((size, size), order="F"), H, J, *args)


def test_positive_reduced_hessian_starts_at_zero():
    # H is indefinite, but its negative curvature lies along the row of J,
    # so the reduced Hessian is the identity and delta = 0 already gives the
    # inertia of a minimizer.
    H = np.diag([-1.0, 1.0, 1.0])
    J = first_coordinate_row()
    fails_below, _ = _inertia_band(H, J, True)
    assert fails_below < 0.0
    step, dual_shifted = fresh_kkt(H, J, np.ones(4), 0.0, 1e6, False)
    assert step is not None and not dual_shifted


def test_negative_reduced_hessian_skips_what_fails():
    H = np.diag([1.0, -3.0, 1.0])
    J = first_coordinate_row()
    bound, _ = _inertia_band(H, J, True)
    assert 3.0 - 1e-5 < bound < 3.0
    assert fresh_kkt(H, J, np.ones(4), np.nextafter(bound, 0.0), 1e6, False)[0] is None
    assert fresh_kkt(H, J, np.ones(4), 3.5, 1e6, False)[0] is not None


def test_no_null_space_skips_nothing():
    H = -np.eye(2)
    assert _inertia_band(H, np.eye(2), True) == (-np.inf, np.inf)
    assert _inertia_band(H, np.ones((3, 2)), True) == (-np.inf, np.inf)


def test_start_beyond_cap_raises_the_old_error(monkeypatch):
    # Curvature -4e8 needs delta > 4e8, past the 1e8 cap: the doubling loop
    # rejected every try up to 1.8e8 and then gave up.  Now every try is
    # skipped, with the same bump count and the same message.
    doublings = [1e-8]
    while 2 * doublings[-1] <= 1e8:
        doublings.append(2 * doublings[-1])
    assert len(doublings) == 54
    assert nlpsolve._REGULARIZATIONS.tolist() == [0.0] + doublings
    factorizations = []
    monkeypatch.setattr(
        nlpsolve, "_solve_kkt", lambda *args: factorizations.append(1) or _solve_kkt(*args)
    )
    probe = QuadraticProbe(first_coordinate_row(), [1.0], np.full(3, 0.7), curvature=-4e8)
    with pytest.raises(SingularKktError) as err:
        solve(probe)
    assert str(err.value) == "KKT system unusable at iteration 0 (regularization 1.8e+08)"
    assert err.value.report.iterations == 0
    assert not factorizations


# -- rejected factorizations ---------------------------------------------
# Each input fails one of _solve_kkt's tests after a certified inertia, so
# the solve runs on the plain saddle matrix K.


def saddle_matrix(H, J):
    m = J.shape[0]
    return np.block([[H, J.T], [J, np.zeros((m, m))]])


def assert_rejected(H, J, rhs, step_cap):
    step, dual_shifted = fresh_kkt(H, J, rhs, 0.0, step_cap, True)
    assert step is None and not dual_shifted


def test_exactly_singular_matrix_is_rejected():
    H, J, rhs = np.diag([1.0, 0.0]), np.array([[1.0, 0.0]]), np.ones(3)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(saddle_matrix(H, J), rhs)
    assert_rejected(H, J, rhs, 1e6)


def test_non_finite_step_is_rejected():
    H, J, rhs = np.zeros((1, 1)), np.array([[1e-200]]), np.array([0.0, 1e200])
    assert not np.all(np.isfinite(np.linalg.solve(saddle_matrix(H, J), rhs)))
    assert_rejected(H, J, rhs, 1e6)


def test_inaccurate_solve_is_rejected():
    # The multiplier 1 - 1e20 rounds to -1e20, which leaves a residual of 1.
    H, J, rhs = np.array([[1e20]]), np.array([[1.0]]), np.ones(2)
    K = saddle_matrix(H, J)
    step = np.linalg.solve(K, rhs)
    assert np.all(np.isfinite(step)) and np.linalg.norm(step[:1]) <= 1e6
    assert np.linalg.norm(K @ step - rhs) > 1e-8 * max(1.0, np.linalg.norm(rhs))
    assert_rejected(H, J, rhs, 1e6)


def test_step_longer_than_the_cap_is_rejected():
    H, J, rhs = np.eye(1), np.array([[1.0]]), np.array([0.0, 10.0])
    assert_rejected(H, J, rhs, 9.0)
    step, _ = fresh_kkt(H, J, rhs, 0.0, 10.0, True)
    np.testing.assert_array_equal(step, [10.0, -10.0])


def record_factorizations(monkeypatch, t):
    """Solve t and return, per Newton step, the tries solve made as
    (H, J, rhs, delta, step_cap, step, dual_shifted, inertia_known) tuples.
    The tries run on the solve's own KKT buffer; the replays below run on
    fresh ones."""
    steps = []

    def recording(K, H, J, rhs, delta, step_cap, inertia_known):
        step, dual_shifted = _solve_kkt(K, H, J, rhs, delta, step_cap, inertia_known)
        if not steps or steps[-1][0][0] is not H:
            steps.append([])
        steps[-1].append((H, J, rhs, delta, step_cap, step, dual_shifted, inertia_known))
        return step, dual_shifted

    monkeypatch.setattr(nlpsolve, "_solve_kkt", recording)
    try:
        solve(t)
    except (MaxIterationsError, SingularKktError):
        pass
    return steps


@pytest.mark.parametrize(
    "factory, n, method",
    [(orbit_raising, 25, Method.NEW_LOBATTO)]
    + [(lambda: nonlinear_ivp()[0], n, Method.STANDARD_LOBATTO) for n in range(8, 14)],
    ids=["orbit-25"] + [f"square-ivp-{n}" for n in range(8, 14)],
)
def test_skipped_regularizations_match_doubling_from_zero(factory, n, method, monkeypatch):
    steps = record_factorizations(monkeypatch, transcribe(factory(), lobatto_nodes(n), method))
    assert steps
    skipped = 0
    for tries in steps:
        H, J, rhs, first_tried, step_cap = tries[0][:5]
        factored = next((tr for tr in tries if tr[5] is not None), None)
        # Reference: the loop that started every Newton step at delta = 0
        # and doubled from 1e-8 until a factorization passed.
        delta = 0.0
        while True:
            step, dual_shifted = fresh_kkt(H, J, rhs, delta, step_cap, False)
            if delta < first_tried:
                assert step is None
                skipped += 1
            if step is not None or delta >= tries[-1][3]:
                break
            delta = 1e-8 if delta == 0.0 else 2.0 * delta
        if factored is None:
            assert step is None
        else:
            assert delta == factored[3]
            assert dual_shifted == factored[6]
            np.testing.assert_array_equal(step, factored[5])
    # Every case starts some step past delta = 0.
    assert skipped > 0
    # The square transcripts never skip the inertia test; orbit does.
    certified = sum(tr[7] for tries in steps for tr in tries)
    assert (certified > 0) == (method is Method.NEW_LOBATTO)


@pytest.mark.parametrize(
    "factory, n",
    [(orbit_raising, n) for n in (25, 45)]
    + [(lambda: nonlinear_ivp()[0], n) for n in range(6, 26)],
    ids=["orbit-25", "orbit-45"] + [f"augmented-ivp-{n}" for n in range(6, 26)],
)
def test_certified_tries_match_the_inertia_test(factory, n, monkeypatch):
    t = transcribe(factory(), lobatto_nodes(n), Method.NEW_LOBATTO)
    steps = record_factorizations(monkeypatch, t)
    assert steps
    certified = 0
    for tries in steps:
        replayed = []
        for H, J, rhs, delta, step_cap, step, dual_shifted, inertia_known in tries:
            if not inertia_known:
                replayed.append(step)
                continue
            certified += 1
            # The eigenvalue test would have passed without a dual shift and
            # factored the same matrix.
            reference, reference_shifted = fresh_kkt(H, J, rhs, delta, step_cap, False)
            assert not reference_shifted
            assert (reference is None) == (step is None)
            if step is not None:
                np.testing.assert_array_equal(step, reference)
            replayed.append(reference)
        first = next((k for k, step in enumerate(replayed) if step is not None), None)
        assert first == next((k for k, tr in enumerate(tries) if tr[5] is not None), None)
    assert certified > 0


def kkt_eigvalsh_calls(monkeypatch, n):
    """Count the eigvalsh calls on matrices of size n from now on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: calls.append(a.shape == (n, n)) or eigvalsh(a)
    )
    return calls


def test_certified_try_skips_the_kkt_eigenvalues(monkeypatch):
    # Curvature 2 leaves a reduced Hessian of 2 I, far above the band: every
    # try is certified and only the 2 x 2 reduced Hessian is decomposed.
    calls = kkt_eigvalsh_calls(monkeypatch, 4)
    _, _, report = solve(pin_first_coordinate())
    assert report.converged
    assert len(calls) == report.iterations > 0
    assert not any(calls)


def test_delta_inside_the_band_runs_the_inertia_test(monkeypatch):
    # Curvature 1e-6 puts delta = 0 inside the band, 1e-5 wide above the
    # reduced Hessian's zero crossing: the 4 x 4 KKT matrix gets today's
    # eigenvalue test, which accepts it.
    fails_below, certain_above = _inertia_band(1e-6 * np.eye(3), first_coordinate_row(), True)
    assert fails_below < 0.0 < certain_above
    calls = kkt_eigvalsh_calls(monkeypatch, 4)
    probe = QuadraticProbe(first_coordinate_row(), [1.0], np.full(3, 0.7), curvature=1e-6)
    _, _, report = solve(probe)
    assert report.converged
    assert calls.count(True) == report.iterations > 0


def test_rank_deficient_probe_never_certifies(monkeypatch):
    # The same probe as the certified one, marked rank-deficient: every try
    # runs the eigenvalue test, and the iterates do not change.
    z, mult, _ = solve(pin_first_coordinate())
    probe = pin_first_coordinate()
    probe.full_row_rank = False
    assert _inertia_band(2.0 * np.eye(3), first_coordinate_row(), False)[1] == np.inf
    calls = kkt_eigvalsh_calls(monkeypatch, 4)
    z_tested, mult_tested, report = solve(probe)
    assert report.converged
    assert calls.count(True) == report.iterations > 0
    np.testing.assert_array_equal(z_tested, z)
    np.testing.assert_array_equal(mult_tested, mult)


def test_repeated_rows_veto_the_certificate(monkeypatch):
    # Two copies of "z_1 = 1" under a flag that claims full row rank: the
    # QR's diagonal vetoes the certificate, and every try runs the
    # eigenvalue test, as for the probe that says it is rank-deficient.
    A = np.zeros((2, 3))
    A[:, 0] = 1.0
    assert _inertia_band(2.0 * np.eye(3), A, True)[1] == np.inf
    probe = QuadraticProbe(A, [1.0, 1.0], np.full(3, 0.4))
    assert not probe.full_row_rank
    z, mult, _ = solve(probe)
    probe.full_row_rank = True
    calls = kkt_eigvalsh_calls(monkeypatch, 5)
    z_flagged, mult_flagged, report = solve(probe)
    assert report.converged
    assert calls.count(True) >= report.iterations > 0
    np.testing.assert_array_equal(z_flagged, z)
    np.testing.assert_array_equal(mult_flagged, mult)


# -- null space and KKT buffer ---------------------------------------------


def orbit_point(n):
    """The Jacobian and the Lagrangian Hessian of orbit raising at its guess."""
    t = transcribe(orbit_raising(), lobatto_nodes(n), Method.NEW_LOBATTO)
    z = t.initial_guess_vector()
    point = t.objective_gradient(z), t.jacobian(z), t.constraints(z)
    mult, kkt, _ = nlpsolve._multiplier_estimate(point)
    return point[1], t.hessian(z, mult, kkt[: t.n_z])


def random_point(m, seed=3):
    rng = np.random.default_rng(seed)
    n = m + 20
    A = rng.standard_normal((n, n))
    return rng.standard_normal((m, n)), A + A.T


@pytest.mark.parametrize(
    "point",
    [lambda m=m: random_point(m) for m in (47, 48, 49, 96, 97)]
    + [lambda n=n: orbit_point(n) for n in (25, 45)],
    ids=[f"random-{m}" for m in (47, 48, 49, 96, 97)] + ["orbit-25", "orbit-45"],
)
def test_null_space_matches_the_complete_qr(point):
    # Past 48 rows only the null-space columns are formed, 48 reflectors
    # per block; Z need not equal the complete QR's, but it must span the
    # same space orthonormally and give the same smallest reduced eigenvalue.
    J, H = point()
    m, n = J.shape
    Z, diagonal = _null_space(J)
    Q, R = np.linalg.qr(J.T, mode="complete")
    assert Z.shape == (n, n - m)
    assert np.max(np.abs(Z.T @ Z - np.eye(n - m))) <= 1e-13
    assert np.linalg.norm(J @ Z) <= 1e-13 * np.linalg.norm(J)
    np.testing.assert_array_equal(np.abs(diagonal), np.abs(np.diag(R)))
    scale = max(1.0, float(np.max(np.abs(H))))
    lowest = np.linalg.eigvalsh(Z.T @ H @ Z)[0]
    reference = np.linalg.eigvalsh(Q[:, m:].T @ H @ Q[:, m:])[0]
    assert abs(lowest - reference) <= 1e-14 * scale
    if m <= nlpsolve._QR_BLOCK:
        np.testing.assert_array_equal(Z, Q[:, m:])


def test_null_space_of_zero_reflectors_is_the_last_columns():
    # J = [I | 0]: every reflector has tau = 0, so nothing may move [0; I].
    m, n = 60, 75
    J = np.hstack([np.eye(m), np.zeros((m, n - m))])
    assert not np.any(np.linalg.qr(J.T, mode="raw")[1])
    Z, diagonal = _null_space(J)
    np.testing.assert_array_equal(Z, np.eye(n)[:, m:])
    np.testing.assert_array_equal(np.abs(diagonal), np.ones(m))


def test_kkt_buffer_carries_nothing_between_tries():
    # One buffer, filled with NaN at first, runs a dual-shifted try, then an
    # unshifted one of the same size, then delta > 0 and delta = 0: each
    # step is bit-equal to the one on a fresh buffer.
    H = 2.0 * np.eye(3)
    repeated = np.zeros((2, 3))
    repeated[:, 0] = 1.0
    distinct = np.eye(3)[:2]
    rhs = np.array([1.0, -2.0, 0.5, 1.0, 3.0])
    K = np.full((5, 5), np.nan, order="F")
    tries = [
        (repeated, 0.0, False, True),
        (distinct, 0.0, False, False),
        (distinct, 1.0, False, False),
        (distinct, 0.0, False, False),
        (distinct, 1.0, True, False),
        (distinct, 0.0, True, False),
    ]
    for J, delta, inertia_known, shifted in tries:
        step, dual_shifted = _solve_kkt(K, H, J, rhs, delta, 1e6, inertia_known)
        reference, reference_shifted = fresh_kkt(H, J, rhs, delta, 1e6, inertia_known)
        assert dual_shifted == reference_shifted == shifted
        np.testing.assert_array_equal(step, reference)


def test_one_kkt_buffer_per_solve(monkeypatch):
    buffers = []

    def recording(K, *args):
        buffers.append(K)
        return _solve_kkt(K, *args)

    monkeypatch.setattr(nlpsolve, "_solve_kkt", recording)
    # Square N=8 ends singular after many tries, dual-shifted ones included.
    t = transcribe(nonlinear_ivp()[0], lobatto_nodes(8), Method.STANDARD_LOBATTO)
    size = t.n_z + t.jacobian(t.initial_guess_vector()).shape[0]
    with pytest.raises(SingularKktError):
        solve(t)
    assert len(buffers) > 1
    assert all(K is buffers[0] for K in buffers)
    assert buffers[0].shape == (size, size) and buffers[0].flags.f_contiguous


# -- grouped Hessian -------------------------------------------------------


def lagrangian_gradient(t, z, mult):
    return t.objective_gradient(z) + t.jacobian(z).T @ mult


def hessian_by_columns(t, z, mult, step=1e-7):
    """Reference: forward differences one unknown at a time."""
    base = lagrangian_gradient(t, z, mult)
    H = np.empty((t.n_z, t.n_z))
    for j in range(t.n_z):
        bumped = z.copy()
        bumped[j] += step
        H[:, j] = (lagrangian_gradient(t, bumped, mult) - base) / step
    return 0.5 * (H + H.T)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize(
    "factory", [orbit_raising, lambda: nonlinear_ivp()[0]], ids=["orbit", "ivp"]
)
def test_grouped_hessian_matches_column_loop(factory, method, monkeypatch):
    defn = factory()
    for n in (3, 9):
        t = transcribe(defn, lobatto_nodes(n), method)
        rng = np.random.default_rng(7)
        z = t.initial_guess_vector() + 0.05 * rng.standard_normal(t.n_z)
        mult = rng.standard_normal(t.n_constraints)
        gradient = t.objective_gradient
        calls = []
        monkeypatch.setattr(t, "objective_gradient", lambda zz: calls.append(1) or gradient(zz))
        base = lagrangian_gradient(t, z, mult)
        calls.clear()
        H = t.hessian(z, mult, base)
        # One perturbation per state and control component; the caller
        # already holds the gradient at the base point.
        assert len(calls) == t.n_x + t.n_u
        reference = hessian_by_columns(t, z, mult)
        # A gradient row of one node reads only that node's unknowns, so
        # every kept difference is computed from the same numbers as its
        # column.
        np.testing.assert_array_equal(H, reference)
        assert np.any(reference != 0.0)
        # The grid node of every unknown; the augmented extra sample is node n.
        node_labels = t.pack(
            np.repeat(np.arange(t.n_state_nodes), t.n_x), np.repeat(np.arange(t.n), t.n_u)
        )
        same_node = node_labels[:, None] == node_labels[None, :]
        assert np.all(reference[~same_node] == 0.0)
        if method is Method.NEW_LOBATTO:
            extra = node_labels == t.n
            assert np.count_nonzero(extra) == t.n_x
            assert np.all(reference[extra] == 0.0)
            assert np.all(reference[:, extra] == 0.0)


# -- fixed constants -------------------------------------------------------


def test_default_options():
    assert nlpsolve._KKT_TOLERANCE == 1e-10
    assert nlpsolve._MAX_ITERATIONS == 200


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
    assert report.final_kkt_norm <= nlpsolve._KKT_TOLERANCE
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


def test_each_point_is_evaluated_once():
    # Augmented N=9 fails a line search at one regularization of a step.
    for method, n in [
        (Method.NEW_LOBATTO, 6),
        (Method.NEW_LOBATTO, 9),
        (Method.STANDARD_LOBATTO, 6),
    ]:
        searches, report = check_line_search_evaluations(method, n, [1, 4, 16, 19])
        assert (searches > report.iterations) == (n == 9)


@pytest.mark.parametrize("rows", [3, 1])
def test_stacks_are_cut_to_the_entry_cap(monkeypatch, rows):
    # The cap cuts orbit N=25 to stacks of 3 and N=45 to stacks of 1; cut
    # the IVP's the same way.  The iterates are those of the uncut stacks.
    t = transcribe(nonlinear_ivp()[0], lobatto_nodes(9), Method.NEW_LOBATTO)
    uncut = solve(t)[2]
    monkeypatch.setattr(nlpsolve, "_BATCH_ENTRIES", rows * t.n_constraints * t.n_z)
    stacks = [1] + [rows] * (39 // rows)
    searches, report = check_line_search_evaluations(Method.NEW_LOBATTO, 9, stacks)
    assert searches > report.iterations
    assert report.step_history == uncut.step_history


@pytest.mark.parametrize(
    "factory, n, method",
    [
        (lambda: nonlinear_ivp()[0], 9, Method.NEW_LOBATTO),
        (lambda: nonlinear_ivp()[0], 9, Method.STANDARD_LOBATTO),
        (orbit_raising, 25, Method.NEW_LOBATTO),
    ],
    ids=["augmented-ivp-9", "square-ivp-9", "orbit-25"],
)
def test_stacked_kkt_rows_are_bit_equal(factory, n, method, monkeypatch):
    # Each row of every trial stack a solve's line searches build has the
    # KKT vector and merit of _kkt_vector and np.linalg.norm at that trial,
    # bit for bit.  So the merit each line search starts from, carried from
    # the accepted trial or the multiplier refresh, is the norm of the KKT
    # vector at the iterate, as recomputing it there would give.
    t = transcribe(factory(), lobatto_nodes(n), method)
    kkt_vectors, line_search = nlpsolve._kkt_vectors, nlpsolve._line_search
    stack_rows, searches = [], []

    def checked_stack(points, mults):
        kkts, merits = kkt_vectors(points, mults)
        for k, mult in enumerate(mults):
            kkt = nlpsolve._kkt_vector(tuple(a[k] for a in points), mult)
            assert kkts[k].tobytes() == kkt.tobytes()
            assert merits[k] == np.linalg.norm(kkt)
        stack_rows.append(len(mults))
        return kkts, merits

    def checked_search(t, z, mult, dz, dm, merit, rows):
        point = t.objective_gradient(z), t.jacobian(z), t.constraints(z)
        assert merit == np.linalg.norm(nlpsolve._kkt_vector(point, mult))
        searches.append(merit)
        return line_search(t, z, mult, dz, dm, merit, rows)

    monkeypatch.setattr(nlpsolve, "_kkt_vectors", checked_stack)
    monkeypatch.setattr(nlpsolve, "_line_search", checked_search)
    report = solve(t)[2]
    assert report.converged
    assert len(searches) >= report.iterations
    assert len(stack_rows) >= 2


def check_line_search_evaluations(method, n, stacks):
    """Solve the IVP with every evaluation recorded and check each Newton
    step's, each line search's stack sizes a prefix of ``stacks``; return
    the number of line searches and the report."""
    # The guess and every line-search trial up to the accepted one get one
    # gradient, one Jacobian and one constraint evaluation, at one point or
    # as a row of evaluate_many; an accepted trial's values carry into the
    # next Newton step, and the only rows past it are the rest of its stack.
    # The grouped Hessian adds n_x + n_u = 2 single-point Lagrangian
    # gradients per step and no constraint evaluations.
    t = transcribe(nonlinear_ivp()[0], lobatto_nodes(n), method)
    calls = {"objective_gradient": 0, "jacobian": 0, "constraints": 0}
    events = []  # ("hessian", z) per Newton step, ("stack", rows) per evaluation
    for name in calls:
        original = getattr(t, name)

        def counting(z, name=name, original=original):
            calls[name] += 1
            if name == "constraints":
                events.append(("stack", [np.array(z)]))
            return original(z)

        setattr(t, name, counting)
    evaluate_many, hessian = t.evaluate_many, t.hessian
    t.evaluate_many = lambda Z: events.append(("stack", list(Z))) or evaluate_many(Z)
    t.hessian = lambda z, *args: events.append(("hessian", np.array(z))) or hessian(z, *args)
    z_final, _, report = solve(t)
    assert report.converged
    assert len(report.step_history) == report.iterations

    assert events[0][0] == "stack" and len(events[0][1]) == 1  # the guess
    steps = [k for k, (kind, _) in enumerate(events) if kind == "hessian"]
    assert len(steps) == report.iterations
    lengths = nlpsolve._STEP_LENGTHS.size  # 1, 1/2, ..., 2^-39
    searches = 0
    for step, (begin, end) in enumerate(zip(steps, steps[1:] + [len(events)])):
        z = events[begin][1]
        # One line search per regularization tried; all but the last found
        # no step length after trying each.
        by_search = []
        for _, rows in events[begin + 1 : end]:
            if not by_search or sum(map(len, by_search[-1])) == lengths:
                by_search.append([])
            by_search[-1].append(rows)
        searches += len(by_search)
        for search in by_search:
            sizes = [len(rows) for rows in search]
            assert sizes == stacks[: len(sizes)]
            trials = [row for rows in search for row in rows]
            dz = trials[0] - z
            for k, trial in enumerate(trials):
                np.testing.assert_allclose(trial, z + 0.5**k * dz, rtol=0, atol=1e-14)
        for search in by_search[:-1]:
            assert sum(map(len, search)) == lengths
        # The last search's trials run to the end of the accepted one's stack.
        accepted = round(-np.log2(report.step_history[step][2]))
        assert len(trials) == next(k for k in np.cumsum(sizes) if k > accepted)
        # The accepted trial is the next iterate, whose Hessian comes next.
        following = events[end][1] if end < len(events) else z_final
        np.testing.assert_array_equal(trials[accepted], following)
    assert calls["constraints"] == 1 + searches
    assert calls["objective_gradient"] == 1 + searches + 2 * report.iterations
    assert calls["jacobian"] == calls["objective_gradient"]
    return searches, report


def test_max_iterations_carries_report(monkeypatch):
    defn, _ = nonlinear_ivp()
    t = transcribe(defn, lobatto_nodes(15), Method.NEW_LOBATTO)
    monkeypatch.setattr(nlpsolve, "_MAX_ITERATIONS", 3)
    with pytest.raises(MaxIterationsError) as err:
        solve(t)
    assert str(err.value).startswith("no convergence in 3 iterations")
    report = err.value.report
    assert not report.converged
    assert report.iterations == 3
    assert np.isfinite(report.final_kkt_norm)
    assert len(report.residuals) == 4
    assert report.final_kkt_norm == max(report.residuals[-1])


def test_convergence_on_the_last_budgeted_step_returns(monkeypatch):
    # Augmented N=6 converges at step 11; the iterate that the last step of
    # the budget reaches is checked like every other.
    t = transcribe(nonlinear_ivp()[0], lobatto_nodes(6), Method.NEW_LOBATTO)
    _, _, unbounded = solve(t)
    monkeypatch.setattr(nlpsolve, "_MAX_ITERATIONS", 11)
    _, _, report = solve(t)
    assert report.converged
    assert report.iterations == 11
    assert report.residuals == unbounded.residuals
    monkeypatch.setattr(nlpsolve, "_MAX_ITERATIONS", 10)
    with pytest.raises(MaxIterationsError) as err:
        solve(t)
    assert str(err.value).startswith("no convergence in 10 iterations")
    assert err.value.report.iterations == 10
    assert err.value.report.residuals == unbounded.residuals[:11]


# -- stall stop ------------------------------------------------------------


def test_stall_needs_each_residual_converged_or_stuck():
    window = nlpsolve._STALL_WINDOW
    stuck = [(1e-12, 3e-9)] * (window + 1)
    assert _stall(stuck[:-1]) is None  # the window is not full yet
    assert _stall(stuck) == (
        f"gradient residual within 1.0e-10 for {window} iterations, "
        "constraint residual stuck at 3.000e-09 (from 3.000e-09)"
    )
    # No square IVP solve of N=6..30 stalls this way round; the message
    # names the converged residual first.
    assert _stall([(c, g) for g, c in stuck]) == (
        f"constraint residual within 1.0e-10 for {window} iterations, "
        "gradient residual stuck at 3.000e-09 (from 3.000e-09)"
    )
    # Both residuals frozen above the tolerance is a stall too.
    assert _stall([(2e-10, 3e-9)] * (window + 1)) == (
        "gradient residual stuck at 2.000e-10 (from 2.000e-10), "
        "constraint residual stuck at 3.000e-09 (from 3.000e-09)"
    )
    # A residual that grows is stuck; one that falls, however slowly, is not.
    rising = [(1e-12, 3e-9 * 1.01**k) for k in range(window + 1)]
    assert "constraint residual stuck at 3.661e-09" in _stall(rising)
    slow = [(1e-12, 3e-9 * 0.97**k) for k in range(window + 1)]
    assert _stall(slow) is None
    # One dip below the window's start is enough to keep going.
    assert _stall(stuck[:5] + [(1e-12, 2.9e-9)] + stuck[6:]) is None
    # The converged residual left the tolerance inside the window.
    assert _stall([(2e-10, 3e-9)] + stuck[1:]) is None
    # The stuck residual touched the tolerance inside the window.
    assert _stall(stuck[:5] + [(1e-12, 1e-10)] + stuck[6:]) is None


@pytest.mark.parametrize("n, before, done", [(17, 50, "gradient")])
def test_square_stall_stops_early(n, before, done):
    # Square N=17 holds its gradient within the tolerance and its
    # constraints at 2.7e-9; without the stall stop it runs the whole budget.
    t = transcribe(nonlinear_ivp()[0], lobatto_nodes(n), Method.STANDARD_LOBATTO)
    with pytest.raises(MaxIterationsError) as err:
        solve(t)
    report = err.value.report
    assert not report.converged
    assert report.iterations < before
    assert len(report.residuals) == report.iterations + 1
    assert len(report.step_history) == report.iterations
    assert report.final_kkt_norm == max(report.residuals[-1])
    tol = nlpsolve._KKT_TOLERANCE
    names = ("gradient", "constraint")
    k = names.index(done)
    window = np.array(report.residuals[-nlpsolve._STALL_WINDOW - 1 :])
    assert np.all(window[:, k] <= tol)
    assert np.all(window[:, 1 - k] > tol)
    assert str(err.value).startswith(
        f"stalled at iteration {report.iterations}: {done} residual within 1.0e-10"
    )
    assert f"{names[1 - k]} residual stuck at" in str(err.value)


def solve_outcome(t):
    """(outcome, report, z, multipliers) of a solve; no iterate on failure."""
    try:
        z, mult, report = solve(t)
    except (MaxIterationsError, SingularKktError) as exc:
        return type(exc).__name__, exc.report, None, None
    return "converged", report, z, mult


# The benchmark's solver workloads: orbit N=25 and 45, the augmented IVP at
# N=6..25 and the square IVP at N=6..13; and square N=17, which stalls.
square_ns = [*range(6, 14), 17]
replay_cases = pytest.mark.parametrize(
    "factory, n, method",
    [(orbit_raising, n, Method.NEW_LOBATTO) for n in (25, 45)]
    + [(lambda: nonlinear_ivp()[0], n, Method.NEW_LOBATTO) for n in range(6, 26)]
    + [(lambda: nonlinear_ivp()[0], n, Method.STANDARD_LOBATTO) for n in square_ns],
    ids=["orbit-25", "orbit-45"]
    + [f"augmented-ivp-{n}" for n in range(6, 26)]
    + [f"square-ivp-{n}" for n in square_ns],
)


@replay_cases
def test_stall_stop_replays_the_budget_loop(factory, n, method, monkeypatch):
    # Reference: a window longer than the budget never fires, which is the
    # loop that ran every failing solve to its last iteration.
    t = transcribe(factory(), lobatto_nodes(n), method)
    outcome, report, z, mult = solve_outcome(t)
    monkeypatch.setattr(nlpsolve, "_STALL_WINDOW", nlpsolve._MAX_ITERATIONS + 1)
    reference, ref_report, ref_z, ref_mult = solve_outcome(t)
    steps = report.iterations
    assert report.step_history == ref_report.step_history[:steps]
    assert report.residuals == ref_report.residuals[: steps + 1]
    if (n, method) == (17, Method.STANDARD_LOBATTO):
        # The one stalled solve of these stops early, on the same path.
        assert outcome == reference == "MaxIterationsError"
        assert ref_report.iterations == nlpsolve._MAX_ITERATIONS
        assert steps < ref_report.iterations
        return
    # With the same step count, the prefixes above are the whole records.
    assert outcome == reference
    assert steps == ref_report.iterations
    if outcome == "converged":
        assert z.tobytes() == ref_z.tobytes()
        assert mult.tobytes() == ref_mult.tobytes()


@replay_cases
def test_failed_search_cap_replays_the_uncapped_loop(factory, n, method, monkeypatch):
    # Reference: a cap above the 55 entries of _REGULARIZATIONS never fires,
    # which leaves the loop that tries every entry up to 1e8.
    t = transcribe(factory(), lobatto_nodes(n), method)
    outcome, report, z, mult = solve_outcome(t)
    monkeypatch.setattr(nlpsolve, "_MAX_FAILED_SEARCHES", 56)
    reference, ref_report, ref_z, ref_mult = solve_outcome(t)
    steps = report.iterations
    assert report.step_history == ref_report.step_history[:steps]
    assert report.residuals == ref_report.residuals[: steps + 1]
    if method is Method.STANDARD_LOBATTO and n in (8, 11):
        # The two transcripts that end singular stop no later than the
        # uncapped loop, on the same path.
        assert outcome == reference == "SingularKktError"
        assert steps <= ref_report.iterations
        return
    assert outcome == reference
    assert steps == ref_report.iterations
    if outcome == "converged":
        assert z.tobytes() == ref_z.tobytes()
        assert mult.tobytes() == ref_mult.tobytes()


@pytest.mark.parametrize("n", [8, 11])
def test_singular_kkt_carries_report(n):
    defn, _ = nonlinear_ivp()
    t = transcribe(defn, lobatto_nodes(n), Method.STANDARD_LOBATTO)
    with pytest.raises(SingularKktError) as err:
        solve(t)
    message = str(err.value)
    assert re.fullmatch(
        r"KKT system unusable at iteration \d+ "
        r"\(no step length helped at 8 regularizations up to \d\.\de[+-]\d\d\)",
        message,
    )
    report = err.value.report
    assert report.iterations == int(re.search(r"iteration (\d+)", message).group(1))
    assert not report.converged
    assert np.isfinite(report.final_kkt_norm)
    assert len(report.step_history) == report.iterations
    assert len(report.residuals) == report.iterations + 1


# -- boundary rows that repeat or contradict each other ---------------------


def ivp_with_initial_rows(*targets):
    """The IVP with one initial boundary row x(0) = target per target."""
    defn, _ = nonlinear_ivp()
    targets = np.array(targets)
    return replace(
        defn,
        boundary=lambda x0, xf: x0[0] - targets,
        boundary_jacobian=lambda x0, xf: np.tile([1.0, 0.0], (targets.size, 1)),
    )


@pytest.mark.parametrize("n", [10, 20, 25])
def test_repeated_initial_row_converges_on_the_augmented_method(n):
    # The rectangular differentiation matrix has full row rank, but the
    # repeated row costs J one; certifying its inertia anyway ended every
    # try singular, up to the regularization cap.
    defn, truth = nonlinear_ivp()
    t = transcribe(ivp_with_initial_rows(1.0, 1.0), lobatto_nodes(n), Method.NEW_LOBATTO)
    z, mult, report = solve(t)
    assert report.converged
    assert report.iterations <= 10
    plain = transcribe(defn, lobatto_nodes(n), Method.NEW_LOBATTO)
    z_plain, mult_plain, _ = solve(plain)
    np.testing.assert_allclose(z, z_plain, atol=1e-9)
    # The two rows share the one row's multiplier; the costates are the same.
    np.testing.assert_allclose(mult[: t.n_defect], mult_plain[: t.n_defect], atol=1e-9)
    if n == 25:
        costates = assemble_solution(t, z, mult, report.final_kkt_norm).costates
        assert np.max(np.abs(costates[:, 0] - truth.costate_fn(t.collocation_times))) <= 1e-12


@pytest.mark.parametrize("n", [25, 45])
def test_orbit_with_a_redundant_radius_row_converges(n):
    # r(0) = 1 once more, after the five initial rows.
    orbit = orbit_raising()

    def jacobian(x0, xf):
        return np.insert(orbit.boundary_jacobian(x0, xf), 5, np.eye(10)[0], axis=0)

    redundant = replace(
        orbit,
        boundary=lambda x0, xf: np.insert(orbit.boundary(x0, xf), 5, x0[0] - 1.0),
        boundary_jacobian=jacobian,
    )
    t = transcribe(redundant, lobatto_nodes(n), Method.NEW_LOBATTO)
    z, _, report = solve(t)
    assert report.converged
    assert report.iterations <= 25
    plain = transcribe(orbit, lobatto_nodes(n), Method.NEW_LOBATTO)
    z_plain, _, _ = solve(plain)
    r_f = t.unpack(z)[0][n - 1, 0]
    assert abs(r_f - plain.unpack(z_plain)[0][n - 1, 0]) <= 1e-9


def test_unreachable_final_state_stalls_early():
    # x' = 5/2 (x u - x - u^2) <= 5/2 x (x/4 - 1) < 0 from x(0) = 1, so
    # x(2) = 5 is out of reach: the gradient converges and the constraints
    # freeze.
    defn, _ = nonlinear_ivp()
    unreachable = replace(
        defn,
        boundary=lambda x0, xf: np.concatenate([x0 - 1.0, xf - 5.0]),
        boundary_jacobian=lambda x0, xf: np.eye(2),
    )
    t = transcribe(unreachable, lobatto_nodes(10), Method.NEW_LOBATTO)
    with pytest.raises(MaxIterationsError) as err:
        solve(t)
    assert re.match(
        r"stalled at iteration \d+: gradient residual within 1\.0e-10 for 20 "
        r"iterations, constraint residual stuck at ",
        str(err.value),
    )
    assert err.value.report.iterations <= 25


@pytest.mark.parametrize("method", list(Method))
def test_contradictory_initial_rows_end_on_the_failed_search_cap(method):
    t = transcribe(ivp_with_initial_rows(1.0, 2.0), lobatto_nodes(10), method)
    with pytest.raises(SingularKktError) as err:
        solve(t)
    assert "no step length helped at 8 regularizations" in str(err.value)
    assert err.value.report.iterations <= 25


def test_solves_without_scipy():
    # The inertia work must stay numpy-only: scipy often sits beside numpy
    # but is not a dependency, so make every import of it fail.
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import auglobatto as ag\n"
        "t = ag.transcribe(ag.nonlinear_ivp()[0], ag.lobatto_nodes(6), ag.Method.NEW_LOBATTO)\n"
        "z, mult, report = ag.solve(t)\n"
        "assert report.converged\n"
        "print('ok')\n"
    )
    src = str(Path(auglobatto.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


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


def square_multiplier_error(n):
    """The square method's defect-multiplier error at its converged solve,
    split into the part along J's last left singular vector and the rest;
    max norms of each.  The exact multipliers are the costate times the
    quadrature weight and half the horizon."""
    defn, truth = nonlinear_ivp()
    t = transcribe(defn, lobatto_nodes(n), Method.STANDARD_LOBATTO)
    z, mult, report = solve(t)
    assert report.converged
    exact = truth.costate_fn(t.collocation_times) * t.ns.weights * t.half_dt
    error = mult[: t.n_defect] - exact
    direction = np.linalg.svd(t.jacobian(z))[0][: t.n_defect, -1]
    along = (direction @ error) * direction
    return np.max(np.abs(along)), np.max(np.abs(error - along))


def test_square_costate_error_lies_along_one_direction():
    # The square transcript's J is nearly singular at its optimum
    # (sigma_min / sigma_max = 1.2e-8 at N=25), and its multipliers are off
    # along that one direction only: the rest converges spectrally.
    _, off_12 = square_multiplier_error(12)
    along_25, off_25 = square_multiplier_error(25)
    assert off_25 <= 1e-9
    assert along_25 >= 1e-4
    assert off_12 > 1e3 * off_25
