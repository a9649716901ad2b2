import numpy as np
import pytest

from auglobatto.discretization import build_dual_D, build_new_lobatto_D, numerical_rank
from auglobatto.nlpsolve import solve
from auglobatto.ocp import OcpDefinition, nonlinear_ivp, orbit_raising
from auglobatto.orthopoly import legendre_eval, lobatto_nodes
from auglobatto.transcribe import (
    Method,
    Solution,
    Transcript,
    assemble_solution,
    costate_leading_coefficient,
    extract_costates,
    kkt_residuals,
    transcribe,
)

X_STAR_AT_2 = 0.0089637968028578800764


def ivp_analytic_vector(t: Transcript, truth):
    states = np.atleast_1d(truth.state_fn(t.state_times))[:, None]
    controls = np.atleast_1d(truth.control_fn(t.collocation_times))[:, None]
    return t.pack(states, controls)


def constant_problem(n_x=2, value=0.0):
    """Trivial problem with constant dynamics and unit running cost, used to
    probe the defects and the quadrature."""
    return OcpDefinition(
        t0=0.0,
        tf=1.0,
        dynamics=lambda t, x, u: np.full(np.shape(x), value),
        dynamics_jacobians=lambda t, x, u: np.zeros(np.shape(x) + (n_x + 1,)),
        running_cost=lambda t, x, u: np.ones(np.shape(t)),
        running_cost_gradients=lambda t, x, u: np.zeros(np.shape(t) + (n_x + 1,)),
        boundary=lambda x0, xf: x0 - 1.0,
        boundary_jacobian=lambda x0, xf: np.eye(n_x, 2 * n_x),
        initial_guess=lambda t: (np.ones(np.shape(t) + (n_x,)), np.zeros(np.shape(t) + (1,))),
    )


class TestLayout:
    def test_new_method_dimensions(self):
        defn, _ = nonlinear_ivp()
        t = transcribe(defn, lobatto_nodes(10), Method.NEW_LOBATTO)
        assert t.n_state_nodes == 11
        assert t.n_z == 11 * 1 + 10 * 1
        assert t.n_constraints == 10 * 1 + 1 + 0

    def test_standard_method_dimensions(self):
        defn = orbit_raising()
        t = transcribe(defn, lobatto_nodes(8), Method.STANDARD_LOBATTO)
        assert t.n_state_nodes == 8
        assert t.n_z == 8 * 5 + 8 * 1
        assert t.n_constraints == 8 * 5 + 5 + 2

    def test_pack_unpack_roundtrip(self):
        defn = orbit_raising()
        t = transcribe(defn, lobatto_nodes(6), Method.NEW_LOBATTO)
        rng = np.random.default_rng(0)
        states = rng.standard_normal((7, 5))
        controls = rng.standard_normal((6, 1))
        s2, c2 = t.unpack(t.pack(states, controls))
        np.testing.assert_array_equal(s2, states)
        np.testing.assert_array_equal(c2, controls)

    def test_time_mapping(self):
        defn = orbit_raising()
        t = transcribe(defn, lobatto_nodes(5), Method.NEW_LOBATTO)
        assert t.map_time(-1.0) == 0.0
        assert t.map_time(1.0) == pytest.approx(3.32)
        assert t.collocation_times[0] == 0.0
        assert t.collocation_times[-1] == pytest.approx(3.32)

    @pytest.mark.parametrize("method", list(Method))
    def test_full_row_rank_marks_the_augmented_method(self, method):
        # The solver certifies KKT inertia only on full-row-rank transcripts.
        # The flag follows the method; the measured rank must agree with it:
        # the square matrix loses a rank at every size, the augmented none.
        defn, _ = nonlinear_ivp()
        for n in range(3, 51):
            t = transcribe(defn, lobatto_nodes(n), method)
            assert t.full_row_rank == (method is Method.NEW_LOBATTO)
            assert t.full_row_rank == (numerical_rank(t.diff.entries) == t.n), n

    def test_wrong_length_rejected(self):
        defn, _ = nonlinear_ivp()
        t = transcribe(defn, lobatto_nodes(5), Method.NEW_LOBATTO)
        with pytest.raises(ValueError):
            t.unpack(np.zeros(t.n_z + 1))


class TestDefectsAtTruth:
    """Constraint residuals when the decision vector holds the exact triple."""

    def test_residual_decays_exponentially(self):
        defn, truth = nonlinear_ivp()
        levels = {}
        for n in (10, 20, 25):
            t = transcribe(defn, lobatto_nodes(n), Method.NEW_LOBATTO)
            c = t.constraints(ivp_analytic_vector(t, truth))
            levels[n] = np.max(np.abs(c[: t.n_defect]))
            assert np.max(np.abs(c[t.n_defect :])) == 0.0
        # Directly evaluated reference levels: 1.9e-4, 3.9e-10, 1.6e-12.
        assert levels[10] <= 1e-3
        assert levels[20] <= 1e-8
        assert levels[25] <= 1e-10
        assert levels[20] < 1e-4 * levels[10]

    def test_objective_at_truth(self):
        defn, truth = nonlinear_ivp()
        t = transcribe(defn, lobatto_nodes(15), Method.NEW_LOBATTO)
        obj = t.objective(ivp_analytic_vector(t, truth))
        assert obj == pytest.approx(-X_STAR_AT_2, abs=1e-12)

    def test_constant_states_zero_defect(self):
        defn = constant_problem(n_x=2, value=0.0)
        for method in Method:
            t = transcribe(defn, lobatto_nodes(7), method)
            z = t.pack(np.ones((t.n_state_nodes, 2)), np.zeros((7, 1)))
            c = t.constraints(z)
            assert np.max(np.abs(c[: t.n_defect])) <= 1e-13

    def test_unit_running_cost_integrates_to_horizon(self):
        defn = constant_problem()
        t = transcribe(defn, lobatto_nodes(9), Method.NEW_LOBATTO)
        z = t.initial_guess_vector()
        # Weights sum to 2, so the quadrature contributes exactly tf - t0.
        assert t.objective(z) == pytest.approx(1.0, abs=1e-14)


class TestDerivatives:
    @pytest.mark.parametrize(
        "factory, method",
        [
            (lambda: nonlinear_ivp()[0], Method.NEW_LOBATTO),
            (lambda: nonlinear_ivp()[0], Method.STANDARD_LOBATTO),
            (orbit_raising, Method.NEW_LOBATTO),
            (orbit_raising, Method.STANDARD_LOBATTO),
        ],
    )
    def test_jacobian_matches_finite_differences(self, factory, method):
        defn = factory()
        t = transcribe(defn, lobatto_nodes(6), method)
        rng = np.random.default_rng(11)
        z = t.initial_guess_vector() + 0.05 * rng.standard_normal(t.n_z)
        J = t.jacobian(z)
        step = 1e-6
        for j in rng.choice(t.n_z, size=min(t.n_z, 12), replace=False):
            bump = np.zeros(t.n_z)
            bump[j] = step
            col = (t.constraints(z + bump) - t.constraints(z - bump)) / (2 * step)
            assert np.max(np.abs(J[:, j] - col) / (1.0 + np.abs(col))) < 1e-5

    def test_objective_gradient_matches_finite_differences(self):
        defn = orbit_raising()
        t = transcribe(defn, lobatto_nodes(6), Method.NEW_LOBATTO)
        rng = np.random.default_rng(5)
        z = t.initial_guess_vector() + 0.05 * rng.standard_normal(t.n_z)
        g = t.objective_gradient(z)
        step = 1e-7
        for j in rng.choice(t.n_z, size=12, replace=False):
            bump = np.zeros(t.n_z)
            bump[j] = step
            fd = (t.objective(z + bump) - t.objective(z - bump)) / (2 * step)
            assert abs(g[j] - fd) < 1e-6 * (1 + abs(fd))

    def test_defect_block_is_linear_in_states(self):
        # Two state vectors, same controls: the defect difference must be
        # exactly the linear map, independent of the nonlinear dynamics.
        defn, _ = nonlinear_ivp()
        t = transcribe(defn, lobatto_nodes(8), Method.NEW_LOBATTO)
        rng = np.random.default_rng(2)
        s1 = rng.standard_normal((9, 1))
        s2 = rng.standard_normal((9, 1))
        # With the controls pinned at zero the dynamics is linear in x, so
        # the defect difference is an exact linear map of the state change.
        zero_u = np.zeros((8, 1))
        d1 = t.constraints(t.pack(s1, zero_u))[: t.n_defect]
        d2 = t.constraints(t.pack(s2, zero_u))[: t.n_defect]
        expected = -(t.diff.entries @ (s2 - s1)) / t.half_dt - 2.5 * (s2 - s1)[:8]
        np.testing.assert_allclose((d2 - d1).reshape(8, 1), expected, atol=1e-12)


def block_diagonal(blocks):
    """Stack of n (p, q) blocks -> (n p, n q) block-diagonal matrix."""
    n, p, q = blocks.shape
    out = np.zeros((n, p, n, q))
    out[np.arange(n), :, np.arange(n), :] = blocks
    return out.reshape(n * p, n * q)


def reference_callbacks(t: Transcript, z):
    """Objective gradient, constraints and Jacobian assembled per call from
    zero arrays, ``pack`` and block-diagonal matrices."""
    states, controls = t.unpack(z)
    ocp, n = t.ocp, t.n
    tc = t.collocation_times
    scale = t.half_dt * t.ns.weights[:, None]
    n_x = t.n_x
    h = ocp.running_cost_gradients(tc, states[:n], controls)
    g_states = np.zeros_like(states)
    g_states[:n] = scale * h[:, :n_x]
    g = ocp.endpoint_cost_gradient(states[0], states[n - 1])
    g_states[0] += g[:n_x]
    g_states[n - 1] += g[n_x:]
    gradient = t.pack(g_states, scale * h[:, n_x:])

    defects = ocp.dynamics(tc, states[:n], controls) - (t.diff.entries @ states) / t.half_dt
    constraints = np.concatenate(
        [
            defects.ravel(),
            np.atleast_1d(ocp.boundary(states[0], states[n - 1])),
        ]
    )

    F = ocp.dynamics_jacobians(tc, states[:n], controls)
    J = np.zeros((t.n_constraints, t.n_z))
    J[: t.n_defect, : t.n_state_vars] = -np.kron(t.diff.entries, np.eye(n_x)) / t.half_dt
    J[: t.n_defect, : t.n_defect] += block_diagonal(F[..., :n_x])
    J[: t.n_defect, t.n_state_vars :] = block_diagonal(F[..., n_x:])
    Jb = ocp.boundary_jacobian(states[0], states[n - 1])
    J[t.n_defect :, :n_x] = Jb[:, :n_x]
    J[t.n_defect :, t.n_defect - n_x : t.n_defect] = Jb[:, n_x:]
    return gradient, constraints, J


@pytest.mark.parametrize(
    "factory, n, method",
    [(orbit_raising, n, Method.NEW_LOBATTO) for n in (25, 45)]
    + [(lambda: nonlinear_ivp()[0], n, m) for m in Method for n in range(6, 14)],
    ids=["orbit-25", "orbit-45"] + [f"ivp-{m.value}-{n}" for m in Method for n in range(6, 14)],
)
def test_callbacks_equal_the_block_diagonal_assembly(factory, n, method):
    t = transcribe(factory(), lobatto_nodes(n), method)
    rng = np.random.default_rng(n)
    guess = t.initial_guess_vector()
    for z in (guess, guess + 0.05 * rng.standard_normal(t.n_z)):
        gradient, constraints, J = reference_callbacks(t, z)
        # Each entry comes from the same floating-point operations; only
        # the sign of some zeros off the node blocks may differ.
        assert np.array_equal(t.objective_gradient(z), gradient)
        assert np.array_equal(t.constraints(z), constraints)
        assert np.array_equal(t.jacobian(z), J)
        # The template is copied, not written through.
        assert np.array_equal(t.jacobian(z), J)


class TestCostateExtraction:
    def test_zero_multipliers(self):
        defn, _ = nonlinear_ivp()
        t = transcribe(defn, lobatto_nodes(7), Method.NEW_LOBATTO)
        lam = extract_costates(t, np.zeros(t.n_constraints))
        assert lam.shape == (7, 1)
        np.testing.assert_array_equal(lam, 0.0)

    def test_rescaling_formula(self):
        defn, _ = nonlinear_ivp()
        ns = lobatto_nodes(5)
        t = transcribe(defn, ns, Method.NEW_LOBATTO)
        raw = np.arange(1.0, t.n_constraints + 1)
        lam = extract_costates(t, raw)
        for k in range(5):
            expected = 2.0 * raw[k] / (ns.weights[k] * 2.0)
            assert lam[k, 0] == pytest.approx(expected, rel=1e-15)

    def test_horizon_scaling(self):
        from dataclasses import replace

        defn, _ = nonlinear_ivp()
        ns = lobatto_nodes(6)
        t_short = transcribe(defn, ns, Method.NEW_LOBATTO)
        t_long = transcribe(replace(defn, tf=4.0), ns, Method.NEW_LOBATTO)
        raw = np.linspace(-1, 1, t_short.n_constraints)
        lam_short = extract_costates(t_short, raw)
        lam_long = extract_costates(t_long, raw)
        np.testing.assert_allclose(lam_long, 0.5 * lam_short, rtol=1e-14)

    def test_length_mismatch_rejected(self):
        defn, _ = nonlinear_ivp()
        t = transcribe(defn, lobatto_nodes(5), Method.NEW_LOBATTO)
        with pytest.raises(ValueError, match="multipliers"):
            extract_costates(t, np.zeros(3))


def make_solution(t: Transcript, states, controls, costates, nu):
    return Solution(
        times=t.state_times,
        states=states,
        controls=controls,
        costates=costates,
        boundary_multipliers=nu,
        kkt_residual=0.0,
    )


class TestKktResiduals:
    def setup_method(self):
        self.defn, self.truth = nonlinear_ivp()

    def residuals_at_truth(self, n):
        ns = lobatto_nodes(n)
        t = transcribe(self.defn, ns, Method.NEW_LOBATTO)
        D = build_new_lobatto_D(ns)
        Dd = build_dual_D(ns, D)
        states = np.atleast_1d(self.truth.state_fn(t.state_times))[:, None]
        controls = np.atleast_1d(self.truth.control_fn(t.collocation_times))[:, None]
        lam = np.atleast_1d(self.truth.costate_fn(t.collocation_times))[:, None]
        # Multiplier of the x(0) = 1 constraint at the optimum is -lambda(0).
        nu = np.array([-lam[0, 0]])
        sol = make_solution(t, states, controls, lam, nu)
        return kkt_residuals(t, sol, ns, D, Dd)

    def test_analytic_triple_near_stationary(self):
        # Reference levels at N=25: 1.9e-14 / 6.8e-15 / 3.6e-15 / 0.
        r = self.residuals_at_truth(25)
        assert r.state_equation <= 1e-12
        assert r.adjoint <= 1e-12
        assert r.exceptional_column <= 1e-12
        assert r.control <= 1e-12
        assert r.max_abs <= 1e-12

    def test_residuals_decay_with_n(self):
        coarse = self.residuals_at_truth(8)
        fine = self.residuals_at_truth(15)
        assert fine.state_equation < 1e-3 * coarse.state_equation
        assert fine.adjoint < 1e-3 * coarse.adjoint

    def test_exceptional_pairing_ignores_low_degree_costates(self):
        ns = lobatto_nodes(12)
        t = transcribe(self.defn, ns, Method.NEW_LOBATTO)
        D = build_new_lobatto_D(ns)
        Dd = build_dual_D(ns, D)
        states = np.zeros((13, 1))
        controls = np.zeros((12, 1))
        for degree in (0, 3, 10):
            lam = (ns.collocation**degree)[:, None]
            sol = make_solution(t, states, controls, lam, np.zeros(1))
            r = kkt_residuals(t, sol, ns, D, Dd)
            assert r.exceptional_column <= 1e-10, f"degree {degree}"

    def test_exceptional_pairing_flags_top_mode(self):
        ns = lobatto_nodes(12)
        t = transcribe(self.defn, ns, Method.NEW_LOBATTO)
        D = build_new_lobatto_D(ns)
        Dd = build_dual_D(ns, D)
        lam = legendre_eval(11, ns.collocation)[0][:, None]
        sol = make_solution(
            t, np.zeros((13, 1)), np.zeros((12, 1)), lam, np.zeros(1)
        )
        r = kkt_residuals(t, sol, ns, D, Dd)
        assert r.exceptional_column >= 1e-3 * np.max(np.abs(lam))

    def test_standard_method_rejected(self):
        ns = lobatto_nodes(8)
        t = transcribe(self.defn, ns, Method.STANDARD_LOBATTO)
        D = build_new_lobatto_D(ns)
        Dd = build_dual_D(ns, D)
        sol = make_solution(
            t, np.zeros((8, 1)), np.zeros((8, 1)), np.zeros((8, 1)),
            np.zeros(1),
        )
        with pytest.raises(ValueError, match="augmented"):
            kkt_residuals(t, sol, ns, D, Dd)

    def test_swapped_matrices_rejected(self):
        ns = lobatto_nodes(8)
        t = transcribe(self.defn, ns, Method.NEW_LOBATTO)
        D = build_new_lobatto_D(ns)
        Dd = build_dual_D(ns, D)
        sol = make_solution(
            t, np.zeros((9, 1)), np.zeros((8, 1)), np.zeros((8, 1)),
            np.zeros(1),
        )
        # Swapped, and the rectangular matrix passed for both.
        for first, second in ((Dd, D), (D, D)):
            with pytest.raises(ValueError, match="in that order"):
                kkt_residuals(t, sol, ns, first, second)


class TestLeadingCoefficient:
    def test_pure_top_mode(self):
        ns = lobatto_nodes(9)
        lam = legendre_eval(8, ns.collocation)[0][:, None]
        coeff = costate_leading_coefficient(lam, ns)
        assert coeff[0] == pytest.approx(1.0, abs=1e-12)

    def test_low_degree_content_invisible(self):
        ns = lobatto_nodes(9)
        lam = (1.7 - 0.3 * ns.collocation + (ns.collocation**5))[:, None]
        coeff = costate_leading_coefficient(lam, ns)
        assert abs(coeff[0]) <= 1e-13

    def test_multidimensional(self):
        ns = lobatto_nodes(7)
        lam = np.column_stack(
            [ns.collocation**2, legendre_eval(6, ns.collocation)[0]]
        )
        coeff = costate_leading_coefficient(lam, ns)
        assert abs(coeff[0]) <= 1e-13
        assert coeff[1] == pytest.approx(1.0, abs=1e-12)


class TestConstructionValidation:
    def test_bad_dynamics_shape_rejected(self):
        from dataclasses import replace

        defn, _ = nonlinear_ivp()
        # The second returns one node's shape: it does not broadcast.
        for dynamics in (lambda t, x, u: np.zeros(3), lambda t, x, u: np.zeros(1)):
            broken = replace(defn, dynamics=dynamics)
            with pytest.raises(ValueError, match="dynamics"):
                transcribe(broken, lobatto_nodes(5), Method.NEW_LOBATTO)

    def test_bad_boundary_shape_rejected(self):
        from dataclasses import replace

        # Each wrong shape would broadcast into the constraints, Jacobian or
        # gradient without error: a one-row boundary Jacobian fills all of
        # the orbit's rows, a one-entry gradient every state component.  The
        # boundary map sets the row count, so a 6-entry boundary is blamed
        # on its 7-row Jacobian, and only a 2-D value on the map.
        defn = orbit_raising()
        for value, blamed in [
            (np.zeros(6), "boundary_jacobian"),
            (np.zeros((7, 1)), "boundary"),
            (np.zeros((1, 2)), "boundary"),
        ]:
            broken = replace(defn, boundary=lambda x0, xf, value=value: value)
            with pytest.raises(ValueError, match=f"^{blamed} returned"):
                transcribe(broken, lobatto_nodes(5), Method.NEW_LOBATTO)
        J = defn.boundary_jacobian(np.ones(5), np.ones(5))
        g = defn.endpoint_cost_gradient(np.ones(5), np.ones(5))
        for field, value in [
            ("boundary_jacobian", J[:1]),
            ("boundary_jacobian", J[:, :5]),
            ("boundary_jacobian", J[:, :6]),
            ("endpoint_cost_gradient", g[5:]),
            ("endpoint_cost_gradient", g[:1]),
            ("endpoint_cost_gradient", -1.0),
        ]:
            broken = replace(defn, **{field: lambda *args, value=value: value})
            with pytest.raises(ValueError, match=f"^{field} returned"):
                transcribe(broken, lobatto_nodes(5), Method.NEW_LOBATTO)

        # The two-array form of each derivative: a pair of equal shapes
        # stacks to the wrong shape, and a ragged one, such as the orbit's
        # (A, B) with n_u != n_x, to none at all.
        def pair(callback, n_x):
            def split(*args):
                value = callback(*args)
                return value[..., :n_x], value[..., n_x:]

            return split

        ivp, _ = nonlinear_ivp()
        for problem, n_x, field in [
            (defn, 5, "dynamics_jacobians"),
            (defn, 5, "boundary_jacobian"),
            (defn, 5, "endpoint_cost_gradient"),
            (ivp, 1, "dynamics_jacobians"),
            (ivp, 1, "endpoint_cost_gradient"),
            (coupled_lq_problem(), 1, "running_cost_gradients"),
        ]:
            broken = replace(problem, **{field: pair(getattr(problem, field), n_x)})
            with pytest.raises(ValueError, match=f"^{field} returned"):
                transcribe(broken, lobatto_nodes(5), Method.NEW_LOBATTO)

    @pytest.mark.parametrize(
        "guess",
        [
            lambda t: (np.ones((t.size, 0)), np.ones((t.size, 1))),
            lambda t: (np.ones((t.size, 1)), np.ones((t.size, 0))),
            lambda t: (np.ones(t.size), np.ones((t.size, 1))),
            lambda t: (np.ones((t.size + 1, 1)), np.ones((t.size + 1, 1))),
            # Rows for the 5 collocation times, not the 6 state times.
            lambda t: (np.ones((5, 1)), np.ones((5, 1))),
            lambda t: (np.ones((t.size, 1)),),
            lambda t: np.ones((t.size, 2)),
        ],
        ids=[
            "no-state",
            "no-control",
            "1-d-state",
            "wrong-rows",
            "collocation-rows",
            "one-array",
            "no-tuple",
        ],
    )
    def test_malformed_guess_rejected(self, guess):
        from dataclasses import replace

        defn, _ = nonlinear_ivp()
        with pytest.raises(ValueError, match="^initial_guess returned"):
            transcribe(replace(defn, initial_guess=guess), lobatto_nodes(5), Method.NEW_LOBATTO)

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize(
        "field, value",
        [
            ("initial_guess", lambda t: (np.full((t.size, 1), np.inf), np.ones((t.size, 1)))),
            ("dynamics", lambda t, x, u: np.full(np.shape(x), np.nan)),
            ("endpoint_cost_gradient", lambda x0, xf: np.full(2, np.nan)),
        ],
        ids=["inf-guess", "nan-dynamics", "nan-endpoint-cost-gradient"],
    )
    def test_non_finite_value_rejected(self, field, value, method):
        # Each got past construction and stopped the solver with an error
        # that named another cause: the starting lstsq's SVD did not
        # converge, or the KKT matrix was singular at iteration 0.
        from dataclasses import replace

        defn, _ = nonlinear_ivp()
        broken = replace(defn, **{field: value})
        with pytest.raises(ValueError, match=f"^{field} returned a non-finite value$"):
            transcribe(broken, lobatto_nodes(12), method)

    def test_dimensions_come_from_the_callbacks(self):
        orbit = transcribe(orbit_raising(), lobatto_nodes(5), Method.NEW_LOBATTO)
        assert (orbit.n_x, orbit.n_u, orbit.n_boundary) == (5, 1, 7)
        ivp = transcribe(nonlinear_ivp()[0], lobatto_nodes(5), Method.NEW_LOBATTO)
        assert (ivp.n_x, ivp.n_u, ivp.n_boundary) == (1, 1, 1)

    def test_unknown_method_rejected(self):
        defn, _ = nonlinear_ivp()
        with pytest.raises(ValueError):
            Transcript(defn, lobatto_nodes(5), "midpoint")


def decay_problem(x_guess=1.0, **ends):
    """dx/dt = u - x on [0, 1] from the guess x = x_guess, u = 0, with the
    given costs and boundary callbacks."""
    return OcpDefinition(
        t0=0.0,
        tf=1.0,
        dynamics=lambda t, x, u: u - x,
        dynamics_jacobians=lambda t, x, u: np.tile([-1.0, 1.0], np.shape(x) + (1,)),
        initial_guess=lambda t: (
            np.full(np.shape(t) + (1,), x_guess),
            np.zeros(np.shape(t) + (1,)),
        ),
        **ends,
    )


def coupled_lq_problem():
    """README's problem, dx/dt = u - x at control cost u^2 / 2 and endpoint
    cost -x(1), with x(0) = 0 and the row x(1) - x(0) = 0.5, which reads
    both ends.  Both ends are then fixed, so x(t) = 0.5 sinh(t) / sinh(1)."""
    return decay_problem(
        running_cost=lambda t, x, u: 0.5 * u[..., 0] ** 2,
        running_cost_gradients=lambda t, x, u: np.concatenate([np.zeros(np.shape(x)), u], -1),
        endpoint_cost=lambda x0, xf: -xf[0],
        endpoint_cost_gradient=lambda x0, xf: np.array([0.0, -1.0]),
        boundary=lambda x0, xf: np.array([x0[0], xf[0] - x0[0] - 0.5]),
        boundary_jacobian=lambda x0, xf: np.array([[1.0, 0.0], [-1.0, 1.0]]),
        x_guess=0.0,
    )


class TestRowsThatReadBothEnds:
    @pytest.mark.parametrize("method", list(Method))
    def test_jacobian_matches_central_differences(self, method):
        t = transcribe(coupled_lq_problem(), lobatto_nodes(8), method)
        z = t.initial_guess_vector() + 0.1 * np.random.default_rng(4).standard_normal(t.n_z)
        J = t.jacobian(z)
        # The coupled row has an entry at both end states.
        assert J[-1, 0] == -1.0 and J[-1, t.n_defect - 1] == 1.0
        step = 1e-6
        for j in range(t.n_z):
            bump = np.zeros(t.n_z)
            bump[j] = step
            col = (t.constraints(z + bump) - t.constraints(z - bump)) / (2 * step)
            assert np.max(np.abs(J[:, j] - col) / (1.0 + np.abs(col))) < 1e-5

    def test_augmented_solve_converges_and_passes_the_audit(self):
        n = 12
        t = transcribe(coupled_lq_problem(), lobatto_nodes(n), Method.NEW_LOBATTO)
        z, mult, report = solve(t)
        assert report.converged
        assert np.max(np.abs(t.constraints(z)[t.n_defect :])) <= 1e-10
        sol = assemble_solution(t, z, mult, report.final_kkt_norm)
        assert sol.boundary_multipliers.shape == (2,)
        audit = kkt_residuals(t, sol, t.ns, t.diff, build_dual_D(t.ns, t.diff))
        assert audit.max_abs <= 1e-8
        exact = 0.5 * np.sinh(t.state_times) / np.sinh(1.0)
        assert np.max(np.abs(sol.states[:, 0] - exact)) <= 1e-8

    @pytest.mark.parametrize("method", list(Method))
    def test_hessian_keeps_the_curvature_between_the_ends(self, method):
        # The row x0 xf - 0.5 is the only curvature: its multiplier sits at
        # (x0, xf) and (xf, x0), and the two end blocks stay zero.
        problem = decay_problem(
            boundary=lambda x0, xf: np.array([x0[0] - 1.0, x0[0] * xf[0] - 0.5]),
            boundary_jacobian=lambda x0, xf: np.array([[1.0, 0.0], [xf[0], x0[0]]]),
        )
        t = transcribe(problem, lobatto_nodes(8), method)
        rng = np.random.default_rng(0)
        z, mult = rng.standard_normal(t.n_z), rng.standard_normal(t.n_constraints)

        def lagrangian_gradient(z):
            return t.objective_gradient(z) + t.jacobian(z).T @ mult

        base = lagrangian_gradient(z)
        step = 1e-7
        columns = np.empty((t.n_z, t.n_z))
        for j in range(t.n_z):
            bumped = z.copy()
            bumped[j] += step
            columns[:, j] = (lagrangian_gradient(bumped) - base) / step
        H = t.hessian(z, mult, base)
        assert np.max(np.abs(H - 0.5 * (columns + columns.T))) < 1e-6
        x0, xf = 0, t.n_defect - 1
        assert H[x0, xf] == H[xf, x0] == pytest.approx(mult[-1], abs=1e-6)
        assert abs(H[x0, x0]) < 1e-6 and abs(H[xf, xf]) < 1e-6

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_solve_with_a_cost_that_couples_the_ends(self, n, method):
        # min 5 (x0 xf - 0.2)^2 + int u^2 / 2 with x(0) = 1: u = -lambda
        # and lambda(t) = 10 (x(1) - 0.2) e^(t - 1), so
        # x(1) = (e^-1 + 1 - e^-2) / (1 + 5 (1 - e^-2)).
        def misfit(x0, xf):
            return x0[0] * xf[0] - 0.2

        problem = decay_problem(
            running_cost=lambda t, x, u: 0.5 * u[..., 0] ** 2,
            running_cost_gradients=lambda t, x, u: np.concatenate([np.zeros(np.shape(x)), u], -1),
            endpoint_cost=lambda x0, xf: 5.0 * misfit(x0, xf) ** 2,
            endpoint_cost_gradient=lambda x0, xf: 10.0 * misfit(x0, xf) * np.concatenate([xf, x0]),
            boundary=lambda x0, xf: x0 - 1.0,
            boundary_jacobian=lambda x0, xf: np.array([[1.0, 0.0]]),
        )
        t = transcribe(problem, lobatto_nodes(n), method)
        z, _, report = solve(t)
        assert report.converged
        assert report.iterations <= 5
        exact = (np.exp(-1.0) + 1.0 - np.exp(-2.0)) / (1.0 + 5.0 * (1.0 - np.exp(-2.0)))
        assert abs(t.unpack(z)[0][n - 1, 0] - exact) < 1e-9
