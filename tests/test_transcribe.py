import numpy as np
import pytest

from auglobatto.discretization import build_dual_D, build_new_lobatto_D, numerical_rank
from auglobatto.ocp import OcpDefinition, nonlinear_ivp, orbit_raising
from auglobatto.orthopoly import legendre_eval, lobatto_nodes
from auglobatto.transcribe import (
    Method,
    Solution,
    Transcript,
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
        dynamics_jacobians=lambda t, x, u: (
            np.zeros(np.shape(x) + (n_x,)),
            np.zeros(np.shape(x) + (1,)),
        ),
        running_cost=lambda t, x, u: np.ones(np.shape(t)),
        boundary_initial=lambda t, x: x - 1.0,
        boundary_initial_jacobian=lambda t, x: np.eye(n_x),
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
    hx, hu = ocp.running_cost_gradients(tc, states[:n], controls)
    g_states = np.zeros_like(states)
    g_states[:n] = scale * hx
    g_states[0] += ocp.endpoint_cost_initial_gradient(ocp.t0, states[0])
    g_states[n - 1] += ocp.endpoint_cost_final_gradient(ocp.tf, states[n - 1])
    gradient = t.pack(g_states, scale * hu)

    defects = ocp.dynamics(tc, states[:n], controls) - (t.diff.entries @ states) / t.half_dt
    constraints = np.concatenate(
        [
            defects.ravel(),
            np.atleast_1d(ocp.boundary_initial(ocp.t0, states[0])),
            np.atleast_1d(ocp.boundary_final(ocp.tf, states[n - 1])),
        ]
    )

    A, B = ocp.dynamics_jacobians(tc, states[:n], controls)
    J = np.zeros((t.n_constraints, t.n_z))
    J[: t.n_defect, : t.n_state_vars] = -np.kron(t.diff.entries, np.eye(t.n_x)) / t.half_dt
    J[: t.n_defect, : t.n_defect] += block_diagonal(A)
    J[: t.n_defect, t.n_state_vars :] = block_diagonal(B)
    row0 = t.n_defect
    J[row0 : row0 + t.n_phi0, : t.n_x] = np.atleast_2d(
        ocp.boundary_initial_jacobian(ocp.t0, states[0])
    )
    J[row0 + t.n_phi0 :, t.n_defect - t.n_x : t.n_defect] = np.atleast_2d(
        ocp.boundary_final_jacobian(ocp.tf, states[n - 1])
    )
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


def make_solution(t: Transcript, states, controls, costates, nu0, nuf):
    return Solution(
        times=t.state_times,
        states=states,
        controls=controls,
        costates=costates,
        boundary_multipliers=(nu0, nuf),
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
        nu0 = np.array([-lam[0, 0]])
        sol = make_solution(t, states, controls, lam, nu0, np.zeros(0))
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
            sol = make_solution(t, states, controls, lam, np.zeros(1), np.zeros(0))
            r = kkt_residuals(t, sol, ns, D, Dd)
            assert r.exceptional_column <= 1e-10, f"degree {degree}"

    def test_exceptional_pairing_flags_top_mode(self):
        ns = lobatto_nodes(12)
        t = transcribe(self.defn, ns, Method.NEW_LOBATTO)
        D = build_new_lobatto_D(ns)
        Dd = build_dual_D(ns, D)
        lam = legendre_eval(11, ns.collocation)[0][:, None]
        sol = make_solution(
            t, np.zeros((13, 1)), np.zeros((12, 1)), lam, np.zeros(1), np.zeros(0)
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
            np.zeros(1), np.zeros(0),
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
            np.zeros(1), np.zeros(0),
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
        # gradient without error: a one-row final Jacobian fills both of the
        # orbit's final rows, a one-entry gradient every state component.
        # The boundary maps set the row counts, so a 4-entry initial boundary
        # is blamed on its 5-row Jacobian, and only a 2-D value on the map.
        defn = orbit_raising()
        for field, value, blamed in [
            ("boundary_initial", np.zeros(4), "boundary_initial_jacobian"),
            ("boundary_initial", np.zeros((5, 1)), "boundary_initial"),
            ("boundary_final", np.zeros((1, 2)), "boundary_final"),
        ]:
            broken = replace(defn, **{field: lambda t, x, value=value: value})
            with pytest.raises(ValueError, match=f"^{blamed} returned"):
                transcribe(broken, lobatto_nodes(5), Method.NEW_LOBATTO)
        for field, value in [
            ("boundary_initial_jacobian", np.eye(5)[:1]),
            ("boundary_final_jacobian", np.zeros((1, 5))),
            ("boundary_final_jacobian", np.zeros((2, 1))),
            ("endpoint_cost_initial_gradient", np.zeros(1)),
            ("endpoint_cost_final_gradient", np.array([-1.0])),
        ]:
            broken = replace(defn, **{field: lambda t, x, value=value: value})
            with pytest.raises(ValueError, match=f"^{field} returned"):
                transcribe(broken, lobatto_nodes(5), Method.NEW_LOBATTO)

    @pytest.mark.parametrize(
        "guess",
        [
            lambda t: (np.ones((t.size, 0)), np.ones((t.size, 1))),
            lambda t: (np.ones((t.size, 1)), np.ones((t.size, 0))),
            lambda t: (np.ones(t.size), np.ones((t.size, 1))),
            lambda t: (np.ones((t.size + 1, 1)), np.ones((t.size + 1, 1))),
            lambda t: (np.ones((t.size, 1)),),
            lambda t: np.ones((t.size, 2)),
        ],
        ids=["no-state", "no-control", "1-d-state", "wrong-rows", "one-array", "no-tuple"],
    )
    def test_malformed_guess_rejected(self, guess):
        from dataclasses import replace

        defn, _ = nonlinear_ivp()
        with pytest.raises(ValueError, match="^initial_guess returned"):
            transcribe(replace(defn, initial_guess=guess), lobatto_nodes(5), Method.NEW_LOBATTO)

    def test_dimensions_come_from_the_callbacks(self):
        orbit = transcribe(orbit_raising(), lobatto_nodes(5), Method.NEW_LOBATTO)
        assert (orbit.n_x, orbit.n_u, orbit.n_phi0, orbit.n_phif) == (5, 1, 5, 2)
        ivp = transcribe(nonlinear_ivp()[0], lobatto_nodes(5), Method.NEW_LOBATTO)
        assert (ivp.n_x, ivp.n_u, ivp.n_phi0, ivp.n_phif) == (1, 1, 1, 0)

    def test_unknown_method_rejected(self):
        defn, _ = nonlinear_ivp()
        with pytest.raises(ValueError):
            Transcript(defn, lobatto_nodes(5), "midpoint")
