from dataclasses import fields

import numpy as np
import pytest

from auglobatto.ocp import AnalyticTruth, OcpDefinition, nonlinear_ivp, orbit_raising

# Frozen reference values, evaluated in 40-digit arithmetic beforehand.
X_STAR_AT_2 = 0.0089637968028578800764
LAMBDA_STAR_AT_0 = -0.011924945852769531718


def central_diff_jacobian(fn, z, step=1e-6):
    z = np.asarray(z, dtype=float)
    cols = []
    for j in range(z.size):
        bump = np.zeros_like(z)
        bump[j] = step
        cols.append((np.atleast_1d(fn(z + bump)) - np.atleast_1d(fn(z - bump))) / (2 * step))
    return np.column_stack(cols)


def check_jacobians(defn: OcpDefinition, rng):
    """FD cross-check of every analytic derivative at random interior points.

    Each derivative is taken over the concatenation of its callback's
    vector arguments: (x, u) for the node callbacks, (x0, xf) for the
    endpoint ones."""
    for _ in range(10):
        t = rng.uniform(defn.t0, defn.tf)
        x_g, u_g = defn.initial_guess(t)
        x = x_g + 0.1 * rng.standard_normal(x_g.shape)
        u = u_g + 0.1 * rng.standard_normal(u_g.shape)
        xu, n_x = np.concatenate([x, u]), x.size

        F = defn.dynamics_jacobians(t, x, u)
        F_fd = central_diff_jacobian(lambda v: defn.dynamics(t, v[:n_x], v[n_x:]), xu)
        assert F.shape == F_fd.shape
        assert np.max(np.abs(F - F_fd) / (1.0 + np.abs(F_fd))) < 1e-5

        h = defn.running_cost_gradients(t, x, u)
        h_fd = central_diff_jacobian(lambda v: defn.running_cost(t, v[:n_x], v[n_x:]), xu)[0]
        assert h.shape == h_fd.shape
        assert np.max(np.abs(h - h_fd)) < 1e-5

        # The endpoint callbacks read two end states: x and a second point.
        xf = x + 0.1 * rng.standard_normal(x.shape)
        ends = np.concatenate([x, xf])
        g = defn.endpoint_cost_gradient(x, xf)
        g_fd = central_diff_jacobian(lambda v: defn.endpoint_cost(v[:n_x], v[n_x:]), ends)[0]
        assert g.shape == g_fd.shape
        assert np.max(np.abs(g - g_fd)) < 1e-5

        J = defn.boundary_jacobian(x, xf)
        J_fd = central_diff_jacobian(lambda v: defn.boundary(v[:n_x], v[n_x:]), ends)
        assert J.shape == J_fd.shape
        assert np.max(np.abs(J - J_fd)) < 1e-5


class TestOrbitRaising:
    def setup_method(self):
        self.defn = orbit_raising()

    def test_dimensions(self):
        x, u = self.defn.initial_guess(np.zeros(3))
        assert (x.shape, u.shape) == ((3, 5), (3, 1))
        assert self.defn.t0 == 0.0
        assert self.defn.tf == 3.32
        # Five initial rows, then two final rows.
        assert self.defn.boundary(x[0], x[1]).shape == (7,)
        J = self.defn.boundary_jacobian(x[0], x[1])
        assert J.shape == (7, 10)
        np.testing.assert_array_equal(J[5:, :5], 0.0)
        np.testing.assert_array_equal(J[:5, 5:], 0.0)

    def test_dynamics_at_departure(self):
        x0 = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
        xdot = self.defn.dynamics(0.0, x0, np.array([0.0]))
        np.testing.assert_allclose(
            xdot, [0.0, 1.0, 0.0, 0.1405, -0.0749], atol=1e-15
        )

    def test_initial_boundary_zero_at_start(self):
        x0 = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
        np.testing.assert_array_equal(self.defn.boundary(x0, x0)[:5], 0.0)

    def test_mass_row_of_jacobian_vanishes(self):
        x = np.array([1.2, 0.8, 0.1, 0.9, 0.9])
        F = self.defn.dynamics_jacobians(1.0, x, np.array([0.7]))
        assert F.shape == (5, 6)
        np.testing.assert_array_equal(F[4], 0.0)

    def test_terminal_boundary_on_circular_orbit(self):
        # A circular orbit at radius 4 has speed 1/2 with mu = 1.
        x = np.array([4.0, 1.0, 0.0, 0.5, 0.8])
        np.testing.assert_allclose(
            self.defn.boundary(x, x)[5:], 0.0, atol=1e-15
        )

    def test_final_cost_is_negative_radius(self):
        x = np.array([1.53, 0.0, 0.0, 0.8, 0.75])
        assert self.defn.endpoint_cost(np.ones(5), x) == -1.53

    def test_jacobians_match_finite_differences(self):
        check_jacobians(self.defn, np.random.default_rng(42))

    def test_guess_endpoints(self):
        x0, u0 = self.defn.initial_guess(0.0)
        xf, uf = self.defn.initial_guess(3.32)
        np.testing.assert_allclose(x0, [1, 0, 0, 1, 1], atol=1e-15)
        assert u0[0] == 0.0
        np.testing.assert_allclose(
            xf, [1.5, 2.0, 0.0, 1.0, 1.0 - 0.0749 * 3.32], atol=1e-15
        )
        assert uf[0] == pytest.approx(np.pi)


class TestNonlinearIvp:
    def setup_method(self):
        self.defn, self.truth = nonlinear_ivp()

    def test_dimensions(self):
        x, u = self.defn.initial_guess(np.zeros(3))
        assert x.shape == u.shape == (3, 1)
        assert (self.defn.t0, self.defn.tf) == (0.0, 2.0)
        assert self.defn.boundary(x[0], x[1]).shape == (1,)

    def test_truth_initial_values(self):
        assert self.truth.state_fn(0.0) == pytest.approx(1.0, abs=1e-15)
        assert self.truth.control_fn(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_truth_frozen_values(self):
        assert self.truth.state_fn(2.0) == pytest.approx(X_STAR_AT_2, abs=1e-16)
        assert self.truth.costate_fn(0.0) == pytest.approx(LAMBDA_STAR_AT_0, abs=1e-16)

    def test_transversality(self):
        # Cost -x(2) forces the costate to end exactly at -1.
        assert self.truth.costate_fn(2.0) == pytest.approx(-1.0, abs=1e-13)

    def test_jacobians_match_finite_differences(self):
        check_jacobians(self.defn, np.random.default_rng(3))

    def test_continuous_optimality_conditions(self):
        # The analytic triple satisfies the Pontryagin conditions: state
        # equation, costate equation, and stationarity of lambda * f in u.
        times = np.linspace(0.0, 2.0, 50)
        for t in times:
            x = np.atleast_1d(self.truth.state_fn(t))
            u = np.atleast_1d(self.truth.control_fn(t))
            lam = float(self.truth.costate_fn(t))
            e = np.exp(2.5 * t)
            xdot_true = -30.0 * e / (1.0 + 3.0 * e) ** 2
            lamdot_true = -2.5 * (9.0 * e - 1.0 / e) / (6 + 9 * np.e**5 + np.e**-5)
            f = self.defn.dynamics(t, x, u)[0]
            (f_x, f_u), = self.defn.dynamics_jacobians(t, x, u)
            assert abs(f - xdot_true) < 1e-9
            assert abs(-lam * f_x - lamdot_true) < 1e-9
            assert abs(lam * f_u) < 1e-9

    def test_boundary_residual(self):
        # One initial row, and no final row: x(2) only enters the cost.
        assert self.defn.boundary(np.array([1.0]), np.array([0.3]))[0] == 0.0
        assert self.defn.boundary(np.array([1.0]), np.array([0.3])).shape == (1,)

    def test_guess_is_constant(self):
        x, u = self.defn.initial_guess(1.3)
        assert x[0] == 1.0 and u[0] == 0.5


@pytest.mark.parametrize(
    "factory", [orbit_raising, lambda: nonlinear_ivp()[0]], ids=["orbit", "ivp"]
)
def test_node_arrays_match_stacked_single_nodes(factory):
    defn = factory()
    rng = np.random.default_rng(9)
    t = np.sort(rng.uniform(defn.t0, defn.tf, 12))
    x_g, u_g = defn.initial_guess(t)
    x = x_g + 0.1 * rng.standard_normal(x_g.shape)
    u = u_g + 0.1 * rng.standard_normal(u_g.shape)
    callbacks = {
        "dynamics": (defn.dynamics, (t, x, u)),
        "dynamics_jacobians": (defn.dynamics_jacobians, (t, x, u)),
        "running_cost": (defn.running_cost, (t, x, u)),
        "running_cost_gradients": (defn.running_cost_gradients, (t, x, u)),
        "initial_guess": (defn.initial_guess, (t,)),
    }
    # Array and scalar powers (r**3, r**-1.5) may round apart by an ulp.
    ulps = 4 * np.finfo(float).eps
    for name, (fn, args) in callbacks.items():
        whole = fn(*args)
        nodes = [fn(*(a[k] for a in args)) for k in range(t.size)]
        if not isinstance(whole, tuple):
            whole, nodes = (whole,), [(node,) for node in nodes]
        for array, parts in zip(whole, zip(*nodes)):
            np.testing.assert_allclose(
                array, np.stack(parts), rtol=ulps, atol=ulps, err_msg=name
            )


class TestValidation:
    def test_reversed_horizon_rejected(self):
        defn, _ = nonlinear_ivp()
        from dataclasses import replace

        with pytest.raises(ValueError, match="tf > t0"):
            replace(defn, t0=2.0, tf=0.0)

    @pytest.mark.parametrize(
        "t0,tf", [(0.0, np.inf), (-np.inf, 2.0), (np.nan, 2.0), (0.0, np.nan)]
    )
    def test_horizon_must_be_finite(self, t0, tf):
        defn, _ = nonlinear_ivp()
        from dataclasses import replace

        with pytest.raises(ValueError, match="tf > t0"):
            replace(defn, t0=t0, tf=tf)

    # An endpoint cost that reads one end only, with its gradient over (x0, xf).
    ONE_END_COSTS = {
        "initial": (lambda x0, xf: x0[0], lambda x0, xf: np.array([1.0, 0.0])),
        "final": (lambda x0, xf: -xf[0], lambda x0, xf: np.array([0.0, -1.0])),
    }

    # The endpoint cases are named after the end their cost reads.
    @pytest.mark.parametrize(
        "given, missing, end",
        [
            pytest.param(
                "running_cost", "running_cost_gradients", "final",
                id="running_cost-running_cost_gradients",
            ),
            pytest.param(
                "running_cost_gradients", "running_cost", "final",
                id="running_cost_gradients-running_cost",
            ),
            pytest.param(
                "endpoint_cost", "endpoint_cost_gradient", "initial",
                id="endpoint_cost_initial-endpoint_cost_initial_gradient",
            ),
            pytest.param(
                "endpoint_cost_gradient", "endpoint_cost", "initial",
                id="endpoint_cost_initial_gradient-endpoint_cost_initial",
            ),
            pytest.param(
                "endpoint_cost", "endpoint_cost_gradient", "final",
                id="endpoint_cost_final-endpoint_cost_final_gradient",
            ),
            pytest.param(
                "endpoint_cost_gradient", "endpoint_cost", "final",
                id="endpoint_cost_final_gradient-endpoint_cost_final",
            ),
        ],
    )
    def test_cost_and_gradient_come_together(self, given, missing, end):
        # Without its gradient a cost would be optimized with the zero
        # default: README's example then "converges" at iteration 0.
        defn, _ = nonlinear_ivp()
        kwargs = {f.name: getattr(defn, f.name) for f in fields(defn)}
        cost, gradient = self.ONE_END_COSTS[end]
        kwargs.update(
            running_cost=lambda t, x, u: 0.5 * u[..., 0] ** 2,
            running_cost_gradients=lambda t, x, u: np.concatenate([np.zeros(np.shape(x)), u], -1),
            endpoint_cost=cost,
            endpoint_cost_gradient=gradient,
        )
        OcpDefinition(**kwargs)
        del kwargs[missing]
        with pytest.raises(ValueError, match=f"^{given} is given without {missing}$"):
            OcpDefinition(**kwargs)

    def test_truth_type(self):
        _, truth = nonlinear_ivp()
        assert isinstance(truth, AnalyticTruth)
