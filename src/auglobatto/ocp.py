"""Fixed-time optimal control problem model and two benchmark instances.

A problem is a bundle of callables over (t, x, u): dynamics with Jacobians,
running cost with gradients, endpoint costs with gradients, and equality
boundary maps at each end with Jacobians.  Everything is smooth and
unconstrained in between; final time is fixed.

The two stock instances are a five-state orbit raising problem (maximize the
final radius of a low-thrust transfer) and a scalar nonlinear problem whose
exact state, control, and costate are known in closed form.  The latter is
the workhorse for convergence studies since every discretization error can
be measured against the analytic triple.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

Vector = np.ndarray


def _zero_cost(t, x, u):
    return np.zeros(np.shape(x)[:-1])


def _zero_cost_gradients(t, x, u):
    return np.zeros(np.shape(x)), np.zeros(np.shape(u))


def _zero_endpoint_cost(t, x):
    return 0.0


def _zero_state_gradient(t, x):
    return np.zeros(np.shape(x))


def _no_boundary(t, x):
    return np.zeros(0)


def _no_boundary_jacobian(t, x):
    return np.zeros((0, np.size(x)))


@dataclass(frozen=True, kw_only=True)
class OcpDefinition:
    """Smooth fixed-time optimal control problem with equality boundaries.

    Dynamics, costs and boundary maps are plain callables; Jacobian
    callables return dense arrays with rows indexed by the residual and
    columns by the state (or control) component.  ``initial_guess`` maps
    times to the (state, control) samples used to seed the solver.

    ``dynamics``, ``dynamics_jacobians``, ``running_cost``,
    ``running_cost_gradients`` and ``initial_guess`` broadcast over leading
    node axes: ``t`` has shape ``(...)``, ``x`` ``(..., n_x)``, ``u``
    ``(..., n_u)``; the Jacobians are ``(..., n_x, n_x)`` and
    ``(..., n_x, n_u)``, the running cost ``(...)``.  Written with
    ``x[..., i]`` indexing they also take one node (scalar ``t``, 1-D ``x``
    and ``u``).  Endpoint costs and boundary maps take one state; a boundary
    map returns a scalar or a vector.  Costs default to zero and the final
    boundary to none; a cost and its gradient are given together or not at
    all, else ``ValueError`` names the missing one.  No dimension is
    declared: the transcript reads ``n_x`` and ``n_u`` off the guess and the
    boundary row counts off the boundary maps.
    """

    t0: float
    tf: float
    dynamics: Callable[[Vector, Vector, Vector], Vector]
    dynamics_jacobians: Callable[[Vector, Vector, Vector], tuple]
    boundary_initial: Callable[[float, Vector], Vector]
    boundary_initial_jacobian: Callable[[float, Vector], Vector]
    initial_guess: Callable[[Vector], tuple]
    running_cost: Callable[[Vector, Vector, Vector], Vector] = _zero_cost
    running_cost_gradients: Callable[[Vector, Vector, Vector], tuple] = _zero_cost_gradients
    endpoint_cost_initial: Callable[[float, Vector], float] = _zero_endpoint_cost
    endpoint_cost_initial_gradient: Callable[[float, Vector], Vector] = _zero_state_gradient
    endpoint_cost_final: Callable[[float, Vector], float] = _zero_endpoint_cost
    endpoint_cost_final_gradient: Callable[[float, Vector], Vector] = _zero_state_gradient
    boundary_final: Callable[[float, Vector], Vector] = _no_boundary
    boundary_final_jacobian: Callable[[float, Vector], Vector] = _no_boundary_jacobian

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.tf) and self.tf > self.t0):
            raise ValueError(f"need finite tf > t0, got [{self.t0}, {self.tf}]")
        # A cost left without its gradient would be optimized with the zero
        # default, silently; so each cost comes with its gradient or neither.
        defaults = {f.name: f.default for f in fields(self)}
        for cost, gradient in (
            ("running_cost", "running_cost_gradients"),
            ("endpoint_cost_initial", "endpoint_cost_initial_gradient"),
            ("endpoint_cost_final", "endpoint_cost_final_gradient"),
        ):
            has_cost = getattr(self, cost) is not defaults[cost]
            if has_cost != (getattr(self, gradient) is not defaults[gradient]):
                given, missing = (cost, gradient) if has_cost else (gradient, cost)
                raise ValueError(f"{given} is given without {missing}")


@dataclass(frozen=True)
class AnalyticTruth:
    """Exact state, control, and costate trajectories of a benchmark."""

    state_fn: Callable[[np.ndarray], np.ndarray]
    control_fn: Callable[[np.ndarray], np.ndarray]
    costate_fn: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# Orbit raising: maximize final orbit radius of a constant-thrust transfer.
# State (r, theta, v_r, v_theta, m), control is the thrust angle beta.

_ORBIT_TF = 3.32
_ORBIT_THRUST = 0.1405
_ORBIT_MU = 1.0
_ORBIT_MDOT = 0.0749
_ORBIT_X0 = np.array([1.0, 0.0, 0.0, 1.0, 1.0])


def _orbit_dynamics(t, x, u):
    r, vr, vt, m = x[..., 0], x[..., 2], x[..., 3], x[..., 4]
    beta = u[..., 0]
    accel = _ORBIT_THRUST / m
    return np.stack(
        [
            vr,
            vt / r,
            vt * vt / r - _ORBIT_MU / (r * r) + accel * np.sin(beta),
            -vr * vt / r + accel * np.cos(beta),
            np.full_like(r, -_ORBIT_MDOT),
        ],
        axis=-1,
    )


def _orbit_jacobians(t, x, u):
    r, vr, vt, m = x[..., 0], x[..., 2], x[..., 3], x[..., 4]
    beta = u[..., 0]
    sb, cb = np.sin(beta), np.cos(beta)
    accel = _ORBIT_THRUST / m
    A = np.zeros(np.shape(x) + (5,))
    A[..., 0, 2] = 1.0
    A[..., 1, 0] = -vt / r**2
    A[..., 1, 3] = 1.0 / r
    A[..., 2, 0] = -vt * vt / r**2 + 2.0 * _ORBIT_MU / r**3
    A[..., 2, 3] = 2.0 * vt / r
    A[..., 2, 4] = -accel / m * sb
    A[..., 3, 0] = vr * vt / r**2
    A[..., 3, 2] = -vt / r
    A[..., 3, 3] = -vr / r
    A[..., 3, 4] = -accel / m * cb
    B = np.zeros(np.shape(x) + (1,))
    B[..., 2, 0] = accel * cb
    B[..., 3, 0] = -accel * sb
    return A, B


def _orbit_guess(t):
    frac = t / _ORBIT_TF
    x = np.stack(
        [
            1.0 + 0.5 * frac,
            2.0 * frac,
            np.zeros_like(frac),
            np.ones_like(frac),
            1.0 - _ORBIT_MDOT * t,
        ],
        axis=-1,
    )
    u = np.stack([np.pi * frac], axis=-1)
    return x, u


def orbit_raising() -> OcpDefinition:
    """Low-thrust orbit raising over a fixed horizon of 3.32 time units.

    Canonical units: mu = 1, initial circular orbit of radius 1.  Thrust
    magnitude 0.1405 with mass flow 0.0749; the free control is the thrust
    direction angle.  Objective is to maximize the final radius subject to
    ending on a circular orbit, expressed here as minimizing -r(tf) with
    terminal equalities v_r = 0 and v_theta = sqrt(mu / r).
    """

    def boundary_initial(t, x):
        return x - _ORBIT_X0

    def boundary_initial_jacobian(t, x):
        return np.eye(5)

    def boundary_final(t, x):
        r, _, vr, vt, _ = x
        return np.array([vr, vt - np.sqrt(_ORBIT_MU / r)])

    def boundary_final_jacobian(t, x):
        r = x[0]
        J = np.zeros((2, 5))
        J[0, 2] = 1.0
        J[1, 0] = 0.5 * np.sqrt(_ORBIT_MU) * r**-1.5
        J[1, 3] = 1.0
        return J

    def final_cost(t, x):
        return -x[0]

    def final_cost_gradient(t, x):
        return np.array([-1.0, 0.0, 0.0, 0.0, 0.0])

    return OcpDefinition(
        t0=0.0,
        tf=_ORBIT_TF,
        dynamics=_orbit_dynamics,
        dynamics_jacobians=_orbit_jacobians,
        endpoint_cost_final=final_cost,
        endpoint_cost_final_gradient=final_cost_gradient,
        boundary_initial=boundary_initial,
        boundary_initial_jacobian=boundary_initial_jacobian,
        boundary_final=boundary_final,
        boundary_final_jacobian=boundary_final_jacobian,
        initial_guess=_orbit_guess,
    )


# ---------------------------------------------------------------------------
# Scalar nonlinear benchmark with a closed-form optimal triple.

_IVP_RATE = 2.5
# Denominator of the costate normalization, 6 + 9 e^5 + e^-5.
_IVP_DENOM = 6.0 + 9.0 * np.exp(5.0) + np.exp(-5.0)


def _ivp_dynamics(t, x, u):
    return _IVP_RATE * (x * u - x - u * u)


def _ivp_jacobians(t, x, u):
    A = _IVP_RATE * (u - 1.0)[..., None]
    B = _IVP_RATE * (x - 2.0 * u)[..., None]
    return A, B


def nonlinear_ivp() -> tuple[OcpDefinition, AnalyticTruth]:
    """Scalar problem: maximize x(2) under dx/dt = 5/2 (xu - x - u^2).

    Starting from x(0) = 1 the optimal trajectory is known exactly:
    x*(t) = 4 / (1 + 3 exp(5t/2)), u* = x*/2, and the costate is a
    normalized multiple of (1 + 3 exp(5t/2))^2 exp(-5t/2) with lambda(2)
    equal to -1, the transversality value for the cost -x(2).
    """

    def guess(t):
        return np.ones(np.shape(t) + (1,)), np.full(np.shape(t) + (1,), 0.5)

    defn = OcpDefinition(
        t0=0.0,
        tf=2.0,
        dynamics=_ivp_dynamics,
        dynamics_jacobians=_ivp_jacobians,
        endpoint_cost_final=lambda t, x: -x[0],
        endpoint_cost_final_gradient=lambda t, x: np.array([-1.0]),
        boundary_initial=lambda t, x: x - 1.0,
        boundary_initial_jacobian=lambda t, x: np.eye(1),
        initial_guess=guess,
    )

    def state_fn(t):
        return 4.0 / (1.0 + 3.0 * np.exp(_IVP_RATE * np.asarray(t, dtype=float)))

    def control_fn(t):
        return 0.5 * state_fn(t)

    def costate_fn(t):
        e = np.exp(_IVP_RATE * np.asarray(t, dtype=float))
        return -((1.0 + 3.0 * e) ** 2) / e / _IVP_DENOM

    truth = AnalyticTruth(state_fn=state_fn, control_fn=control_fn, costate_fn=costate_fn)
    return defn, truth
