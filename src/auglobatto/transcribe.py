"""Collocation transcription of an optimal control problem, and the way back.

``transcribe`` turns a problem definition plus a node set into a
finite-dimensional equality-constrained program: decision variables are the
state samples (at all N+1 grid points for the augmented method, at the N
collocation points for the square one) and the control samples at the N
collocation points.  The defect constraints force the interpolating
polynomial's derivative to match the dynamics at every collocation point,
and the boundary rows hold the boundary map of the two end states; the
objective adds the endpoint cost to a quadrature of the running cost.

``extract_costates`` rescales the defect multipliers into costate samples,
and ``kkt_residuals`` evaluates the four first-order optimality residuals of
the discrete problem so a solved instance can be audited independently of
the solver that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .discretization import DiffMatrix, build_new_lobatto_D, build_standard_lobatto_D
from .ocp import OcpDefinition
from .orthopoly import NodeSet, legendre_eval


class Method(Enum):
    NEW_LOBATTO = "new-lobatto"
    STANDARD_LOBATTO = "standard-lobatto"


class Transcript:
    """Finite-dimensional image of one problem on one grid.

    ``n_x`` and ``n_u`` are the column counts of ``initial_guess`` on the
    state times, ``n_boundary`` the length of the boundary map at the ends
    of that guess.  Construction reads them first, then calls every other
    callback once and raises ValueError naming any whose shape disagrees or
    whose value is not finite, the guess's included; the endpoint cost must
    be a scalar.

    Layout of the decision vector ``z``: state samples node-major first
    (``n_state_nodes`` blocks of ``n_x``), then control samples node-major
    (``n`` blocks of ``n_u``).  Constraint vector: defect rows node-major
    (``n`` blocks of ``n_x``), then the ``n_boundary`` boundary rows.  The
    ends are state nodes 0 and ``n - 1``; each endpoint call reads both.
    All evaluation methods are pure.

    The dynamics and the running cost read one collocation node each, so
    the per-node dynamics Jacobians and the Lagrangian Hessian fill
    ``n_x + n_u``-square blocks, one per node; the endpoint cost and the
    boundary map read both ends, which adds an ``n_x``-square Hessian block
    between them.  A node table, one row per collocation node, holds the
    indices in ``z`` of that node's states and then its controls; node k's
    defect rows carry the indices of its states.  An end table holds those
    of x(t0), then x(tf).  The augmented method's
    extra sample has no row, because no nonlinear term reads it.  The
    defect block is linear in the states and sits in a Jacobian template
    built once.  ``jacobian`` copies the template and scatters the dynamics
    Jacobians into the node rows and the boundary one into the end columns.
    ``hessian`` differences the Lagrangian
    gradient with one state or control component bumped at every node at
    once, keeps each node's block, and takes the block between the ends
    apart.  ``objective_gradient`` and ``constraints`` each fill one new
    vector.

    ``evaluate_many`` returns all three at each row of a stack of B points,
    calling each node-array callback once on the B points' nodes laid end
    to end, ``B n`` nodes, and the endpoint callbacks once per row; the
    line search evaluates its shorter trial steps that way.  It repeats the
    single-point methods' operations on the stacked arrays, so each row is
    bit-equal to them.  They keep their own bodies: going through a one-row
    stack made the median IVP solve about 14% slower.

    ``full_row_rank`` is true for the augmented method: its N x (N+1)
    matrix has full row rank by construction, while the square matrix loses
    a rank.  The solver then reads the KKT inertia off the reduced Hessian,
    unless its QR of the constraint Jacobian shows that boundary rows which
    repeat one another cost it a rank.
    """

    def __init__(self, ocp: OcpDefinition, ns: NodeSet, method: Method):
        self.ocp = ocp
        self.ns = ns
        self.method = method
        self.n = ns.n
        self.half_dt = 0.5 * (ocp.tf - ocp.t0)
        self._mid = 0.5 * (ocp.tf + ocp.t0)

        if method is Method.NEW_LOBATTO:
            self.diff = build_new_lobatto_D(ns)
            state_taus = ns.all_nodes
        elif method is Method.STANDARD_LOBATTO:
            self.diff = build_standard_lobatto_D(ns)
            state_taus = ns.collocation
        else:
            raise ValueError(f"unknown method {method!r}")

        self.full_row_rank = method is Method.NEW_LOBATTO
        self.n_state_nodes = state_taus.size
        self.state_times = self.map_time(state_taus)
        self.collocation_times = self.map_time(ns.collocation)
        self._read_callbacks()
        self.n_defect = self.n * self.n_x
        self.n_state_vars = self.n_state_nodes * self.n_x
        self.n_z = self.n_state_vars + self.n * self.n_u
        self.n_constraints = self.n_defect + self.n_boundary
        states = np.arange(self.n_defect).reshape(self.n, self.n_x)
        controls = np.arange(self.n_state_vars, self.n_z).reshape(self.n, self.n_u)
        self._nodes = np.hstack([states, controls])
        # Indices in z of x(t0), then x(tf): the endpoint derivatives' columns.
        self._ends = np.concatenate([states[0], states[self.n - 1]])
        # Flat index of (row _nodes[k, r], column _nodes[k, c]) in a
        # row-major matrix n_z wide: the Hessian's node blocks, and for
        # r < n_x the Jacobian's dynamics blocks.  Each scatter gets its own
        # contiguous copy, which scatters faster than a strided view: the
        # Jacobian's rows r < n_x, and the Hessian's column c = i of every
        # block for bump i.  The template holds the defect block that is
        # linear in the states.
        blocks = self._nodes[:, :, None] * self.n_z + self._nodes[:, None, :]
        self._defect_blocks = blocks[:, : self.n_x].copy()
        self._block_columns = np.ascontiguousarray(blocks.transpose(2, 0, 1))
        self._jacobian_template = np.zeros((self.n_constraints, self.n_z))
        self._jacobian_template[: self.n_defect, : self.n_state_vars] = -np.kron(
            self.diff.entries, np.eye(self.n_x)
        ) / self.half_dt
        self._quadrature = self.half_dt * ns.weights[:, None]

    # -- layout helpers ----------------------------------------------------

    def map_time(self, tau):
        """Affine map from the reference interval to problem time."""
        return self.half_dt * np.asarray(tau, dtype=float) + self._mid

    def unpack(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n_z,):
            raise ValueError(f"expected decision vector of length {self.n_z}")
        states = z[: self.n_state_vars].reshape(self.n_state_nodes, self.n_x)
        controls = z[self.n_state_vars :].reshape(self.n, self.n_u)
        return states, controls

    def pack(self, states, controls):
        return np.concatenate([np.ravel(states), np.ravel(controls)])

    def initial_guess_vector(self) -> np.ndarray:
        return self._guess.copy()

    # -- NLP callbacks -----------------------------------------------------

    def objective(self, z) -> float:
        states, controls = self.unpack(z)
        ocp = self.ocp
        total = ocp.endpoint_cost(states[0], states[self.n - 1])
        running = self.ns.weights @ ocp.running_cost(
            self.collocation_times, states[: self.n], controls
        )
        return float(total + self.half_dt * running)

    def objective_gradient(self, z) -> np.ndarray:
        states, controls = self.unpack(z)
        ocp = self.ocp
        n = self.n
        h = ocp.running_cost_gradients(self.collocation_times, states[:n], controls)
        gradient = np.zeros(self.n_z)
        gradient[self._nodes] = self._quadrature * h
        gradient[self._ends] += ocp.endpoint_cost_gradient(states[0], states[n - 1])
        return gradient

    def constraints(self, z) -> np.ndarray:
        states, controls = self.unpack(z)
        ocp = self.ocp
        values = np.empty(self.n_constraints)
        rhs = ocp.dynamics(self.collocation_times, states[: self.n], controls)
        values[: self.n_defect] = (rhs - (self.diff.entries @ states) / self.half_dt).ravel()
        values[self.n_defect :] = ocp.boundary(states[0], states[self.n - 1])
        return values

    def jacobian(self, z) -> np.ndarray:
        states, controls = self.unpack(z)
        ocp = self.ocp
        F = ocp.dynamics_jacobians(self.collocation_times, states[: self.n], controls)
        J = self._jacobian_template.copy()
        J.reshape(-1)[self._defect_blocks] += F
        J[self.n_defect :, self._ends] = ocp.boundary_jacobian(states[0], states[self.n - 1])
        return J

    def evaluate_many(self, Z):
        """Objective gradients ``(B, n_z)``, Jacobians ``(B, n_constraints,
        n_z)`` and constraint values ``(B, n_constraints)`` at each row of
        the stack ``Z``, bit-equal to the single-point methods at that row:
        the same operations, on the stacked arrays.  Each node-array
        callback is called once, on the B points' nodes laid end to end
        (``t`` of shape ``(B n,)``, ``x`` ``(B n, n_x)``, ``u`` ``(B n,
        n_u)``); each endpoint callback once per row."""
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.n_z:
            raise ValueError(f"expected a stack of decision vectors of length {self.n_z}")
        ocp = self.ocp
        rows, n, n_x = Z.shape[0], self.n, self.n_x
        states = Z[:, : self.n_state_vars].reshape(rows, self.n_state_nodes, n_x)
        controls = Z[:, self.n_state_vars :].reshape(rows * n, self.n_u)
        nodes = (np.tile(self.collocation_times, rows), states[:, :n].reshape(-1, n_x), controls)

        h = ocp.running_cost_gradients(*nodes).reshape(rows, n, -1)
        gradients = np.zeros((rows, self.n_z))
        gradients[:, self._nodes] = self._quadrature * h
        F = ocp.dynamics_jacobians(*nodes).reshape(rows, n, n_x, -1)
        jacobians = np.empty((rows,) + self._jacobian_template.shape)
        jacobians[:] = self._jacobian_template
        jacobians.reshape(rows, -1)[:, self._defect_blocks] += F
        values = np.empty((rows, self.n_constraints))
        rhs = ocp.dynamics(*nodes).reshape(rows, n, n_x)
        values[:, : self.n_defect] = (rhs - (self.diff.entries @ states) / self.half_dt).reshape(
            rows, self.n_defect
        )
        for gradient, J, row, x in zip(gradients, jacobians, values, states):
            gradient[self._ends] += ocp.endpoint_cost_gradient(x[0], x[n - 1])
            J[self.n_defect :, self._ends] = ocp.boundary_jacobian(x[0], x[n - 1])
            row[self.n_defect :] = ocp.boundary(x[0], x[n - 1])
        return gradients, jacobians, values

    def hessian(self, z, mult, gradient) -> np.ndarray:
        """Lagrangian Hessian at (z, mult) by forward differences from its
        gradient ``objective_gradient(z) + jacobian(z).T @ mult``.

        Away from the ends a gradient row depends nonlinearly on its own
        node's unknowns only, so one bump of component i at every node gives
        column i of every node block: n_x + n_u gradients in all.  That bump
        moves both ends at once, so each end's block also takes the
        curvature between the ends of phi + nu^T psi.  Differencing its
        gradient's x(t0) part over x(tf) alone gives that cross block; it comes off
        both end blocks and goes in the two cross positions.  Every other
        entry off the node blocks, and the extra sample's, is zero.
        """
        step = 1e-7
        H = np.zeros((self.n_z, self.n_z))
        flat = H.reshape(-1)
        for i in range(self.n_x + self.n_u):
            bumped = np.array(z, dtype=float)
            bumped[self._nodes[:, i]] += step
            bumped_gradient = self.objective_gradient(bumped) + self.jacobian(bumped).T @ mult
            flat[self._block_columns[i]] = ((bumped_gradient - gradient) / step)[self._nodes]

        start, end = slice(0, self.n_x), slice(self.n_defect - self.n_x, self.n_defect)
        x0, xf = z[start], z[end]
        nu = mult[self.n_defect :]

        def start_gradient(xf):
            g = self.ocp.endpoint_cost_gradient(x0, xf)
            return (g + self.ocp.boundary_jacobian(x0, xf).T @ nu)[: self.n_x]

        base = start_gradient(xf)
        cross = np.empty((self.n_x, self.n_x))
        for i in range(self.n_x):
            bumped = xf.copy()
            bumped[i] += step
            cross[:, i] = (start_gradient(bumped) - base) / step
        H[start, start] -= cross
        H[end, end] -= cross.T
        H[start, end] = cross
        H[end, start] = cross.T
        return 0.5 * (H + H.T)

    # -- construction checks ----------------------------------------------

    def _read_callbacks(self):
        """Take the dimensions from the guess on the state times and from
        the boundary map at the ends of it, and keep the packed guess; then
        call every other node-array callback once on the guess's
        collocation rows and both endpoint derivatives once on its ends."""
        ocp = self.ocp
        n, rows, tc = self.n, self.n_state_nodes, self.collocation_times
        guess = ocp.initial_guess(self.state_times)
        shapes = tuple(np.shape(a) for a in guess)
        if len(shapes) != 2 or any(len(s) != 2 or s[0] != rows or s[1] < 1 for s in shapes):
            raise ValueError(
                f"initial_guess returned shapes {shapes}, "
                f"expected two arrays of {rows} rows and at least one column"
            )
        self._guess = self.pack(guess[0], guess[1][:n])
        _check_value("initial_guess", self._guess, self._guess.shape)
        x, u = guess[0][:n], guess[1][:n]
        x0, xf = x[0], x[n - 1]
        self.n_x, self.n_u = n_x, n_u = x.shape[1], u.shape[1]
        boundary = ocp.boundary(x0, xf)
        self.n_boundary = n_b = int(np.size(boundary))
        _check_value("boundary", np.atleast_1d(boundary), (n_b,))
        _check_value("dynamics", ocp.dynamics(tc, x, u), (n, n_x))
        _check_value("dynamics_jacobians", ocp.dynamics_jacobians(tc, x, u), (n, n_x, n_x + n_u))
        _check_value("running_cost", ocp.running_cost(tc, x, u), (n,))
        gradients = ocp.running_cost_gradients(tc, x, u)
        _check_value("running_cost_gradients", gradients, (n, n_x + n_u))
        _check_value("boundary_jacobian", ocp.boundary_jacobian(x0, xf), (n_b, 2 * n_x))
        _check_value("endpoint_cost", ocp.endpoint_cost(x0, xf), ())
        _check_value("endpoint_cost_gradient", ocp.endpoint_cost_gradient(x0, xf), (2 * n_x,))


def _check_value(name, value, shape):
    # numpy would broadcast a wrong shape into the program, and a
    # non-finite value would surface later as a singular KKT matrix.
    expected = "a scalar" if shape == () else shape
    try:
        array = np.asarray(value, dtype=float)
    except ValueError:
        raise ValueError(f"{name} returned arrays of unequal shapes, expected {expected}") from None
    if array.shape != shape:
        raise ValueError(f"{name} returned shape {array.shape}, expected {expected}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} returned a non-finite value")


def transcribe(ocp: OcpDefinition, ns: NodeSet, method: Method) -> Transcript:
    """Build the discrete program for one problem, grid, and method."""
    return Transcript(ocp, ns, method)


@dataclass(frozen=True)
class Solution:
    """A solved instance in problem-native quantities.

    ``times`` lists the state sample times in internal order, which puts the
    extra near-midpoint sample last for the augmented method; consumers that
    want chronological output sort by time.  Costates and controls live at
    the N collocation times only.  ``boundary_multipliers`` is the one
    multiplier vector nu of the boundary rows, in the boundary map's order.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    costates: np.ndarray
    boundary_multipliers: np.ndarray
    kkt_residual: float


def extract_costates(t: Transcript, raw_multipliers) -> np.ndarray:
    """Costate samples from raw equality multipliers.

    The defect multiplier lambda-tilde at node k absorbs one quadrature
    weight and half the horizon length; undoing that gives the costate:
    lambda_k = 2 lambda-tilde_k / (w_k (tf - t0)).
    """
    raw = np.asarray(raw_multipliers, dtype=float)
    if raw.shape != (t.n_constraints,):
        raise ValueError(
            f"expected {t.n_constraints} multipliers, got {raw.shape}"
        )
    lam_tilde = raw[: t.n_defect].reshape(t.n, t.n_x)
    dt = t.ocp.tf - t.ocp.t0
    return 2.0 * lam_tilde / (t.ns.weights[:, None] * dt)


def assemble_solution(
    t: Transcript, z, multipliers, kkt_residual: float
) -> Solution:
    states, controls = t.unpack(z)
    raw = np.asarray(multipliers, dtype=float)
    return Solution(
        times=t.state_times.copy(),
        states=states.copy(),
        controls=controls.copy(),
        costates=extract_costates(t, raw),
        boundary_multipliers=raw[t.n_defect :].copy(),
        kkt_residual=float(kkt_residual),
    )


@dataclass(frozen=True)
class KktResidualReport:
    """Infinity norms of the four discrete first-order conditions."""

    state_equation: float
    adjoint: float
    exceptional_column: float
    control: float

    @property
    def max_abs(self) -> float:
        return max(
            self.state_equation,
            self.adjoint,
            self.exceptional_column,
            self.control,
        )


def kkt_residuals(
    t: Transcript,
    sol: Solution,
    ns: NodeSet,
    D: DiffMatrix,
    Ddual: DiffMatrix,
) -> KktResidualReport:
    """Audit a solved instance against the discrete optimality conditions.

    The four residuals are, node by node: the weighted state-equation
    defect; the adjoint equation driven by the dual matrix with the endpoint
    costate jumps, the x0 and xf parts of ``g + J^T nu`` at nodes 0 and
    N-1, from the one endpoint function phi + nu^T psi of both ends; the
    weighted combination of costates against the extra sample's matrix
    column, which must vanish for the costates to stay one degree below the
    state polynomial; and control stationarity.
    """
    if t.method is not Method.NEW_LOBATTO:
        raise ValueError("residual audit is defined for the augmented method")
    n = t.n
    if D.entries.shape != (n, n + 1) or Ddual.entries.shape != (n, n):
        raise ValueError("need the rectangular matrix and its dual, in that order")

    ocp = t.ocp
    w = ns.weights
    half = t.half_dt
    states = sol.states
    controls = sol.controls
    lam = sol.costates
    nu = sol.boundary_multipliers

    tc = t.collocation_times
    f_all = ocp.dynamics(tc, states[:n], controls)
    F = ocp.dynamics_jacobians(tc, states[:n], controls)
    h = ocp.running_cost_gradients(tc, states[:n], controls)
    scale = half * w[:, None]
    grad = scale * (h + np.einsum("kji,kj->ki", F, lam))
    grad_x, grad_u = grad[:, : t.n_x], grad[:, t.n_x :]

    # (a) weighted state-equation defect.
    defect = f_all - (D.entries @ states) / half
    res_state = np.max(np.abs(scale * defect))

    # (b) adjoint equation with the endpoint jumps on the right-hand side.
    adjoint = grad_x + w[:, None] * (Ddual.entries @ lam)
    g = ocp.endpoint_cost_gradient(states[0], states[n - 1])
    jump = g + ocp.boundary_jacobian(states[0], states[n - 1]).T @ nu
    adjoint[0] += jump[: t.n_x]
    adjoint[n - 1] += jump[t.n_x :]
    adjoint[n - 1] -= lam[n - 1]
    adjoint[0] += lam[0]
    res_adjoint = np.max(np.abs(adjoint))

    # (c) weighted costates against the extra sample's column.
    res_exceptional = np.max(np.abs((w[:, None] * lam).T @ D.entries[:, -1]))

    # (d) control stationarity.
    res_control = np.max(np.abs(grad_u))

    return KktResidualReport(
        state_equation=float(res_state),
        adjoint=float(res_adjoint),
        exceptional_column=float(res_exceptional),
        control=float(res_control),
    )


def costate_leading_coefficient(costates, ns: NodeSet) -> np.ndarray:
    """Degree-(N-1) Legendre coefficient of each costate component.

    Computed with the discrete Gauss-Lobatto inner product on the
    collocation grid.  A solution whose costates really are polynomials of
    degree N-2 or less shows a coefficient at rounding level.
    """
    lam = np.asarray(costates, dtype=float)
    p_vals, _ = legendre_eval(ns.n - 1, ns.collocation)
    weighted = ns.weights * p_vals
    return (weighted @ lam) / np.dot(weighted, p_vals)
