"""Lagrange bases and differentiation matrices on the augmented Lobatto grid.

Three matrices are built here.  The rectangular matrix ``D`` differentiates a
polynomial sampled at all N+1 grid points (collocation plus the extra
near-zero sample) and evaluates the result at the N collocation points; it has
full row rank, so it can be inverted in the least-squares sense.  The square
matrix restricted to the collocation points alone is the classical Lobatto
operator and is rank-deficient.  The dual matrix combines ``D`` with the
quadrature weights and differentiates exactly through degree N-2; it shows up
when mapping multiplier vectors back to costate samples.

All matrices are dense; the grids in play never exceed a few dozen points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orthopoly import NodeSet, lobatto_eval

_MIN_NODE_GAP = 1e-12


@dataclass(frozen=True)
class LagrangeBasis:
    """Polynomial interpolation basis in barycentric form.

    Attributes
    ----------
    nodes : ndarray
        Distinct abscissas, length M.
    barycentric_weights : ndarray
        The weights 1 / prod_{j != i} (x_i - x_j), length M.
    """

    nodes: np.ndarray
    barycentric_weights: np.ndarray

    def values(self, tau):
        """Evaluate every basis polynomial at ``tau``.

        Returns an array of shape ``(M,)`` for scalar input, ``(len(tau), M)``
        for array input.  Rows sum to one; at a node the row is a unit vector.
        """
        scalar = np.ndim(tau) == 0
        t = np.atleast_1d(np.asarray(tau, dtype=float))
        d = t[:, None] - self.nodes[None, :]
        hit = d == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = self.barycentric_weights[None, :] / d
            out = contrib / contrib.sum(axis=1, keepdims=True)
        on_node = hit.any(axis=1)
        out[on_node] = hit[on_node].astype(float)
        return out[0] if scalar else out

    def differentiation_matrix(self) -> np.ndarray:
        """Square matrix of basis derivatives at the basis's own nodes.

        Entry (k, i) is the derivative of basis polynomial i at node k.  The
        diagonal uses the negative-sum trick so each row sums to zero exactly.
        """
        x = self.nodes
        w = self.barycentric_weights
        gap = x[:, None] - x[None, :]
        np.fill_diagonal(gap, np.inf)
        mat = (w[None, :] / w[:, None]) / gap
        np.fill_diagonal(mat, 0.0)
        np.fill_diagonal(mat, -mat.sum(axis=1))
        return mat


@dataclass(frozen=True)
class DiffMatrix:
    """A differentiation matrix together with its source and target grids.

    ``entries[k, i]`` is the derivative of the i-th Lagrange polynomial on
    ``col_nodes``, evaluated at ``row_nodes[k]``.  The shape of ``entries``
    tells the matrices apart: the rectangular matrix is N x (N+1), the
    square and dual matrices N x N.
    """

    entries: np.ndarray
    row_nodes: np.ndarray
    col_nodes: np.ndarray


def build_basis(nodes) -> LagrangeBasis:
    """Construct a barycentric Lagrange basis on distinct nodes.

    Raises ValueError if a node is not finite, or naming the closest pair
    if two nodes coincide to within 1e-12.
    """
    x = np.array(nodes, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a one-dimensional array of at least two nodes")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"nodes must be finite, got {x[~np.isfinite(x)][0]!r}")
    order = np.argsort(x)
    gaps = np.diff(x[order])
    tight = np.argmin(gaps)
    if gaps[tight] <= _MIN_NODE_GAP:
        a, b = x[order[tight]], x[order[tight + 1]]
        raise ValueError(f"duplicate nodes {a!r} and {b!r} (gap {gaps[tight]:.3e})")
    gap = x[:, None] - x[None, :]
    np.fill_diagonal(gap, 1.0)
    weights = 1.0 / np.prod(gap, axis=1)
    x.flags.writeable = False
    weights.flags.writeable = False
    return LagrangeBasis(nodes=x, barycentric_weights=weights)


def build_new_lobatto_D(ns: NodeSet) -> DiffMatrix:
    """Rectangular N x (N+1) differentiation matrix on the augmented grid.

    Columns follow ``ns.all_nodes`` (collocation points then the extra
    sample); rows are the collocation points only.  Exact for polynomials
    through degree N and of full rank N.
    """
    basis = build_basis(ns.all_nodes)
    full = basis.differentiation_matrix()
    entries = np.ascontiguousarray(full[: ns.n, :])
    entries.flags.writeable = False
    return DiffMatrix(
        entries=entries,
        row_nodes=ns.collocation,
        col_nodes=basis.nodes,
    )


def build_standard_lobatto_D(ns: NodeSet) -> DiffMatrix:
    """Square N x N differentiation matrix on the collocation points alone.

    Rank-deficient: every column lies in the span of the other N-1.
    """
    basis = build_basis(ns.collocation)
    entries = basis.differentiation_matrix()
    entries.flags.writeable = False
    return DiffMatrix(
        entries=entries,
        row_nodes=ns.collocation,
        col_nodes=ns.collocation,
    )


def build_dual_D(ns: NodeSet, D: DiffMatrix) -> DiffMatrix:
    """Dual differentiation matrix derived from the rectangular one.

    Entry (k, i) is ``(delta_ki / w_k)(delta_Nk - delta_1k) - (w_i / w_k)
    D_ik`` over the collocation points.  Differentiates polynomials exactly
    through degree N-2 and annihilates constants.  Raises ValueError unless
    ``D`` is N x (N+1), which rejects the square matrix.
    """
    n = ns.n
    if D.entries.shape != (n, n + 1):
        raise ValueError(
            f"expected the {n} x {n + 1} rectangular matrix, got shape {D.entries.shape}"
        )
    w = ns.weights
    core = D.entries[:, :n]
    entries = -core.T * (w[None, :] / w[:, None])
    entries[0, 0] -= 1.0 / w[0]
    entries[-1, -1] += 1.0 / w[-1]
    entries.flags.writeable = False
    return DiffMatrix(
        entries=entries,
        row_nodes=ns.collocation,
        col_nodes=ns.collocation,
    )


def verify_definition(D: DiffMatrix, order: int) -> float:
    """Largest residual of D applied to monomials of degree 0..order.

    Builds the Vandermonde matrix V on the column nodes and the derivative
    Vandermonde V' on the row nodes, and returns the infinity norm of
    ``D V - V'`` entrywise.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order >= D.col_nodes.size:
        raise ValueError(f"order {order} exceeds cols-1 = {D.col_nodes.size - 1}")
    powers = np.arange(order + 1)
    V = D.col_nodes[:, None] ** powers[None, :]
    shifted = D.row_nodes[:, None] ** np.maximum(powers - 1, 0)[None, :]
    Vp = powers[None, :] * shifted
    return float(np.max(np.abs(D.entries @ V - Vp)))


def runge_bound(ns: NodeSet, grid_size: int) -> float:
    """Max of |l_xi| over a uniform grid, l_xi being the basis polynomial of
    the extra sample on the full augmented grid.  Stays at or below 1 up to
    rounding, which is what keeps the augmented grid free of the endpoint
    oscillations seen with arbitrary added points."""
    if grid_size < 1001:
        raise ValueError("grid_size must be at least 1001")
    basis = build_basis(ns.all_nodes)
    grid = np.linspace(-1.0, 1.0, grid_size)
    column = basis.values(grid)[:, ns.n]
    return float(np.max(np.abs(column)))


def exceptional_column_reference(ns: NodeSet) -> np.ndarray:
    """Closed-form last column of the rectangular matrix: the ratio of the
    Lobatto polynomial's derivative at each collocation point to its value at
    the extra sample."""
    _, dvals = lobatto_eval(ns.n, ns.collocation)
    value_at_xi, _ = lobatto_eval(ns.n, ns.exceptional)
    return dvals / value_at_xi


def _kept_singular_values(entries: np.ndarray) -> np.ndarray:
    """Singular values above 1e-10 times the largest, in descending order;
    empty for an empty or zero matrix."""
    sigma = np.linalg.svd(entries, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return sigma[:0]
    return sigma[sigma > 1e-10 * sigma[0]]


def numerical_rank(entries: np.ndarray) -> int:
    """Count of singular values above 1e-10 times the largest."""
    return int(_kept_singular_values(entries).size)


def condition_number(entries: np.ndarray) -> float:
    """Ratio of the largest singular value to the smallest one counted in the
    numerical rank.  Returns inf for a zero matrix."""
    kept = _kept_singular_values(entries)
    if kept.size == 0:
        return float("inf")
    return float(kept[0] / kept[-1])
