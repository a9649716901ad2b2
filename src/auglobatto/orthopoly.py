"""Legendre/Lobatto polynomial evaluation, node computation and quadrature weights.

The collocation grid used throughout this package consists of the N roots of
the Lobatto polynomial of degree N (the endpoints -1, +1 together with the
stationary points of the Legendre polynomial of degree N-1), augmented with
one extra interpolation point: the root of P_{N-1} nearest zero.  That extra
point maximizes |L_N| over [-1, 1], which makes the rectangular
differentiation matrix built on the augmented grid maximally robust to a
perturbation placed there.

Both sets of roots come from the eigenvalues of a symmetric tridiagonal
Jacobi matrix (Golub & Welsch 1969): that of P_{N-1} for the extra point,
and that of the Jacobi polynomial P^(1,1)_{N-2}, whose roots are those of
P'_{N-1}, for the interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TAU_SLACK = 1e-12


@dataclass(frozen=True)
class NodeSet:
    """Collocation grid of size n plus one augmentation node.

    Attributes
    ----------
    n : int
        Number of collocation nodes (>= 3).
    collocation : ndarray, shape (n,)
        Roots of the Lobatto polynomial of degree n, ascending.  The first
        entry is exactly -1 and the last exactly +1.
    weights : ndarray, shape (n,)
        Gauss-Lobatto quadrature weights; exact for polynomials of degree
        up to 2n - 3.
    exceptional : float
        The augmentation node: root of P_{n-1} nearest zero (the positive
        one when two are tied).  Exactly 0.0 for even n.  It is appended
        after the collocation nodes, so ``all_nodes[n]`` holds it.
    """

    n: int
    collocation: np.ndarray
    weights: np.ndarray
    exceptional: float

    @property
    def all_nodes(self) -> np.ndarray:
        """Collocation nodes with the exceptional node appended."""
        return np.append(self.collocation, self.exceptional)


def _legendre_recurrence(n: int, tau: np.ndarray):
    """Forward three-term recurrence; returns (P_n, P'_n, P''_n) at tau."""
    p_prev = np.ones_like(tau)
    d_prev = np.zeros_like(tau)
    s_prev = np.zeros_like(tau)
    if n == 0:
        return p_prev, d_prev, s_prev
    p = tau.copy()
    d = np.ones_like(tau)
    s = np.zeros_like(tau)
    for k in range(1, n):
        # (k+1) P_{k+1} = (2k+1) tau P_k - k P_{k-1}; derivatives carried
        # through the same recurrence, which stays exact at tau = +-1.
        p_next = ((2 * k + 1) * tau * p - k * p_prev) / (k + 1)
        d_next = d_prev + (2 * k + 1) * p
        s_next = s_prev + (2 * k + 1) * d
        p_prev, d_prev, s_prev = p, d, s
        p, d, s = p_next, d_next, s_next
    return p, d, s


def _check_tau(tau: np.ndarray) -> None:
    # Written as "not inside" so that NaN fails too.
    outside = ~(np.abs(tau) <= 1.0 + _TAU_SLACK)
    if np.any(outside):
        raise ValueError(f"tau outside [-1, 1]: {np.asarray(tau)[outside].flat[0]!r}")


def legendre_eval(n: int, tau):
    """Evaluate the Legendre polynomial P_n and its first derivative.

    Parameters
    ----------
    n : int
        Degree, >= 0.
    tau : float or array_like
        Evaluation points in [-1, 1].

    Returns
    -------
    (value, first_derivative)
        Floats for scalar input (a Python float or a 0-d array), ndarrays
        otherwise.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    scalar = np.ndim(tau) == 0
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    _check_tau(t)
    p, d, _ = _legendre_recurrence(n, t)
    if scalar:
        return float(p[0]), float(d[0])
    return p, d


def lobatto_eval(n: int, tau):
    """Evaluate the Lobatto polynomial L_n = (tau^2 - 1) P'_{n-1} and its derivative.

    The derivative is n (n-1) P_{n-1}(tau).  Requires n >= 2.  Returns
    floats or ndarrays as ``legendre_eval`` does.
    """
    if n < 2:
        raise ValueError(f"Lobatto polynomial needs degree >= 2, got {n}")
    p, d = legendre_eval(n - 1, tau)
    t = np.asarray(tau, dtype=float)
    value = (t * t - 1.0) * d
    return (value if t.ndim else float(value)), n * (n - 1) * p


def _legendre_roots(m: int, derivative: bool) -> np.ndarray:
    """Roots of P_m, or of P'_m when ``derivative``; ascending, exactly antisymmetric.

    They are the eigenvalues of a zero-diagonal symmetric tridiagonal Jacobi
    matrix (Golub & Welsch 1969), that of P_m or of the Jacobi polynomial
    P^(1,1)_{m-1}, whose roots are those of P'_m.  One Newton step through
    the recurrence polishes them.
    """
    if derivative:
        k = np.arange(1.0, m - 1)
        offdiag = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))
    else:
        k = np.arange(1.0, m)
        offdiag = k / np.sqrt(4 * k * k - 1)
    x = np.linalg.eigvalsh(np.diag(offdiag, -1))
    p, d, s = _legendre_recurrence(m, x)
    x = x - (d / s if derivative else p / d)
    return 0.5 * (x - x[::-1])


def lobatto_nodes(n: int) -> NodeSet:
    """Compute the collocation grid, quadrature weights and exceptional node.

    Parameters
    ----------
    n : int
        Number of collocation nodes; n >= 3 so that the 2n-3 quadrature
        exactness covers the degree-n interpolant.

    Returns
    -------
    NodeSet
    """
    if n < 3:
        raise ValueError(f"need at least 3 collocation nodes, got {n}")
    m = n - 1

    # Interior collocation nodes: the n-2 roots of P'_{n-1}.
    interior = _legendre_roots(m, derivative=True)
    collocation = np.concatenate([[-1.0], interior, [1.0]])

    p, _, _ = _legendre_recurrence(m, collocation)
    weights = 2.0 / (n * (n - 1) * p * p)
    weights = 0.5 * (weights + weights[::-1])

    # Exceptional node: root of P_{n-1} nearest zero.  Even n gives the
    # middle root 0 exactly; odd n has a symmetric tie, broken positive.
    if n % 2 == 0:
        exceptional = 0.0
    else:
        exceptional = float(_legendre_roots(m, derivative=False)[m // 2])

    ns = NodeSet(n=n, collocation=collocation, weights=weights, exceptional=exceptional)
    ns.collocation.setflags(write=False)
    ns.weights.setflags(write=False)
    return ns
