"""Damped Newton solver for the equality-constrained collocation programs.

Each iteration assembles the KKT system

    [ H + delta I   J^T ] [ dz  ]   [ -grad_z L ]
    [ J             0   ] [ dm  ] = [ -c        ]

with H the Lagrangian Hessian, J the constraint Jacobian, and c the
constraint values.  The solver reads the problem only through the
transcript: its guess, its objective gradient, constraint values and
Jacobian, its Lagrangian Hessian (``Transcript.hessian``, from the gradient
the solver already holds), its size ``n_z`` and its ``full_row_rank`` flag.

The regularization delta runs through 0, delta_0, 2 delta_0, ... until the
factorization has the inertia of a constrained minimizer and the line search
finds a step.  That inertia needs the reduced Hessian Z^T (H + delta I) Z =
Z^T H Z + delta I to be positive definite, Z an orthonormal basis of the null
space of J (Nocedal & Wright ch. 16; the inertia correction of IPOPT).  So
each Newton step takes one QR of J^T and the smallest eigenvalue of the
small matrix Z^T H Z, and goes straight past every delta that leaves it
negative.  When J has full row rank, the KKT inertia is the inertia of the
reduced Hessian plus m positive and m negative eigenvalues, so a delta that
leaves it clearly positive is certified and skips the eigenvalue test of
the (n + m)-square KKT matrix.  The transcript says whether its
differentiation matrix has full row rank (the augmented method's does), and
the diagonal of the QR's R vetoes the certificate when the problem's own
boundary rows make J lose a rank; a delta within a small band around the
reduced Hessian's zero crossing, and every delta of a transcript without
the certificate, gets the full test.  A singular system with a
rank-deficient constraint Jacobian additionally gets a small negative shift
on the constraint block.  The step length comes from
backtracking on the Euclidean norm of the full KKT residual.  Problems here
have a few hundred unknowns at most, so everything is dense.

The loop is bounded twice over (the bounded inertia correction of IPOPT,
Waechter & Biegler 2006, section 3.1).  Past ``_REGULARIZATION_CAP`` it
raises ``SingularKktError``, and it raises the same error, sooner, once the
line search has found no step length at ``_MAX_FAILED_SEARCHES``
regularizations of one Newton step.  That bound is measured, not a fixed
delta: no Newton step of a converging solve of the benchmark problems fails
more than 2 line searches, while the rank-deficient square transcripts that
end singular fail 23 to 33 in one step, each a full backtracking run.

Each point is evaluated once: an accepted line-search trial's gradient,
Jacobian, constraint values and KKT vector carry into the next step.  The
regularization and line-search constants are fixed; ``SolverOptions`` sets
the KKT tolerance and the iteration budget.

A solve that has stalled stops before the budget runs out.  The report keeps
the gradient and constraint residuals of every iterate, and when, over the
last ``_STALL_WINDOW`` iterations, each residual has either stayed within the
tolerance or stayed above it without once falling below where the window
began, and at least one has done the latter, the loop raises
``MaxIterationsError`` naming both.  The rank-deficient square transcripts
end this way when their Newton steps keep one residual converged and leave
the other frozen on a floor just above the tolerance.  A residual that dips
even once below its value at the start of the window is still moving, and
the solve goes on.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .transcribe import Transcript

_REGULARIZATION_INITIAL = 1e-8
_REGULARIZATION_CAP = 1e8
_LINE_SEARCH_SHRINK = 0.5
_MIN_STEP = 1e-12
_STALL_WINDOW = 20
_MAX_FAILED_SEARCHES = 8


@dataclass(frozen=True)
class SolverOptions:
    kkt_tolerance: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        if not 0 < self.kkt_tolerance < 1e-4:
            raise ValueError("kkt_tolerance must lie in (0, 1e-4)")
        count = self.max_iterations
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError("max_iterations must be a positive integer")


@dataclass
class SolveReport:
    """What a solve did, up to the iterate it ended on.

    ``residuals`` holds the (gradient, constraint) max-norm pair of every
    iterate from the guess on; ``iterations``, the Newton steps taken, is one
    less than their count, and ``final_kkt_norm`` is the larger entry of the
    last pair.  ``step_history`` holds an (iteration, merit, alpha) tuple per
    accepted step.
    """

    converged: bool
    step_history: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.residuals) - 1

    @property
    def final_kkt_norm(self) -> float:
        return max(self.residuals[-1])


class MaxIterationsError(RuntimeError):
    """The solve stopped short of the tolerance: either the iteration budget
    ran out, or the solve stalled, with each residual converged or stuck and
    at least one stuck (``stall`` then names both, and ``report.iterations``
    is the iteration it stopped at)."""

    def __init__(self, report: SolveReport, stall: str | None = None):
        if stall is None:
            reason = f"no convergence in {report.iterations} iterations"
        else:
            reason = f"stalled at iteration {report.iterations}: {stall}"
        super().__init__(f"{reason} (KKT norm {report.final_kkt_norm:.3e})")
        self.report = report


class SingularKktError(RuntimeError):
    """No regularization gave a usable Newton step: either the line search
    found no step length at ``_MAX_FAILED_SEARCHES`` regularizations of one
    step, or every regularization up to the cap failed.  ``reason`` says
    which, and ``report.iterations`` is the step it stopped at."""

    def __init__(self, report: SolveReport, reason: str):
        super().__init__(
            f"KKT system unusable at iteration {report.iterations} ({reason})"
        )
        self.report = report


def _evaluate(t: Transcript, z):
    """The objective gradient, constraint Jacobian and constraint values at z."""
    return t.objective_gradient(z), t.jacobian(z), t.constraints(z)


def _kkt_vector(point, mult):
    gradient, J, constraints = point
    return np.concatenate([gradient + J.T @ mult, constraints])


def _multiplier_estimate(point):
    """The multipliers that minimize the Lagrangian gradient at ``point`` in
    the least-squares sense, and the KKT vector they give there."""
    gradient, J, _ = point
    mult, *_ = np.linalg.lstsq(J.T, -gradient, rcond=None)
    return mult, _kkt_vector(point, mult)


def _residuals(kkt, n):
    """The max-norm gradient and constraint residuals of a KKT vector."""
    constraint = float(np.max(np.abs(kkt[n:]))) if kkt.size > n else 0.0
    return float(np.max(np.abs(kkt[:n]))), constraint


def _stall(residuals, tolerance):
    """Why a solve with this residual history has stalled, or None.

    It has when, over the last ``_STALL_WINDOW`` iterations (the iterates
    from that many steps back to the current one), each residual either
    stayed at or below ``tolerance`` throughout, or stayed above it and never
    fell below where the window began, and at least one did the latter.
    """
    if len(residuals) <= _STALL_WINDOW:
        return None
    window = np.array(residuals[-_STALL_WINDOW - 1 :])
    done = np.all(window <= tolerance, axis=0)
    # Never below a start above the tolerance is never within it either.
    stuck = (window[0] > tolerance) & np.all(window >= window[0], axis=0)
    if not np.all(done | stuck) or not np.any(stuck):
        return None
    names = ("gradient", "constraint")
    return ", ".join(
        [
            f"{names[k]} residual within {tolerance:.1e} for {_STALL_WINDOW} iterations"
            for k in np.flatnonzero(done)
        ]
        + [
            f"{names[k]} residual stuck at {window[-1, k]:.3e} (from {window[0, k]:.3e})"
            for k in np.flatnonzero(stuck)
        ]
    )


def _regularizations():
    """The regularization tries 0, 1e-8, 2e-8, 4e-8, ...: 55 below the cap."""
    delta = 0.0
    while True:
        yield delta
        delta = _REGULARIZATION_INITIAL if delta == 0.0 else 2.0 * delta


def _inertia_band(H, J, full_row_rank):
    """The regularizations the reduced Hessian decides on its own.

    Returns ``(fails_below, certain_above)``.  Both come from one complete QR
    of J^T, Z = Q[:, m:], and the smallest eigenvalue lowest of the small
    matrix Z^T H Z; the reduced Hessian for delta is Z^T H Z + delta I.

    Below ``fails_below`` it has a negative eigenvalue.  Z lies in the null
    space of J (and spans it when J has full row rank), so with v that
    eigenvector the saddle form is negative semidefinite on span(Z v) plus
    the whole multiplier space: m + 1 dimensions.  The saddle matrix then has
    at most n - 1 positive eigenvalues, with or without the negative dual
    shift, and ``_solve_kkt`` rejects it.

    Above ``certain_above`` the reduced Hessian is positive definite.  When
    J has full row rank, Z spans its null space and the KKT matrix has the
    inertia of Z^T (H + delta I) Z plus m positive and m negative
    eigenvalues (Nocedal & Wright Thm 16.3; Gould 1985): exactly n positive
    and m negative, so ``_solve_kkt`` may skip its inertia test.  Without
    ``full_row_rank`` nothing is certain and the upper edge is inf.  The flag
    speaks for the differentiation matrix only: the problem's boundary rows
    can still repeat one another, so the diagonal of the QR's R, whose
    smallest entry falls to rounding when J loses a rank, vetoes the
    certificate once it spans more than 1e12.

    Inside the band ``_solve_kkt`` runs its full test.  The margins, 1e-6
    below and 1e-5 above times max(1, max|H|), keep roundoff in the small
    eigenvalue problem from deciding a delta that the full test might
    decide the other way.
    """
    m, n = J.shape
    if m >= n:
        return -np.inf, np.inf
    try:
        Q, R = np.linalg.qr(J.T, mode="complete")
        Z = Q[:, m:]
        lowest = np.linalg.eigvalsh(Z.T @ H @ Z)[0]
    except np.linalg.LinAlgError:
        return -np.inf, np.inf
    scale = max(1.0, float(np.max(np.abs(H))))
    pivots = np.abs(np.diag(R))
    certain = full_row_rank and pivots.min() > 1e-12 * pivots.max()
    certain_above = 1e-5 * scale - lowest if certain else np.inf
    return -lowest - 1e-6 * scale, certain_above


def _solve_kkt(H, J, rhs, delta, step_cap, inertia_known):
    """Factor and solve the saddle system; None signals failure.

    Failure means any of: the matrix does not factor, the inertia is wrong
    for a constrained minimizer (must be exactly n positive and m negative
    eigenvalues), the solve is inaccurate, or the primal step is wildly
    long.  All of these call for more regularization, which is the caller's
    job.

    ``inertia_known`` says that ``_inertia_band`` has certified the inertia
    for this delta; the eigenvalue test and the dual shift are then skipped,
    and the matrix goes straight to the solve and its checks.

    A singular matrix with correct-looking curvature usually means the
    constraint Jacobian itself lost rank (the square Lobatto transcripts do
    this at the optimum); no amount of primal regularization repairs that,
    so the constraint block gets a small negative shift instead, after
    which a full-rank-deficient dual direction shows up as a plain negative
    eigenvalue.
    """
    n, m = H.shape[0], J.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = H
    if delta:
        K[np.diag_indices(n)] += delta
    K[:n, n:] = J.T
    K[n:, :n] = J
    dual_shifted = False
    if not inertia_known:
        try:
            eigs = np.linalg.eigvalsh(K)
        except np.linalg.LinAlgError:
            return None, dual_shifted
        scale = max(1.0, float(np.max(np.abs(eigs))))
        if np.any(np.abs(eigs) <= 1e-8 * scale):
            dual_shifted = True
            K[n:, n:] = -1e-8 * scale * np.eye(m)
            try:
                eigs = np.linalg.eigvalsh(K)
            except np.linalg.LinAlgError:
                return None, dual_shifted
            scale = max(1.0, float(np.max(np.abs(eigs))))
        zero_tol = 1e-12 * scale
        if np.count_nonzero(eigs > zero_tol) != n:
            return None, dual_shifted
        if np.count_nonzero(eigs < -zero_tol) != m:
            return None, dual_shifted
    try:
        step = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        return None, dual_shifted
    if not np.all(np.isfinite(step)):
        return None, dual_shifted
    residual = np.linalg.norm(K @ step - rhs)
    if residual > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        return None, dual_shifted
    if np.linalg.norm(step[:n]) > step_cap:
        return None, dual_shifted
    return step, dual_shifted


def solve(t: Transcript, opts: SolverOptions = SolverOptions()):
    """Newton-iterate the transcript to a KKT point.

    Returns (z, multipliers, report).  Raises MaxIterationsError when the
    budget runs out or the residuals stall (``_stall``), and
    SingularKktError when no regularization gives a usable step
    (``_MAX_FAILED_SEARCHES`` fruitless line searches, or the cap), both
    with the report attached.
    """
    z = t.initial_guess_vector()
    n = t.n_z
    point = _evaluate(t, z)
    # Least-squares multiplier estimate at the guess.  Starting from zero
    # multipliers would leave a linear objective with a vanishing Lagrangian
    # Hessian and a degenerate first KKT system.
    mult, kkt = _multiplier_estimate(point)

    report = SolveReport(converged=False)

    for iteration in range(opts.max_iterations):
        grad_norm, cons_norm = _residuals(kkt, n)
        report.residuals.append((grad_norm, cons_norm))
        if grad_norm <= opts.kkt_tolerance and cons_norm <= opts.kkt_tolerance:
            report.converged = True
            return z, mult, report
        stall = _stall(report.residuals, opts.kkt_tolerance)
        if stall is not None:
            raise MaxIterationsError(report, stall)

        _, J, _ = point
        H = t.hessian(z, mult, kkt[:n])
        merit = np.linalg.norm(kkt)

        step_cap = 1e6 * max(1.0, np.linalg.norm(z))
        fails_below, certain_above = _inertia_band(H, J, t.full_row_rank)
        # Stiffen until the factorization succeeds and a step length helps.
        failed_searches = 0
        for delta in _regularizations():
            if delta > _REGULARIZATION_CAP:
                raise SingularKktError(report, f"regularization {delta:.1e}")
            if delta < fails_below:
                continue
            step, dual_shifted = _solve_kkt(
                H, J, -kkt, delta, step_cap, delta > certain_above
            )
            if step is None:
                continue
            dz, dm = step[:n], step[n:]
            alpha = 1.0
            while alpha >= _MIN_STEP:
                trial_z, trial_mult = z + alpha * dz, mult + alpha * dm
                trial_point = _evaluate(t, trial_z)
                trial_kkt = _kkt_vector(trial_point, trial_mult)
                trial_merit = np.linalg.norm(trial_kkt)
                if np.isfinite(trial_merit) and trial_merit <= merit * (1.0 - 1e-4 * alpha):
                    break
                alpha *= _LINE_SEARCH_SHRINK
            else:
                failed_searches += 1
                if failed_searches == _MAX_FAILED_SEARCHES:
                    raise SingularKktError(
                        report,
                        f"no step length helped at {failed_searches} "
                        f"regularizations up to {delta:.1e}",
                    )
                continue
            z, mult, point, kkt = trial_z, trial_mult, trial_point, trial_kkt
            if dual_shifted:
                # The shifted dual block leaves a residual floor at the shift
                # size; a least-squares multiplier refresh, which can only shrink
                # the gradient residual, removes it without touching the primals.
                mult, kkt = _multiplier_estimate(point)
            report.step_history.append((iteration, float(trial_merit), alpha))
            break

    report.residuals.append(_residuals(kkt, n))
    raise MaxIterationsError(report)
