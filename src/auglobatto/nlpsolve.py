"""Damped Newton solver for the equality-constrained collocation programs.

Each iteration assembles the KKT system

    [ H + delta I   J^T ] [ dz  ]   [ -grad_z L ]
    [ J             0   ] [ dm  ] = [ -c        ]

with H the Lagrangian Hessian, J the constraint Jacobian, and c the
constraint values.  The solver reads the problem only through the
transcript: its guess, its objective gradient, constraint values and
Jacobian, at one point or at a stack of points (``evaluate_many``), its
Lagrangian Hessian (``Transcript.hessian``), its size ``n_z`` and its
``full_row_rank`` flag.  Problems here have a few hundred unknowns at most,
so everything is dense.

``solve`` runs the Newton loop.  Each step tries the regularizations delta
of ``_REGULARIZATIONS`` in turn until one gives a usable step and a step
length (the inertia correction of IPOPT; Waechter & Biegler 2006, section
3.1).  The mechanisms live in one function each:

- ``_inertia_band``: which deltas the reduced Hessian on the null space of
  J rejects outright and which it certifies, with ``_null_space`` forming
  that null space;
- ``_solve_kkt``: the factorization at one delta, its inertia test and the
  dual shift of a singular system;
- ``_line_search``: Armijo backtracking on the merit, the KKT norm that
  ``_kkt_vectors`` forms, the shorter trial steps evaluated in stacks;
- ``_stall``: the rule that stops a solve whose residuals have stalled.

Each point is evaluated once: an accepted line-search trial's gradient,
Jacobian, constraint values, KKT vector and merit carry into the next
step.  The solver takes no options; every constant below is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .transcribe import Transcript

# The regularizations 0, 1e-8, 2e-8, 4e-8, ...: every doubling of 1e-8 up to
# 1e8, 55 in all.
_REGULARIZATIONS = np.concatenate([[0.0], 1e-8 * 2.0 ** np.arange(54)])
# The line search's step lengths 1, 1/2, 1/4, ..., 2^-39: every halving
# down to 1e-12.
_STEP_LENGTHS = 0.5 ** np.arange(40)
# Sizes of the first stacks of shorter step lengths; the last takes the rest.
# They follow where the searches stop: over the IVP solves at augmented
# N=6..25 and square N=6..13, 230 of 365 line searches take step length 1,
# and of the other 135, 51 stop at 2^-1..2^-4, 45 at 2^-5..2^-20, 13 further
# down and 26 find no step.  One stack of all 39 made the typical solve
# slower, since the searches that stop early then pay for 39 rows.
_BACKTRACK_BATCHES = (4, 16)
# Jacobian entries a stack of trials may hold: one row at orbit N=45, 3 at
# N=25, no cut on the IVP.
_BATCH_ENTRIES = 2**16
_STALL_WINDOW = 20
# Fruitless line searches that end a Newton step.  No step of a converging
# benchmark solve (IVP augmented N=6..25 and square N=6..30, orbit N=25, 35
# and 45) fails more than one, while without this bound the square
# transcripts that end singular fail 30 to 42 in their last step, each a
# full backtracking run.  The slack is needed: the unreachable final state
# of ``test_unreachable_final_state_stalls_early`` fails 6 in one step
# before one succeeds, and goes on to stall.
_MAX_FAILED_SEARCHES = 8
_KKT_TOLERANCE = 1e-10
_MAX_ITERATIONS = 200
# Householder reflectors per block when only Z of the QR of J^T is formed
# (the orbit grids: 232 rows and 43 null-space columns at N=45).  A Jacobian
# with at most this many rows, as on every IVP grid, takes one complete QR
# instead, the faster call there.
_QR_BLOCK = 48


@dataclass
class SolveReport:
    """What a solve did, up to the iterate it ended on.

    ``residuals`` holds the (gradient, constraint) max-norm pair of every
    iterate from the guess on; ``iterations``, the Newton steps taken, is one
    less than their count, ``final_kkt_norm`` is the larger entry of the last
    pair, and the solve has ``converged`` when both entries of that pair are
    within ``_KKT_TOLERANCE``.  ``step_history`` holds an (iteration, merit,
    alpha) tuple per accepted step.
    """

    step_history: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return all(r <= _KKT_TOLERANCE for r in self.residuals[-1])

    @property
    def iterations(self) -> int:
        return len(self.residuals) - 1

    @property
    def final_kkt_norm(self) -> float:
        return max(self.residuals[-1])


class MaxIterationsError(RuntimeError):
    """The solve stopped short of the tolerance: either the iteration budget
    ran out, or the solve stalled (``_stall``; ``stall`` then says how each
    residual stood, and ``report.iterations`` is the iteration it stopped
    at)."""

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
    step, or every entry of ``_REGULARIZATIONS`` failed or was skipped.
    ``reason`` says which, and ``report.iterations`` is the step it stopped
    at."""

    def __init__(self, report: SolveReport, reason: str):
        super().__init__(
            f"KKT system unusable at iteration {report.iterations} ({reason})"
        )
        self.report = report


def _kkt_vectors(points, mults):
    """The KKT vector and its norm, the merit, at each row of a stack of
    points and multipliers.  Every KKT vector and merit the solver forms
    comes from here: a single point, as at the guess, step length 1 and the
    multiplier refresh, is a one-row stack."""
    gradients, jacobians, values = points
    products = jacobians.transpose(0, 2, 1) @ mults[:, :, None]
    kkts = np.concatenate([gradients + products[:, :, 0], values], axis=1)
    return kkts, np.sqrt(kkts[:, None, :] @ kkts[:, :, None]).reshape(len(kkts))


def _multiplier_estimate(point):
    """The multipliers that minimize the Lagrangian gradient at ``point`` in
    the least-squares sense, and the KKT vector and merit they give there
    (``_kkt_vectors``)."""
    gradient, J, _ = point
    mult, *_ = np.linalg.lstsq(J.T, -gradient, rcond=None)
    kkts, merits = _kkt_vectors(tuple(a[None] for a in point), mult[None])
    return mult, kkts[0], merits[0]


def _residuals(kkt, n):
    """The max-norm gradient and constraint residuals of a KKT vector."""
    return float(np.max(np.abs(kkt[:n]))), float(np.max(np.abs(kkt[n:])))


def _stall(residuals):
    """Why a solve with this residual history has stalled, or None.

    It has when, over the last ``_STALL_WINDOW`` iterations (the iterates
    from that many steps back to the current one), each residual either
    stayed at or below ``_KKT_TOLERANCE`` throughout, or stayed above it and
    never fell below where the window began, and at least one did the latter.
    The rank-deficient square transcripts end this way when their Newton
    steps keep one residual converged and leave the other frozen on a floor
    just above the tolerance.

    A residual that keeps falling, however slowly, is not stuck, so such a
    solve runs out its budget instead: the augmented IVP at N=3 takes steps
    of 2^-31 from iteration 16 on at a gradient residual of 1.724e-8, and
    ends with no convergence in 200 iterations.  A rule that asked more of
    each step would cut short good solves too: the Armijo test guarantees
    only a 1e-4 alpha relative decrease of the merit, and orbit N=35
    converges at iteration 167, 144 of its steps of 2^-5 to 2^-17.
    """
    if len(residuals) <= _STALL_WINDOW:
        return None
    window = np.array(residuals[-_STALL_WINDOW - 1 :])
    done = np.all(window <= _KKT_TOLERANCE, axis=0)
    # Never below a start above the tolerance is never within it either.
    stuck = (window[0] > _KKT_TOLERANCE) & np.all(window >= window[0], axis=0)
    if not np.all(done | stuck) or not np.any(stuck):
        return None
    names = ("gradient", "constraint")
    return ", ".join(
        [
            f"{names[k]} residual within {_KKT_TOLERANCE:.1e} for {_STALL_WINDOW} iterations"
            for k in np.flatnonzero(done)
        ]
        + [
            f"{names[k]} residual stuck at {window[-1, k]:.3e} (from {window[0, k]:.3e})"
            for k in np.flatnonzero(stuck)
        ]
    )


def _sufficient_decrease(trial_merit, alpha, merit):
    """The Armijo test of a trial's KKT norm at step length ``alpha``, for
    one trial or elementwise for a stack."""
    return np.isfinite(trial_merit) & (trial_merit <= merit * (1.0 - 1e-4 * alpha))


def _line_search(t, z, mult, dz, dm, merit):
    """The first step length along (dz, dm) that passes the Armijo test on
    the KKT norm ``merit``, with its iterate, multipliers, point, KKT vector
    and merit; None when none does.

    The step lengths are ``_STEP_LENGTHS``, a fixed halving sequence
    (Armijo backtracking; Nocedal & Wright 2006, section 3.1), so the trial
    points are known in advance.  Step length 1 is tried alone, at one
    point.  The shorter ones are evaluated in stacks
    (``Transcript.evaluate_many``), ``_BACKTRACK_BATCHES`` and then the
    rest, each cut so that its Jacobians, of ``dz.size * dm.size`` entries
    each, hold at most ``_BATCH_ENTRIES``, and tested in order, so the step
    taken is the one a trial at a time would take; only the rest of the
    accepting stack is wasted.  Step length 1's KKT vector and merit come
    from ``_kkt_vectors`` too, so the merit an accepted trial carries into
    the next step is the one recomputing it there would give.
    """
    trial_z, trial_mult = z + dz, mult + dm
    point = t.objective_gradient(trial_z), t.jacobian(trial_z), t.constraints(trial_z)
    kkts, merits = _kkt_vectors(tuple(a[None] for a in point), trial_mult[None])
    if _sufficient_decrease(merits[0], 1.0, merit):
        return 1.0, trial_z, trial_mult, point, kkts[0], merits[0]
    rows = max(1, _BATCH_ENTRIES // (dz.size * dm.size))
    sizes = iter(_BACKTRACK_BATCHES)
    start = 1
    while start < _STEP_LENGTHS.size:
        stop = start + min(next(sizes, _STEP_LENGTHS.size), rows)
        batch = _STEP_LENGTHS[start:stop]
        start = stop
        trial_zs = z + batch[:, None] * dz
        trial_mults = mult + batch[:, None] * dm
        points = t.evaluate_many(trial_zs)
        kkts, merits = _kkt_vectors(points, trial_mults)
        passed = _sufficient_decrease(merits, batch, merit)
        if passed.any():
            k = int(np.argmax(passed))
            point = tuple(a[k] for a in points)
            return float(batch[k]), trial_zs[k], trial_mults[k], point, kkts[k], merits[k]
    return None


def _null_space(J):
    """The last n - m columns Z of Q and the diagonal of R in J^T = QR, for
    J with m < n rows: an orthonormal basis of the null space of J when J
    has full row rank.

    Up to ``_QR_BLOCK`` rows, one complete QR gives Q and Z = Q[:, m:].
    Past that, forming all n columns of Q costs more than the n - m that Z
    needs, so Z = H_1 ... H_m [0; I] applies LAPACK's Householder reflectors
    H_i = I - tau_i v_i v_i^T (``np.linalg.qr(mode="raw")``, the same
    ``geqrf`` call, so R's diagonal keeps its bits) to the last n - m
    columns of I only, ``_QR_BLOCK`` reflectors at a time and the last block
    first.  A block is I - V T V^T (the compact WY form; Schreiber & Van
    Loan 1989), with T = (I + diag(tau) striu(V^T V))^-1 diag(tau): one
    small unit-triangular solve per block and no division by tau, so a
    reflector with tau = 0 contributes nothing.  A block's reflectors are
    zero above its first row, so it touches only the rows from there on.
    """
    m, n = J.shape
    if m <= _QR_BLOCK:
        Q, R = np.linalg.qr(J.T, mode="complete")
        return Q[:, m:], np.diagonal(R)
    # Row i of h holds R's column i up to the diagonal and v_i below it.
    h, tau = np.linalg.qr(J.T, mode="raw")
    Z = np.zeros((n, n - m))
    Z[m:] = np.eye(n - m)
    for k in range(m - 1 - (m - 1) % _QR_BLOCK, -1, -_QR_BLOCK):
        # The block's v_i as rows, from row k of Z on: unit leading entry.
        V = np.triu(h[k : k + _QR_BLOCK, k:], 1)
        np.fill_diagonal(V, 1.0)
        t = tau[k : k + _QR_BLOCK, None]
        unit_triangle = np.eye(t.size) + t * np.triu(V @ V.T, 1)
        Z[k:] -= V.T @ np.linalg.solve(unit_triangle, t * (V @ Z[k:]))
    return Z, np.diagonal(h)


def _inertia_band(H, J, full_row_rank):
    """The regularizations the reduced Hessian decides on its own.

    Returns ``(fails_below, certain_above)``.  Both come from the smallest
    eigenvalue lowest of the small matrix Z^T H Z, with Z and R's diagonal
    from the QR of J^T (``_null_space``); the reduced Hessian for delta is
    Z^T H Z + delta I, and the inertia of a constrained minimizer needs it
    positive definite (Nocedal & Wright ch. 16).

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
        Z, diagonal = _null_space(J)
        lowest = np.linalg.eigvalsh(Z.T @ H @ Z)[0]
    except np.linalg.LinAlgError:
        return -np.inf, np.inf
    scale = max(1.0, float(np.max(np.abs(H))))
    pivots = np.abs(diagonal)
    certain = full_row_rank and pivots.min() > 1e-12 * pivots.max()
    certain_above = 1e-5 * scale - lowest if certain else np.inf
    return -lowest - 1e-6 * scale, certain_above


def _solve_kkt(K, H, J, rhs, delta, step_cap, inertia_known):
    """Factor and solve the saddle system; None signals failure.

    ``K`` is the solve's (n + m)-square buffer, Fortran-ordered as LAPACK
    reads it.  Each try writes every entry: H + delta I, J and J^T, and the
    dual block zeroed again, so nothing carries over from the previous try.

    Failure means any of: the matrix does not factor, the inertia is wrong
    for a constrained minimizer (must be exactly n positive and m negative
    eigenvalues), or the step is not finite, not accurate to 1e-8 relative
    to max(1, |rhs|), or longer than ``step_cap`` in its primal part.  All
    of these call for more regularization, which is the caller's job.

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
    K[:n, :n] = H
    if delta:
        K[np.diag_indices(n)] += delta
    K[:n, n:] = J.T
    K[n:, :n] = J
    K[n:, n:] = 0.0
    dual_shifted = False
    try:
        if not inertia_known:
            eigs = np.linalg.eigvalsh(K)
            scale = max(1.0, float(np.max(np.abs(eigs))))
            if np.any(np.abs(eigs) <= 1e-8 * scale):
                dual_shifted = True
                K[n:, n:] = -1e-8 * scale * np.eye(m)
                eigs = np.linalg.eigvalsh(K)
                scale = max(1.0, float(np.max(np.abs(eigs))))
            zero_tol = 1e-12 * scale
            inertia = np.count_nonzero(eigs > zero_tol), np.count_nonzero(eigs < -zero_tol)
            if inertia != (n, m):
                return None, dual_shifted
        step = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        return None, dual_shifted
    usable = (
        np.all(np.isfinite(step))
        # H is exactly symmetric (the transcript symmetrizes it), so K is:
        # K.T is the same matrix in C order, and its product runs row by row.
        and np.linalg.norm(K.T @ step - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))
        and np.linalg.norm(step[:n]) <= step_cap
    )
    return (step if usable else None), dual_shifted


def solve(t: Transcript):
    """Newton-iterate the transcript to a KKT point.

    Returns (z, multipliers, report).  Each iterate, the guess and the one
    each step reaches, is checked once: it returns when the iterate has
    converged, and raises MaxIterationsError when ``_MAX_ITERATIONS`` steps
    are spent or the residuals stall (``_stall``).  It raises
    SingularKktError when no regularization gives a usable step
    (``_MAX_FAILED_SEARCHES`` fruitless line searches, or the end of
    ``_REGULARIZATIONS``).  Both errors carry the report.
    """
    z = t.initial_guess_vector()
    n = t.n_z
    point = t.objective_gradient(z), t.jacobian(z), t.constraints(z)
    # Least-squares multiplier estimate at the guess.  Starting from zero
    # multipliers would leave a linear objective with a vanishing Lagrangian
    # Hessian and a degenerate first KKT system.
    mult, kkt, merit = _multiplier_estimate(point)
    # One KKT buffer for every try of every step.
    size = n + point[1].shape[0]
    K = np.empty((size, size), order="F")

    report = SolveReport()

    while True:
        report.residuals.append(_residuals(kkt, n))
        if report.converged:
            return z, mult, report
        if report.iterations == _MAX_ITERATIONS:
            raise MaxIterationsError(report)
        stall = _stall(report.residuals)
        if stall is not None:
            raise MaxIterationsError(report, stall)

        _, J, _ = point
        H = t.hessian(z, mult, kkt[:n])

        step_cap = 1e6 * max(1.0, np.linalg.norm(z))
        fails_below, certain_above = _inertia_band(H, J, t.full_row_rank)
        # Stiffen until the factorization succeeds and a step length helps.
        failed_searches = 0
        # Not ``>= fails_below``: a NaN bound skips nothing.
        for delta in _REGULARIZATIONS[~(_REGULARIZATIONS < fails_below)]:
            step, dual_shifted = _solve_kkt(
                K, H, J, -kkt, delta, step_cap, delta > certain_above
            )
            if step is None:
                continue
            found = _line_search(t, z, mult, step[:n], step[n:], merit)
            if found is None:
                failed_searches += 1
                if failed_searches == _MAX_FAILED_SEARCHES:
                    raise SingularKktError(
                        report,
                        f"no step length helped at {failed_searches} "
                        f"regularizations up to {delta:.1e}",
                    )
                continue
            alpha, z, mult, point, kkt, merit = found
            report.step_history.append((report.iterations, float(merit), alpha))
            if dual_shifted:
                # The shifted dual block leaves a residual floor at the shift
                # size; a least-squares multiplier refresh, which can only shrink
                # the gradient residual, removes it without touching the primals.
                mult, kkt, merit = _multiplier_estimate(point)
            break
        else:
            raise SingularKktError(report, f"regularization {2 * _REGULARIZATIONS[-1]:.1e}")
