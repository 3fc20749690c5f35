"""A self-contained revised-simplex solver, kept as HiGHS's test oracle.

Production solves every LP with HiGHS
(:class:`~repro.lp.ScipyBackend`).  This independent implementation
exists so the tests do not take that solver on faith: they cross-check
it against this one on every formulation.

The engine is a bounded-variable revised simplex over the standard-form
arrays: variable bounds (including free and fixed variables) are handled
natively instead of being rewritten into extra rows, the basis is kept
as an LU factorization (:func:`scipy.linalg.lu_factor`) refreshed every
few dozen pivots with product-form eta updates in between, and pricing
is one vectorized reduced-cost pass per iteration (Dantzig's rule, with
Bland's rule engaged after a run of degenerate pivots so cycling
candidates still terminate).  Phase 1 only introduces artificial
columns for rows the slack basis cannot satisfy, so the PROSPECTOR
formulations — all ``<=`` rows with a feasible all-lower-bounds point —
cold-start directly in phase 2.

Because the factorized basis persists, the engine also warm-starts the
parametric ladders of :mod:`repro.lp.fastbuild`: when only one
right-hand-side entry changes between solves the optimal basis stays
dual-feasible, so :meth:`SimplexBackend.solve_batch` re-solves each
ladder member with a dual-simplex restart from the previous optimum —
a handful of pivots instead of a cold run.  Each member's
:class:`SimplexStats` records whether it was warm and how many pivots
it took.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, lu_factor, lu_solve

from repro.errors import SolverError
from repro.lp import Solution, SolveStats, StandardForm
from repro.obs.spans import NULL_SPAN, maybe_span

_OPT_TOL = 1e-9          # reduced-cost threshold for entering candidates
_FEAS_TOL = 1e-8         # bound-violation threshold (primal feasibility)
_PIVOT_TOL = 1e-10       # minimum acceptable pivot magnitude
_PHASE1_TOL = 1e-6       # residual artificial mass that means infeasible
_RATIO_TIE = 1e-9        # ratio-test tie window
_REFACTOR_EVERY = 64     # eta-file length before a fresh LU
_BLAND_AFTER = 24        # consecutive degenerate pivots before Bland
_TIE_BREAK = 1e-7        # pricing perturbation that pins a unique vertex
_GOLDEN = 0.6180339887498949


@dataclass
class SimplexStats(SolveStats):
    """:class:`~repro.lp.SolveStats` plus this solver's warm record.

    ``pivots`` counts the basis changes (bound flips included) this
    solve needed.  ``bland_activations`` counts how often Bland's
    anti-cycling rule engaged, and ``cold_fallback`` marks a warm
    restart abandoned for a cold re-solve.
    """

    pivots: int = 0
    bland_activations: int = 0
    cold_fallback: bool = False


class _WarmRestartFailed(Exception):
    """Internal: the dual restart could not finish; fall back to cold."""


class _RevisedSimplex:
    """One LP instance with restartable basis state.

    Holds the computational form ``A x = b`` with ``A = [[A_ub, I],
    [A_eq, 0]]`` over structural + slack (+ late artificial) columns,
    the current basis and its factorization.  ``solve()`` runs the cold
    two-phase primal simplex; ``resolve(row, rhs)`` patches one entry
    of ``b`` and restarts the dual simplex from the current optimal
    basis, which stays dual-feasible because costs and columns are
    untouched.
    """

    def __init__(self, form: StandardForm, name: str, max_iterations: int) -> None:
        self.name = name
        self.max_iterations = max_iterations
        n = form.num_variables
        m_ub = form.a_ub.shape[0]
        m_eq = form.a_eq.shape[0]
        self.n = n
        self.m_ub = m_ub
        self.m = m_ub + m_eq
        self.cost = np.concatenate([np.asarray(form.c, dtype=float),
                                    np.zeros(m_ub)])
        # Degenerate formulations have whole faces of alternate optima,
        # and a warm restart may reach a different optimal vertex than a
        # cold run.  Phase-2 pricing therefore minimizes ``cost + tie``,
        # a deterministic per-column perturbation (golden-ratio spread,
        # so no two columns or small combinations cancel) that makes the
        # optimal vertex generically unique: cold solves and warm sweep
        # restarts land on the *same* vertex.  Objectives and duals are
        # still reported against the true ``cost``.
        ncols = n + m_ub
        scale = max(1.0, float(np.abs(self.cost).max(initial=0.0)))
        spread = np.modf((np.arange(ncols) + 1.0) * _GOLDEN)[0]
        self.tie = _TIE_BREAK * scale * (0.5 + spread)
        self.b = np.concatenate([form.b_ub, form.b_eq]).astype(float)

        blocks = []
        if m_ub:
            blocks.append(sparse.hstack(
                [form.a_ub, sparse.identity(m_ub, format="csc")], format="csc"
            ))
        if m_eq:
            blocks.append(sparse.hstack(
                [form.a_eq, sparse.csc_matrix((m_eq, m_ub))], format="csc"
            ))
        if blocks:
            self.A = sparse.vstack(blocks, format="csc")
        else:
            self.A = sparse.csc_matrix((0, n + m_ub))

        self.lo = np.zeros(n + m_ub)
        self.hi = np.full(n + m_ub, np.inf)
        for i, (lb, ub) in enumerate(form.bounds):
            self.lo[i] = -np.inf if lb is None else float(lb)
            self.hi[i] = np.inf if ub is None else float(ub)
        self.free = np.isneginf(self.lo) & np.isposinf(self.hi)

        # nonbasic start point: finite lower bound, else finite upper
        # bound, else 0 for free columns
        self.x = np.where(np.isfinite(self.lo), self.lo,
                          np.where(np.isfinite(self.hi), self.hi, 0.0))
        self.at_upper = ~np.isfinite(self.lo) & np.isfinite(self.hi)

        self.allowed = np.ones(n + m_ub, dtype=bool)  # may enter the basis
        self.in_basis = np.zeros(n + m_ub, dtype=bool)
        self.basis = np.zeros(self.m, dtype=np.int64)
        self.xB = np.zeros(self.m)
        self._lu = None
        self._etas: list[tuple[int, np.ndarray]] = []
        self.pivots = 0
        self.bland_activations = 0

    # -- linear algebra over the factorized basis -----------------------
    def _refactor(self) -> None:
        self._etas = []
        if self.m == 0:
            self._lu = None
            return
        dense = self.A[:, self.basis].toarray()
        try:
            self._lu = lu_factor(dense, check_finite=False)
        except LinAlgError as err:  # pragma: no cover - defensive
            raise SolverError(
                f"LP {self.name!r} produced a singular basis",
                status="numerical",
            ) from err

    def _ftran(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 v`` through the LU factors and the eta file."""
        if self.m == 0:
            return v
        z = lu_solve(self._lu, v, check_finite=False)
        for row, w in self._etas:
            t = z[row] / w[row]
            z -= w * t
            z[row] = t
        return z

    def _btran(self, v: np.ndarray) -> np.ndarray:
        """``B^-T v`` — etas applied in reverse, then the transposed LU."""
        if self.m == 0:
            return v
        u = np.array(v, dtype=float)
        for row, w in reversed(self._etas):
            u[row] = (u[row] - w @ u + w[row] * u[row]) / w[row]
        return lu_solve(self._lu, u, trans=1, check_finite=False)

    def _column(self, j: int) -> np.ndarray:
        start, end = self.A.indptr[j], self.A.indptr[j + 1]
        col = np.zeros(self.m)
        col[self.A.indices[start:end]] = self.A.data[start:end]
        return col

    def _recompute_xB(self) -> None:
        """Fresh basic values from the nonbasic point (kills eta drift)."""
        x = self.x.copy()
        x[self.basis] = 0.0
        self.xB = self._ftran(self.b - self.A @ x)

    def _push_eta(self, row: int, w: np.ndarray) -> None:
        self._etas.append((row, w))
        self.pivots += 1
        if len(self._etas) >= _REFACTOR_EVERY:
            self._refactor()
            self._recompute_xB()

    # -- shared pivot bookkeeping ---------------------------------------
    def _install(self, row: int, entering: int, value: float,
                 leaving_to_upper: bool, w: np.ndarray) -> None:
        leaving = self.basis[row]
        bound = self.hi[leaving] if leaving_to_upper else self.lo[leaving]
        self.x[leaving] = bound
        self.at_upper[leaving] = leaving_to_upper
        self.in_basis[leaving] = False
        self.in_basis[entering] = True
        self.basis[row] = entering
        self.xB[row] = value
        self._push_eta(row, w)

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        y = self._btran(cost[self.basis])
        d = cost - self.A.T @ y
        d[self.basis] = 0.0
        return d

    # -- primal simplex --------------------------------------------------
    def _primal(self, cost: np.ndarray, iterations: int) -> int:
        """Minimize ``cost`` from the current (primal-feasible) basis."""
        movable = self.allowed & (self.hi > self.lo)
        bland = False
        degenerate_run = 0
        while True:
            iterations += 1
            if iterations > self.max_iterations:
                raise SolverError("simplex iteration limit exceeded",
                                  status="iteration_limit")
            d = self._reduced_costs(cost)
            active = movable & ~self.in_basis
            enter_inc = active & (~self.at_upper | self.free) & (d < -_OPT_TOL)
            enter_dec = active & (self.at_upper | self.free) & (d > _OPT_TOL)
            candidates = enter_inc | enter_dec
            if not candidates.any():
                return iterations
            if bland:
                entering = int(np.flatnonzero(candidates)[0])
            else:
                score = np.where(enter_inc, -d, 0.0)
                score = np.maximum(score, np.where(enter_dec, d, 0.0))
                entering = int(np.argmax(score))
            sigma = 1.0 if enter_inc[entering] else -1.0

            w = self._ftran(self._column(entering))
            step = sigma * w
            lo_b = self.lo[self.basis]
            hi_b = self.hi[self.basis]
            ratios = np.full(self.m, np.inf)
            dec = step > _PIVOT_TOL
            ratios[dec] = (self.xB[dec] - lo_b[dec]) / step[dec]
            inc = step < -_PIVOT_TOL
            ratios[inc] = (hi_b[inc] - self.xB[inc]) / (-step[inc])
            np.clip(ratios, 0.0, None, out=ratios)
            row_min = float(ratios.min()) if self.m else np.inf
            gap = self.hi[entering] - self.lo[entering]
            if min(row_min, gap) == np.inf:
                raise SolverError("LP unbounded", status="unbounded")

            if gap <= row_min:
                # the entering column flips to its other bound
                self.xB -= step * gap
                self.x[entering] = (
                    self.hi[entering] if sigma > 0 else self.lo[entering]
                )
                self.at_upper[entering] = sigma > 0
                self.pivots += 1
                t = gap
            else:
                tied = np.flatnonzero(ratios <= row_min + _RATIO_TIE)
                if bland:
                    row = int(tied[np.argmin(self.basis[tied])])
                else:
                    row = int(tied[np.argmax(np.abs(step[tied]))])
                t = float(ratios[row])
                value = self.x[entering] + sigma * t
                self.xB -= step * t
                self._install(row, entering, value,
                              leaving_to_upper=step[row] < 0, w=w)
            if t <= _RATIO_TIE:
                degenerate_run += 1
                if not bland and degenerate_run >= _BLAND_AFTER:
                    bland = True
                    self.bland_activations += 1
            else:
                degenerate_run = 0
                bland = False

    # -- phase 1 ----------------------------------------------------------
    def _start_basis(self) -> None:
        """Slack basis where feasible; artificial columns elsewhere.

        Rows whose slack can absorb the residual (``<=`` rows with a
        non-negative residual at the nonbasic start point) take their
        slack; every other row gets a signed artificial column so the
        initial basic point is feasible by construction.
        """
        residual = self.b - self.A @ self.x
        art_rows: list[int] = []
        art_signs: list[float] = []
        for row in range(self.m):
            if row < self.m_ub and residual[row] >= 0:
                slack = self.n + row
                self.basis[row] = slack
                self.in_basis[slack] = True
                self.xB[row] = residual[row] - self.x[slack]
            else:
                art_rows.append(row)
                art_signs.append(1.0 if residual[row] >= 0 else -1.0)

        self.num_art = len(art_rows)
        if not self.num_art:
            self._refactor()
            self._recompute_xB()
            return
        art_block = sparse.csc_matrix(
            (np.asarray(art_signs), (np.asarray(art_rows, dtype=np.int64),
                                     np.arange(self.num_art))),
            shape=(self.m, self.num_art),
        )
        base_cols = self.A.shape[1]
        self.A = sparse.hstack([self.A, art_block], format="csc")
        self.cost = np.concatenate([self.cost, np.zeros(self.num_art)])
        self.tie = np.concatenate([self.tie, np.zeros(self.num_art)])
        self.lo = np.concatenate([self.lo, np.zeros(self.num_art)])
        self.hi = np.concatenate([self.hi, np.full(self.num_art, np.inf)])
        self.free = np.concatenate(
            [self.free, np.zeros(self.num_art, dtype=bool)]
        )
        self.x = np.concatenate([self.x, np.zeros(self.num_art)])
        self.at_upper = np.concatenate(
            [self.at_upper, np.zeros(self.num_art, dtype=bool)]
        )
        # artificials may never (re-)enter the basis
        self.allowed = np.concatenate(
            [self.allowed, np.zeros(self.num_art, dtype=bool)]
        )
        self.in_basis = np.concatenate(
            [self.in_basis, np.zeros(self.num_art, dtype=bool)]
        )
        for position, row in enumerate(art_rows):
            col = base_cols + position
            self.basis[row] = col
            self.in_basis[col] = True
        self._refactor()
        self._recompute_xB()

    def _drive_out_artificials(self) -> None:
        """Pivot lingering zero-valued artificials out where possible.

        A row whose artificial admits no nonzero pivot over the real
        columns is linearly redundant; its artificial stays basic,
        pinned at zero by its (now closed) bounds.
        """
        art_start = self.n + self.m_ub
        self.lo[art_start:] = 0.0
        self.hi[art_start:] = 0.0
        for row in range(self.m):
            if self.basis[row] < art_start:
                continue
            rho = np.zeros(self.m)
            rho[row] = 1.0
            alpha = self.A.T @ self._btran(rho)
            alpha[self.in_basis] = 0.0
            alpha[art_start:] = 0.0
            entering = int(np.argmax(np.abs(alpha)))
            if abs(alpha[entering]) <= _PIVOT_TOL:
                continue  # redundant row
            w = self._ftran(self._column(entering))
            self._install(row, entering, self.x[entering],
                          leaving_to_upper=False, w=w)

    # -- cold and warm entry points --------------------------------------
    def solve(self) -> int:
        """Cold two-phase run; returns the iteration count."""
        self._start_basis()
        iterations = 0
        if self.num_art:
            phase1 = np.zeros(self.A.shape[1])
            phase1[self.n + self.m_ub:] = 1.0
            iterations = self._primal(phase1, iterations)
            infeasibility = float(phase1[self.basis] @ self.xB)
            if infeasibility > _PHASE1_TOL:
                raise SolverError(
                    f"LP {self.name!r} infeasible"
                    f" (phase-1 = {infeasibility:g})",
                    status="infeasible",
                )
            self._drive_out_artificials()
        try:
            return self._primal(self.cost + self.tie, iterations)
        except SolverError as err:
            if err.status != "unbounded":
                raise
            # a zero-cost recession direction can look unbounded under
            # the perturbed pricing; re-check against the true costs
            # (vertex uniqueness is lost, but correctness is not)
            return self._primal(self.cost, iterations)

    def resolve(self, row: int, rhs: float) -> int:
        """Dual-simplex restart after patching ``b[row] = rhs``.

        The basis from the previous optimum stays dual-feasible (costs
        and columns are unchanged), so only primal feasibility must be
        restored: repeatedly drop the most bound-violating basic
        variable and re-enter the nonbasic column that keeps the
        reduced costs correctly signed.  Raises
        :class:`_WarmRestartFailed` when a long step would be needed or
        the restart stalls; callers fall back to a cold solve.
        """
        self.b = self.b.copy()
        self.b[row] = rhs
        self._recompute_xB()
        pricing = self.cost + self.tie
        # dual reduced costs, updated incrementally per pivot (the
        # pivot row is already in hand); refreshed from scratch after
        # every refactorization to kill drift
        d = self._reduced_costs(pricing)
        iterations = 0
        limit = min(self.max_iterations, max(200, 2 * self.m))
        while True:
            iterations += 1
            if iterations > limit:
                raise _WarmRestartFailed("dual restart stalled")
            lo_b = self.lo[self.basis]
            hi_b = self.hi[self.basis]
            below = lo_b - self.xB
            above = self.xB - hi_b
            violation = np.maximum(below, above)
            leave_row = int(np.argmax(violation)) if self.m else 0
            if self.m == 0 or violation[leave_row] <= _FEAS_TOL:
                # primal feasibility restored; polish with the primal
                # simplex so any residual dual infeasibility (drift in
                # the incremental reduced costs, or a ratio-test tie)
                # cannot park the restart at a different vertex than a
                # cold solve would reach
                try:
                    return self._primal(pricing, iterations)
                except SolverError as err:
                    raise _WarmRestartFailed(
                        f"post-restart polish failed: {err}"
                    ) from err
            is_below = below[leave_row] >= above[leave_row]

            # alpha in a unified orientation: positive entries are
            # columns whose *increase* shrinks the violation
            rho = np.zeros(self.m)
            rho[leave_row] = 1.0
            alpha = self.A.T @ self._btran(rho)
            if is_below:
                alpha = -alpha
            delta = float(violation[leave_row])
            movable = self.allowed & (self.hi > self.lo) & ~self.in_basis
            from_lower = movable & (~self.at_upper | self.free)
            from_upper = movable & (self.at_upper | self.free)
            candidates = (from_lower & (alpha > _PIVOT_TOL)) | (
                from_upper & (alpha < -_PIVOT_TOL)
            )
            if not candidates.any():
                raise _WarmRestartFailed("dual step found no entering column")

            # bound-flipping ratio test: walk the candidates by dual
            # ratio; a boxed column whose full range cannot absorb the
            # remaining violation flips to its other bound (the dual
            # ratio having been passed, its reduced cost changes sign),
            # and the next candidate continues the step
            order = np.flatnonzero(candidates)
            ratios = np.clip(d[order] / alpha[order], 0.0, None)
            order = order[np.argsort(ratios, kind="stable")]
            remaining = delta
            entering = -1
            flips: list[int] = []
            for q in order:
                absorb = abs(alpha[q]) * (self.hi[q] - self.lo[q])
                if absorb < remaining:
                    flips.append(int(q))
                    remaining -= absorb
                else:
                    entering = int(q)
                    break
            if entering < 0:
                raise _WarmRestartFailed("violation exceeds flip capacity")
            for q in flips:
                gap = self.hi[q] - self.lo[q]
                w = self._ftran(self._column(q))
                if self.at_upper[q]:
                    self.x[q] = self.lo[q]
                    self.at_upper[q] = False
                    self.xB += w * gap
                else:
                    self.x[q] = self.hi[q]
                    self.at_upper[q] = True
                    self.xB -= w * gap
                self.pivots += 1

            tau = remaining / alpha[entering]
            value = self.x[entering] + tau
            if not (self.lo[entering] - _FEAS_TOL
                    <= value <= self.hi[entering] + _FEAS_TOL):
                raise _WarmRestartFailed("dual step left its bound range")
            w = self._ftran(self._column(entering))
            self.xB -= w * tau
            theta = float(d[entering] / alpha[entering])
            self._install(leave_row, entering, value,
                          leaving_to_upper=not is_below, w=w)
            if self._etas:
                # the orientation sign cancels in the rank-one update
                # (theta and alpha both carry it), and the leaving
                # column falls out of the same formula via alpha = +-1
                d -= theta * alpha
                d[self.basis] = 0.0
            else:  # a refactorization just happened: recompute exactly
                d = self._reduced_costs(pricing)

    # -- results ----------------------------------------------------------
    def solution_values(self) -> np.ndarray:
        x = self.x.copy()
        x[self.basis] = self.xB
        # snap to a 1e-9 grid: cold and warm runs reach the same vertex
        # but along different pivot paths, and ~1e-15 arithmetic noise
        # on a value that is analytically exactly .5 would otherwise
        # flip the planners' rounding between the two
        return np.round(x[: self.n], 9)

    def duals(self) -> np.ndarray:
        """Row prices ``y = B^-T c_B`` for the ``<=`` rows.

        Same convention as the HiGHS marginals: the derivative of the
        *minimized* objective with respect to ``b_ub``.
        """
        y = self._btran(self.cost[self.basis])
        return np.asarray(y[: self.m_ub], dtype=float)

    def verify(self) -> None:
        """Cheap invariant check after a warm restart."""
        x = self.x.copy()
        x[self.basis] = self.xB
        scale = 1.0 + float(np.abs(self.b).max(initial=0.0))
        if np.abs(self.A @ x - self.b).max(initial=0.0) > 1e-6 * scale:
            raise _WarmRestartFailed("restart left a row residual")
        lo_gap = self.lo - x
        hi_gap = x - self.hi
        if max(lo_gap.max(initial=0.0), hi_gap.max(initial=0.0)) > 1e-6:
            raise _WarmRestartFailed("restart left a bound violation")


class SimplexBackend:
    """Bounded-variable revised simplex over a compiled standard form.

    Parameters
    ----------
    max_iterations:
        Pivot budget per solve before raising ``iteration_limit``.
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation`; when set, every
        solve opens a ``solve`` span and records an ``lp_solve`` event,
        as the production backend does.
    """

    name = "pure-simplex"

    def __init__(
        self, max_iterations: int = 100_000, instrumentation=None
    ) -> None:
        self.max_iterations = max_iterations
        self.instrumentation = instrumentation

    def solve_form(self, form: StandardForm, name: str = "lp") -> Solution:
        """Solve a compiled :class:`~repro.lp.StandardForm` cold."""
        start = time.perf_counter()
        with maybe_span(
            self.instrumentation, "solve", model=name, backend=self.name
        ) as span:
            engine = _RevisedSimplex(form, name, self.max_iterations)
            iterations = engine.solve()
            span.annotate(iterations=iterations, pivots=engine.pivots)
        return self._finish(
            engine, form, name, start, span,
            iterations=iterations, pivots=engine.pivots,
            bland_activations=engine.bland_activations,
        )

    def _finish(
        self,
        engine: _RevisedSimplex,
        form: StandardForm,
        name: str,
        start: float,
        span,
        **warm_record,
    ) -> Solution:
        x = engine.solution_values()
        stats = SimplexStats(
            backend=self.name,
            wall_seconds=time.perf_counter() - start,
            num_variables=form.num_variables,
            num_constraints=form.a_ub.shape[0] + form.a_eq.shape[0],
            **warm_record,
        )
        if self.instrumentation is not None:
            self.instrumentation.record_lp_solve(span, name, stats)
        return Solution(
            status="optimal",
            objective=form.report_objective(float(form.c @ x)),
            values=x,
            stats=stats,
            inequality_duals=form.report_duals(engine.duals()),
        )

    def solve_batch(self, parametric, rhs_values, name: str | None = None):
        """Solve a budget ladder with dual-simplex warm restarts.

        ``rhs_values`` patches the parametric RHS slot per member.  The
        first member is solved cold; each later member restarts from
        the previous optimal basis, which stays dual-feasible because
        only the right-hand side changed, and falls back to a cold
        solve if the restart cannot finish.  Returns one
        :class:`~repro.lp.Solution` per value, element-wise identical to
        independent cold solves (same 1e-9 value grid, same rounded
        plans).
        """
        label = name or parametric.name
        rhs = np.atleast_1d(np.asarray(rhs_values, dtype=float))
        form = parametric.compiled.form
        row = parametric.row
        solutions: list[Solution] = []
        engine: _RevisedSimplex | None = None
        for rhs_value in rhs:
            start = time.perf_counter()
            warm = False
            fell_back = False
            if engine is not None:
                pivots_before = engine.pivots
                bland_before = engine.bland_activations
                try:
                    iterations = engine.resolve(row, float(rhs_value))
                    engine.verify()
                    warm = True
                except _WarmRestartFailed:
                    engine = None
                    fell_back = True
            if engine is None:
                engine = _RevisedSimplex(
                    parametric.form_for_rhs(float(rhs_value)),
                    label, self.max_iterations,
                )
                pivots_before = bland_before = 0
                iterations = engine.solve()
            solutions.append(self._finish(
                engine, form, label, start, NULL_SPAN,
                iterations=iterations,
                warm_started=warm,
                pivots=engine.pivots - pivots_before,
                bland_activations=engine.bland_activations - bland_before,
                cold_fallback=fell_back,
            ))
        return solutions
