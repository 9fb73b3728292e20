"""Two-phase simplex: the independent oracle for the closed-form TO cone.

Reachability by thermal operations, for diagonal states, is the existence
of a Gibbs-stochastic matrix g with g p = x: a linear program over the d^2
entries of g.  `lp_membership_residual` and `lp_support` solve it directly,
so the tests can check `thermops.cones`' thermo-majorization formulas
against a method that shares no code with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-9  # feasibility/optimality tolerance


@dataclass(frozen=True)
class LinearProgram:
    """max c.x subject to A x = b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape != (b.size, c.size):
            raise ValueError("inconsistent LP dimensions")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" or "infeasible"
    value: float
    x: np.ndarray
    residual: float  # phase-1 infeasibility measure


def _pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    for r in range(tab.shape[0]):
        if r != row and tab[r, col] != 0.0:
            tab[r] -= tab[r, col] * tab[row]
    basis[row] = col


def _simplex(tab, basis, n_vars, tol):
    """Minimize the objective in the last tableau row over the first n_vars
    columns.  Bland's rule on both choices, so cycling cannot occur."""
    while True:
        col = -1
        for j in range(n_vars):
            if tab[-1, j] < -tol:
                col = j
                break
        if col < 0:
            return
        row, best, best_basis = -1, np.inf, np.inf
        for r in range(tab.shape[0] - 1):
            if tab[r, col] > tol:
                ratio = tab[r, -1] / tab[r, col]
                if ratio < best - 1e-15 or (abs(ratio - best) <= 1e-15 and basis[r] < best_basis):
                    row, best, best_basis = r, ratio, basis[r]
        if row < 0:
            raise RuntimeError("LP unbounded; the polytopes here are bounded, so this is a bug")
        _pivot(tab, basis, row, col)


def _phase1(lp: LinearProgram, tol):
    """Feasibility tableau: returns (tableau, basis, residual).  The
    residual is the optimal artificial mass, ~0 iff the system is feasible."""
    a, b = lp.A.copy(), lp.b.copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    m, n = a.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    basis = list(range(n, n + m))
    tab[-1, :n] = -a.sum(axis=0)  # reduced costs of min(sum of artificials)
    tab[-1, -1] = -b.sum()
    _simplex(tab, basis, n, tol)
    return tab, basis, float(-tab[-1, -1])


def solve_lp(lp: LinearProgram, tol: float = TOL) -> LPResult:
    tab, basis, residual = _phase1(lp, tol)
    n = lp.c.size
    m = lp.A.shape[0]
    if residual > tol:
        return LPResult(status="infeasible", value=np.nan, x=np.empty(0), residual=residual)
    # drive leftover artificials out of the basis; drop redundant rows
    keep = []
    for r in range(m):
        if basis[r] >= n:
            piv = next((j for j in range(n) if abs(tab[r, j]) > tol), None)
            if piv is None:
                continue  # redundant constraint row
            _pivot(tab, basis, r, piv)
        keep.append(r)
    rows = keep + [m]
    tab = tab[np.ix_(rows, list(range(n)) + [n + m])]
    basis = [basis[r] for r in keep]
    # phase 2: minimize -c.x
    tab[-1, :] = 0.0
    tab[-1, :n] = -lp.c
    for r, bv in enumerate(basis):
        if tab[-1, bv] != 0.0:
            tab[-1] -= tab[-1, bv] * tab[r]
    _simplex(tab, basis, n, tol)
    x = np.zeros(n)
    for r, bv in enumerate(basis):
        x[bv] = tab[r, -1]
    return LPResult(status="optimal", value=float(lp.c @ x), x=x, residual=residual)


def _gibbs_lp(p, gamma, x=None, objective=None) -> LinearProgram:
    """Constraints for a Gibbs-stochastic matrix g (variables g[k_in*d+k_out]):
    columns sum to 1, gamma is fixed, and optionally g p = x."""
    p = np.asarray(p, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    d = p.size
    rows, rhs = [], []
    for k_in in range(d):
        row = np.zeros(d * d)
        row[k_in * d : (k_in + 1) * d] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for k_out in range(d):
        row = np.zeros(d * d)
        for k_in in range(d):
            row[k_in * d + k_out] = gamma[k_in]
        rows.append(row)
        rhs.append(gamma[k_out])
    if x is not None:
        x = np.asarray(x, dtype=float)
        for k_out in range(d):
            row = np.zeros(d * d)
            for k_in in range(d):
                row[k_in * d + k_out] = p[k_in]
            rows.append(row)
            rhs.append(x[k_out])
    c = np.zeros(d * d) if objective is None else objective
    return LinearProgram(c=c, A=np.array(rows), b=np.array(rhs))


def lp_support(p, gamma, c) -> float:
    """max c.(g p) over Gibbs-stochastic g."""
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    d = p.size
    obj = np.zeros(d * d)
    for k_in in range(d):
        obj[k_in * d : (k_in + 1) * d] = c * p[k_in]
    res = solve_lp(_gibbs_lp(p, gamma, objective=obj))
    if res.status != "optimal":
        raise RuntimeError("support LP infeasible; identity matrix should always be feasible")
    return res.value


def lp_membership_residual(x, p, gamma) -> float:
    """Phase-1 infeasibility of {Gibbs-stochastic g : g p = x}; ~0 iff x is
    reachable from p by a thermal operation."""
    _, _, residual = _phase1(_gibbs_lp(p, gamma, x=x), TOL)
    return residual
