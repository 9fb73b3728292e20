"""Population-dynamics cones.

The set of populations reachable from p by thermal operations is the image
of p under all Gibbs-stochastic matrices: an LP-representable polytope, so
membership and support values are exact up to solver tolerance.  The
single-mode and two-level restrictions have no such exact description here;
they are explored by sampling and reported as labeled inner approximations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import (
    NEG_FLOOR,
    renyi_divergence,
    require_count,
    require_distribution,
    require_finite,
    require_unit_interval,
)
from .channels import damping_blocks, permutation_blocks, random_blocks, sto_population_matrix

tolerance = 1e-9  # default LP feasibility/optimality tolerance

# orthonormal basis of the zero-sum plane, for 2-D projections of qutrit simplex data
PLANE_U = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
PLANE_V = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)


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


def solve_lp(lp: LinearProgram, tol: float = tolerance) -> LPResult:
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


def to_support(p, gamma, c) -> float:
    """Support value max c.x over the thermal-operation cone of p:
    an LP over Gibbs-stochastic matrices."""
    p = require_distribution(p, "p")
    gamma = require_distribution(gamma, "gamma")
    c = require_finite(c, "c")
    d = p.size
    obj = np.zeros(d * d)
    for k_in in range(d):
        obj[k_in * d : (k_in + 1) * d] = c * p[k_in]
    res = solve_lp(_gibbs_lp(p, gamma, objective=obj))
    if res.status != "optimal":
        raise RuntimeError("support LP infeasible; identity matrix should always be feasible")
    return res.value


def to_membership_residual(x, p, gamma) -> float:
    """Phase-1 infeasibility of {Gibbs-stochastic g : g p = x}; ~0 iff x is
    reachable from p by a thermal operation."""
    p = require_distribution(p, "p")
    gamma = require_distribution(gamma, "gamma")
    x = require_finite(x, "x")
    _, _, residual = _phase1(_gibbs_lp(p, gamma, x=x), tolerance)
    return residual


def to_membership(x, p, gamma, tol: float = tolerance) -> bool:
    return to_membership_residual(x, p, gamma) <= tol


def qubit_to_segment(p0: float, q: float):
    """Ground occupations reachable from a qubit with ground occupation p0:
    the closed interval between p0 and the full-exchange image 1 - q*p0."""
    p0 = require_finite(p0, "p0", low=0.0, high=1.0)
    q = require_unit_interval(q, "q")
    ends = (p0, 1.0 - q * p0)
    return (min(ends), max(ends))


def qubit_cto_check(p, ptarget, gamma, tol: float = tolerance) -> bool:
    """Catalytic reachability test for qubit populations: the order +inf and
    -inf divergences to the Gibbs point must both be non-increasing."""
    d_from = renyi_divergence(p, gamma, np.inf)
    d_to = renyi_divergence(ptarget, gamma, np.inf)
    dm_from = renyi_divergence(p, gamma, -np.inf)
    dm_to = renyi_divergence(ptarget, gamma, -np.inf)
    return d_to <= d_from + tol and dm_to <= dm_from + tol


def two_level_gibbs_stochastic(d: int, i: int, j: int, a: float, gamma) -> np.ndarray:
    """Gibbs-stochastic matrix touching only levels i and j (gamma_i >=
    gamma_j required, i.e. i is the lower level).  a = retention of level i,
    allowed range [1 - gamma_j/gamma_i, 1]; the lower endpoint is the full
    exchange (beta swap), the upper endpoint the identity."""
    gamma = np.asarray(gamma, dtype=float)
    if not (0 <= i < d and 0 <= j < d and i != j):
        raise ValueError("need two distinct levels")
    if gamma[i] < gamma[j]:
        raise ValueError("need gamma_i >= gamma_j (pass the lower level first)")
    ratio = gamma[j] / gamma[i]
    lo = 1.0 - ratio
    a = require_finite(a, "a", low=lo + NEG_FLOOR, high=1.0 - NEG_FLOOR)
    a = min(max(a, lo), 1.0)
    g = np.eye(d)
    g[i, i] = a
    g[j, i] = 1.0 - a
    g[i, j] = (1.0 - a) / ratio
    g[j, j] = 1.0 - (1.0 - a) / ratio
    return g


_QUTRIT_PAIRS = ((0, 1), (0, 2), (1, 2))


def _beta_swap_matrices(gamma):
    return tuple(
        two_level_gibbs_stochastic(3, i, j, 1.0 - gamma[j] / gamma[i], gamma) for i, j in _QUTRIT_PAIRS
    )


def elto_cone_sample(p, gamma, depth: int, n: int, seed: int):
    """Points reachable from p by sequences of two-level thermal contacts.

    Deterministic part: every composition of the three pairwise full
    exchanges up to the given depth (the corner words).  Random part: n
    sequences of random length <= depth, random pairs, retention drawn
    uniformly from its allowed interval.  Returns (points, provenance)."""
    p = require_distribution(p, "p")
    gamma = require_distribution(gamma, "gamma")
    if p.size != 3:
        raise ValueError("sampler covers qutrits")
    depth = require_count(depth, "depth", 1)
    n = require_count(n, "n")
    swaps = _beta_swap_matrices(gamma)
    points, tags = [], []
    for length in range(depth + 1):
        for word in product(range(3), repeat=length):
            x = p.copy()
            for w in word:
                x = swaps[w] @ x
            points.append(x)
            tags.append("ElTO-corner:" + "".join(str(w) for w in word))
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(n):
        length = int(rng.integers(1, depth + 1))
        x = p.copy()
        for _ in range(length):
            i, j = _QUTRIT_PAIRS[int(rng.integers(0, 3))]
            lo = 1.0 - gamma[j] / gamma[i]
            a = float(rng.uniform(lo, 1.0))
            x = two_level_gibbs_stochastic(3, i, j, a, gamma) @ x
        points.append(x)
        tags.append("ElTO-random")
    return np.array(points), tags


_QUTRIT_PERMS = ((1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1))
_STRUCTURED = (
    ("identity", (0, 1, 2)),
    ("swap01", (1, 0, 2)),
    ("swap02", (2, 1, 0)),
    ("swap12", (0, 2, 1)),
    ("cycle120", (1, 2, 0)),
    ("cycle201", (2, 0, 1)),
)


def sto_cone_sample(p, bath, top_shell: int, n: int, seed: int):
    """Population images of p under single-mode channels with random shell
    blocks (ideal mode: blocks above top_shell are identity, so every point
    is exactly Gibbs-stochastic dynamics).

    Always starts with six structured block families (identity, the three
    pair permutations, both cycles); the n random draws then rotate through
    Haar blocks, random permutations and one-pair damping families.
    Returns (points, provenance)."""
    p = require_distribution(p, "p")
    if p.size != 3:
        raise ValueError("sampler covers qutrits")
    top_shell = require_count(top_shell, "top_shell", bath.truncation + 2)
    n = require_count(n, "n")
    q = bath.q
    points, tags = [], []
    for name, perm in _STRUCTURED:
        g = sto_population_matrix(permutation_blocks(3, top_shell, perm), q)
        points.append(g @ p)
        tags.append(f"STO-structured:{name}")
    rng = np.random.Generator(np.random.Philox(seed))
    for idx in range(n):
        kind = idx % 3
        if kind == 0:
            blocks = random_blocks(3, top_shell, rng)
            tag = "STO-haar"
        elif kind == 1:
            perm = _QUTRIT_PERMS[int(rng.integers(0, len(_QUTRIT_PERMS)))]
            blocks = permutation_blocks(3, top_shell, perm)
            tag = "STO-permutation"
        else:
            pair = _QUTRIT_PAIRS[int(rng.integers(0, 3))]
            r = float(rng.uniform(0.0, 1.0))
            blocks = damping_blocks(3, top_shell, pair, r)
            tag = "STO-damping"
        points.append(sto_population_matrix(blocks, q) @ p)
        tags.append(tag)
    return np.array(points), tags


@dataclass(frozen=True)
class ConeApprox:
    """Outer description (support samples) plus labeled inner points of a
    population cone."""

    p: np.ndarray
    gamma: np.ndarray
    support: tuple  # ((direction, value), ...)
    points: np.ndarray
    provenance: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, self.p.size)
        object.__setattr__(self, "points", pts)
        if len(self.provenance) != pts.shape[0]:
            raise ValueError("one provenance tag per point")
        object.__setattr__(
            self, "support", tuple((np.asarray(c, dtype=float), float(v)) for c, v in self.support)
        )


def inclusion_audit(outer: ConeApprox, points):
    """How well a point sample sits inside the TO cone of outer.p.

    Returns (worst LP membership residual, one LP per point; support margin,
    the minimum over outer's sampled halfspaces of support value minus the
    largest projection of a point).  A residual near 0 and a nonnegative
    margin mean every point is inside; both need at least one point and
    outer needs at least one support sample."""
    points = np.asarray(points, dtype=float)
    residual = max(to_membership_residual(x, outer.p, outer.gamma) for x in points)
    margin = min(value - float((points @ c).max()) for c, value in outer.support)
    return residual, margin


def support_directions(count: int) -> np.ndarray:
    """count unit directions spread evenly around the zero-sum plane."""
    count = require_count(count, "count", 1)
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.cos(angles)[:, None] * PLANE_U + np.sin(angles)[:, None] * PLANE_V


def plane_coordinates(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.column_stack([pts @ PLANE_U, pts @ PLANE_V])


def hull_margin(inner_points, outer_points) -> float:
    """Worst-case inclusion depth of the inner sample inside the convex hull
    of the outer sample, measured in the zero-sum plane.  Positive: strictly
    inside; negative: some inner point sticks out by that distance.
    Degenerate outer hulls (segment or point) are handled directly."""
    from scipy.spatial import ConvexHull

    inner = plane_coordinates(inner_points)
    outer = plane_coordinates(outer_points)
    center = outer.mean(axis=0)
    spread = outer - center
    svals = np.linalg.svd(spread, compute_uv=False) if len(outer) > 1 else np.zeros(2)
    rank = int((svals > 1e-12).sum())
    if rank == 0:
        return float(-np.linalg.norm(inner - center, axis=1).max())
    if rank == 1:
        _, _, vt = np.linalg.svd(spread)
        axis = vt[0]
        t = spread @ axis
        ti = (inner - center) @ axis
        perp = np.linalg.norm((inner - center) - np.outer(ti, axis), axis=1)
        depth = np.minimum(ti - t.min(), t.max() - ti) - perp
        return float(depth.min())
    hull = ConvexHull(outer)
    signed = inner @ hull.equations[:, :2].T + hull.equations[:, 2]
    return float(-signed.max(axis=1).min())


def cone_dict(approx: ConeApprox) -> dict:
    """JSON-ready dict form of a cone approximation (lossless)."""
    return {
        "p": list(approx.p),
        "gamma": list(approx.gamma),
        "support": [{"direction": list(c), "value": v} for c, v in approx.support],
        "points": [
            {"provenance": tag, "x": list(x)} for x, tag in zip(approx.points, approx.provenance)
        ],
    }


def cone_from_json(text: str) -> ConeApprox:
    doc = json.loads(text)
    return ConeApprox(
        p=np.array(doc["p"]),
        gamma=np.array(doc["gamma"]),
        support=tuple((np.array(row["direction"]), row["value"]) for row in doc["support"]),
        points=np.array([row["x"] for row in doc["points"]]).reshape(len(doc["points"]), -1),
        provenance=tuple(row["provenance"] for row in doc["points"]),
    )
