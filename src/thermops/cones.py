"""Population-dynamics cones.

The set of populations reachable from p by thermal operations (TO) is the
image of p under all Gibbs-stochastic matrices.  For diagonal states it has
a closed form (Horodecki & Oppenheim, Nat. Commun. 4, 2059 (2013)): x is
reachable iff p's thermo-majorization curve lies on or above x's.  The
curve of v plots cumulative population against cumulative Gibbs weight,
levels taken in decreasing order of v_i / gamma_i; it is concave.  The
cone's vertices are the d! tight points, one per level order, so
membership and support values are exact up to rounding.  The single-mode
and two-level restrictions have no such exact description here; they are
explored by sampling and reported as labeled inner approximations.

A cone is passed around as plain arrays: p, gamma, support samples
((direction, value), ...) and points with one provenance tag each.
`inclusion_audit` checks points against the TO cone, and `cone_dict` gives
the document form.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .core import (
    POSITIVE,
    renyi_divergence,
    require_count,
    require_distribution,
    require_finite,
    require_length,
    require_levels,
    require_unit_interval,
)
from .channels import damping_blocks, permutation_blocks, random_blocks, sto_population_matrix

MEMBERSHIP_TOL = 1e-9  # the one allowance of "is x reachable by TO?", for library and CLI alike

# orthonormal basis of the zero-sum plane, for 2-D projections of qutrit simplex data
PLANE_U = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
PLANE_V = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)


def _curve(v, gamma):
    """v's thermo-majorization curve: cumulative Gibbs weight and cumulative
    population from the origin, levels in decreasing order of v_i / gamma_i
    (a level of zero Gibbs weight comes first)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        order = (-(v / gamma)).argsort(kind="stable")
    return _from_origin(gamma[order]), _from_origin(v[order])


def _from_origin(steps):
    return np.concatenate(([0.0], steps)).cumsum()


def _curve_at(t, p, gamma):
    """p's curve L_p at the cumulative Gibbs weights t (right limit at t = 0)."""
    return np.interp(t, *_curve(p, gamma))


def _require_points(v, name):
    """v as a finite float array of n >= 1 rows of 3 entries."""
    if np.shape(v)[1:] != (3,) or not len(v):
        raise ValueError(f"{name} must be an (n, 3) array with n >= 1, got shape {np.shape(v)}")
    return require_finite(v, name)


def _require_cone_inputs(p, gamma, v, name):
    p = require_distribution(p, "p")
    d = p.size
    require_length(p, "p", d)  # a vector, not a matrix
    gamma = require_length(require_distribution(gamma, "gamma"), "gamma", d)
    return p, gamma, require_length(require_finite(v, name), name, d)


def to_support(p, gamma, c) -> float:
    """Support value max c.x over the thermal-operation cone of p.

    The cone is the base polytope of the submodular set function
    S -> L_p(gamma(S)), so Edmonds' greedy rule finds the maximizing vertex
    among the d! tight points: take the levels in decreasing order of c, and
    give the k-th level L_p(Gamma_k) - L_p(Gamma_(k-1)), where Gamma_k is
    the Gibbs weight of the first k levels.  O(d log d) for any d."""
    p, gamma, c = _require_cone_inputs(p, gamma, c, "c")
    order = (-c).argsort(kind="stable")
    levels = _curve_at(_from_origin(gamma[order]), p, gamma)
    levels[0] = 0.0  # the empty set holds no mass, even where L_p jumps at 0
    return float(c[order] @ (levels[1:] - levels[:-1]))


def to_membership_residual(x, p, gamma) -> float:
    """Curve gap of x against the thermal-operation cone of p: the largest
    excess of x's thermo-majorization curve over p's, taken at x's elbows
    (p's curve is concave, so the elbows suffice), plus |sum(x) - 1| and the
    negative mass of x.  It is >= 0, and 0 up to rounding iff x is reachable
    from p by a thermal operation."""
    p, gamma, x = _require_cone_inputs(p, gamma, x, "x")
    weight, mass = _curve(x, gamma)
    gap = max(0.0, float((mass[1:] - _curve_at(weight[1:], p, gamma)).max()))
    return gap + abs(float(x.sum()) - 1.0) - float(x[x < 0.0].sum())


def to_membership(x, p, gamma) -> bool:
    return to_membership_residual(x, p, gamma) <= MEMBERSHIP_TOL


def qubit_to_segment(p0: float, q: float):
    """Ground occupations reachable from a qubit with ground occupation p0:
    the closed interval between p0 and the full-exchange image 1 - q*p0."""
    p0 = require_finite(p0, "p0", low=0.0, high=1.0)
    q = require_unit_interval(q, "q")
    ends = (p0, 1.0 - q * p0)
    return (min(ends), max(ends))


def qubit_cto_check(p, ptarget, gamma) -> bool:
    """Catalytic reachability test for qubit populations: the order +inf and
    -inf divergences to the Gibbs point must both be non-increasing."""
    for v, name in ((p, "p"), (ptarget, "ptarget"), (gamma, "gamma")):
        require_length(v, name, 2)
    d_from = renyi_divergence(p, gamma, np.inf)
    d_to = renyi_divergence(ptarget, gamma, np.inf)
    dm_from = renyi_divergence(p, gamma, -np.inf)
    dm_to = renyi_divergence(ptarget, gamma, -np.inf)
    return d_to <= d_from + MEMBERSHIP_TOL and dm_to <= dm_from + MEMBERSHIP_TOL


def two_level_gibbs_stochastic(d: int, i: int, j: int, share: float, gamma) -> np.ndarray:
    """Gibbs-stochastic matrix touching only levels i and j of d (gamma, the
    d finite Gibbs weights, must have gamma_i >= gamma_j > 0, i.e. i is the
    lower level).  share in [0, 1] is the part of level j's population moved
    down to i, and share * gamma_j / gamma_i of level i's moves up.  Share 1
    is the full exchange (beta swap), share 0 the identity."""
    d = require_count(d, "d", 2)
    i, j = require_levels((i, j), "levels (i, j)", d, 2)
    gamma = require_finite(require_length(gamma, "gamma", d), "gamma", low=0.0)
    if not gamma[j] > 0.0:
        raise ValueError(f"gamma must be positive at level {j}, got {gamma[j]}")
    if gamma[i] < gamma[j]:
        raise ValueError("need gamma_i >= gamma_j (pass the lower level first)")
    return _two_level(d, i, j, share, gamma[j] / gamma[i])


def _two_level(d, i, j, share, ratio):
    """`two_level_gibbs_stochastic` once its levels and ratio = gamma_j /
    gamma_i, in (0, 1], are known to be valid; share is still checked."""
    share = require_finite(share, "share", low=0.0, high=1.0)
    g = np.eye(d)
    g[i, j] = share
    g[j, j] = 1.0 - share
    g[j, i] = share * ratio
    g[i, i] = 1.0 - share * ratio
    return g


_QUTRIT_PAIRS = ((0, 1), (0, 2), (1, 2))


def elto_cone_sample(p, gamma, depth: int, n: int, seed: int):
    """Points reachable from p by sequences of two-level thermal contacts.

    Deterministic part: every composition of the three pairwise full
    exchanges up to the given depth (the corner words).  Random part: n
    sequences of random length <= depth, random pairs, shares uniform in
    (0, 1] (never the identity).  Returns (points, provenance)."""
    p = require_length(require_distribution(p, "p"), "p", 3)  # the sampler covers qutrits
    gamma = require_length(require_distribution(gamma, "gamma"), "gamma", 3)
    require_finite(gamma, "gamma", low=POSITIVE)  # every level takes part in a contact
    depth = require_count(depth, "depth", 1)
    n = require_count(n, "n")
    # the full exchanges also check the level order of gamma
    swaps = [two_level_gibbs_stochastic(3, i, j, 1.0, gamma) for i, j in _QUTRIT_PAIRS]
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
            x = _two_level(3, i, j, 1.0 - rng.random(), gamma[j] / gamma[i]) @ x
        points.append(x)
        tags.append("ElTO-random")
    return np.array(points), tags


_STRUCTURED = (
    ("identity", (0, 1, 2)),
    ("swap01", (1, 0, 2)),
    ("swap02", (2, 1, 0)),
    ("swap12", (0, 2, 1)),
    ("cycle120", (1, 2, 0)),
    ("cycle201", (2, 0, 1)),
)
_QUTRIT_PERMS = tuple(perm for _, perm in _STRUCTURED[1:])  # every permutation but the identity


def sto_cone_sample(p, bath, top_shell: int, n: int, seed: int):
    """Population images of p under single-mode channels with random shell
    blocks (ideal mode: blocks above top_shell are identity, so every point
    is exactly Gibbs-stochastic dynamics).

    Always starts with six structured block families (identity, the three
    pair permutations, both cycles); the n random draws then rotate through
    Haar blocks, random permutations and one-pair damping families.
    Returns (points, provenance)."""
    p = require_length(require_distribution(p, "p"), "p", 3)  # the sampler covers qutrits
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


def inclusion_audit(p, gamma, support, points):
    """How well a point sample sits inside the TO cone of p.

    Returns (worst membership residual, the largest curve gap over the
    points; support margin, the minimum over the sampled halfspaces
    ((direction, value), ...) of support value minus the largest projection
    of a point).  A residual near 0 and a nonnegative margin mean every
    point is inside; both need n >= 1 finite points and support samples."""
    points = _require_points(points, "points")
    _require_points([c for c, _ in support], "support directions")
    require_finite([value for _, value in support], "support values")
    residual = max(to_membership_residual(x, p, gamma) for x in points)
    margin = min(value - float((points @ c).max()) for c, value in support)
    return residual, margin


def support_directions(count: int) -> np.ndarray:
    """count unit directions spread evenly around the zero-sum plane."""
    count = require_count(count, "count", 1)
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.cos(angles)[:, None] * PLANE_U + np.sin(angles)[:, None] * PLANE_V


def plane_coordinates(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.column_stack([pts @ PLANE_U, pts @ PLANE_V])


def _hull_vertices(points) -> np.ndarray:
    """Convex hull vertices of 2-D points, counter-clockwise (Andrew's
    monotone chain); points on an edge are dropped."""
    pts = sorted(map(tuple, points.tolist()))

    def half(seq):
        chain = []
        for x, y in seq:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0.0:
                    break
                chain.pop()
            chain.append((x, y))
        return chain[:-1]

    return np.array(half(pts) + half(pts[::-1]))


def hull_margin(inner_points, outer_points) -> float:
    """Worst-case inclusion depth of the inner sample inside the convex hull
    of the outer sample, measured in the zero-sum plane: the minimum over
    inner points of each point's signed distance to its nearest facet.
    Positive: every point strictly inside; negative: some inner point
    sticks out by that distance.  Degenerate outer hulls (segment or point)
    are handled directly; both samples need n >= 1 finite rows of 3."""
    inner = plane_coordinates(_require_points(inner_points, "inner_points"))
    outer = plane_coordinates(_require_points(outer_points, "outer_points"))
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
    hull = _hull_vertices(outer)
    edges = np.roll(hull, -1, axis=0) - hull
    # outward unit normals of the counter-clockwise edges
    normals = np.column_stack((edges[:, 1], -edges[:, 0])) / np.linalg.norm(edges, axis=1)[:, None]
    signed = inner @ normals.T - (normals * hull).sum(axis=1)
    return float(-signed.max())


def cone_dict(p, gamma, support=(), points=(), provenance=()) -> dict:
    """JSON-ready dict of a population cone: its support samples
    ((direction, value), ...) as the outer description and its labeled
    points, one provenance tag per point, as the inner one."""
    if len(provenance) != len(points):
        raise ValueError("one provenance tag per point")
    # Python floats, not numpy scalars: json encodes them at about half the cost
    p, gamma, points = (np.asarray(v, dtype=float).tolist() for v in (p, gamma, points))
    return {
        "p": p,
        "gamma": gamma,
        "support": [{"direction": np.asarray(c, dtype=float).tolist(), "value": float(v)} for c, v in support],
        "points": [{"provenance": tag, "x": x} for x, tag in zip(points, provenance)],
    }
