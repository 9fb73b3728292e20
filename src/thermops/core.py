"""State, Hamiltonian and divergence primitives for thermal-operation numerics.

All energies sit on an integer grid in units of one base quantum, so energy
gaps match exactly: `SystemSpec.gaps` holds them as one integer array, and
sorting matrix entries into coherence modes needs no float fuzz.  A bath's
temperature is its Boltzmann factor q per mode quantum, kept as given, so
its Gibbs weights are exact powers of q; `gibbs_state` takes an inverse
temperature beta in inverse grid units.

A state is a plain complex (d, d) array and a population dynamics a plain
float (d, d) array G[k_out, k_in].  Values the library builds itself are
trusted; one arriving from outside is checked once, where it enters, by
`require_density` or `require_stochastic`.  All `require_*` checks share
the tolerance policy below.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10  # channels produce eigenvalue dust of this order

# input tolerance policy: float dust above NEG_FLOOR counts as zero, and a
# probability vector may miss unit mass by NORM_TOL
NEG_FLOOR = -1e-12
NORM_TOL = 1e-9
COLUMN_TOL = 1e-10  # column sums of a population dynamics
POSITIVE = math.ulp(0.0)  # low=POSITIVE asks for x > 0


def require_finite(x, name: str, low: float = -math.inf, high: float = math.inf):
    """x as a float (an array stays an array); raises ValueError unless every
    entry is finite and within [low, high]."""
    v = np.asarray(x, dtype=float)
    lo, hi = v.min(), v.max()  # a NaN entry makes both NaN
    if not (math.isfinite(lo) and math.isfinite(hi) and low <= lo and hi <= high):
        raise ValueError(f"{name} must be finite and within [{low}, {high}], got {x}")
    return float(v) if v.ndim == 0 else v


def require_unit_interval(x, name: str) -> float:
    """x as a float; raises ValueError unless 0 < x < 1."""
    x = require_finite(x, name)
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {x}")
    return x


def require_count(n, name: str, minimum: int = 0) -> int:
    """n as an int; raises ValueError unless it is a whole number >= minimum."""
    if not (isinstance(n, numbers.Real) and math.isfinite(n) and n == int(n) and n >= minimum):
        raise ValueError(f"{name} must be a whole number >= {minimum}, got {n}")
    return int(n)


def require_levels(v, name: str, d: int, count: int) -> tuple:
    """v as a tuple of ints; raises ValueError unless it holds count distinct
    levels of range(d).  count == d asks for a permutation of range(d)."""
    levels = tuple(v) if np.ndim(v) == 1 else ()
    ok = len(levels) == count and all(
        isinstance(k, numbers.Real) and math.isfinite(k) and k == int(k) and 0 <= k < d for k in levels
    )
    if not (ok and len(set(levels)) == count):
        raise ValueError(f"{name} must be {count} distinct levels of range({d}), got {v}")
    return tuple(int(k) for k in levels)


def require_distribution(v, name: str) -> np.ndarray:
    """v as a float array; raises ValueError unless it is a probability
    vector: entries >= NEG_FLOOR, sum within NORM_TOL of 1.  Those two bounds
    leave no room for NaN or +-inf entries."""
    v = np.asarray(v, dtype=float)
    if not (v.min() >= NEG_FLOOR and abs(v.sum() - 1.0) <= NORM_TOL):
        raise ValueError(f"{name} must be a probability vector, got {v}")
    return v


def require_length(v, name: str, size: int) -> np.ndarray:
    """v unchanged; raises ValueError unless it is a vector of size entries."""
    if np.shape(v) != (size,):
        raise ValueError(f"{name} must be a vector of {size} entries, got shape {np.shape(v)}")
    return v


def require_density(m, name: str) -> np.ndarray:
    """m as a read-only complex copy; raises ValueError unless it is a
    density matrix: square, finite, Hermitian to HERM_TOL, unit trace to
    TRACE_TOL, no eigenvalue below EIG_FLOOR."""
    m = np.array(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"{name} must be a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must have finite entries")
    if not np.abs(m - m.conj().T).max() <= HERM_TOL:
        raise ValueError(f"{name} must be Hermitian")
    tr = np.trace(m)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"{name} must have trace 1, got {tr}")
    if not np.linalg.eigvalsh(m).min() >= EIG_FLOOR:
        raise ValueError(f"{name} has a negative eigenvalue beyond the noise floor")
    m.flags.writeable = False
    return m


def require_stochastic(g, name: str) -> np.ndarray:
    """g as a float array; raises ValueError unless it is a population
    dynamics G[k_out, k_in]: square, finite entries >= NEG_FLOOR, every
    column summing to 1 within COLUMN_TOL."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or not g.size:
        raise ValueError(f"{name} must be a nonempty square matrix, got shape {g.shape}")
    require_finite(g, name, low=NEG_FLOOR)
    dev = np.abs(g.sum(axis=0) - 1.0).max()
    if not dev <= COLUMN_TOL:
        raise ValueError(f"{name} columns must sum to 1 (deviation {dev:.2e})")
    return g


def gibbs_ladder(d: int, q: float) -> np.ndarray:
    """Gibbs weights q^k / Z of d equally spaced levels, Boltzmann factor q
    per rung (q = 0 and q = 1 are the zero- and infinite-temperature ends)."""
    w = require_finite(q, "q", low=0.0, high=1.0) ** np.arange(require_count(d, "d", 1))
    return w / w.sum()


@dataclass(frozen=True)
class SystemSpec:
    """A d-level system with integer energies, ground level pinned at 0."""

    energies: tuple

    def __post_init__(self):
        es = tuple(self.energies)
        if len(es) < 1:
            raise ValueError("need at least one level")
        require_finite(es, "energies")
        if any(int(e) != e for e in es):
            raise ValueError("energies must be integers (grid units)")
        es = tuple(int(e) for e in es)
        if es[0] != 0:
            raise ValueError("ground energy must be 0")
        if any(b < a for a, b in zip(es, es[1:])):
            raise ValueError("energies must be sorted non-decreasing")
        object.__setattr__(self, "energies", es)

    @property
    def d(self) -> int:
        return len(self.energies)

    @property
    def gaps(self) -> np.ndarray:
        """gaps[i, j] = E_i - E_j, an integer (d, d) array: the energy of the
        coherence mode holding entry (i, j)."""
        e = np.asarray(self.energies)
        return np.subtract.outer(e, e)

    @classmethod
    def ladder(cls, d: int) -> "SystemSpec":
        """Levels 0, 1, ..., d-1: one grid quantum per rung."""
        return cls(tuple(range(require_count(d, "d", 1))))

    @classmethod
    def four_level(cls, e1: int, e2: int) -> "SystemSpec":
        """Levels (0, e1, e2, e1+e2): two transition pairs sharing gap e2
        (levels 0-2 and 1-3) and two sharing gap e1 (0-1 and 2-3)."""
        e1 = require_count(e1, "e1", 1)
        e2 = require_count(e2, "e2", e1)
        return cls((0, e1, e2, e1 + e2))


@dataclass(frozen=True)
class BathSpec:
    """One truncated bosonic mode held in a Gibbs state.

    epsilon is the mode energy in grid units and q, in (0, 1), the
    Boltzmann factor of one quantum, exp(-beta * epsilon).  Fock levels
    0..truncation are kept with renormalized Gibbs weights; renormalization
    keeps downstream channels exactly trace preserving, at the price of an
    O(q^(N+1)) Gibbs-preservation error that is measured rather than hidden.
    """

    q: float
    truncation: int
    epsilon: int = 1

    def __post_init__(self):
        object.__setattr__(self, "q", require_unit_interval(self.q, "q"))
        object.__setattr__(self, "epsilon", require_count(self.epsilon, "epsilon", 1))
        object.__setattr__(self, "truncation", require_count(self.truncation, "truncation", 1))

    @classmethod
    def from_q(cls, q: float, truncation: int, epsilon: int = 1) -> "BathSpec":
        """The named constructor: BathSpec(q, truncation, epsilon)."""
        return cls(q, truncation, epsilon)

    def gibbs_weights(self) -> np.ndarray:
        """Occupation weights q^n of the kept Fock levels, renormalized to
        sum to 1."""
        return gibbs_ladder(self.truncation + 1, self.q)


def gibbs_state(spec: SystemSpec, beta: float) -> np.ndarray:
    """Thermal state diag(exp(-beta*E_k))/Z of the given level structure,
    as a complex (d, d) array."""
    beta = require_finite(beta, "beta", low=POSITIVE)
    w = np.exp(-beta * np.asarray(spec.energies, dtype=float))
    return np.diag((w / w.sum()).astype(complex))


def renyi_divergence(p, g, alpha) -> float:
    """Order-alpha divergence between distributions (natural log).

    Nonnegative for every order; zero at p == g, and for nonzero orders only
    there.  (Order 0 vanishes whenever the support of p carries all of g.)
    The orders 0, 1 and +/-inf use closed forms: D_1 is relative entropy,
    D_inf = log max(p/g), D_-inf = -log min(p/g), D_0 = -log sum of g over
    the support of p.
    Negative orders diverge to +inf when p has a zero entry; any p > 0
    sitting on g == 0 gives +inf at every order.
    """
    p = require_distribution(p, "p")
    g = require_distribution(g, "g")
    if p.shape != g.shape:
        raise ValueError("shape mismatch")
    if math.isnan(alpha):
        raise ValueError("order alpha must not be NaN")
    sup = p > 0
    if np.any(sup & (g <= 0)):
        return math.inf
    if alpha == 1:
        return float(np.sum(p[sup] * np.log(p[sup] / g[sup])))
    if alpha == 0:
        return float(-np.log(g[sup].sum()))
    if alpha == math.inf:
        return float(np.log(np.max(p[g > 0] / g[g > 0])))
    if alpha == -math.inf:
        r = np.min(p[g > 0] / g[g > 0])
        return math.inf if r == 0 else float(-np.log(r))
    if alpha < 0 and np.any(p <= 0):
        return math.inf
    s = float(np.sum(p[sup] ** alpha * g[sup] ** (1.0 - alpha)))
    return math.copysign(1.0, alpha) / (alpha - 1.0) * math.log(s)


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference; total variation on diagonals."""
    ma, mb = np.asarray(a), np.asarray(b)
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(ma - mb)).sum())
