"""State, Hamiltonian and divergence primitives for thermal-operation numerics.

All energies sit on an integer grid in units of one base quantum, so energy
gaps match exactly (no float fuzz when sorting matrix entries into coherence
modes).  Inverse temperature is expressed in units of one over that quantum;
Boltzmann factors are then exact powers of q = exp(-beta * epsilon).
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


def require_distribution(v, name: str) -> np.ndarray:
    """v as a float array; raises ValueError unless it is a probability
    vector: entries >= NEG_FLOOR, sum within NORM_TOL of 1.  Those two bounds
    leave no room for NaN or +-inf entries."""
    v = np.asarray(v, dtype=float)
    if not (v.min() >= NEG_FLOOR and abs(v.sum() - 1.0) <= NORM_TOL):
        raise ValueError(f"{name} must be a probability vector, got {v}")
    return v


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

    def gap(self, i: int, j: int) -> int:
        """Energy of the coherence mode holding entry (i, j)."""
        return self.energies[i] - self.energies[j]

    @classmethod
    def ladder(cls, d: int, spacing: int = 1) -> "SystemSpec":
        """Equally spaced levels 0, spacing, ..., (d-1)*spacing."""
        spacing = require_count(spacing, "spacing", 1)
        return cls(tuple(spacing * k for k in range(require_count(d, "d", 1))))

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

    epsilon is the mode energy in grid units, beta the inverse temperature in
    inverse grid units, so q = exp(-beta*epsilon) is the Boltzmann factor of
    one quantum.  Fock levels 0..truncation are kept with renormalized Gibbs
    weights; renormalization keeps downstream channels exactly trace
    preserving, at the price of an O(q^(N+1)) Gibbs-preservation error that
    is measured rather than hidden.
    """

    beta: float
    truncation: int
    epsilon: int = 1

    def __post_init__(self):
        require_finite(self.beta, "beta", low=POSITIVE)
        object.__setattr__(self, "epsilon", require_count(self.epsilon, "epsilon", 1))
        require_count(self.truncation, "truncation", 1)

    @classmethod
    def from_q(cls, q: float, truncation: int, epsilon: int = 1) -> "BathSpec":
        q = require_unit_interval(q, "q")
        return cls(beta=-math.log(q) / epsilon, truncation=truncation, epsilon=epsilon)

    @property
    def q(self) -> float:
        return math.exp(-self.beta * self.epsilon)

    def gibbs_weights(self) -> np.ndarray:
        """Occupation weights q^n of the kept Fock levels, renormalized to
        sum to 1."""
        return gibbs_ladder(self.truncation + 1, self.q)


class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, PSD up to noise floor."""

    def __init__(self, mat):
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.abs(m - m.conj().T).max() > HERM_TOL:
            raise ValueError("matrix is not Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")
        if np.linalg.eigvalsh(m).min() < EIG_FLOOR:
            raise ValueError("negative eigenvalue beyond noise floor")
        m.flags.writeable = False
        self.mat = m
        self.dim = m.shape[0]

    @classmethod
    def diagonal(cls, populations) -> "DensityMatrix":
        return cls(np.diag(np.asarray(populations, dtype=complex)))

    @classmethod
    def pure(cls, vec) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("zero vector")
        v = v / nrm
        return cls(np.outer(v, v.conj()))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class ModeSet:
    """Entries of a matrix grouped by energy gap: mode m holds the (i, j)
    entries with E_i - E_j = m (grid units).  Summing all modes restores the
    source matrix exactly."""

    dim: int
    modes: dict

    def __getitem__(self, m: int) -> np.ndarray:
        if m in self.modes:
            return self.modes[m]
        return np.zeros((self.dim, self.dim), dtype=complex)

    def reassemble(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for block in self.modes.values():
            out += block
        return out


def _as_matrix(rho) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def gibbs_state(spec: SystemSpec, beta: float) -> DensityMatrix:
    """Thermal state diag(exp(-beta*E_k))/Z of the given level structure."""
    beta = require_finite(beta, "beta", low=POSITIVE)
    w = np.exp(-beta * np.asarray(spec.energies, dtype=float))
    return DensityMatrix.diagonal(w / w.sum())


def populations(rho: DensityMatrix) -> np.ndarray:
    """Occupation probabilities (real diagonal)."""
    return np.real(np.diag(_as_matrix(rho))).copy()


def mode_decompose(rho, spec: SystemSpec) -> ModeSet:
    """Split a matrix into coherence modes by energy gap.

    The integer grid guarantees every pairwise gap lands on the grid, so the
    partition is exact (no tolerance involved)."""
    m = _as_matrix(rho)
    if m.shape[0] != spec.d:
        raise ValueError("dimension mismatch")
    modes = {}
    for i in range(spec.d):
        for j in range(spec.d):
            if m[i, j] == 0:
                continue
            g = spec.gap(i, j)
            blk = modes.setdefault(g, np.zeros((spec.d, spec.d), dtype=complex))
            blk[i, j] = m[i, j]
    return ModeSet(dim=spec.d, modes=modes)


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
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(ma - mb)).sum())


def time_translate(rho, spec: SystemSpec, t: float) -> DensityMatrix:
    """Free evolution exp(-iHt) rho exp(+iHt).

    Populations are untouched; the mode at gap m picks up the phase
    exp(-i*m*t)."""
    m = _as_matrix(rho)
    phases = np.exp(-1j * t * np.asarray(spec.energies, dtype=float))
    return DensityMatrix(m * np.outer(phases, phases.conj()))
