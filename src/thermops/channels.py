"""Thermal operations driven by one truncated bosonic mode.

A joint unitary that conserves total energy is block diagonal over shells of
fixed total energy.  For a resonant ladder system (level spacing equal to the
mode quantum) shell j is spanned by |k, j-k> and has dimension min(d, j+1).
Tracing out the thermally occupied mode turns the block family into Kraus
operators labeled by the mode transition n -> m; such a Kraus operator moves
every system level up by s = n - m rungs, so it carries a single energy-shift
tag and the channel is automatically covariant under free evolution.

The mode's Gibbs weights are renormalized over the kept Fock levels, which
makes every assembled channel exactly trace preserving; the truncation shows
up only as an O(q^(N+1)) Gibbs-preservation error.  All reachable output
Fock levels are kept (up to N + d - 1), never clipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    NEG_FLOOR,
    BathSpec,
    DensityMatrix,
    SystemSpec,
    _as_matrix,
    require_count,
    require_finite,
    require_unit_interval,
    trace_distance,
)

UNITARY_TOL = 1e-12
COMPLETENESS_TOL = 1e-10
PRUNE_TOL = 1e-14  # drop Kraus operators below this Frobenius norm


def _check_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> float:
    dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if dev > tol:
        raise ValueError(f"block is not unitary (deviation {dev:.2e})")
    return float(dev)


@dataclass(frozen=True)
class BlockUnitary:
    """Shell blocks of an energy-conserving joint unitary on a d-level
    ladder plus one resonant mode.  blocks[j] acts on shell j (total energy
    j quanta) and has dimension min(d, j+1); row/column k corresponds to the
    joint basis state |k, j-k>."""

    d: int
    blocks: tuple

    def __post_init__(self):
        require_count(self.d, "d", 1)
        blocks = tuple(np.asarray(b, dtype=complex) for b in self.blocks)
        for j, b in enumerate(blocks):
            want = min(self.d, j + 1)
            if b.shape != (want, want):
                raise ValueError(f"shell {j} block must be {want}x{want}, got {b.shape}")
            _check_unitary(b)
        object.__setattr__(self, "blocks", blocks)

    @property
    def top_shell(self) -> int:
        return len(self.blocks) - 1


def permutation_blocks(d: int, top_shell: int, perm) -> BlockUnitary:
    """Shell blocks realizing a level permutation: full shells apply it,
    partial shells stay identity unless the permutation preserves them."""
    mats = []
    for j in range(top_shell + 1):
        size = min(d, j + 1)
        levels = range(size)
        m = np.eye(size)
        if all(perm[k] < size for k in levels):
            m = np.zeros((size, size))
            for k in levels:
                m[perm[k], k] = 1.0
        mats.append(m)
    return BlockUnitary(d, tuple(mats))


def damping_blocks(d: int, top_shell: int, pair, r: float) -> BlockUnitary:
    """Rotation family on one level pair with shell-growing angle: shell j
    rotates the pair by cos = r^(j/2), mimicking the optimal-damping qubit
    construction embedded in a larger ladder."""
    i, j_hi = pair
    mats = []
    for j in range(top_shell + 1):
        size = min(d, j + 1)
        m = np.eye(size)
        if i < size and j_hi < size:
            c = r ** (j / 2.0)
            s = np.sqrt(max(0.0, 1.0 - r**j))
            m[i, i] = c
            m[j_hi, j_hi] = c
            m[i, j_hi] = s
            m[j_hi, i] = -s
        mats.append(m)
    return BlockUnitary(d, tuple(mats))


def identity_blocks(d: int, top_shell: int) -> BlockUnitary:
    return permutation_blocks(d, top_shell, range(d))


def haar_stack(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """count independent Haar-random size x size unitaries, shape (count, size, size)."""
    z = rng.standard_normal((count, size, size)) + 1j * rng.standard_normal((count, size, size))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    lam = np.einsum("...ii->...i", r)
    return q * (lam / np.abs(lam))[:, None, :]


def random_blocks(d: int, top_shell: int, rng: np.random.Generator) -> BlockUnitary:
    """Independent Haar-random shell blocks."""
    blocks = []
    for j in range(top_shell + 1):
        blocks.append(haar_stack(rng, 1, min(d, j + 1))[0])
    return BlockUnitary(d, tuple(blocks))


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map given by Kraus operators, optionally tagged with the system
    energy shift (grid units) each operator applies.  A tagged channel is
    covariant by construction: operator K with shift s is supported on
    entries (i, j) with E_i - E_j = s."""

    kraus: tuple
    shifts: tuple = None

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise ValueError("need at least one Kraus operator")
        dim = ks[0].shape[0]
        if any(k.shape != (dim, dim) for k in ks):
            raise ValueError("all Kraus operators must be square of equal dimension")
        if self.shifts is not None:
            sh = tuple(int(s) for s in self.shifts)
            if len(sh) != len(ks):
                raise ValueError("one shift per Kraus operator")
            object.__setattr__(self, "shifts", sh)
        object.__setattr__(self, "kraus", ks)
        dev = self.completeness_deviation
        if dev > COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated (deviation {dev:.2e})")

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def completeness_deviation(self) -> float:
        s = sum(k.conj().T @ k for k in self.kraus)
        return float(np.abs(s - np.eye(self.dim)).max())

    def apply(self, rho) -> np.ndarray:
        m = _as_matrix(rho)
        out = np.zeros_like(m, dtype=complex)
        for k in self.kraus:
            out += k @ m @ k.conj().T
        return out

    def compose(self, other: "KrausChannel") -> "KrausChannel":
        """self after other (self o other)."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        ks, sh = [], []
        tagged = self.shifts is not None and other.shifts is not None
        for a, sa in zip(self.kraus, self.shifts or [0] * len(self.kraus)):
            for b, sb in zip(other.kraus, other.shifts or [0] * len(other.kraus)):
                k = a @ b
                if np.linalg.norm(k) > PRUNE_TOL:
                    ks.append(k)
                    sh.append(sa + sb)
        return KrausChannel(tuple(ks), tuple(sh) if tagged else None)

    def choi(self) -> np.ndarray:
        """Choi matrix in the row-major |i><j| basis; trace equals dim."""
        d = self.dim
        c = np.zeros((d * d, d * d), dtype=complex)
        for k in self.kraus:
            v = k.reshape(-1)
            c += np.outer(v, v.conj())
        return c


def choi_distance(a: KrausChannel, b: KrausChannel) -> float:
    """Trace-norm distance between Choi matrices."""
    return float(np.abs(np.linalg.eigvalsh(a.choi() - b.choi())).sum())


def cptp_deviation(ch: KrausChannel) -> float:
    """max(trace-preservation deviation, complete-positivity deviation).

    Kraus form is CP by construction; the Choi eigenvalue floor is checked
    anyway to certify assembled channels end to end."""
    tp = ch.completeness_deviation
    cp = max(0.0, -float(np.linalg.eigvalsh(ch.choi()).min()))
    return max(tp, cp)


@dataclass(frozen=True)
class TransitionMatrix:
    """Column-stochastic population-dynamics matrix: G[k_out, k_in]."""

    G: np.ndarray

    def __post_init__(self):
        g = np.array(self.G, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("transition matrix must be square")
        require_finite(g, "transition probabilities", low=NEG_FLOOR)
        colsum_dev = np.abs(g.sum(axis=0) - 1.0).max()
        if colsum_dev > COMPLETENESS_TOL:
            raise ValueError(f"columns must sum to 1 (deviation {colsum_dev:.2e})")
        g.flags.writeable = False
        object.__setattr__(self, "G", g)

    @property
    def d(self) -> int:
        return self.G.shape[0]

    def gibbs_deviation(self, gamma) -> float:
        gamma = np.asarray(gamma, dtype=float)
        return float(np.abs(self.G @ gamma - gamma).sum())

    def is_gibbs_stochastic(self, gamma, tol: float = 1e-9) -> bool:
        return self.gibbs_deviation(gamma) <= tol


def transition_matrix(ch: KrausChannel, spec: SystemSpec = None) -> TransitionMatrix:
    """Population dynamics G[k', k] = <k'| channel(|k><k|) |k'>."""
    if spec is not None and spec.d != ch.dim:
        raise ValueError("dimension mismatch")
    g = np.zeros((ch.dim, ch.dim))
    for k in ch.kraus:
        g += np.abs(k) ** 2
    return TransitionMatrix(g)


def _require_resonant_ladder(blocks: BlockUnitary, spec: SystemSpec, bath: BathSpec):
    if spec.d != blocks.d:
        raise ValueError("block dimension does not match the system")
    if spec.energies != tuple(bath.epsilon * k for k in range(spec.d)):
        raise ValueError("system must be a ladder resonant with the mode")
    need = bath.truncation + spec.d - 1
    if blocks.top_shell < need:
        raise ValueError(f"blocks must cover shells 0..{need}, got {blocks.top_shell}")


def sto_channel(blocks: BlockUnitary, spec: SystemSpec, bath: BathSpec) -> KrausChannel:
    """Assemble the channel: couple the ladder to the thermal mode, act with
    the block unitary, trace the mode out.

    Kraus operator K_{m,n} = sqrt(gamma_n) <m| U |n> collects the amplitude
    for the mode to go n -> m; it shifts every system level by s = n - m.
    Input Fock levels run over the kept range n <= N; every reachable output
    level m <= n + d - 1 is kept, so sum K'K = 1 holds exactly.
    """
    _require_resonant_ladder(blocks, spec, bath)
    d, n_keep = spec.d, bath.truncation
    weights = bath.gibbs_weights()
    kraus, shifts = [], []
    for n in range(n_keep + 1):
        for m in range(max(0, n - d + 1), n + d):
            s = n - m
            k = np.zeros((d, d), dtype=complex)
            for c in range(d):
                i = c + s
                if 0 <= i < d:
                    k[i, c] = blocks.blocks[c + n][i, c]
            k *= np.sqrt(weights[n])
            if np.linalg.norm(k) > PRUNE_TOL:
                kraus.append(k)
                shifts.append(s * bath.epsilon)
    return KrausChannel(tuple(kraus), tuple(shifts))


@dataclass(frozen=True)
class AVectors:
    """Transition amplitude vectors of a ladder channel.

    A[k_out, k_in, n] = sqrt(gamma_n) * U^(k_in + n)[k_out, k_in]: the
    amplitude for the system to go k_in -> k_out while the mode absorbs the
    difference, starting from Fock level n.  Row sums of squared norms give
    the transition probabilities; inner products between vectors give the
    coherence-transfer coefficients."""

    A: np.ndarray

    def __post_init__(self):
        a = np.array(self.A, dtype=complex)
        if a.ndim != 3 or a.shape[0] != a.shape[1]:
            raise ValueError("expected array of shape (d, d, N+1)")
        norm_dev = np.abs((np.abs(a) ** 2).sum(axis=(0, 2)) - 1.0).max()
        if norm_dev > 1e-10:
            raise ValueError(f"columns must carry unit weight (deviation {norm_dev:.2e})")
        a.flags.writeable = False
        object.__setattr__(self, "A", a)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    def vector(self, k_out: int, k_in: int) -> np.ndarray:
        return self.A[k_out, k_in]

    def transition_probabilities(self) -> np.ndarray:
        return (np.abs(self.A) ** 2).sum(axis=2)


def a_vectors(blocks: BlockUnitary, bath: BathSpec) -> AVectors:
    """Amplitude vectors of the ladder channel built from these blocks."""
    d, n_keep = blocks.d, bath.truncation
    if blocks.top_shell < n_keep + d - 1:
        raise ValueError("blocks must cover all populated shells")
    weights = bath.gibbs_weights()
    a = np.zeros((d, d, n_keep + 1), dtype=complex)
    for k_in in range(d):
        for n in range(n_keep + 1):
            blk = blocks.blocks[k_in + n]
            rows = min(d, k_in + n + 1)
            a[:rows, k_in, n] = np.sqrt(weights[n]) * blk[:rows, k_in]
    return AVectors(a)


def coherence_transfer(blocks: BlockUnitary, bath: BathSpec, c: int, d: int, i: int, j: int) -> complex:
    """Coefficient <i| channel(|c><d|) |j> of the ladder channel.

    Nonzero only within one coherence mode (i - c == j - d); a mode mismatch
    returns 0 after flagging, since covariance forces it.  Equals the inner
    product of the amplitude vectors for c -> i and d -> j."""
    if i - c != j - d:
        import warnings

        warnings.warn("mode mismatch: i - c != j - d, coefficient is 0", RuntimeWarning, stacklevel=2)
        return 0j
    av = a_vectors(blocks, bath).A
    return complex(np.sum(av[i, c, :] * np.conj(av[j, d, :])))


def beta_swap_qubit(bath: BathSpec) -> BlockUnitary:
    """Population-exchange limit of qubit thermal contact: every excited
    shell swaps |0, j> and |1, j-1>.  Kills all coherence; the transition
    matrix hits the boundary p(0|0) = 1 - q up to truncation error."""
    return permutation_blocks(2, bath.truncation + 1, (1, 0))


def qubit_retentions(p00: float, q: float):
    """(p00, p11) of a Gibbs-preserving qubit channel with ground retention
    p00: p11 = 1 - (1-p00)/q.  p00 must lie in [1-q, 1]; float dust outside
    that range, and below p11 = 0, is clamped away."""
    q = require_unit_interval(q, "q")
    p00 = require_finite(p00, "p00", low=1.0 - q + NEG_FLOOR, high=1.0 - NEG_FLOOR)
    p00 = min(max(p00, 1.0 - q), 1.0)
    return p00, max(0.0, 1.0 - (1.0 - p00) / q)


def qubit_optimal_sto(p00: float, bath: BathSpec) -> BlockUnitary:
    """Qubit blocks realizing ground-state retention p00 with the largest
    possible coherence damping factor sqrt(p00 * p11), p11 = 1 - (1-p00)/q.

    Shell j gets the rotation [[r^(j/2), s], [-s, r^(j/2)]] with
    r = p11/p00, which makes the excited amplitude vector exactly
    proportional to the ground one (free phases set to zero)."""
    p00, p11 = qubit_retentions(p00, bath.q)
    return damping_blocks(2, bath.truncation + 1, (0, 1), p11 / p00)


def simultaneous_beta_swap_kraus(x: float, e2: int = 1) -> KrausChannel:
    """Four-level channel swapping the populations of both gap-e2 pairs
    (levels 0-2 and 1-3) at once, x = exp(-beta * e2).

    Exactly CPTP and exactly Gibbs preserving for any intermediate level
    energy (the level pair structure 0-2 / 1-3 is all that matters).  On the
    shared-gap coherence mode it acts as
    rho'_{10} = (1-x) rho_{10} + rho_{32},  rho'_{32} = x rho_{10}.
    e2 fixes the energy-shift tags in grid units."""
    x = require_unit_interval(x, "x")
    k0 = np.zeros((4, 4), dtype=complex)
    k0[0, 0] = k0[1, 1] = np.sqrt(1.0 - x)
    k1 = np.zeros((4, 4), dtype=complex)
    k1[0, 2] = k1[1, 3] = 1.0
    k2 = np.zeros((4, 4), dtype=complex)
    k2[2, 0] = k2[3, 1] = np.sqrt(x)
    return KrausChannel((k0, k1, k2), (0, -int(e2), int(e2)))


def _enumerate_shells(spec: SystemSpec, bath: BathSpec):
    """Group joint states (level k, Fock n) by total energy E_k + n*epsilon.

    Enumerated up to max(E) + N*epsilon so every shell holding an input
    state (n <= N) is complete, including its n > N output members.  Shells
    with no input state are dropped (they never receive weight)."""
    mu, n_keep = bath.epsilon, bath.truncation
    top = max(spec.energies) + n_keep * mu
    shells = {}
    for k, e in enumerate(spec.energies):
        for n in range((top - e) // mu + 1):
            shells.setdefault(e + n * mu, []).append((k, n))
    out = []
    for t in sorted(shells):
        states = sorted(shells[t])
        if any(n <= n_keep for _, n in states):
            out.append((t, tuple(states)))
    return out


def shell_sto_channel(spec: SystemSpec, bath: BathSpec, block_for_shell) -> KrausChannel:
    """Assemble a channel for an arbitrary integer-grid system coupled to
    the mode.  block_for_shell(energy, states) must return a unitary matrix
    over the given joint states (ordered as passed)."""
    d, n_keep = spec.d, bath.truncation
    weights = bath.gibbs_weights()
    by_mn = {}
    for energy, states in _enumerate_shells(spec, bath):
        b = np.asarray(block_for_shell(energy, states), dtype=complex)
        if b.shape != (len(states), len(states)):
            raise ValueError(f"shell at energy {energy} needs a {len(states)}-dim block")
        _check_unitary(b)
        for col, (k_in, n_in) in enumerate(states):
            if n_in > n_keep:
                continue
            for row, (k_out, n_out) in enumerate(states):
                if b[row, col] == 0:
                    continue
                k = by_mn.setdefault((n_out, n_in), np.zeros((d, d), dtype=complex))
                k[k_out, k_in] += b[row, col]
    kraus, shifts = [], []
    for (m, n), k in sorted(by_mn.items()):
        k = k * np.sqrt(weights[n])
        if np.linalg.norm(k) > PRUNE_TOL:
            kraus.append(k)
            shifts.append((n - m) * bath.epsilon)
    return KrausChannel(tuple(kraus), tuple(shifts))


def simultaneous_beta_swap_sto(bath: BathSpec):
    """Realize the simultaneous swap with one mode resonant with the shared
    gap (e2 = bath.epsilon >= 2, intermediate level at 1).

    The joint unitary is a basis permutation: within every two-state shell
    {(0, n), (2, n-1)} and {(1, n), (3, n-1)} the members trade places; the
    two singleton ground shells stay put.  Returns (shell table, channel)
    where the table rows are (energy, states, block)."""
    if bath.epsilon < 2:
        raise ValueError("mode quantum must be >= 2 so an intermediate level fits the grid")
    spec = SystemSpec.four_level(1, bath.epsilon)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])

    def block(energy, states):
        return np.eye(1) if len(states) == 1 else swap

    table = tuple(
        (energy, states, block(energy, states)) for energy, states in _enumerate_shells(spec, bath)
    )
    return table, shell_sto_channel(spec, bath, block)


def sto_population_matrix(blocks: BlockUnitary, q: float) -> np.ndarray:
    """Population matrix of the untruncated-mode ladder channel whose shell
    blocks follow `blocks` up to the top shell and are identity above.

    Exactly Gibbs stochastic (column k: geometric weights over shells plus
    the identity tail q^(top-k+1)); useful where membership tolerances are
    tighter than any finite truncation error."""
    d, top = blocks.d, blocks.top_shell
    g = np.zeros((d, d))
    for k in range(d):
        for n in range(top - k + 1):
            blk = blocks.blocks[k + n]
            w = (1.0 - q) * q**n
            rows = min(d, k + n + 1)
            g[:rows, k] += w * np.abs(blk[:rows, k]) ** 2
        g[k, k] += q ** (top - k + 1)
    return g


def exto_optimal_channel(G, spec: SystemSpec) -> KrausChannel:
    """Covariant channel achieving the largest coherence transfer compatible
    with the given population dynamics: one Kraus operator per energy gap,
    E_gap = sum_k sqrt(G[k_gap, k]) |k_gap><k|.

    CPTP exactly whenever G is column stochastic; Gibbs preserving iff G is
    Gibbs stochastic.  Requires strictly increasing energies so each (level,
    gap) pair has at most one partner."""
    g = (G if isinstance(G, TransitionMatrix) else TransitionMatrix(G)).G
    if g.shape != (spec.d, spec.d):
        raise ValueError("dimension mismatch")
    if any(b <= a for a, b in zip(spec.energies, spec.energies[1:])):
        raise ValueError("energies must be strictly increasing")
    level_at = {e: k for k, e in enumerate(spec.energies)}
    gaps = sorted({ei - ej for ei in spec.energies for ej in spec.energies})
    kraus, shifts = [], []
    for gap in gaps:
        k = np.zeros((spec.d, spec.d), dtype=complex)
        for c in range(spec.d):
            partner = level_at.get(spec.energies[c] + gap)
            if partner is not None:
                k[partner, c] = np.sqrt(max(g[partner, c], 0.0))
        if np.linalg.norm(k) > PRUNE_TOL:
            kraus.append(k)
            shifts.append(gap)
    return KrausChannel(tuple(kraus), tuple(shifts))


@dataclass(frozen=True)
class VerifyReport:
    deviation: float
    passed: bool


def verify_gibbs_preserving(ch: KrausChannel, gamma: DensityMatrix, tol: float = 1e-9) -> VerifyReport:
    """Trace distance between channel(gamma) and gamma."""
    dev = trace_distance(ch.apply(gamma), gamma)
    return VerifyReport(deviation=dev, passed=dev <= tol)


def verify_covariant(ch: KrausChannel, spec: SystemSpec, tol: float = 1e-9) -> VerifyReport:
    """Covariance under free evolution.

    Structural part: every Kraus operator must live on a single energy shift
    (its tag when present, else the gap carrying the largest weight).
    Dynamical part: channel(U rho U') == U channel(rho) U' on all matrix
    units for a few incommensurate times."""
    if spec.d != ch.dim:
        raise ValueError("dimension mismatch")
    energies = np.asarray(spec.energies, dtype=float)
    gap = energies[:, None] - energies[None, :]
    dev = 0.0
    for idx, k in enumerate(ch.kraus):
        if ch.shifts is not None:
            s = ch.shifts[idx]
        else:
            masses = {}
            for g in np.unique(gap):
                masses[g] = float(np.abs(k[gap == g]).max(initial=0.0))
            s = max(masses, key=masses.get)
        off = float(np.abs(k[gap != s]).max(initial=0.0))
        dev = max(dev, off)
    for t in (0.1, 0.7, 2.3):
        phases = np.exp(-1j * t * energies)
        u = np.outer(phases, phases.conj())
        for a in range(spec.d):
            for b in range(spec.d):
                rho = np.zeros((spec.d, spec.d), dtype=complex)
                rho[a, b] = 1.0
                delta = ch.apply(u * rho) - u * ch.apply(rho)
                dev = max(dev, float(np.abs(delta).max()))
    return VerifyReport(deviation=dev, passed=dev <= tol)
