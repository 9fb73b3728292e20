"""Thermal operations driven by one truncated bosonic mode.

A joint unitary that conserves total energy is block diagonal over shells of
fixed total energy.  For a resonant ladder system (level spacing equal to the
mode quantum) shell j is spanned by |k, j-k> and has dimension min(d, j+1).
Tracing out the thermally occupied mode turns the block family into Kraus
operators labeled by the mode transition n -> m; such a Kraus operator moves
every system level up by s = n - m rungs, so it carries a single energy-shift
tag and the channel is automatically covariant under free evolution.

A `BlockUnitary` is one read-only, zero-padded (..., shells, d, d) `stack`,
its only field: one channel or a batch along the leading axes, checked once
for zero padding and unitarity.  It is the only stack format the readers
take.  One private kernel reads the ladder amplitudes out of it:
`_shell_columns` gathers U[..., k_out, k_in, n] = stack[..., k_in + n,
k_out, k_in], the column of |k_in, n> in its shell, with one array slice
per input level.  `a_vectors` weights it by sqrt(gamma_n);
`sto_population_matrix` sums its squared moduli over n.

A `KrausChannel` keeps its operators in one read-only (operators, d, d)
array, so application, composition, the Choi matrix and the population
dynamics are array expressions over it.  A tagged channel depends only on
the per-shift Gram matrix sum_K vec(K) vec(K)^dagger.  Both single-mode
assemblers fill one amplitude array a[k_out, k_in, n]: `sto_channel` from
`a_vectors`, `shell_sto_channel` with one indexed write per shell of an
arbitrary grid system.  One tail turns that array into the canonical form,
and tagged `KrausChannel.compose` returns the same form: one Gram
eigendecomposition per shift, one operator per eigenvector, so a d-level
channel carries at most d^2 Kraus operators whatever the truncation.
`verify_covariant` reads covariance exactly off the Choi matrix: it must
vanish between entries of different energy gaps.  Every energy-shift tag
and gap test reads the one integer array `SystemSpec.gaps`.

States and population dynamics are plain arrays: `transition_matrix` and
`sto_population_matrix` return G[k_out, k_in] as a float (d, d) array,
one per batch member.
Where one comes from the caller it is checked once, on entry:
`verify_gibbs_preserving` passes gamma through `require_density`, and
`exto_optimal_channel` passes G through `require_stochastic`.

The assemblers renormalize the mode's Gibbs weights over the kept Fock
levels n <= N, which makes every channel exactly trace preserving; the
truncation shows up only as an O(q^(N+1)) Gibbs-preservation error.  All
reachable output Fock levels are kept (up to N + d - 1), never clipped.
The batched engine has no truncation: `ideal_mode_amplitudes` reads
a[..., k_out, k_in, n] off the blocks with identity blocks above their top
shell T, weights (1-q) q^n for n <= T, and one last column
sqrt(q^(T+1)) I, the aggregate of all n > T and not a Fock level.
`mode_apply` turns any batch of amplitude arrays, truncated or not, into
output states, pairing amplitudes within one coherence mode of the gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BathSpec,
    SystemSpec,
    require_count,
    require_density,
    require_finite,
    require_levels,
    require_stochastic,
    require_unit_interval,
    trace_distance,
)

UNITARY_TOL = 1e-12
COMPLETENESS_TOL = 1e-10
PRUNE_TOL = 1e-14  # drop Kraus operators below this Frobenius norm
CERTIFY_TOL = 1e-9  # default pass threshold of the certificates and of `verify --tol`


def _check_unitary(u: np.ndarray, identity: np.ndarray):
    """Raises ValueError unless max |u^dagger u - identity|, over a matrix or
    a stack of them, is at most UNITARY_TOL (NaN fails; an empty stack passes)."""
    dev = np.abs(np.einsum("...ki,...kl->...il", u.conj(), u) - identity).max(initial=0.0)
    if not dev <= UNITARY_TOL:
        raise ValueError(f"block is not unitary (deviation {dev:.2e})")


@dataclass(frozen=True, eq=False)
class BlockUnitary:
    """Shell blocks of an energy-conserving joint unitary on a d-level
    ladder plus one resonant mode, as one zero-padded stack, or a batch of
    such stacks along leading axes.

    stack[..., j, :, :] is the block of shell j (total energy j quanta): its
    leading min(d, j+1) rows and columns act on the joint states |k, j-k>,
    and every entry outside them is zero.  The input is copied to a
    read-only complex array of shape (..., shells, d, d), d >= 1 (zero
    shells is allowed), and checked once over the whole batch: the padding
    must be zero (NaN fails), and every block^dagger block must be the
    identity on its shell's levels."""

    stack: np.ndarray

    def __post_init__(self):
        stack = np.array(self.stack, dtype=complex)
        if stack.ndim < 3 or stack.shape[-1] != stack.shape[-2] or stack.shape[-1] < 1:
            raise ValueError(f"stack must have shape (..., shells, d, d) with d >= 1, got {stack.shape}")
        shells, d = stack.shape[-3:-1]
        in_shell = np.arange(d) <= np.arange(shells)[:, None]  # level k lies in shell j
        outside = ~(in_shell[:, :, None] & in_shell[:, None, :])
        per_shell = tuple(range(stack.ndim - 3)) + (-2, -1)  # reduce all axes but the shell's
        bad = np.flatnonzero(((stack != 0) & outside).any(axis=per_shell))  # NaN != 0 as well
        if bad.size:
            raise ValueError(f"shell {bad[0]} is nonzero outside its {bad[0] + 1}x{bad[0] + 1} block")
        _check_unitary(stack, np.eye(d) * in_shell[:, None])
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)

    @property
    def d(self) -> int:
        return self.stack.shape[-1]

    @property
    def top_shell(self) -> int:
        return self.stack.shape[-3] - 1


def _shell_columns(stack: np.ndarray, count: int) -> np.ndarray:
    """The ladder amplitude kernel: U[..., k_out, k_in, n] =
    stack[..., k_in + n, k_out, k_in] for n < count, read from a zero-padded
    (..., shells, d, d) stack (leading axes are a batch).  Column n of input
    level k_in is the |k_in, n> column of shell k_in + n; entries whose shell
    lies past the stack are zero."""
    count = require_count(count, "count", 1)
    d = stack.shape[-1]
    u = np.zeros(stack.shape[:-3] + (d, d, count), dtype=stack.dtype)
    for k in range(d):
        cols = stack[..., k : k + count, :, k]  # (..., shells read, k_out)
        u[..., k, : cols.shape[-2]] = np.swapaxes(cols, -1, -2)
    return u


def permutation_blocks(d: int, top_shell: int, perm) -> BlockUnitary:
    """Shell blocks realizing a level permutation: full shells apply it,
    partial shells stay identity unless the permutation preserves them."""
    d = require_count(d, "d", 1)
    shells = require_count(top_shell, "top_shell") + 1
    perm = require_levels(perm, "perm", d, d)
    full = np.eye(d, dtype=complex)[:, perm]  # column k holds a 1 in row perm[k]
    stack = np.zeros((shells, d, d), dtype=complex)
    stack[d - 1 :] = full
    for s in range(1, min(shells + 1, d)):  # partial shell s - 1 holds s levels
        stack[s - 1, :s, :s] = full[:s, :s] if max(perm[:s]) < s else np.eye(s)
    return BlockUnitary(stack)


def damping_blocks(d: int, top_shell: int, pair, r: float) -> BlockUnitary:
    """Rotation family on one level pair with shell-growing angle: shell j
    rotates the pair by cos = r^(j/2), mimicking the optimal-damping qubit
    construction embedded in a larger ladder.  Shells too small to hold
    both levels stay identity."""
    d = require_count(d, "d", 1)
    shells = require_count(top_shell, "top_shell") + 1
    i, k = require_levels(pair, "pair", d, 2)
    r = require_finite(r, "r", low=0.0, high=1.0)
    c = np.array([r ** (j / 2.0) for j in range(shells)])
    s = np.array([math.sqrt(max(0.0, 1.0 - r**j)) for j in range(shells)])
    turn = np.arange(shells) >= max(i, k)
    in_shell = np.arange(d) <= np.arange(shells)[:, None]
    stack = (np.eye(d) * in_shell[:, None]).astype(complex)  # the identity on every shell
    stack[turn, i, i] = stack[turn, k, k] = c[turn]
    stack[turn, i, k] = s[turn]
    stack[turn, k, i] = -s[turn]
    return BlockUnitary(stack)


def haar_stack(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """count independent Haar-random size x size unitaries, shape (count, size, size)."""
    z = rng.standard_normal((count, size, size)) + 1j * rng.standard_normal((count, size, size))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    lam = np.einsum("...ii->...i", r)
    return q * (lam / np.abs(lam))[:, None, :]


def random_blocks(d: int, top_shell: int, rng: np.random.Generator) -> BlockUnitary:
    """Independent Haar-random shell blocks, one `haar_stack` draw per shell, in shell order."""
    d = require_count(d, "d", 1)
    shells = require_count(top_shell, "top_shell") + 1
    stack = np.zeros((shells, d, d), dtype=complex)
    for j in range(shells):  # a slice past d stops at d
        stack[j, : j + 1, : j + 1] = haar_stack(rng, 1, min(d, j + 1))[0]
    return BlockUnitary(stack)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map given by Kraus operators, optionally tagged with the system
    energy shift (grid units) each operator applies.  A tagged channel is
    covariant by construction: operator K with shift s is supported on
    entries (i, j) with E_i - E_j = s.

    `kraus` holds the operators in one read-only complex array of shape
    (operators, dim, dim); every method below is an array expression over
    it."""

    kraus: np.ndarray
    shifts: tuple = None

    def __post_init__(self):
        shapes = {np.shape(k) for k in self.kraus}
        if not shapes:
            raise ValueError("need at least one Kraus operator")
        shape = shapes.pop()
        if shapes or len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("all Kraus operators must be square of equal dimension")
        ks = np.array(self.kraus, dtype=complex)
        if self.shifts is not None:
            sh = tuple(require_count(s, "each shift", -math.inf) for s in self.shifts)
            if len(sh) != len(ks):
                raise ValueError("one shift per Kraus operator")
            object.__setattr__(self, "shifts", sh)
        ks.flags.writeable = False
        object.__setattr__(self, "kraus", ks)
        dev = self.completeness_deviation
        if not dev <= COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated (deviation {dev:.2e})")

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    @property
    def completeness_deviation(self) -> float:
        k = self.kraus
        s = (k.conj().swapaxes(1, 2) @ k).sum(axis=0)
        return float(np.abs(s - np.eye(self.dim)).max())

    def apply(self, rho) -> np.ndarray:
        k = self.kraus
        return (k @ np.asarray(rho) @ k.conj().swapaxes(1, 2)).sum(axis=0)

    def compose(self, other: "KrausChannel") -> "KrausChannel":
        """self after other (self o other).

        When both are tagged, product a @ b carries shift sa + sb and the
        result is reduced to the canonical form: one Gram eigendecomposition
        per shift, at most dim^2 operators.  Otherwise every product above
        PRUNE_TOL is kept, untagged."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        ks = (self.kraus[:, None] @ other.kraus[None]).reshape(-1, self.dim, self.dim)
        if self.shifts is not None and other.shifts is not None:
            return KrausChannel(*_canonical_kraus(ks, np.add.outer(self.shifts, other.shifts).ravel()))
        return KrausChannel(ks[np.linalg.norm(ks, axis=(1, 2)) > PRUNE_TOL])

    def choi(self) -> np.ndarray:
        """Choi matrix sum_K vec(K) vec(K)^dagger, vec row-major:
        C[(i, k), (j, l)] is the |i><j| coefficient of channel(|k><l|).
        Its trace equals dim."""
        v = self.kraus.reshape(len(self.kraus), -1)
        return v.T @ v.conj()


def _canonical_kraus(kraus, shifts):
    """Fewest Kraus operators of the same tagged channel, tags kept, as a
    (operators, dim, dim) stack and a tuple of shifts.

    Per shift tag (ascending), the operators' entries on their joint nonzero
    support are the rows of V.  G = V^T V* is that tag's share of the Choi
    matrix, so each eigenpair (lam, w) of G yields the operator sqrt(lam) w
    (w itself: conj(w) would give the conjugate channel).  Eigenpairs whose
    operator norm sqrt(lam) is below PRUNE_TOL are dropped.  A covariant
    channel gives disjoint supports per tag, hence at most d^2 operators."""
    flat = np.asarray(kraus, dtype=complex)
    dim = flat.shape[1]
    flat = flat.reshape(len(flat), -1)
    tags = np.asarray(shifts)
    out, out_shifts = [], []
    for s in np.unique(tags):
        v = flat[tags == s]
        support = np.flatnonzero(np.any(v != 0, axis=0))
        v = v[:, support]
        lam, w = np.linalg.eigh(v.T @ v.conj())
        keep = np.flatnonzero(lam > PRUNE_TOL**2)[::-1]
        ops = np.zeros((len(keep), dim * dim), dtype=complex)
        ops[:, support] = (np.sqrt(lam[keep]) * w[:, keep]).T
        out.append(ops)
        out_shifts += [int(s)] * len(keep)
    return np.concatenate(out).reshape(-1, dim, dim), tuple(out_shifts)


def choi_distance(a: KrausChannel, b: KrausChannel) -> float:
    """Trace-norm distance between Choi matrices."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return float(np.abs(np.linalg.eigvalsh(a.choi() - b.choi())).sum())


def cptp_deviation(ch: KrausChannel) -> float:
    """max(trace-preservation deviation, complete-positivity deviation).

    Kraus form is CP by construction; the Choi eigenvalue floor is checked
    anyway to certify assembled channels end to end."""
    tp = ch.completeness_deviation
    cp = max(0.0, -float(np.linalg.eigvalsh(ch.choi()).min()))
    return max(tp, cp)


def transition_matrix(ch: KrausChannel) -> np.ndarray:
    """Population dynamics G[k', k] = <k'| channel(|k><k|) |k'>, a float
    (d, d) array."""
    return (np.abs(ch.kraus) ** 2).sum(axis=0)


def _mode_channel(a: np.ndarray, spec: SystemSpec, epsilon: int) -> KrausChannel:
    """Canonical channel of the mode amplitudes a[k_out, k_in, n] (Gibbs
    weight included).  Energy conservation gives E_out - E_in = (n - m) *
    epsilon, so K_{m,n} is a[..., n] on the entries of that gap, tagged
    with it; `_canonical_kraus` reduces the K_{m,n}."""
    gaps = spec.gaps
    shifts = np.unique(gaps[gaps % epsilon == 0])
    on_shift = gaps == shifts[:, None, None]
    kraus = (a.transpose(2, 0, 1)[:, None] * on_shift).reshape(-1, spec.d, spec.d)
    return KrausChannel(*_canonical_kraus(kraus, np.tile(shifts, a.shape[2])))


def sto_channel(blocks: BlockUnitary, spec: SystemSpec, bath: BathSpec) -> KrausChannel:
    """Assemble the channel: couple the ladder to the thermal mode, act with
    the block unitary, trace the mode out.

    Kraus operator K_{m,n} = sqrt(gamma_n) <m| U |n> collects the amplitude
    for the mode to go n -> m; it shifts every system level by s = n - m.
    Input Fock levels run over the kept range n <= N; every reachable output
    level m <= n + d - 1 is kept, so sum K'K = 1 holds exactly.  The
    operators come from the `a_vectors` amplitudes, in canonical form.
    `blocks` must be one stack, not a batch.
    """
    if blocks.stack.ndim != 3:
        raise ValueError(f"sto_channel builds one channel, got a batch of shape {blocks.stack.shape[:-3]}")
    if spec.d != blocks.d:
        raise ValueError("block dimension does not match the system")
    if spec.energies != tuple(bath.epsilon * k for k in range(spec.d)):
        raise ValueError("system must be a ladder resonant with the mode")
    return _mode_channel(a_vectors(blocks, bath), spec, bath.epsilon)


def a_vectors(blocks: BlockUnitary, bath: BathSpec) -> np.ndarray:
    """Amplitudes A[..., k_out, k_in, n] = sqrt(gamma_n) U^(k_in + n)[k_out, k_in]
    of the ladder channel, from the `_shell_columns` of the stack (one per
    batch member): k_in -> k_out with the mode starting in Fock level n.
    sum_n |A|^2 gives the transition probabilities, inner products over n
    the coherence transfers."""
    need = bath.truncation + blocks.d - 1
    if blocks.top_shell < need:
        raise ValueError(f"blocks must cover shells 0..{need}, got {blocks.top_shell}")
    return np.sqrt(bath.gibbs_weights()) * _shell_columns(blocks.stack, bath.truncation + 1)


def qubit_optimal_sto(share: float, bath: BathSpec) -> BlockUnitary:
    """Qubit blocks with the largest possible coherence damping factor
    sqrt(p00 * p11) at exchanged share in [0, 1], the part of the excited
    population moved down: p11 = 1 - share and p00 = 1 - share * q.  Share
    1 is the full exchange (beta swap), share 0 the identity.

    Shell j gets the rotation [[c, t], [-t, c]], c = r^(j/2), t = sqrt(1 -
    r^j), with r = p11/p00, which makes the excited amplitude vector exactly
    proportional to the ground one (free phases set to zero)."""
    share = require_finite(share, "share", low=0.0, high=1.0)
    return damping_blocks(2, bath.truncation + 1, (0, 1), (1.0 - share) / (1.0 - share * bath.q))


def simultaneous_beta_swap_kraus(x: float, e2: int = 1) -> KrausChannel:
    """Four-level channel swapping the populations of both gap-e2 pairs
    (levels 0-2 and 1-3) at once, x = exp(-beta * e2).

    Exactly CPTP and exactly Gibbs preserving for any intermediate level
    energy (the level pair structure 0-2 / 1-3 is all that matters).  On the
    shared-gap coherence mode it acts as
    rho'_{10} = (1-x) rho_{10} + rho_{32},  rho'_{32} = x rho_{10}.
    e2 fixes the energy-shift tags in grid units."""
    x, e2 = require_unit_interval(x, "x"), require_count(e2, "e2", 1)
    k0 = np.zeros((4, 4), dtype=complex)
    k0[0, 0] = k0[1, 1] = np.sqrt(1.0 - x)
    k1 = np.zeros((4, 4), dtype=complex)
    k1[0, 2] = k1[1, 3] = 1.0
    k2 = np.zeros((4, 4), dtype=complex)
    k2[2, 0] = k2[3, 1] = np.sqrt(x)
    return KrausChannel((k0, k1, k2), (0, -e2, e2))


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
    over the given joint states (ordered as passed).

    Column (k_in, n) of a shell block, for kept n <= N, gives the
    amplitudes a[:, k_in, n] over the shell's output levels; the tail
    shared with `sto_channel` makes the canonical channel of them."""
    a = np.zeros((spec.d, spec.d, bath.truncation + 1), dtype=complex)
    for energy, states in _enumerate_shells(spec, bath):
        b = np.asarray(block_for_shell(energy, states), dtype=complex)
        if b.shape != (len(states), len(states)):
            raise ValueError(f"shell at energy {energy} needs a {len(states)}-dim block")
        _check_unitary(b, np.eye(len(states)))
        k, n = np.array(states).T
        inp = n <= bath.truncation
        a[k[:, None], k[inp], n[inp]] = b[:, inp]
    return _mode_channel(np.sqrt(bath.gibbs_weights()) * a, spec, bath.epsilon)


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


def _mode_weights(q: float, count: int) -> np.ndarray:
    """Untruncated Gibbs weights (1-q) q^n of Fock levels n < count."""
    return np.array([(1.0 - q) * q**n for n in range(count)])


def ideal_mode_amplitudes(blocks: BlockUnitary, q: float) -> np.ndarray:
    """Untruncated-mode amplitudes a[..., k_out, k_in, n] of the blocks (one
    stack or a batch): columns n <= T, then the identity remainder of all
    n > T.  q lies in [0, 1]."""
    q = require_finite(q, "q", low=0.0, high=1.0)
    d, shells = blocks.d, blocks.top_shell + 1
    u = _shell_columns(blocks.stack, shells + 1)  # column `shells` lies past the stack
    k, n = np.nonzero(np.arange(d)[:, None] + np.arange(shells + 1) >= shells)
    u[..., k, k, n] = 1.0  # shells above the top are identity blocks
    return np.sqrt(np.append(_mode_weights(q, shells), q**shells)) * u


def mode_apply(a, rho, spec: SystemSpec) -> np.ndarray:
    """Output states of amplitude arrays a[..., k_out, k_in, n]: entry (i, j)
    sums rho[c, d] a[i, c, n] conj(a[j, d, n]) over n and over the pairs with
    gaps[i, c] == gaps[j, d], which share a Kraus operator."""
    a, d, gaps = np.asarray(a), spec.d, spec.gaps
    if a.shape[-3:-1] != (d, d) or np.shape(rho) != (d, d):
        raise ValueError("dimension mismatch")
    same_mode = gaps[:, :, None, None] == gaps[None, None]  # [i, c, j, d]
    rows = a.reshape(a.shape[:-3] + (d * d, a.shape[-1]))
    gram = (rows @ rows.conj().swapaxes(-1, -2)).reshape(a.shape[:-3] + (d, d, d, d))
    return np.einsum("...icjd,icjd->...ij", gram, same_mode * np.asarray(rho)[:, None, :])


def sto_population_matrix(blocks: BlockUnitary, q: float) -> np.ndarray:
    """Population matrix of the untruncated-mode ladder channel whose shell
    blocks follow `blocks` up to the top shell and are identity above (one
    (d, d) matrix per batch member).

    Exactly Gibbs stochastic: column k sums the geometric weights
    (1-q) q^n times |U[:, k, n]|^2 over the `_shell_columns` U of the stack
    (shells k..top hold input level k), plus the identity tail
    q^max(0, top-k+1) on the diagonal.  Useful where membership tolerances
    are tighter than any finite truncation error.  q must be finite and
    within [0, 1], as in `gibbs_ladder`."""
    q = require_finite(q, "q", low=0.0, high=1.0)
    d, top = blocks.d, blocks.top_shell
    count = max(1, top + 1)  # an empty stack still reads one (zero) column
    weights = _mode_weights(q, count)
    tail = [q ** max(0, top - k + 1) for k in range(d)]
    # cumsum adds the shells in order, like a running +=; a sum may pair
    # them up and change the last bits.  Adding the tail also turns the
    # strided [..., -1] view into a C-contiguous matrix, which `g @ p`
    # rounds like every other matrix.
    g = np.cumsum(weights * np.abs(_shell_columns(blocks.stack, count)) ** 2, axis=-1)[..., -1]
    return g + np.diag(tail)


def exto_optimal_channel(G, spec: SystemSpec) -> KrausChannel:
    """Covariant channel achieving the largest coherence transfer compatible
    with the given population dynamics: one Kraus operator per energy gap,
    E_gap = sum_k sqrt(G[k_gap, k]) |k_gap><k|.

    CPTP exactly whenever G is column stochastic; Gibbs preserving iff G is
    Gibbs stochastic.  Requires strictly increasing energies so each (level,
    gap) pair has at most one partner."""
    g = require_stochastic(G, "G")
    if g.shape != (spec.d, spec.d):
        raise ValueError("dimension mismatch")
    if any(b <= a for a, b in zip(spec.energies, spec.energies[1:])):
        raise ValueError("energies must be strictly increasing")
    gaps = spec.gaps
    shifts = np.unique(gaps)
    kraus = (np.sqrt(np.maximum(g, 0.0)) * (gaps == shifts[:, None, None])).astype(complex)
    keep = np.linalg.norm(kraus, axis=(1, 2)) > PRUNE_TOL
    return KrausChannel(kraus[keep], tuple(int(s) for s in shifts[keep]))


@dataclass(frozen=True)
class VerifyReport:
    deviation: float
    passed: bool


def verify_gibbs_preserving(ch: KrausChannel, gamma, tol: float = CERTIFY_TOL) -> VerifyReport:
    """Trace distance between channel(gamma) and gamma, a density matrix."""
    gamma = require_density(gamma, "gamma")
    dev = trace_distance(ch.apply(gamma), gamma)
    return VerifyReport(deviation=dev, passed=dev <= tol)


def verify_covariant(ch: KrausChannel, spec: SystemSpec, tol: float = CERTIFY_TOL) -> VerifyReport:
    """Covariance under free evolution, exactly.

    The channel maps |k><l| into entries |i><j| with weight C[(i, k), (j, l)]
    of its Choi matrix; it commutes with exp(-iHt) for every t iff that
    weight vanishes whenever E_i - E_k != E_j - E_l.  The deviation is the
    largest such weight, and for a tagged channel also the largest entry of
    an operator that lies off its tagged shift."""
    if spec.d != ch.dim:
        raise ValueError("dimension mismatch")
    gaps = spec.gaps
    g = gaps.ravel()
    dev = np.abs(ch.choi()[g[:, None] != g[None, :]]).max(initial=0.0)
    if ch.shifts is not None:
        off = gaps != np.asarray(ch.shifts)[:, None, None]
        dev = max(dev, np.abs(ch.kraus[off]).max(initial=0.0))
    dev = float(dev)
    return VerifyReport(deviation=dev, passed=dev <= tol)
