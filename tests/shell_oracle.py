"""Shell-by-shell reference for the stacked block readers and families.

`thermops.channels` reads a `BlockUnitary` through its zero-padded
`(shells, d, d)` stack with one array slice per input level.  The functions
here walk the shells one at a time, block by block, the way the library did
before the stack existed, so the tests can require the stacked results to be
bit-identical (`np.array_equal`, not a tolerance) to a construction that
shares no array code with them.  The block families are built one shell
block at a time and zero-padded into a stack only at the end.
"""

from __future__ import annotations

import numpy as np

from thermops.channels import BlockUnitary


def loop_population_matrix(blocks: BlockUnitary, q: float) -> np.ndarray:
    """Untruncated-mode population matrix, one `+=` per (column, shell).

    Valid for top_shell >= d - 2; below that the tail exponent turns
    negative."""
    d, top = blocks.d, blocks.top_shell
    g = np.zeros((d, d))
    for k in range(d):
        for n in range(top - k + 1):
            blk = blocks.stack[k + n]
            w = (1.0 - q) * q**n
            rows = min(d, k + n + 1)
            g[:rows, k] += w * np.abs(blk[:rows, k]) ** 2
        g[k, k] += q ** (top - k + 1)
    return g


def loop_a_vectors(blocks: BlockUnitary, bath) -> np.ndarray:
    """Amplitude array A[k_out, k_in, n], one assignment per (k_in, n)."""
    d, n_keep = blocks.d, bath.truncation
    weights = bath.gibbs_weights()
    a = np.zeros((d, d, n_keep + 1), dtype=complex)
    for k_in in range(d):
        for n in range(n_keep + 1):
            blk = blocks.stack[k_in + n]
            rows = min(d, k_in + n + 1)
            a[:rows, k_in, n] = np.sqrt(weights[n]) * blk[:rows, k_in]
    return a


def _padded(mats, d: int) -> np.ndarray:
    """The per-shell blocks mats as one zero-padded (shells, d, d) stack."""
    stack = np.zeros((len(mats), d, d))
    for j, m in enumerate(mats):
        stack[j, : len(m), : len(m)] = m
    return stack


def loop_permutation_blocks(d: int, top_shell: int, perm) -> np.ndarray:
    """Per-shell blocks of a level permutation, as a zero-padded stack: full
    shells apply it, partial shells stay identity unless the permutation
    preserves them."""
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
    return _padded(mats, d)


def loop_damping_blocks(d: int, top_shell: int, pair, r: float) -> np.ndarray:
    """Per-shell rotations of one level pair with cos = r^(j/2), as a
    zero-padded stack."""
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
    return _padded(mats, d)
