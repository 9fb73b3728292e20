"""Sampled free-evolution check: the reference for the exact covariance
certificate.

A channel is covariant when it commutes with free evolution,
channel(U rho U^dagger) == U channel(rho) U^dagger for U = exp(-iHt).
`sampled_covariance_deviation` tests that identity directly, through
`KrausChannel.apply` on every matrix unit at a few incommensurate times, so
the tests can hold `thermops.channels.verify_covariant`, which reads
covariance off the Choi matrix, against a method that shares no code with it.
"""

from __future__ import annotations

import numpy as np

TIMES = (0.1, 0.7, 2.3)


def sampled_covariance_deviation(ch, spec) -> float:
    """Largest entry of channel(U rho U^dagger) - U channel(rho) U^dagger
    over the matrix units rho = |a><b| and the times in TIMES."""
    energies = np.asarray(spec.energies, dtype=float)
    dev = 0.0
    for t in TIMES:
        phases = np.exp(-1j * t * energies)
        u = np.outer(phases, phases.conj())
        for a in range(spec.d):
            for b in range(spec.d):
                rho = np.zeros((spec.d, spec.d), dtype=complex)
                rho[a, b] = 1.0
                delta = ch.apply(u * rho) - u * ch.apply(rho)
                dev = max(dev, float(np.abs(delta).max()))
    return dev
