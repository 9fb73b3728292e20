"""Closed-form limits on coherence dynamics under covariant Gibbs-preserving
channels, and the decoupling no-go witness.

All bounds are statements about magnitudes; callers who want saturation must
align the phases of the input coherences themselves (the test states used
throughout carry positive real off-diagonals).  Coherence modes are read
from `SystemSpec.gaps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SystemSpec, require_finite, require_levels, require_unit_interval
from .channels import KrausChannel, transition_matrix

REACH_RTOL = 1e-12  # relative float allowance of the decoupling verdict, which is homogeneous in (a, b)


def symmetric_bound(rho, G, spec: SystemSpec, i: int, j: int):
    """Largest |<i| channel(rho) |j>| compatible with population dynamics G
    for any channel covariant under free evolution:
    sum over same-mode entries (c, d) of |rho_cd| sqrt(G[i,c] G[j,d]).
    rho must be a finite (d, d) array, G a finite (..., d, d) batch and i and
    j levels of the system.  The terms are added one by one in row-major
    order (`cumsum`), with |rho_cd| from `hypot`, so each value (a float for
    one G) is that of the plain scalar sum."""
    m = np.asarray(rho)
    g = np.asarray(G, dtype=float)
    if m.shape != (spec.d, spec.d) or g.shape[-2:] != (spec.d, spec.d):
        raise ValueError("dimension mismatch")
    if not np.isfinite(m).all():
        raise ValueError("rho must have finite entries")
    require_finite(g, "G")
    (i,) = require_levels((i,), "i", spec.d, 1)
    (j,) = require_levels((j,), "j", spec.d, 1)
    gaps = spec.gaps
    mode = (gaps == gaps[i, j]) & (m != 0)
    weight = np.sqrt(np.maximum(g[..., i, :, None], 0.0) * np.maximum(g[..., j, None, :], 0.0))
    terms = np.hypot(m.real, m.imag)[mode] * weight[..., mode]
    total = np.cumsum(terms, axis=-1)[..., -1] if mode.any() else np.zeros(g.shape[:-2])
    return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class MergeBoundReport:
    bound: float
    strategy: str  # "identity" or "simultaneous-beta-swap"; ties go to identity


def _merge_report(r10, r32, x, keep, swap):
    require_finite(r10, "r10", low=0.0)
    require_finite(r32, "r32", low=0.0)
    require_unit_interval(x, "x")
    bound = max(keep, swap)
    if not math.isfinite(bound):
        raise ValueError(f"merge bound overflows at r10 = {r10}, r32 = {r32}, x = {x}")
    strategy = "simultaneous-beta-swap" if swap > keep else "identity"
    return MergeBoundReport(bound=bound, strategy=strategy)


def merge_down_bound(r10: float, r32: float, x: float) -> MergeBoundReport:
    """Largest |rho'_10| reachable when two coherences share a gap:
    max(r10, (1-x) r10 + r32).  The second branch is what the simultaneous
    swap produces on phase-aligned inputs."""
    return _merge_report(r10, r32, x, keep=r10, swap=(1.0 - x) * r10 + r32)


def merge_up_bound(r10: float, r32: float, x: float) -> MergeBoundReport:
    """Largest |rho'_32| reachable: max(x*r10, r32).  The first branch is
    the simultaneous-swap branch."""
    return _merge_report(r10, r32, x, keep=r32, swap=x * r10)


def overlap_merge_bounds(a: float, b: float, q: float) -> dict:
    """Tighter merging limits for a ladder's two overlapping gap-1 pairs
    (entries (1,0) and (2,1), magnitudes a and b):
    down: max(sqrt((1-q^2) a^2 + b^2), a); up: max(a q, b)."""
    a = require_finite(a, "a", low=0.0)
    b = require_finite(b, "b", low=0.0)
    q = require_unit_interval(q, "q")
    down = max(math.hypot(math.sqrt((1.0 - q) * (1.0 + q)) * a, b), a)  # hypot: no square over- or underflows
    up = max(a * q, b)
    return {"down": down, "up": up}


def qubit_damping_bound(share: float, q: float) -> float:
    """Largest qubit coherence damping factor at exchanged share in [0, 1]
    (the part of the excited population moved down): sqrt(p00 * p11) with
    p00 = 1 - share * q and p11 = 1 - share."""
    share = require_finite(share, "share", low=0.0, high=1.0)
    q = require_unit_interval(q, "q")
    return math.sqrt((1.0 - share * q) * (1.0 - share))


@dataclass(frozen=True)
class SaturationReport:
    achieved: float
    bound: float
    ratio: float  # defined as 1 when the bound vanishes


def saturation_check(ch: KrausChannel, rho, spec: SystemSpec, i: int, j: int) -> SaturationReport:
    """Compare the coherence a channel actually delivers at (i, j) against
    the symmetric bound evaluated on its own measured population dynamics
    (which checks i and j before they index the output)."""
    bound = symmetric_bound(rho, transition_matrix(ch), spec, i, j)
    achieved = abs(complex(ch.apply(rho)[i, j]))
    ratio = 1.0 if bound == 0.0 else achieved / bound
    return SaturationReport(achieved=achieved, bound=bound, ratio=ratio)


@dataclass(frozen=True)
class DecouplingWitness:
    p: float
    a: float
    b: float
    q: float
    product_coherence: float
    exto_bound: float
    reachable: bool
    condition_holds: bool   # a < b < a p (p+q-1) / (1-p)^2, strict
    condition_vacuous: bool  # p + q <= 1: the window above is empty


def decoupling_witness(p: float, a: float, b: float, q: float) -> DecouplingWitness:
    """Can erasing correlations be a thermal process?

    Two resonant qubits share diagonal weights (population split p) and
    carry coherences a (lower pair) and b (upper pair).  Mapping the state
    to the product of its marginals needs output coherence
    p (p a + (1-p) b), while no covariant Gibbs-preserving channel delivers
    more than max((1-q) p a + (1-p) b, p a) on that mode.  Whenever
    a < b < a p (p+q-1)/(1-p)^2 the requirement exceeds the limit, so the
    decoupled state is unreachable."""
    p = require_unit_interval(p, "p")
    q = require_unit_interval(q, "q")
    a = require_finite(a, "a", low=0.0)
    b = require_finite(b, "b", low=0.0)
    product = p * (p * a + (1.0 - p) * b)
    bound = max((1.0 - q) * p * a + (1.0 - p) * b, p * a)
    vacuous = p + q - 1.0 <= 0.0
    threshold = a * p * (p + q - 1.0) / (1.0 - p) ** 2
    holds = (not vacuous) and (a < b < threshold)
    return DecouplingWitness(
        p=p,
        a=a,
        b=b,
        q=q,
        product_coherence=product,
        exto_bound=bound,
        reachable=product <= bound * (1.0 + REACH_RTOL),
        condition_holds=holds,
        condition_vacuous=vacuous,
    )
