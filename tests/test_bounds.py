import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermops.core import BathSpec, SystemSpec, require_density
from thermops.channels import (
    haar_stack,
    random_blocks,
    shell_sto_channel,
    simultaneous_beta_swap_kraus,
    sto_channel,
    transition_matrix,
)
from thermops.bounds import (
    decoupling_witness,
    merge_down_bound,
    merge_up_bound,
    overlap_merge_bounds,
    qubit_damping_bound,
    saturation_check,
    symmetric_bound,
)


def test_symmetric_bound_hand_value():
    g = np.array([[0.7, 0.4, 0.2], [0.2, 0.4, 0.3], [0.1, 0.2, 0.5]])
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho[1, 0] = rho[0, 1] = 0.2
    rho[2, 1] = rho[1, 2] = 0.15
    spec = SystemSpec.ladder(3)
    want = 0.2 * math.sqrt(0.4 * 0.7) + 0.15 * math.sqrt(0.3 * 0.4)
    assert symmetric_bound(rho, g, spec, 1, 0) == pytest.approx(want, abs=1e-15)
    # the gap-2 mode only holds the (2,0) entry, which is zero here
    assert symmetric_bound(rho, g, spec, 2, 0) == 0.0
    with pytest.raises(ValueError):
        symmetric_bound(rho, g[:2, :2], spec, 1, 0)
    with pytest.raises(ValueError, match="^dimension mismatch"):
        symmetric_bound(np.full((2, 5), 0.5), np.eye(2), SystemSpec.ladder(2), 1, 0)


def _loop_symmetric_bound(rho, g, spec, i, j):
    """The bound as an entry-by-entry double loop, the reference for the
    array form."""
    e = spec.energies
    total = 0.0
    for c in range(spec.d):
        for dd in range(spec.d):
            if e[c] - e[dd] == e[i] - e[j] and rho[c, dd] != 0:
                total += abs(rho[c, dd]) * math.sqrt(max(g[i, c], 0.0) * max(g[j, dd], 0.0))
    return total


def test_symmetric_bound_matches_the_loop_bit_for_bit(rng):
    # d = 9 holds modes of 8 or more entries, where np.sum adds pairwise
    specs = [SystemSpec.ladder(d) for d in (2, 3, 4, 6, 9)]
    specs += [SystemSpec.four_level(1, 3), SystemSpec.four_level(2, 2)]
    for _ in range(400):
        spec = specs[int(rng.integers(len(specs)))]
        d = spec.d
        rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho[rng.random((d, d)) < 0.2] = 0.0
        g = rng.random((d, d))
        g[rng.random((d, d)) < 0.1] = -1e-13  # dust below zero is clipped
        i, j = (int(k) for k in rng.integers(d, size=2))
        assert symmetric_bound(rho, g, spec, i, j) == _loop_symmetric_bound(rho, g, spec, i, j)


def test_symmetric_bound_batched_equals_the_loop(rng):
    for spec in (SystemSpec.ladder(3), SystemSpec.four_level(1, 3), SystemSpec.ladder(9)):
        d = spec.d
        rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho[rng.random((d, d)) < 0.2] = 0.0
        rho[d - 1, 0] = 0.0  # the corner mode holds no nonzero entry: the bound is 0
        g = rng.random((5, 4, d, d))
        g[rng.random(g.shape) < 0.1] = -1e-13
        for i, j in ((1, 0), (0, 1), (d - 1, 0), (d - 1, d - 1)):
            got = symmetric_bound(rho, g, spec, i, j)
            want = [[_loop_symmetric_bound(rho, gg, spec, i, j) for gg in row] for row in g]
            assert got.shape == (5, 4) and np.array_equal(got, want)
            assert type(symmetric_bound(rho, g[2, 3], spec, i, j)) is float
    with pytest.raises(ValueError, match="^dimension mismatch"):
        symmetric_bound(np.eye(3) / 3, np.ones((5, 3, 4)), SystemSpec.ladder(3), 1, 0)


_QUTRIT = SystemSpec.ladder(3)
_RHO3 = np.eye(3, dtype=complex) / 3
_G3 = np.eye(3)
_SWAP4 = simultaneous_beta_swap_kraus(0.5, e2=1)


@pytest.mark.parametrize(
    "name, call",
    [
        ("i", lambda: symmetric_bound(_RHO3, _G3, _QUTRIT, 3, 0)),
        ("i", lambda: symmetric_bound(_RHO3, _G3, _QUTRIT, -1, 0)),
        ("j", lambda: symmetric_bound(_RHO3, _G3, _QUTRIT, 0, 1.5)),
        ("G", lambda: symmetric_bound(_RHO3, np.full((3, 3), np.nan), _QUTRIT, 1, 0)),
        ("G", lambda: symmetric_bound(_RHO3, np.diag([1.0, np.inf, 1.0]), _QUTRIT, 1, 1)),
        ("rho", lambda: symmetric_bound(np.full((3, 3), np.nan), _G3, _QUTRIT, 1, 0)),
        ("rho", lambda: symmetric_bound(np.full((3, 3), np.inf), _G3, _QUTRIT, 1, 0)),
        ("rho", lambda: symmetric_bound(np.diag([0.5, -np.inf, 0.5]), _G3, _QUTRIT, 1, 1)),
        ("i", lambda: saturation_check(_SWAP4, np.eye(4) / 4, SystemSpec.four_level(1, 1), -2, -3)),
        ("j", lambda: saturation_check(_SWAP4, np.eye(4) / 4, SystemSpec.four_level(1, 1), 1, 4)),
    ],
)
def test_level_index_checks(name, call):
    with pytest.raises(ValueError, match=f"^{name} must"):
        call()


class TestMergeBounds:
    def test_known_values(self):
        down = merge_down_bound(0.1, 0.2, 0.5)
        assert down.bound == pytest.approx(0.25)
        assert down.strategy == "simultaneous-beta-swap"
        down2 = merge_down_bound(0.3, 0.1, 0.5)
        assert down2.bound == pytest.approx(0.3)
        assert down2.strategy == "identity"
        up = merge_up_bound(0.1, 0.2, 0.5)
        assert up.bound == pytest.approx(0.2)
        assert up.strategy == "identity"
        up2 = merge_up_bound(0.4, 0.1, 0.8)
        assert up2.bound == pytest.approx(0.32)
        assert up2.strategy == "simultaneous-beta-swap"

    def test_tie_prefers_identity(self):
        # swap branch equals keep branch when r32 = x * r10
        assert merge_down_bound(0.2, 0.1, 0.5).strategy == "identity"
        assert merge_up_bound(0.2, 0.1, 0.5).strategy == "identity"

    def test_validation(self):
        with pytest.raises(ValueError):
            merge_down_bound(-0.1, 0.2, 0.5)
        with pytest.raises(ValueError):
            merge_up_bound(0.1, 0.2, 1.0)
        # (1 - x) r10 + r32 = 2.55e308 overflows
        with pytest.raises(ValueError, match="r10 = 1.7e.308, r32 = 1.7e.308, x = 0.5"):
            merge_down_bound(1.7e308, 1.7e308, 0.5)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.01, 0.99),
    )
    def test_monotone_in_magnitudes(self, r10, r32, bump, x):
        for fn in (merge_down_bound, merge_up_bound):
            base = fn(r10, r32, x).bound
            assert fn(r10 + bump, r32, x).bound >= base - 1e-12
            assert fn(r10, r32 + bump, x).bound >= base - 1e-12


def test_overlap_merge_bounds_values():
    assert overlap_merge_bounds(0.3, 0.1, 0.5) == pytest.approx({"down": 0.3, "up": 0.15})
    got = overlap_merge_bounds(0.1, 0.3, 0.5)
    assert got["down"] == pytest.approx(math.sqrt(0.0975), abs=1e-15)
    assert got["up"] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        overlap_merge_bounds(-0.1, 0.3, 0.5)
    with pytest.raises(ValueError):
        overlap_merge_bounds(0.1, 0.3, 1.5)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_overlap_merge_bounds_at_extreme_scales(scale):
    # the bounds are homogeneous in (a, b): no square may overflow or underflow
    got = overlap_merge_bounds(scale, scale, 0.5)
    assert got["down"] == pytest.approx(math.sqrt(1.75) * scale, rel=1e-15, abs=0.0)
    assert got["up"] == scale


def test_qubit_damping_bound():
    assert qubit_damping_bound(0.0, 0.5) == 1.0  # identity
    assert qubit_damping_bound(1.0, 0.5) == 0.0  # full exchange
    assert qubit_damping_bound(0.5, 0.5) == pytest.approx(math.sqrt(0.375), abs=1e-15)
    for share in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError, match="^share must"):
            qubit_damping_bound(share, 0.5)


@pytest.mark.parametrize("q, share", [(1e-4, 1.0), (1e-8, 0.5), (1e-12, 1.0), (1e-12, 0.5)])
def test_qubit_damping_bound_is_exact_at_small_q(q, share):
    # sqrt(p00 p11) with p00 = 1 - share q and p11 = 1 - share, the product
    # taken in exact rational arithmetic
    exact = math.sqrt((1 - Fraction(share) * Fraction(q)) * (1 - Fraction(share)))
    assert qubit_damping_bound(share, q) == pytest.approx(exact, rel=0.0, abs=1e-15)


def test_saturation_check_exact_swap():
    x = 0.5
    ch = simultaneous_beta_swap_kraus(x, e2=1)
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 0] = rho[0, 1] = 0.1
    rho[3, 2] = rho[2, 3] = 0.15
    rep = saturation_check(ch, rho, SystemSpec.four_level(1, 1), 1, 0)
    assert rep.achieved == pytest.approx((1 - x) * 0.1 + 0.15, abs=1e-15)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_saturation_check_vanishing_bound():
    # reset-to-ground empties the excited level, so the population product
    # under the square root vanishes: bound 0, ratio defined as 1
    k0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    k1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    from thermops.channels import KrausChannel

    ch = KrausChannel((k0, k1), (0, -1))
    rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    rep = saturation_check(ch, rho, SystemSpec.ladder(2), 1, 0)
    assert rep.bound == 0.0
    assert rep.ratio == 1.0


class TestDecoupling:
    def test_oracle_point(self):
        w = decoupling_witness(0.8, 0.1, 0.3, 0.5)
        assert w.product_coherence == pytest.approx(0.112)
        assert w.exto_bound == pytest.approx(0.1)
        assert not w.reachable
        assert w.condition_holds
        assert not w.condition_vacuous

    def test_vacuous_window(self):
        w = decoupling_witness(0.4, 0.1, 0.3, 0.5)
        assert w.condition_vacuous
        assert not w.condition_holds

    def test_validation(self):
        with pytest.raises(ValueError):
            decoupling_witness(1.0, 0.1, 0.3, 0.5)
        with pytest.raises(ValueError):
            decoupling_witness(0.8, -0.1, 0.3, 0.5)

    def test_verdict_does_not_depend_on_scale(self):
        # product 9.45 s vs bound 9 s: unreachable at every scale s
        for k in range(-300, 301):
            w = decoupling_witness(0.9, 10.0**k, 1.5 * 10.0**k, 0.5)
            assert (w.reachable, w.condition_holds) == (False, True), k

    @given(
        st.floats(0.05, 0.95),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.05, 0.95),
    )
    def test_condition_implies_unreachable(self, p, a, b, q):
        w = decoupling_witness(p, a, b, q)
        if w.condition_holds:
            assert not w.reachable


# ---------------------------------------------------------------------------
# random-channel no-violation sweeps (desk scale; the full 10^4 sweeps run in
# the acceptance suite with batched kernels)


def four_level_haar_channel(rng, x, n_keep, e2=2):
    spec = SystemSpec.four_level(1, e2)
    bath = BathSpec.from_q(x, n_keep, epsilon=e2)

    def block(energy, states):
        if len(states) == 1:
            phase = np.exp(2j * np.pi * rng.random())
            return np.array([[phase]])
        return haar_stack(rng, 1, 2)[0]

    return shell_sto_channel(spec, bath, block)


@pytest.mark.parametrize("x", [0.3, 0.5, 0.8])
def test_random_four_level_channels_respect_merge_bounds(x, rng):
    r10, r32 = 0.21, 0.13
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 0] = rho[0, 1] = r10
    rho[3, 2] = rho[2, 3] = r32
    down = merge_down_bound(r10, r32, x).bound
    up = merge_up_bound(r10, r32, x).bound
    for _ in range(60):
        out = four_level_haar_channel(rng, x, 20).apply(rho)
        assert abs(out[1, 0]) <= down + 1e-9
        assert abs(out[3, 2]) <= up + 1e-9


def test_random_qutrit_channels_respect_overlap_bounds(rng):
    q = 0.5
    a, b = 0.2, 0.12
    rho = require_density([[0.5, 0.2, 0.0], [0.2, 0.3, 0.12], [0.0, 0.12, 0.2]], "rho")
    bounds = overlap_merge_bounds(a, b, q)
    bath = BathSpec.from_q(q, 20)
    spec = SystemSpec.ladder(3)
    for _ in range(100):
        ch = sto_channel(random_blocks(3, 22, rng), spec, bath)
        out = ch.apply(rho)
        assert abs(out[1, 0]) <= bounds["down"] + 1e-9
        assert abs(out[2, 1]) <= bounds["up"] + 1e-9


def test_symmetric_bound_holds_on_measured_dynamics(rng):
    """Cauchy-Schwarz form with the channel's own transition matrix: exact
    for every assembled channel, truncated or not."""
    bath = BathSpec.from_q(0.8, 15)
    spec = SystemSpec.ladder(3)
    rho = require_density([[0.5, 0.2, 0.1], [0.2, 0.3, 0.15], [0.1, 0.15, 0.2]], "rho")
    for _ in range(40):
        ch = sto_channel(random_blocks(3, 17, rng), spec, bath)
        g = transition_matrix(ch)
        out = ch.apply(rho)
        for i, j in ((1, 0), (2, 1), (2, 0)):
            assert abs(out[i, j]) <= symmetric_bound(rho, g, spec, i, j) + 1e-10
