import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermops.core import (
    BathSpec,
    DensityMatrix,
    SystemSpec,
    gibbs_ladder,
    gibbs_state,
    mode_decompose,
    populations,
    renyi_divergence,
    require_count,
    require_distribution,
    require_finite,
    require_unit_interval,
    time_translate,
    trace_distance,
)


def random_density(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    return DensityMatrix(m / np.trace(m))


class TestSpecs:
    def test_ladder(self):
        spec = SystemSpec.ladder(3)
        assert spec.energies == (0, 1, 2)
        assert spec.d == 3
        assert spec.gap(2, 0) == 2
        assert spec.gap(0, 2) == -2
        assert SystemSpec.ladder(2, spacing=3).energies == (0, 3)

    def test_four_level(self):
        assert SystemSpec.four_level(1, 3).energies == (0, 1, 3, 4)
        # degenerate middle pair is allowed, order e1 > e2 is not
        assert SystemSpec.four_level(2, 2).energies == (0, 2, 2, 4)
        with pytest.raises(ValueError):
            SystemSpec.four_level(3, 1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SystemSpec((1, 2))  # ground must sit at 0
        with pytest.raises(ValueError):
            SystemSpec((0, 0.5))
        with pytest.raises(ValueError):
            SystemSpec((0, 2, 1))

    def test_bath(self):
        bath = BathSpec.from_q(0.5, 20)
        assert bath.q == pytest.approx(0.5, abs=1e-15)
        w = bath.gibbs_weights()
        assert w.shape == (21,)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert w[1] / w[0] == pytest.approx(0.5, abs=1e-14)
        # epsilon scales beta so q is per mode quantum
        assert BathSpec.from_q(0.25, 5, epsilon=2).q == pytest.approx(0.25, abs=1e-15)

    def test_bath_validation(self):
        with pytest.raises(ValueError):
            BathSpec.from_q(0.0, 10)
        with pytest.raises(ValueError):
            BathSpec.from_q(1.0, 10)
        with pytest.raises(ValueError):
            BathSpec.from_q(0.5, 0)
        with pytest.raises(ValueError):
            BathSpec(beta=-1.0, truncation=10)
        with pytest.raises(ValueError):
            BathSpec(beta=math.nan, truncation=10)
        with pytest.raises(ValueError):
            BathSpec.from_q(math.nan, 10)


class TestDensityMatrix:
    def test_diagonal_and_pure(self):
        rho = DensityMatrix.diagonal([0.7, 0.3])
        assert populations(rho) == pytest.approx([0.7, 0.3])
        psi = DensityMatrix.pure([1.0, 1.0])
        assert psi.mat[0, 1] == pytest.approx(0.5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            DensityMatrix([[0.5, 0.4], [0.1, 0.5]])  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix([[1.2, 0.0], [0.0, -0.2]])  # negative eigenvalue
        with pytest.raises(ValueError):
            DensityMatrix.pure([0.0, 0.0])

    def test_readonly(self):
        rho = DensityMatrix.diagonal([1.0, 0.0])
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 2.0


class TestInputChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, 2.0])
    def test_finite_with_bounds(self, bad):
        assert require_finite(0.5, "x", low=0.0, high=1.0) == 0.5
        with pytest.raises(ValueError):
            require_finite(bad, "x", low=0.0, high=1.0)
        with pytest.raises(ValueError):
            require_finite([0.5, bad], "x", low=0.0, high=1.0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, math.nan, math.inf])
    def test_unit_interval(self, bad):
        assert require_unit_interval(0.25, "q") == 0.25
        with pytest.raises(ValueError):
            require_unit_interval(bad, "q")

    @pytest.mark.parametrize("bad", [-1, 0.5, math.nan, math.inf, "3"])
    def test_count(self, bad):
        assert require_count(np.int64(3), "n") == 3
        assert require_count(2.0, "n", 1) == 2
        with pytest.raises(ValueError):
            require_count(bad, "n")
        with pytest.raises(ValueError):
            require_count(0, "n", 1)

    @pytest.mark.parametrize(
        "bad", [[math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0], [0.5, 0.6, -0.1], [0.5, 0.5, 1e-8]]
    )
    def test_distribution(self, bad):
        # float dust within the policy passes
        assert require_distribution([0.5, 0.5 + 5e-10, -5e-13], "p").shape == (3,)
        with pytest.raises(ValueError):
            require_distribution(bad, "p")

    def test_gibbs_ladder(self):
        assert gibbs_ladder(3, 0.5) == pytest.approx(np.array([4.0, 2.0, 1.0]) / 7.0, abs=1e-15)
        assert list(gibbs_ladder(3, 0.0)) == [1.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            gibbs_ladder(3, math.nan)
        with pytest.raises(ValueError):
            gibbs_ladder(3, 1.5)
        with pytest.raises(ValueError):
            gibbs_ladder(0, 0.5)


def test_gibbs_state_matches_weights():
    spec = SystemSpec.four_level(1, 3)
    beta = math.log(2.0)
    g = gibbs_state(spec, beta)
    w = np.exp(-beta * np.array([0, 1, 3, 4]))
    assert populations(g) == pytest.approx(w / w.sum(), abs=1e-15)
    with pytest.raises(ValueError):
        gibbs_state(spec, -0.1)
    with pytest.raises(ValueError):
        gibbs_state(spec, math.inf)


def test_gibbs_state_is_free_evolution_fixed_point():
    spec = SystemSpec.ladder(3)
    g = gibbs_state(spec, 0.7)
    for t in (0.0, 0.3, 2.0, 17.5):
        assert np.abs(time_translate(g, spec, t).mat - g.mat).max() <= 1e-15


class TestModes:
    def test_decompose_reassemble(self, rng):
        spec = SystemSpec.four_level(1, 2)
        rho = random_density(rng, 4)
        ms = mode_decompose(rho, spec)
        assert np.abs(ms.reassemble() - rho.mat).max() <= 1e-12
        # each mode only holds entries of its own gap
        for m, blk in ms.modes.items():
            for i in range(4):
                for j in range(4):
                    if blk[i, j] != 0:
                        assert spec.gap(i, j) == m

    def test_absent_mode_is_zero(self):
        spec = SystemSpec.ladder(2)
        ms = mode_decompose(DensityMatrix.diagonal([0.5, 0.5]), spec)
        assert np.all(ms[1] == 0)
        assert np.all(ms[5] == 0)

    def test_translate_phases_modes(self, rng):
        spec = SystemSpec.four_level(1, 3)
        rho = random_density(rng, 4)
        t = 0.37
        before = mode_decompose(rho, spec)
        after = mode_decompose(time_translate(rho, spec, t), spec)
        assert populations(time_translate(rho, spec, t)) == pytest.approx(
            populations(rho), abs=1e-15
        )
        for m in before.modes:
            expect = np.exp(-1j * m * t) * before[m]
            assert np.abs(after[m] - expect).max() <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    def test_reassemble_random_hermitian(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        d = int(rng.integers(2, 5))
        steps = rng.integers(0, 4, size=d - 1)  # repeated energies allowed
        spec = SystemSpec((0, *np.cumsum(steps).tolist()))
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = h + h.conj().T
        ms = mode_decompose(h, spec)
        assert np.abs(ms.reassemble() - h).max() <= 1e-12


ALPHAS = (-math.inf, -2.0, 0.0, 0.5, 1.0, 2.0, math.inf)


class TestRenyi:
    def test_nonnegative_and_zero_at_equality(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 6))
            p = rng.random(d) + 1e-3
            p /= p.sum()
            g = rng.random(d) + 1e-3
            g /= g.sum()
            for alpha in ALPHAS:
                assert renyi_divergence(p, g, alpha) >= -1e-12
                assert abs(renyi_divergence(p, p, alpha)) <= 1e-12

    def test_strictly_positive_when_different(self, rng):
        # all orders except 0 separate full-support distributions; order 0
        # needs a support gap to see the difference
        p = np.array([0.7, 0.2, 0.1])
        g = np.array([0.5, 0.3, 0.2])
        for alpha in (-math.inf, -2.0, 0.5, 1.0, 2.0, math.inf):
            assert renyi_divergence(p, g, alpha) > 1e-4
        assert renyi_divergence(p, g, 0.0) == 0.0
        assert renyi_divergence([1.0, 0.0], [0.5, 0.5], 0.0) == pytest.approx(math.log(2.0))

    def test_closed_forms(self):
        p = np.array([0.8, 0.2])
        g = np.array([2.0 / 3.0, 1.0 / 3.0])
        assert renyi_divergence(p, g, math.inf) == pytest.approx(math.log(1.2))
        assert renyi_divergence(p, g, -math.inf) == pytest.approx(-math.log(0.6))
        kl = 0.8 * math.log(0.8 / (2 / 3)) + 0.2 * math.log(0.2 / (1 / 3))
        assert renyi_divergence(p, g, 1.0) == pytest.approx(kl, abs=1e-14)
        # order 2 by hand
        s = 0.8**2 / (2 / 3) + 0.2**2 / (1 / 3)
        assert renyi_divergence(p, g, 2.0) == pytest.approx(math.log(s), abs=1e-14)

    def test_infinities(self):
        # mass of p where g vanishes: +inf at every order
        assert renyi_divergence([0.5, 0.5], [1.0, 0.0], 2.0) == math.inf
        assert renyi_divergence([0.5, 0.5], [1.0, 0.0], -math.inf) == math.inf
        # negative order with a zero in p
        assert renyi_divergence([1.0, 0.0], [0.5, 0.5], -2.0) == math.inf
        assert renyi_divergence([1.0, 0.0], [0.5, 0.5], -math.inf) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            renyi_divergence([0.5, 0.6], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError):
            renyi_divergence([0.5, 0.5], [0.5, -0.5], 1.0)
        with pytest.raises(ValueError):
            renyi_divergence([math.nan, 0.5, 0.5], [0.4, 0.3, 0.3], 2.0)
        with pytest.raises(ValueError):
            renyi_divergence([0.5, 0.5], [math.inf, 0.5], 2.0)
        with pytest.raises(ValueError):
            renyi_divergence([0.5, 0.5], [0.4, 0.6], math.nan)

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
        st.sampled_from(ALPHAS),
    )
    def test_nonnegative_property(self, pw, gw, alpha):
        d = min(len(pw), len(gw))
        p = np.array(pw[:d]) / sum(pw[:d])
        g = np.array(gw[:d]) / sum(gw[:d])
        assert renyi_divergence(p, g, alpha) >= -1e-12


def test_trace_distance():
    a = DensityMatrix.diagonal([0.8, 0.2])
    b = DensityMatrix.diagonal([0.6, 0.4])
    assert trace_distance(a, b) == pytest.approx(0.2, abs=1e-14)
    assert trace_distance(a, a) == 0.0
    with pytest.raises(ValueError):
        trace_distance(a, DensityMatrix.diagonal([0.5, 0.3, 0.2]))
