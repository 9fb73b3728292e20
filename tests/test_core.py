import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermops.channels import simultaneous_beta_swap_sto
from thermops.core import (
    BathSpec,
    SystemSpec,
    gibbs_ladder,
    gibbs_state,
    renyi_divergence,
    require_count,
    require_density,
    require_distribution,
    require_finite,
    require_levels,
    require_stochastic,
    require_unit_interval,
    trace_distance,
)


class TestSpecs:
    def test_ladder(self):
        spec = SystemSpec.ladder(3)
        assert spec.energies == (0, 1, 2)
        assert spec.d == 3
        assert spec.gaps[2, 0] == 2
        assert spec.gaps[0, 2] == -2
        assert spec.gaps.dtype.kind == "i"
        gaps = SystemSpec.four_level(1, 3).gaps
        assert gaps.tolist() == [[0, -1, -3, -4], [1, 0, -2, -3], [3, 2, 0, -1], [4, 3, 1, 0]]
        assert SystemSpec((0, 3)).gaps.tolist() == [[0, -3], [3, 0]]

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
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^energies must be finite"):
                SystemSpec((0, bad))

    def test_bath(self):
        bath = BathSpec.from_q(0.5, 20)
        assert bath.q == 0.5
        w = bath.gibbs_weights()
        assert w.shape == (21,)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert w[1] / w[0] == pytest.approx(0.5, abs=1e-14)
        # q is the factor per mode quantum, whatever the quantum's size
        assert BathSpec.from_q(0.25, 5, epsilon=2).q == 0.25

    def test_bath_keeps_q_exactly(self):
        qs = [i / 1000 for i in range(1, 1000)]
        assert [BathSpec.from_q(q, 10).q for q in qs] == qs

    def test_bath_truncation_is_stored_as_int(self):
        bath = BathSpec.from_q(0.5, 5.0, 2)
        assert type(bath.truncation) is int and bath.truncation == 5
        table, _ = simultaneous_beta_swap_sto(bath)  # indexes with the truncation
        assert len(table) > 0

    def test_bath_validation(self):
        with pytest.raises(ValueError):
            BathSpec.from_q(0.0, 10)
        with pytest.raises(ValueError):
            BathSpec.from_q(1.0, 10)
        with pytest.raises(ValueError):
            BathSpec.from_q(0.5, 0)
        with pytest.raises(ValueError):
            BathSpec(q=-1.0, truncation=10)
        with pytest.raises(ValueError):
            BathSpec(q=math.nan, truncation=10)
        with pytest.raises(ValueError):
            BathSpec.from_q(math.nan, 10)


NON_FINITE = (math.nan, math.inf, -math.inf)


class TestDensityMatrix:
    def test_diagonal_and_pure(self):
        rho = require_density(np.diag([0.7, 0.3]), "rho")
        assert rho.dtype == complex
        assert np.diag(rho).real == pytest.approx([0.7, 0.3])
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        psi = require_density(np.outer(v, v.conj()), "psi")
        assert psi[0, 1] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "m, message",
        [
            pytest.param([0.5, 0.5], "rho must be a nonempty square matrix", id="vector"),
            pytest.param(np.ones((2, 3)) / 2.0, "rho must be a nonempty square matrix", id="2x3"),
            pytest.param(np.zeros((0, 0)), "rho must be a nonempty square matrix", id="0x0"),
            pytest.param([[0.5, 0.4], [0.1, 0.5]], "rho must be Hermitian", id="not-hermitian"),
            pytest.param(np.eye(2), "rho must have trace 1", id="trace-2"),
            pytest.param(np.zeros((2, 2)), "rho must have trace 1", id="zero"),  # the old pure([0, 0])
            pytest.param([[1.2, 0.0], [0.0, -0.2]], "rho has a negative eigenvalue", id="negative-eigenvalue"),
            *(
                pytest.param(m, "rho must have finite entries", id=f"{bad}-{where}")
                for bad in NON_FINITE
                for where, m in (
                    ("diagonal", [[bad, 0.0], [0.0, 1.0]]),
                    ("off-diagonal", [[1.0, bad], [bad, 0.0]]),
                    ("np-diag", np.diag([bad, 1.0])),
                )
            ),
        ],
    )
    def test_rejects_bad_input(self, m, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            require_density(m, "rho")

    def test_readonly(self):
        m = np.diag([1.0, 0.0])
        rho = require_density(m, "rho")
        m[0, 0] = 2.0  # the caller's array is not the checked copy
        assert rho[0, 0] == 1.0
        with pytest.raises(ValueError):
            rho[0, 0] = 2.0


def test_require_stochastic_accepts_and_returns_floats():
    g = require_stochastic([[0.75, 0.5], [0.25, 0.5]], "G")
    assert g.dtype == float
    gamma = np.array([2.0 / 3.0, 1.0 / 3.0])
    assert np.abs(g @ gamma - gamma).sum() <= 1e-15  # Gibbs stochastic
    # float dust: an entry just below 0, a column sum just off 1
    require_stochastic([[1.0, 0.0], [-1e-13, 1.0 + 5e-11]], "G")


@pytest.mark.parametrize(
    "g, message",
    [
        pytest.param([0.5, 0.5], "G must be a nonempty square matrix", id="vector"),
        pytest.param(np.ones((2, 3)) / 2.0, "G must be a nonempty square matrix", id="2x3"),
        pytest.param(np.zeros((0, 0)), "G must be a nonempty square matrix", id="0x0"),
        pytest.param([[0.5, 0.0], [0.4, 1.0]], "G columns must sum to 1", id="column-sum-0.9"),
        pytest.param([[1.1, 0.0], [-0.1, 1.0]], "G must be finite and within", id="negative-entry"),
        *(pytest.param([[bad, 0.0], [0.0, 1.0]], "G must be finite and within", id=str(bad)) for bad in NON_FINITE),
    ],
)
def test_require_stochastic_rejects(g, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        require_stochastic(g, "G")


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
        "bad", [(1, 0), (1, 0, 2, 3), (0, 0, 1), (0, 1, 3), (0, -1, 1), (0, 0.5, 2), 3, "012"]
    )
    def test_levels(self, bad):
        assert require_levels(range(3), "perm", 3, 3) == (0, 1, 2)
        assert require_levels(np.array([2, 0]), "pair", 3, 2) == (2, 0)
        with pytest.raises(ValueError, match="perm must be 3 distinct levels of range"):
            require_levels(bad, "perm", 3, 3)

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
    assert np.diag(g).real == pytest.approx(w / w.sum(), abs=1e-15)
    with pytest.raises(ValueError):
        gibbs_state(spec, -0.1)
    with pytest.raises(ValueError):
        gibbs_state(spec, math.inf)


def test_gibbs_state_is_free_evolution_fixed_point():
    spec = SystemSpec.ladder(3)
    g = gibbs_state(spec, 0.7)
    for t in (0.0, 0.3, 2.0, 17.5):
        phases = np.exp(-1j * t * np.asarray(spec.energies, dtype=float))
        assert np.abs(np.outer(phases, phases.conj()) * g - g).max() <= 1e-15


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
    a = np.diag([0.8, 0.2])
    b = np.diag([0.6, 0.4]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(0.2, abs=1e-14)
    assert trace_distance(a, a) == 0.0
    with pytest.raises(ValueError):
        trace_distance(a, np.diag([0.5, 0.3, 0.2]))
