import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_oracle import LinearProgram, lp_membership_residual, lp_support, solve_lp
from thermops import channels, cones
from thermops.core import BathSpec, gibbs_ladder
from thermops.channels import random_blocks, sto_population_matrix
from thermops.cli import _cone_csv
from thermops.cones import (
    _hull_vertices,
    cone_dict,
    elto_cone_sample,
    hull_margin,
    inclusion_audit,
    qubit_cto_check,
    qubit_to_segment,
    sto_cone_sample,
    support_directions,
    to_membership,
    to_membership_residual,
    to_support,
    two_level_gibbs_stochastic,
)


class TestSolveLP:
    def test_optimal_vertex(self):
        res = solve_lp(LinearProgram(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(res.x, [0.0, 1.0], atol=1e-12)

    def test_infeasible_negative_rhs(self):
        res = solve_lp(LinearProgram(c=[1.0], A=[[1.0]], b=[-1.0]))
        assert res.status == "infeasible"
        assert res.residual > 1e-6

    def test_infeasible_conflicting_rows(self):
        res = solve_lp(LinearProgram(c=[0.0], A=[[1.0], [1.0]], b=[1.0, 2.0]))
        assert res.status == "infeasible"

    def test_redundant_row_dropped(self):
        res = solve_lp(
            LinearProgram(c=[1.0, 0.0], A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 1.0])
        )
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_unbounded_raises(self):
        with pytest.raises(RuntimeError):
            solve_lp(LinearProgram(c=[1.0, 0.0], A=[[0.0, 1.0]], b=[0.0]))

    def test_negative_rhs_feasible(self):
        # -x0 = -1 flips to x0 = 1
        res = solve_lp(LinearProgram(c=[-1.0], A=[[-1.0]], b=[-1.0]))
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0, 2.0], A=[[1.0]], b=[1.0])


class TestSupportAndMembership:
    def test_ground_support_value(self, fig_state, qutrit_gamma):
        # ground level already holds more weight than the thermal point, so
        # Gibbs-stochastic dynamics can only lower it: the support value in
        # the ground direction is the current occupation
        val = to_support(fig_state, qutrit_gamma, np.array([1.0, 0.0, 0.0]))
        assert val == pytest.approx(0.8, abs=1e-9)

    def test_total_mass_direction(self, fig_state, qutrit_gamma):
        val = to_support(fig_state, qutrit_gamma, np.ones(3))
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_support_dominates_start_point(self, fig_state, qutrit_gamma):
        for c in support_directions(16):
            assert to_support(fig_state, qutrit_gamma, c) >= float(c @ fig_state) - 1e-9

    def test_membership_basics(self, fig_state, qutrit_gamma):
        assert to_membership(fig_state, fig_state, qutrit_gamma)
        assert to_membership(qutrit_gamma, fig_state, qutrit_gamma)
        assert not to_membership(np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.3, 0.2]), qutrit_gamma)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_raise(self, fig_state, qutrit_gamma, bad):
        with pytest.raises(ValueError):
            to_membership_residual(np.array([bad, 0.5, 0.5]), fig_state, qutrit_gamma)
        with pytest.raises(ValueError):
            to_membership_residual(fig_state, np.array([bad, 0.5, 0.5]), qutrit_gamma)
        with pytest.raises(ValueError):
            to_support(fig_state, qutrit_gamma, np.array([bad, 0.0, 0.0]))

    def test_support_directions_need_one(self):
        assert support_directions(1).shape == (1, 3)
        with pytest.raises(ValueError):
            support_directions(0)

    def test_membership_residual_scales(self, fig_state, qutrit_gamma):
        assert to_membership_residual(fig_state, fig_state, qutrit_gamma) <= 1e-12
        r = to_membership_residual(np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.3, 0.2]), qutrit_gamma)
        assert r > 0.01
        # the curve of a scaled-down point stays below p's; its mass deficit counts
        short = 0.9 * fig_state
        assert to_membership_residual(short, fig_state, qutrit_gamma) == pytest.approx(0.1, abs=1e-15)
        assert lp_membership_residual(short, fig_state, qutrit_gamma) > 1e-8

    def test_images_of_ideal_channels_are_members(self, fig_state, qutrit_gamma, rng):
        for _ in range(5):
            g = sto_population_matrix(random_blocks(3, 12, rng), 0.5)
            x = g @ fig_state
            assert to_membership(x, fig_state, qutrit_gamma)
            for c in support_directions(12):
                assert to_support(fig_state, qutrit_gamma, c) >= float(c @ x) - 1e-9

    @pytest.mark.parametrize(
        "name, value", [("x", gibbs_ladder(2, 0.5)), ("gamma", gibbs_ladder(2, 0.5)), ("p", [[0.8, 0.16, 0.04]])]
    )
    def test_membership_length_mismatch_raises(self, fig_state, qutrit_gamma, name, value):
        args = {"x": fig_state, "p": fig_state, "gamma": qutrit_gamma, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a vector of 3 entries"):
            to_membership_residual(**args)

    @pytest.mark.parametrize("name", ["gamma", "c"])
    def test_support_length_mismatch_raises(self, fig_state, qutrit_gamma, name):
        args = {"p": fig_state, "gamma": qutrit_gamma, "c": np.ones(3)}
        args[name] = gibbs_ladder(2, 0.5)
        with pytest.raises(ValueError, match=f"^{name} must be a vector of 3 entries"):
            to_support(**args)

    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    )
    def test_support_sublinear(self, c1, c2):
        p = np.array([0.8, 0.16, 0.04])
        gamma = np.array([4.0, 2.0, 1.0]) / 7.0
        c1, c2 = np.array(c1), np.array(c2)
        h = lambda c: to_support(p, gamma, c)
        assert h(c1 + c2) <= h(c1) + h(c2) + 1e-9


def curve_value(p, gamma, t):
    """L_p(t) from the dual of its fractional knapsack, min over the slopes s
    of s t + sum((p - s gamma)_+): no level ordering involved."""
    return min(s * t + np.maximum(p - s * gamma, 0.0).sum() for s in np.append(p / gamma, 0.0))


def vertex_support(p, gamma, c):
    """max of c.v over all d! tight points, v_pi(k) = L_p(Gamma_k) - L_p(Gamma_(k-1))."""
    best = -math.inf
    for perm in map(list, permutations(range(p.size))):
        levels = [0.0] + [curve_value(p, gamma, t) for t in np.cumsum(gamma[perm])]
        v = np.empty(p.size)
        v[perm] = np.diff(levels)
        best = max(best, float(c @ v))
    return best


class TestClosedFormAgainstLP:
    """The curve formulas against the two-phase simplex oracle, which shares
    no code with them: the same verdict at 1e-8 on every point, and support
    values equal up to rounding."""

    @staticmethod
    def verdicts(points, p, gamma):
        curve = np.array([to_membership_residual(x, p, gamma) for x in points]) <= 1e-8
        lp = np.array([lp_membership_residual(x, p, gamma) for x in points]) <= 1e-8
        assert np.array_equal(curve, lp)
        return curve

    def test_dirichlet_points(self, fig_state, qutrit_gamma, rng):
        inside = self.verdicts(rng.dirichlet(np.ones(3), 1000), fig_state, qutrit_gamma)
        assert 0 < inside.sum() < inside.size

    def test_qubit_grid(self):
        targets = np.column_stack([np.linspace(0.0, 1.0, 101), np.linspace(1.0, 0.0, 101)])
        inside = self.verdicts(targets, np.array([0.8, 0.2]), gibbs_ladder(2, 0.5))
        assert 0 < inside.sum() < inside.size

    def test_four_level_points(self, rng):
        gamma = gibbs_ladder(4, 0.6)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            images = [sto_population_matrix(random_blocks(4, 13, rng), 0.6) @ p for _ in range(3)]
            assert self.verdicts(images, p, gamma).all()
            self.verdicts(rng.dirichlet(np.ones(4), 10), p, gamma)
            for c in rng.standard_normal((5, 4)):
                assert to_support(p, gamma, c) == pytest.approx(lp_support(p, gamma, c), abs=1e-14)

    def test_zero_gibbs_weight_level(self, rng):
        gamma = np.array([0.6, 0.4, 0.0])
        for p in (np.array([0.5, 0.3, 0.2]), np.array([0.3, 0.7, 0.0])):
            self.verdicts(rng.dirichlet(np.ones(3), 100), p, gamma)
            for c in rng.standard_normal((10, 3)):
                assert to_support(p, gamma, c) == pytest.approx(lp_support(p, gamma, c), abs=1e-15)

    def test_support_over_360_directions(self, fig_state, qutrit_gamma):
        for c in support_directions(360):
            value = to_support(fig_state, qutrit_gamma, c)
            assert abs(value - lp_support(fig_state, qutrit_gamma, c)) <= 1e-15
            assert abs(value - vertex_support(fig_state, qutrit_gamma, c)) <= 1e-15


class TestQubitSegment:
    def test_known_intervals(self):
        assert qubit_to_segment(0.8, 0.5) == pytest.approx((0.6, 0.8))
        assert qubit_to_segment(0.3, 0.5) == pytest.approx((0.3, 0.85))

    def test_validation(self):
        with pytest.raises(ValueError):
            qubit_to_segment(1.2, 0.5)
        with pytest.raises(ValueError):
            qubit_to_segment(0.8, 0.0)

    def test_grid_agreement_lp_vs_segment_vs_divergences(self):
        # coarse version of the acceptance grid
        q = 0.5
        p = np.array([0.8, 0.2])
        gamma = np.array([1.0, q]) / (1.0 + q)
        lo, hi = qubit_to_segment(p[0], q)
        for t in np.linspace(0.0, 1.0, 21):
            target = np.array([t, 1.0 - t])
            in_segment = lo - 1e-12 <= t <= hi + 1e-12
            assert to_membership(target, p, gamma) == in_segment
            assert qubit_cto_check(p, target, gamma) == in_segment

    def test_cto_check_takes_qubits_only(self):
        # a qutrit D_1 rises from 0.433 to 0.551 here, yet the two
        # divergences alone would call the target reachable
        p, x = np.array([0.43, 0.06, 0.51]), np.array([0.15, 0.79, 0.06])
        with pytest.raises(ValueError, match="^p must be a vector of 2 entries"):
            qubit_cto_check(p, x, gibbs_ladder(3, 0.5))
        with pytest.raises(ValueError, match="^ptarget must be a vector of 2 entries"):
            qubit_cto_check(p[:2], x, gibbs_ladder(2, 0.5))
        with pytest.raises(ValueError, match="^gamma must be a vector of 2 entries"):
            qubit_cto_check(p[:2], x[:2], gibbs_ladder(3, 0.5))


class TestTwoLevelGibbsStochastic:
    def test_identity_endpoint(self):
        gamma = np.array([2.0, 1.0]) / 3.0
        assert np.allclose(two_level_gibbs_stochastic(2, 0, 1, 0.0, gamma), np.eye(2))

    def test_full_exchange_endpoint(self):
        gamma = np.array([2.0, 1.0]) / 3.0
        g = two_level_gibbs_stochastic(2, 0, 1, 1.0, gamma)
        assert np.allclose(g, [[0.5, 1.0], [0.5, 0.0]], atol=1e-15)

    def test_full_exchange_at_small_q_is_stochastic(self):
        gamma = gibbs_ladder(3, 1e-8)
        g = two_level_gibbs_stochastic(3, 0, 2, 1.0, gamma)
        assert g.min() >= 0.0
        assert g[:, 2].tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("q", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2)])
    def test_full_exchange_is_exact_at_small_q(self, q, i, j):
        # r = gamma_j / gamma_i is far below the rounding of 1 - r, down to 1e-24
        gamma = gibbs_ladder(3, q)
        g = two_level_gibbs_stochastic(3, i, j, 1.0, gamma)
        assert g[j, j] == 0.0
        assert g[i, j] == 1.0
        assert g[j, i] == gamma[j] / gamma[i]
        assert np.allclose(g.sum(axis=0), 1.0, rtol=0.0, atol=1e-16)

    def test_gibbs_fixed_point(self, qutrit_gamma):
        g = two_level_gibbs_stochastic(3, 0, 2, 0.9, qutrit_gamma)
        assert np.allclose(g @ qutrit_gamma, qutrit_gamma, atol=1e-15)
        assert np.allclose(g.sum(axis=0), 1.0, atol=1e-15)

    @pytest.mark.parametrize("share", [1.0 + 5e-13, -5e-13], ids=["above-1", "below-0"])
    def test_share_outside_unit_interval_raises(self, share, qutrit_gamma):
        # both endpoints are exact, so float dust past them is an error, not a share
        with pytest.raises(ValueError, match=r"^share must be finite and within \[0.0, 1.0\]"):
            two_level_gibbs_stochastic(3, 0, 1, share, qutrit_gamma)

    def test_validation(self, qutrit_gamma):
        with pytest.raises(ValueError):
            two_level_gibbs_stochastic(3, 1, 1, 0.9, qutrit_gamma)
        with pytest.raises(ValueError):
            two_level_gibbs_stochastic(3, 2, 0, 0.9, qutrit_gamma)  # wrong order
        with pytest.raises(ValueError):
            two_level_gibbs_stochastic(3, 0, 1, 1.1, qutrit_gamma)  # above range
        with pytest.raises(ValueError):
            two_level_gibbs_stochastic(3, 0, 1, np.nan, qutrit_gamma)

    @pytest.mark.parametrize(
        "d, i, j, gamma, message",
        [
            pytest.param(3, 0.5, 1, [0.5, 0.3, 0.2], r"^levels \(i, j\) must be 2", id="half-level"),
            pytest.param(2, 0, 2, [0.6, 0.4], r"^levels \(i, j\) must be 2", id="level-past-d"),
            pytest.param(3, 0, 2, [0.6, 0.4], "^gamma must be a vector of 3 entries", id="short-gamma"),
            pytest.param(2.5, 0, 1, [0.6, 0.4], "^d must be a whole number", id="fractional-d"),
            pytest.param(2, 0, 1, [np.nan, 0.4], "^gamma must be finite", id="nan-gamma"),
            pytest.param(2, 0, 1, [0.6, np.inf], "^gamma must be finite", id="inf-gamma"),
            pytest.param(3, 1, 2, [1.0, 0.0, 0.0], "^gamma must be positive at level 2", id="zero-gamma"),
        ],
    )
    def test_input_checks(self, d, i, j, gamma, message):
        with pytest.raises(ValueError, match=message):
            two_level_gibbs_stochastic(d, i, j, 0.9, gamma)


class TestEltoSample:
    def test_counts_and_tags(self, fig_state, qutrit_gamma):
        points, tags = elto_cone_sample(fig_state, qutrit_gamma, depth=2, n=5, seed=11)
        assert points.shape == (13 + 5, 3)
        assert sum(t.startswith("ElTO-corner:") for t in tags) == 13
        assert tags.count("ElTO-random") == 5

    def test_first_corner_is_start(self, fig_state, qutrit_gamma):
        points, tags = elto_cone_sample(fig_state, qutrit_gamma, depth=1, n=0, seed=0)
        assert tags[0] == "ElTO-corner:"
        assert np.allclose(points[0], fig_state)
        # the three depth-1 corners are the pairwise full exchanges
        pairs = ((0, 1), (0, 2), (1, 2))
        for k, (i, j) in enumerate(pairs):
            swap = two_level_gibbs_stochastic(3, i, j, 1.0, qutrit_gamma)
            assert np.array_equal(points[1 + k], swap @ fig_state)

    def test_all_points_are_to_members(self, fig_state, qutrit_gamma):
        points, _ = elto_cone_sample(fig_state, qutrit_gamma, depth=2, n=6, seed=3)
        for x in points:
            assert to_membership(x, fig_state, qutrit_gamma)

    def test_random_prefix_deterministic(self, fig_state, qutrit_gamma):
        a, _ = elto_cone_sample(fig_state, qutrit_gamma, depth=3, n=3, seed=42)
        b, _ = elto_cone_sample(fig_state, qutrit_gamma, depth=3, n=6, seed=42)
        assert np.array_equal(a, b[: a.shape[0]])

    def test_corner_nesting_in_depth(self, fig_state, qutrit_gamma):
        shallow, _ = elto_cone_sample(fig_state, qutrit_gamma, depth=2, n=0, seed=0)
        deep, _ = elto_cone_sample(fig_state, qutrit_gamma, depth=3, n=0, seed=0)
        deep_set = {tuple(np.round(x, 12)) for x in deep}
        assert all(tuple(np.round(x, 12)) in deep_set for x in shallow)

    def test_validation(self, qutrit_gamma):
        with pytest.raises(ValueError):
            elto_cone_sample(np.array([0.5, 0.5]), qutrit_gamma[:2] / qutrit_gamma[:2].sum(), 2, 1, 0)
        with pytest.raises(ValueError):
            elto_cone_sample(np.array([0.5, 0.3, 0.2]), qutrit_gamma, 0, 1, 0)
        with pytest.raises(ValueError):
            elto_cone_sample(np.array([0.5, 0.3, 0.2]), qutrit_gamma, 2, -1, 0)
        four = gibbs_ladder(4, 0.5)
        with pytest.raises(ValueError, match=r"^gamma must be a vector of 3 entries, got shape \(4,\)$"):
            elto_cone_sample(np.array([0.5, 0.3, 0.2]), four, 2, 1, 0)
        with pytest.raises(ValueError, match=r"^p must be a vector of 3 entries, got shape \(3, 1\)$"):
            elto_cone_sample(np.array([[0.5], [0.3], [0.2]]), qutrit_gamma, 2, 1, 0)


class TestStoSample:
    bath = BathSpec.from_q(0.5, 10)

    def test_counts_and_tag_cycle(self, fig_state):
        points, tags = sto_cone_sample(fig_state, self.bath, top_shell=12, n=7, seed=5)
        assert points.shape == (6 + 7, 3)
        assert [t.split(":")[0] for t in tags[:6]] == ["STO-structured"] * 6
        assert tags[0] == "STO-structured:identity"
        assert tags[6:] == [
            "STO-haar",
            "STO-permutation",
            "STO-damping",
            "STO-haar",
            "STO-permutation",
            "STO-damping",
            "STO-haar",
        ]

    def test_identity_family_returns_start(self, fig_state):
        points, _ = sto_cone_sample(fig_state, self.bath, top_shell=12, n=0, seed=0)
        assert np.allclose(points[0], fig_state, atol=1e-13)

    def test_points_are_exact_members(self, fig_state, qutrit_gamma):
        points, _ = sto_cone_sample(fig_state, self.bath, top_shell=12, n=6, seed=9)
        for x in points:
            assert to_membership(x, fig_state, qutrit_gamma)

    def test_prefix_deterministic(self, fig_state):
        a, _ = sto_cone_sample(fig_state, self.bath, top_shell=12, n=4, seed=21)
        b, _ = sto_cone_sample(fig_state, self.bath, top_shell=12, n=7, seed=21)
        assert np.array_equal(a, b[: a.shape[0]])

    def test_validation(self, fig_state):
        with pytest.raises(ValueError):
            sto_cone_sample(fig_state, self.bath, top_shell=11, n=1, seed=0)
        with pytest.raises(ValueError):
            sto_cone_sample(np.ones(4) / 4, self.bath, top_shell=12, n=1, seed=0)
        with pytest.raises(ValueError):
            sto_cone_sample(fig_state, self.bath, top_shell=12, n=-5, seed=0)
        with pytest.raises(ValueError, match=r"^p must be a vector of 3 entries, got shape \(3, 1\)$"):
            sto_cone_sample(fig_state[:, None], self.bath, top_shell=12, n=1, seed=0)


class TestHullMargin:
    corners = np.eye(3)

    def test_triangle_center_depth(self):
        margin = hull_margin(np.array([[1.0, 1.0, 1.0]]) / 3.0, self.corners)
        assert margin == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-12)

    def test_point_outside_is_negative(self):
        outer = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0] / np.sqrt(3)])
        outer[2] = np.array([1.0, 1.0, 1.0]) / 3.0
        assert hull_margin(np.array([[0.0, 0.0, 1.0]]), outer) < -0.1

    def test_segment_cases(self):
        outer = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        mid = np.array([[0.5, 0.5, 0.0]])
        assert hull_margin(mid, outer) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        end = np.array([[1.0, 0.0, 0.0]])
        assert abs(hull_margin(end, outer)) <= 1e-12
        off = np.array([[0.0, 0.0, 1.0]])
        assert hull_margin(off, outer) < -0.5

    def test_single_point_cases(self):
        outer = np.array([[0.5, 0.3, 0.2]])
        assert abs(hull_margin(outer, outer)) <= 1e-12
        assert hull_margin(np.array([[0.2, 0.3, 0.5]]), outer) < -0.1


    # one inside and one outside point per branch: the outside point rules
    def test_worst_point_rules_full_hull(self):
        inner = np.array([[1.0, 1.0, 1.0], [4.5, -0.75, -0.75]]) / 3.0
        assert hull_margin(inner, self.corners) == pytest.approx(-0.75 / math.sqrt(6.0), abs=1e-12)

    def test_worst_point_rules_segment(self):
        outer = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        inner = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        expected = 1.0 / math.sqrt(2.0) - math.sqrt(1.5)
        assert hull_margin(inner, outer) == pytest.approx(expected, abs=1e-12)

    def test_worst_point_rules_single_point(self):
        outer = np.array([[0.5, 0.3, 0.2]])
        inner = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])
        assert hull_margin(inner, outer) == pytest.approx(-math.sqrt(0.18), abs=1e-12)

    @pytest.mark.parametrize(
        "inner, outer, message",
        [
            ([[np.nan, 0.5, 0.5]], np.eye(3), "inner_points must be finite"),
            ([[np.inf, 0.5, 0.5]], np.eye(3), "inner_points must be finite"),
            (np.zeros((0, 3)), np.eye(3), r"inner_points must be an \(n, 3\) array"),
            ([[0.5, 0.3, 0.2]], [[np.nan, 0.0, 1.0], [1.0, 0.0, 0.0]], "outer_points must be finite"),
            ([0.5, 0.3, 0.2], np.eye(3), r"inner_points must be an \(n, 3\) array"),
            ([[0.5, 0.5]], np.eye(3), r"inner_points must be an \(n, 3\) array"),
        ],
        ids=["nan-inner", "inf-inner", "empty-inner", "nan-outer", "vector-inner", "two-column-inner"],
    )
    def test_validation(self, inner, outer, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            hull_margin(np.array(inner), np.array(outer))

    def test_hull_vertices_match_scipy(self, rng):
        spatial = pytest.importorskip("scipy.spatial")
        pts = rng.standard_normal((300, 2))
        hull = _hull_vertices(pts)
        assert sorted(map(tuple, hull)) == sorted(map(tuple, pts[spatial.ConvexHull(pts).vertices]))
        x, y = hull.T
        assert (x * np.roll(y, -1) - np.roll(x, -1) * y).sum() > 0.0  # counter-clockwise


class TestConeApprox:
    """A cone as arrays: TO support samples outside, ElTO points inside."""

    def build(self, fig_state, qutrit_gamma, n=4):
        points, tags = elto_cone_sample(fig_state, qutrit_gamma, depth=2, n=n, seed=2)
        support = tuple((c, to_support(fig_state, qutrit_gamma, c)) for c in support_directions(24))
        return support, points, tags

    def test_inclusion_audit_ok(self, fig_state, qutrit_gamma):
        support, points, _ = self.build(fig_state, qutrit_gamma)
        residual, margin = inclusion_audit(fig_state, qutrit_gamma, support, points)
        assert residual <= 1e-8
        assert margin >= -1e-8

    def test_inclusion_audit_flags_outsider(self, fig_state, qutrit_gamma):
        support, points, _ = self.build(fig_state, qutrit_gamma)
        bad = np.vstack([points, [1.0, 0.0, 0.0]])
        residual, margin = inclusion_audit(fig_state, qutrit_gamma, support, bad)
        assert residual > 1e-8
        assert margin < -1e-8

    def test_inclusion_audit_validation(self, fig_state, qutrit_gamma):
        support, points, _ = self.build(fig_state, qutrit_gamma)
        bad_value = support[:-1] + ((support[-1][0], np.nan),)
        cases = [
            ((), points, r"^support directions must be an \(n, 3\) array"),
            (support, np.zeros((0, 3)), r"^points must be an \(n, 3\) array"),
            (support, np.vstack([points, [np.nan, 0.5, 0.5]]), "^points must be finite"),
            (support, points[:, :2], r"^points must be an \(n, 3\) array"),
            (bad_value, points, "^support values must be finite"),
        ]
        for sup, pts, message in cases:
            with pytest.raises(ValueError, match=message):
                inclusion_audit(fig_state, qutrit_gamma, sup, pts)

    def test_provenance_length_validation(self, fig_state, qutrit_gamma):
        with pytest.raises(ValueError, match="^one provenance tag per point$"):
            cone_dict(fig_state, qutrit_gamma, points=np.eye(3), provenance=("a", "b"))
        with pytest.raises(ValueError, match="^one provenance tag per point$"):
            cone_dict(fig_state, qutrit_gamma, provenance=("a",))

    def test_csv_shape(self, fig_state, qutrit_gamma):
        support, points, tags = self.build(fig_state, qutrit_gamma, n=2)
        doc = cone_dict(fig_state, qutrit_gamma, support, points, tags)
        text = _cone_csv({"to": doc})
        lines = text.split("\r\n")
        assert lines[0] == "kind,x0,x1,x2,value,provenance"
        assert sum(ln.startswith("support,") for ln in lines) == 24
        assert sum(ln.startswith("point,") for ln in lines) == points.shape[0]
        assert "np.float64" not in text


def test_sto_cone_sample_call_contract(monkeypatch, fig_state):
    """The call structure the benchmark pins for a traced `cone all`: one
    Haar draw per shell of every third draw, one BlockUnitary and one
    population matrix per point."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(channels, "haar_stack", counted("haar_stack", channels.haar_stack))
    monkeypatch.setattr(cones, "random_blocks", counted("random_blocks", cones.random_blocks))
    block_init = counted("BlockUnitary", channels.BlockUnitary.__init__)
    monkeypatch.setattr(channels.BlockUnitary, "__init__", block_init)
    monkeypatch.setattr(
        cones, "sto_population_matrix", counted("sto_population_matrix", cones.sto_population_matrix)
    )
    points, _ = sto_cone_sample(fig_state, BathSpec.from_q(0.5, 40), 42, 500, 7)
    assert len(points) == 506
    assert calls == {
        "haar_stack": 7181,
        "random_blocks": 167,
        "BlockUnitary": 506,
        "sto_population_matrix": 506,
    }
