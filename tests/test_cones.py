import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermops.core import BathSpec
from thermops.channels import random_blocks, sto_population_matrix
from thermops.cli import _cone_csv
from thermops.cones import (
    ConeApprox,
    LinearProgram,
    cone_dict,
    cone_from_json,
    elto_cone_sample,
    hull_margin,
    inclusion_audit,
    qubit_cto_check,
    qubit_to_segment,
    solve_lp,
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

    def test_images_of_ideal_channels_are_members(self, fig_state, qutrit_gamma, rng):
        for _ in range(5):
            g = sto_population_matrix(random_blocks(3, 12, rng), 0.5)
            x = g @ fig_state
            assert to_membership(x, fig_state, qutrit_gamma)
            for c in support_directions(12):
                assert to_support(fig_state, qutrit_gamma, c) >= float(c @ x) - 1e-9

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


class TestTwoLevelGibbsStochastic:
    def test_identity_endpoint(self):
        gamma = np.array([2.0, 1.0]) / 3.0
        assert np.allclose(two_level_gibbs_stochastic(2, 0, 1, 1.0, gamma), np.eye(2))

    def test_full_exchange_endpoint(self):
        gamma = np.array([2.0, 1.0]) / 3.0
        g = two_level_gibbs_stochastic(2, 0, 1, 0.5, gamma)
        assert np.allclose(g, [[0.5, 1.0], [0.5, 0.0]], atol=1e-15)

    def test_gibbs_fixed_point(self, qutrit_gamma):
        g = two_level_gibbs_stochastic(3, 0, 2, 0.9, qutrit_gamma)
        assert np.allclose(g @ qutrit_gamma, qutrit_gamma, atol=1e-15)
        assert np.allclose(g.sum(axis=0), 1.0, atol=1e-15)

    def test_clamps_float_dust(self, qutrit_gamma):
        g = two_level_gibbs_stochastic(3, 0, 1, 1.0 + 5e-13, qutrit_gamma)
        assert np.allclose(g, np.eye(3))

    def test_validation(self, qutrit_gamma):
        with pytest.raises(ValueError):
            two_level_gibbs_stochastic(3, 1, 1, 0.9, qutrit_gamma)
        with pytest.raises(ValueError):
            two_level_gibbs_stochastic(3, 2, 0, 0.9, qutrit_gamma)  # wrong order
        with pytest.raises(ValueError):
            two_level_gibbs_stochastic(3, 0, 1, 0.1, qutrit_gamma)  # below range


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
            lo = 1.0 - qutrit_gamma[j] / qutrit_gamma[i]
            swap = two_level_gibbs_stochastic(3, i, j, lo, qutrit_gamma)
            assert np.allclose(points[1 + k], swap @ fig_state, atol=1e-15)

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


class TestConeApprox:
    def build(self, fig_state, qutrit_gamma, n=4):
        points, tags = elto_cone_sample(fig_state, qutrit_gamma, depth=2, n=n, seed=2)
        support = tuple(
            (c, to_support(fig_state, qutrit_gamma, c)) for c in support_directions(24)
        )
        return ConeApprox(fig_state, qutrit_gamma, support, points, tuple(tags))

    def test_inclusion_audit_ok(self, fig_state, qutrit_gamma):
        approx = self.build(fig_state, qutrit_gamma)
        residual, margin = inclusion_audit(approx, approx.points)
        assert residual <= 1e-8
        assert margin >= -1e-8

    def test_inclusion_audit_flags_outsider(self, fig_state, qutrit_gamma):
        approx = self.build(fig_state, qutrit_gamma)
        bad = ConeApprox(
            fig_state,
            qutrit_gamma,
            approx.support,
            np.vstack([approx.points, [1.0, 0.0, 0.0]]),
            approx.provenance + ("intruder",),
        )
        residual, margin = inclusion_audit(bad, bad.points)
        assert residual > 1e-8
        assert margin < -1e-8

    def test_provenance_length_validation(self, fig_state, qutrit_gamma):
        with pytest.raises(ValueError):
            ConeApprox(fig_state, qutrit_gamma, (), np.eye(3), ("a", "b"))

    def test_json_round_trip(self, fig_state, qutrit_gamma):
        approx = self.build(fig_state, qutrit_gamma)
        back = cone_from_json(json.dumps(cone_dict(approx)))
        assert np.allclose(back.p, approx.p)
        assert np.allclose(back.gamma, approx.gamma)
        assert np.allclose(back.points, approx.points)
        assert back.provenance == approx.provenance
        assert len(back.support) == len(approx.support)
        for (c1, v1), (c2, v2) in zip(back.support, approx.support):
            assert np.allclose(c1, c2)
            assert v1 == pytest.approx(v2, abs=0)

    def test_csv_shape(self, fig_state, qutrit_gamma):
        approx = self.build(fig_state, qutrit_gamma, n=2)
        text = _cone_csv({"to": cone_dict(approx)})
        lines = text.split("\r\n")
        assert lines[0] == "kind,x0,x1,x2,value,provenance"
        assert sum(ln.startswith("support,") for ln in lines) == 24
        assert sum(ln.startswith("point,") for ln in lines) == approx.points.shape[0]
        assert "np.float64" not in text
