import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermops import cli, cones
from thermops.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestVerify:
    def test_sim_beta_swap_passes(self, capsys):
        code, doc = run_json(capsys, ["verify", "sim-beta-swap"])
        assert code == 0
        assert doc["schema"] == "thermops/5"
        assert doc["command"] == "verify"
        assert doc["config"]["channel"] == "sim-beta-swap"
        res = doc["results"]
        assert res["pass"] is True
        assert res["cptp_dev"] <= 1e-12
        assert res["gibbs_dev"] <= 1e-12
        assert res["covariance_dev"] <= 1e-12
        assert res["bound_ratio"] == pytest.approx(1.0, abs=1e-12)
        assert res["details"]["merge_down_achieved"] == pytest.approx(
            res["details"]["merge_down_bound"], abs=1e-12
        )

    def test_beta_swap_default_truncation_passes(self, capsys):
        code, doc = run_json(capsys, ["verify", "beta-swap"])
        assert code == 0
        assert doc["results"]["gibbs_dev"] <= doc["results"]["details"]["truncation_gibbs_limit"]

    def test_beta_swap_coarse_truncation_fails_tight_tol(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "beta-swap", "--truncation", "5", "--tol", "1e-12"]
        )
        assert code == 1
        assert doc["results"]["pass"] is False
        assert doc["results"]["gibbs_dev"] > 1e-12

    def test_optimal_qubit(self, capsys):
        code, doc = run_json(capsys, ["verify", "optimal-qubit", "--p00", "0.75"])
        assert code == 0
        det = doc["results"]["details"]
        assert det["p00_requested"] == 0.75
        assert det["damping_measured"] == pytest.approx(det["damping_bound"], rel=1e-9)

    def test_optimal_qubit_default_is_valid_at_small_q(self, capsys):
        # the default share 1/2 gives p00 = 1 - q/2, inside [1 - q, 1] at every q
        code, doc = run_json(capsys, ["verify", "optimal-qubit", "--q", "0.2"])
        assert code == 0
        assert doc["config"]["p00"] == 0.9
        assert doc["results"]["details"]["p11_measured"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("p00, p11", [("0.7", 0.0), ("1", 1.0)])
    def test_optimal_qubit_window_ends(self, capsys, p00, p11):
        # (1 - 0.7) / 0.3 rounds to 1.0000000000000002: still the full exchange
        code, doc = run_json(capsys, ["verify", "optimal-qubit", "--q", "0.3", "--p00", p00])
        assert code == 0
        assert doc["results"]["details"]["p11_measured"] == pytest.approx(p11, abs=1e-15)

    def test_exto_optimal(self, capsys):
        code, doc = run_json(capsys, ["verify", "exto-optimal", "--x", "0.4"])
        assert code == 0
        assert doc["results"]["bound_ratio"] == pytest.approx(1.0, abs=1e-12)
        assert doc["results"]["details"]["gap_pairs"] == [[0, 2], [1, 3]]

    def test_bad_q_is_usage_error(self, capsys):
        code = main(["verify", "beta-swap", "--q", "1.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""


class TestCone:
    def test_to_support_only(self, capsys):
        code, doc = run_json(capsys, ["cone", "to", "--directions", "8"])
        assert code == 0
        cone = doc["results"]["to"]
        assert len(cone["support"]) == 8
        assert cone["points"] == []
        assert cone["p"] == [0.8, 0.16, 0.04]

    def test_subnormal_q_keeps_the_to_cone_finite(self, capsys):
        # q^2 underflows to 0 and p/gamma overflows; neither may warn or leak
        code, doc = run_json(capsys, ["cone", "to", "--q", "1e-320", "--directions", "6"])
        assert code == 0
        assert doc["results"]["to"]["gamma"][2] == 0.0
        assert len(doc["results"]["to"]["support"]) == 6

    def test_elto_sample_counts(self, capsys):
        code, doc = run_json(
            capsys,
            ["cone", "elto", "--samples", "4", "--depth", "2", "--directions", "6"],
        )
        assert code == 0
        pts = doc["results"]["elto"]["points"]
        assert len(pts) == 13 + 4
        assert pts[0]["provenance"] == "ElTO-corner:"

    def test_all_structure(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "cone",
                "all",
                "--samples", "9",
                "--directions", "12",
                "--depth", "3",
                "--seed", "3",
            ],
        )
        assert code == 0
        assert set(doc["results"]) == {"to", "elto", "sto", "inclusion"}
        inc = doc["results"]["inclusion"]
        assert inc["elto_subset_to"] is True
        assert inc["sto_subset_to"] is True
        assert inc["elto_membership_max_residual"] <= 1e-8
        assert inc["sto_membership_max_residual"] <= 1e-8
        assert isinstance(inc["sto_in_elto_hull_margin"], float)

    def test_one_gamma_for_every_cone(self, capsys):
        # q = 0.1 does not survive a round trip through beta = -log(q)
        code, doc = run_json(
            capsys, ["cone", "all", "--q", "0.1", "--samples", "3", "--directions", "3", "--depth", "1"]
        )
        assert code == 0
        res = doc["results"]
        assert res["to"]["gamma"] == res["elto"]["gamma"] == res["sto"]["gamma"]
        assert res["sto"]["gamma"][1:] == [0.09009009009009009, 0.009009009009009009]

    def test_cone_all_call_contract(self, capsys, monkeypatch):
        """The membership and support counts the benchmark pins for a traced
        `cone all --seed 7`; each name is patched where it is looked up."""
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        membership = counted("membership", cones.to_membership_residual)
        monkeypatch.setattr(cones, "to_membership_residual", membership)
        monkeypatch.setattr(cli, "to_support", counted("support", cli.to_support))
        assert main(["cone", "all", "--seed", "7"]) == 0
        capsys.readouterr()
        assert calls == {"membership": 2099, "support": 360}

    @pytest.mark.parametrize("q", ["1e-4", "1e-8", "1e-12"])
    def test_elto_corners_are_to_members_at_small_q(self, q, capsys):
        code, doc = run_json(
            capsys, ["cone", "all", "--q", q, "--samples", "6", "--directions", "6", "--depth", "3", "--truncation", "5"]
        )
        assert code == 0
        inc = doc["results"]["inclusion"]
        assert inc["elto_subset_to"] is True
        assert inc["elto_membership_max_residual"] <= 1e-12

    def test_elto_full_exchange_moves_the_state_at_tiny_q(self, capsys):
        # r = gamma_2 / gamma_0 = 1e-24 is below the rounding of 1 - r
        code, doc = run_json(capsys, ["cone", "all", "--seed", "7", "--q", "1e-12"])
        assert code == 0
        p = doc["config"]["state"]
        corner = next(pt["x"] for pt in doc["results"]["elto"]["points"] if pt["provenance"] == "ElTO-corner:1")
        assert corner != p
        assert corner[0] == pytest.approx(p[0] + p[2], rel=1e-15)
        assert 0.0 < corner[2] < 1e-23
        assert doc["results"]["inclusion"]["sto_in_elto_hull_margin"] >= -1e-15

    def test_inclusion_verdict_is_the_library_membership(self, fig_state, qutrit_gamma):
        # 5e-9 past the cone: between the library's 1e-9 and the CLI's former 1e-8
        x = fig_state + np.array([5e-9, 0.0, -5e-9])
        residual = cones.to_membership_residual(x, fig_state, qutrit_gamma)
        assert 1e-9 < residual < 1e-8
        support = tuple((c, cones.to_support(fig_state, qutrit_gamma, c)) for c in cones.support_directions(3))
        summary = cli._inclusion_summary(fig_state, qutrit_gamma, support, x[None], fig_state[None])
        assert summary["elto_membership_max_residual"] == residual
        assert summary["elto_subset_to"] is cones.to_membership(x, fig_state, qutrit_gamma) is False
        assert summary["sto_subset_to"] is cones.to_membership(fig_state, fig_state, qutrit_gamma) is True

    def test_csv_export(self, capsys):
        code = main(["cone", "to", "--directions", "5", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "kind,x0,x1,x2,value,provenance"
        assert sum(ln.startswith("support,") for ln in lines) == 5
        assert "np.float64" not in out

    def test_bad_state_is_usage_error(self, capsys):
        assert main(["cone", "to", "--state", "0.5,0.6,0.2"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert main(["cone", "to", "--state", "0.5,0.5"]) == 2


class TestMerge:
    def test_gapped_oracle(self, capsys):
        code, doc = run_json(
            capsys, ["merge", "--r10", "0.1", "--r32", "0.2", "--x", "0.5"]
        )
        assert code == 0
        down, up = doc["results"]["down"], doc["results"]["up"]
        assert down["bound"] == pytest.approx(0.25)
        assert down["strategy"] == "simultaneous-beta-swap"
        assert down["achieved"] == pytest.approx(0.25, abs=1e-12)
        assert up["bound"] == pytest.approx(0.2)
        assert up["strategy"] == "identity"
        assert up["swap_channel_value"] == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("r10, r32, x", [(5.0, 2.0, 0.7), (1e200, 3e199, 0.4)])
    def test_swap_channel_value_at_large_coherences(self, r10, r32, x, capsys):
        # the swap acts linearly on the coherences, however large they are
        code, doc = run_json(capsys, ["merge", "--r10", repr(r10), "--r32", repr(r32), "--x", repr(x)])
        assert code == 0
        down, up = doc["results"]["down"], doc["results"]["up"]
        assert down["swap_channel_value"] == pytest.approx((1 - x) * r10 + r32, rel=1e-15, abs=0.0)
        assert up["swap_channel_value"] == pytest.approx(x * r10, rel=1e-15, abs=0.0)

    def test_overlap_oracle(self, capsys):
        code, doc = run_json(
            capsys, ["merge", "--overlap", "--a", "0.3", "--b", "0.1", "--q", "0.5"]
        )
        assert code == 0
        assert doc["results"]["down"] == pytest.approx(0.3)
        assert doc["results"]["up"] == pytest.approx(0.15)

    @pytest.mark.parametrize("scale", ["1e200", "1e-200"])
    def test_overlap_at_extreme_scales(self, scale, capsys):
        code, doc = run_json(capsys, ["merge", "--overlap", "--a", scale, "--b", scale])
        assert code == 0
        assert doc["results"]["down"] == pytest.approx(math.sqrt(1.75) * float(scale), rel=1e-15, abs=0.0)

    def test_missing_flags_are_usage_errors(self, capsys):
        assert main(["merge", "--r10", "0.1"]) == 2
        capsys.readouterr()
        assert main(["merge", "--overlap", "--a", "0.3"]) == 2
        capsys.readouterr()


class TestDecouple:
    def test_unreachable_oracle(self, capsys):
        code, doc = run_json(
            capsys, ["decouple", "--p", "0.8", "--a", "0.1", "--b", "0.3", "--q", "0.5"]
        )
        assert code == 0
        res = doc["results"]
        assert res["verdict"] == "NOT-REACHABLE"
        assert res["product_coherence"] == pytest.approx(0.112)
        assert res["exto_bound"] == pytest.approx(0.1)
        assert res["condition_holds"] is True

    def test_tiny_coherences_keep_the_verdict(self, capsys):
        code, doc = run_json(capsys, ["decouple", "--p", "0.9", "--a", "1e-14", "--b", "1.5e-14", "--q", "0.5"])
        assert code == 0
        assert doc["results"]["condition_holds"] is True
        assert doc["results"]["verdict"] == "NOT-REACHABLE"

    def test_vacuous_window_notes(self, capsys):
        code, doc = run_json(
            capsys, ["decouple", "--p", "0.4", "--a", "0.1", "--b", "0.3", "--q", "0.5"]
        )
        assert code == 0
        assert doc["results"]["condition_vacuous"] is True
        assert "note" in doc["results"]


class TestOutputPlumbing:
    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        code = main(["verify", "sim-beta-swap", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["schema"] == "thermops/5"

    def test_unwritable_out_is_usage_error(self, tmp_path):
        assert_usage_error(["verify", "beta-swap", "--out", str(tmp_path / "missing" / "x.json")])
        assert_usage_error(["cone", "to", "--directions", "3", "--format", "csv", "--out", str(tmp_path)])

    def test_seed_ignores_the_environment(self, tmp_path, monkeypatch):
        # --seed is the one seed source: the environment is not read
        plain = tmp_path / "plain.json"
        with_env = tmp_path / "with_env.json"
        argv = ["cone", "sto", "--samples", "5", "--truncation", "10"]
        monkeypatch.delenv("THERMOPS_SEED", raising=False)
        assert main([*argv, "--out", str(plain)]) == 0
        monkeypatch.setenv("THERMOPS_SEED", "3")
        assert main([*argv, "--out", str(with_env)]) == 0
        assert json.loads(with_env.read_text())["config"]["seed"] == 0
        assert with_env.read_bytes() == plain.read_bytes()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / f"run{i}.csv" for i in (0, 1)]
        argv = [
            "cone",
            "all",
            "--samples", "6",
            "--directions", "9",
            "--depth", "2",
            "--truncation", "10",
            "--seed", "7",
            "--format", "csv",
        ]
        for path in paths:
            assert main([*argv, "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_kv_csv_flattening(self, capsys):
        code = main(
            ["merge", "--r10", "0.1", "--r32", "0.2", "--x", "0.5", "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "key,value"
        rows = dict(ln.split(",", 1) for ln in lines[1:] if ln)
        assert rows["schema"] == "thermops/5"
        assert rows["results.down.strategy"] == "simultaneous-beta-swap"
        assert float(rows["results.down.bound"]) == pytest.approx(0.25)


class TestConsole:
    def test_module_runs_and_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "thermops", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("verify", "cone", "merge", "decouple"):
            assert name in proc.stdout

    def test_cone_all_imports_no_scipy(self):
        proc = subprocess.run(
            [
                sys.executable, "-X", "importtime", "-m", "thermops",
                "cone", "all", "--samples", "6", "--directions", "8", "--depth", "2",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "thermops.cones" in imported
        assert not [name for name in imported if name.split(".")[0] == "scipy"]

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "thermops", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_verification_failure_exit_code(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "thermops",
                "verify", "beta-swap", "--truncation", "5", "--tol", "1e-12",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["results"]["pass"] is False


@pytest.mark.parametrize("channel", ["beta-swap", "optimal-qubit", "sim-beta-swap", "exto-optimal"])
def test_verify_matches_golden_bytes(channel, capsys):
    assert main(["verify", channel]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"verify_{channel}.json").read_bytes()


SINGLE_CONE_ARGS = ["--seed", "3", "--samples", "20", "--directions", "12", "--depth", "2", "--truncation", "10"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("which", ["to", "elto", "sto"])
def test_single_cone_matches_golden_bytes(which, fmt, tmp_path):
    out = tmp_path / f"cone.{fmt}"
    assert main(["cone", which, *SINGLE_CONE_ARGS, "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"cone_{which}_seed3.{fmt}").read_bytes()


BAD_INPUT_RUNS = [
    "cone to --state nan,0.5,0.5",
    "cone to --state inf,0,0",
    "decouple --p 0.5 --a nan --b 0.1",
    "decouple --p 0.5 --a 0.1 --b inf",
    "merge --r10 inf --r32 0.1 --x 0.5",
    "merge --overlap --a inf --b 0.1",
    # (1 - x) r10 + r32 overflows
    "merge --r10 1.7e308 --r32 1.7e308 --x 0.5",
    "cone sto --samples -5",
    "cone elto --samples -3 --depth 1",
    # the Gibbs weight of the top level underflows to 0
    "cone elto --q 1e-200 --samples 3 --depth 1",
    "cone all --q 1e-200 --samples 3 --depth 1 --directions 3",
    "cone all --directions 0",
    "cone to --directions -3",
    "verify beta-swap --tol nan",
    "verify beta-swap --tol -1",
    # below the retention floor 1 - q
    "verify optimal-qubit --q 0.3 --p00 0.6",
    "verify optimal-qubit --q 0.5 --p00 1.1",
]


def assert_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:")
    assert err.getvalue().count("\n") == 1
    return err.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("run", BAD_INPUT_RUNS)
def test_bad_input_exits_2(run, fmt):
    assert_usage_error([*run.split(), "--format", fmt])


# each numeric flag, in a command that writes it into the document's config
SMALL = ["--directions", "3", "--samples", "2", "--depth", "1", "--truncation", "2"]
FLOAT_FLAGS = [
    (["verify", "beta-swap"], "--q"),
    (["verify", "beta-swap"], "--tol"),
    (["verify", "optimal-qubit"], "--p00"),
    (["verify", "sim-beta-swap"], "--x"),
    (["cone", "all", *SMALL], "--q"),
    (["merge", "--r32", "0.1", "--x", "0.5"], "--r10"),
    (["merge", "--r10", "0.1", "--x", "0.5"], "--r32"),
    (["merge", "--r10", "0.1", "--r32", "0.1"], "--x"),
    (["merge", "--overlap", "--b", "0.1"], "--a"),
    (["merge", "--overlap", "--a", "0.1"], "--b"),
    (["merge", "--overlap", "--a", "0.1", "--b", "0.1"], "--q"),
    (["decouple", "--a", "0.1", "--b", "0.3"], "--p"),
    (["decouple", "--p", "0.8", "--b", "0.3"], "--a"),
    (["decouple", "--p", "0.8", "--a", "0.1"], "--b"),
]
COUNT_FLAGS = [
    (["verify", "beta-swap"], "--truncation"),
    *((["cone", which, *SMALL], flag) for which in ("to", "elto", "sto", "all")
      for flag in ("--samples", "--directions", "--depth", "--truncation", "--seed")),
]


BAD_VALUES = st.one_of(
    st.tuples(st.sampled_from(FLOAT_FLAGS), st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity"])),
    st.tuples(st.sampled_from(COUNT_FLAGS), st.integers(max_value=-1).map(str)),
)


@settings(deadline=None, max_examples=120)
@given(case=BAD_VALUES, fmt=st.sampled_from(["json", "csv"]))
def test_non_finite_floats_and_negative_counts_exit_2(case, fmt):
    (base, flag), value = case
    assert_usage_error([*base, f"{flag}={value}", "--format", fmt])


MERGE = ["merge", "--r10", "0.1", "--r32", "0.1", "--x", "0.5"]
DECOUPLE = ["decouple", "--p", "0.8", "--a", "0.1", "--b", "0.3"]
UNDECLARED_FLAGS = [
    (["verify", "beta-swap"], "--seed", "3"),
    (MERGE, "--seed", "3"),
    (DECOUPLE, "--seed", "3"),
    (["cone", "to", "--directions", "3"], "--tol", "0.5"),
    (MERGE, "--tol", "0.5"),
    (DECOUPLE, "--tol", "0.5"),
    (MERGE, "--truncation", "3"),
    (DECOUPLE, "--truncation", "3"),
]


@pytest.mark.parametrize("base, flag, value", UNDECLARED_FLAGS)
def test_flag_a_subcommand_does_not_read_is_a_usage_error(base, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*base, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


OVERLAP = ["merge", "--overlap", "--a", "0.1", "--b", "0.1"]
UNREAD_MODE_FLAGS = [
    (["verify", "beta-swap"], "--x"),
    (["verify", "beta-swap"], "--p00"),
    (["verify", "optimal-qubit"], "--x"),
    (["verify", "sim-beta-swap"], "--p00"),
    (["verify", "exto-optimal"], "--p00"),
    (OVERLAP, "--r10"),
    (OVERLAP, "--r32"),
    (OVERLAP, "--x"),
    (MERGE, "--a"),
    (MERGE, "--b"),
]


@pytest.mark.parametrize("base, flag", UNREAD_MODE_FLAGS)
def test_flag_a_channel_or_form_does_not_read_is_a_usage_error(base, flag):
    # 0.5 is a valid value of every one of these flags where it is read
    assert f"does not read {flag}\n" in assert_usage_error([*base, flag, "0.5"])
