import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermops.cli import main


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestVerify:
    def test_sim_beta_swap_passes(self, capsys):
        code, doc = run_json(capsys, ["verify", "sim-beta-swap"])
        assert code == 0
        assert doc["schema"] == "thermops/1"
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

    def test_overlap_oracle(self, capsys):
        code, doc = run_json(
            capsys, ["merge", "--overlap", "--a", "0.3", "--b", "0.1", "--q", "0.5"]
        )
        assert code == 0
        assert doc["results"]["down"] == pytest.approx(0.3)
        assert doc["results"]["up"] == pytest.approx(0.15)

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
        assert doc["schema"] == "thermops/1"

    def test_seed_env_fallback_matches_flag(self, capsys, tmp_path, monkeypatch):
        flagged = tmp_path / "flagged.json"
        fallback = tmp_path / "fallback.json"
        common = ["cone", "sto", "--samples", "5", "--truncation", "10"]
        monkeypatch.delenv("THERMOPS_SEED", raising=False)
        assert main([*common, "--seed", "3", "--out", str(flagged)]) == 0
        monkeypatch.setenv("THERMOPS_SEED", "3")
        assert main([*common, "--out", str(fallback)]) == 0
        assert flagged.read_bytes() == fallback.read_bytes()

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
        assert rows["schema"] == "thermops/1"
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


BAD_INPUT_RUNS = [
    "cone to --state nan,0.5,0.5",
    "cone to --state inf,0,0",
    "decouple --p 0.5 --a nan --b 0.1",
    "decouple --p 0.5 --a 0.1 --b inf",
    "merge --r10 inf --r32 0.1 --x 0.5",
    "merge --overlap --a inf --b 0.1",
    "cone sto --samples -5",
    "cone elto --samples -3 --depth 1",
    "cone all --directions 0",
    "cone to --directions -3",
    "verify beta-swap --tol nan",
    "verify beta-swap --tol -1",
]


def assert_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:")
    assert err.getvalue().count("\n") == 1


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
    (["verify", "beta-swap"], "--seed"),
    *((["cone", which, *SMALL], flag) for which in ("to", "elto", "sto", "all")
      for flag in ("--samples", "--directions", "--depth", "--truncation", "--seed")),
    (["merge", "--r10", "0.1", "--r32", "0.1", "--x", "0.5"], "--seed"),
    (["decouple", "--p", "0.8", "--a", "0.1", "--b", "0.3"], "--truncation"),
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
