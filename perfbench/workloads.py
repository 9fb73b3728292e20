"""The three benchmark workloads.

Each workload does one unit of work per iteration with `run(i, tracer)`,
says how many items an iteration completes (`items`), checks an output
(`check`, a dict of named booleans) and reduces it to bytes (`digest`) so
that a traced iteration can be compared with an untraced one on the same
inputs.  In-process workloads run under wrappers the caller installs;
`ConeAll` hands the tracer the spans its child process recorded.

Inputs come only from the benchmark seed and the iteration index.  The
physical parameters (state, Boltzmann factor, truncations) are fixed at the
CLI defaults and the acceptance-test values.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # documents, spans and result records of a run
GOLDEN_SEED7 = ROOT / "tests" / "golden" / "cone_all_seed7.json"

MEMBERSHIP_TOL = 1e-8  # acceptance 07 thresholds
HULL_MARGIN_FLOOR = -1e-9
CERTIFY_TOL = 1e-9  # the CLI's default --tol


def iteration_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite number {token} in document")

    return json.loads(text, parse_constant=reject)


class ConeAll:
    """`python -m thermops cone all --seed S` in a fresh process, JSON to stdout.

    Every iteration repeats the user's command with the benchmark seed, so
    the bytes must also repeat.  Items are the exported cone rows: support
    values plus sampled points.
    """

    name = "cone-all"
    in_process = False
    TRUNCATION = 40  # the CLI default

    def __init__(self, seed, samples=500, directions=360, depth=6):
        self.seed = seed
        self.samples, self.directions, self.depth = samples, directions, depth
        self.args = [
            "cone", "all", "--seed", str(seed), "--samples", str(samples),
            "--directions", str(directions), "--depth", str(depth), "--truncation", str(self.TRUNCATION),
        ]
        self.corners = (3 ** (depth + 1) - 1) // 2  # ElTO words of length 0..depth
        self.items = directions + (self.corners + samples) + (6 + samples)
        self.defaults = (samples, directions, depth) == (500, 360, 6)
        self.first = None

    def expected_calls(self) -> dict:
        """Calls a traced run must count; they follow from the configuration
        alone (every third STO draw is Haar, one Haar block per shell)."""
        haar_draws = (self.samples + 2) // 3
        points = self.corners + self.samples + 6 + self.samples
        return {
            "channels.haar_stack.calls": haar_draws * (self.TRUNCATION + 3),
            "channels.random_blocks.calls": haar_draws,
            "channels.BlockUnitary.calls": 6 + self.samples,
            "channels.sto_population_matrix.calls": 6 + self.samples,
            "cones.to_membership_residual.calls": points,
            "cones.to_support.calls": self.directions,
        }

    def run(self, i, tracer=None):
        doc_path = OUT / "cone-all.json"
        if tracer is None:
            argv = [sys.executable, "-m", "thermops", *self.args]
        else:
            span_path = OUT / "cone-all.spans.jsonl"
            argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(span_path), *self.args]
        with open(doc_path, "wb") as out:
            code = subprocess.run(argv, stdout=out, env=child_env(), cwd=ROOT).returncode
        if tracer is not None:
            tracer.load(span_path)
        return code, doc_path.read_bytes()

    def check(self, output):
        code, data = output
        if self.first is None:
            self.first = data
        checks = {"exit 0": code == 0, "bytes repeat": data == self.first}
        if self.seed == 7 and self.defaults:
            checks["golden seed 7"] = data == GOLDEN_SEED7.read_bytes()
        try:
            res = _strict_json(data)["results"]
            flags = [res["inclusion"][f] for f in ("elto_subset_to", "sto_subset_to", "sto_subset_elto")]
            rows = (len(res["to"]["support"]), len(res["elto"]["points"]), len(res["sto"]["points"]))
        except (ValueError, KeyError, TypeError):
            checks["strict json"] = False
            return checks
        checks["strict json"] = True
        checks["inclusion flags"] = all(flag is True for flag in flags)
        checks["row counts"] = rows == (self.directions, self.corners + self.samples, 6 + self.samples)
        return checks

    @staticmethod
    def digest(output):
        return output[1]


class ConeSweep:
    """Library sweep shaped like acceptance 07: ElTO and STO cone samples,
    one LP membership per point, one hull margin.  Items are sampled points."""

    name = "cone-sweep"
    in_process = True

    def __init__(self, seed, elto_random=407, sto_random=1494):
        from thermops import core

        self.seed, self.elto_random, self.sto_random = seed, elto_random, sto_random
        self.p = np.array([0.8, 0.16, 0.04])
        q = 0.5
        self.gamma = np.array([1.0, q, q * q]) / (1.0 + q + q * q)
        self.bath = core.BathSpec.from_q(q, 20)
        self.items = 1093 + elto_random + 6 + sto_random

    def run(self, i, tracer=None):
        from thermops import cones

        s = iteration_seed(self.seed, i)
        elto_pts, _ = cones.elto_cone_sample(self.p, self.gamma, 6, self.elto_random, s)
        sto_pts, _ = cones.sto_cone_sample(self.p, self.bath, 22, self.sto_random, s + 1)
        residuals = np.array(
            [cones.to_membership_residual(x, self.p, self.gamma) for x in np.vstack([elto_pts, sto_pts])]
        )
        margin = cones.hull_margin(sto_pts, elto_pts)
        return (elto_pts, sto_pts, residuals, margin)

    def check(self, output):
        elto_pts, sto_pts, residuals, margin = output
        return {
            "points": len(elto_pts) + len(sto_pts) == self.items == len(residuals),
            "membership residuals": bool(np.all(residuals <= MEMBERSHIP_TOL)),
            "hull margin": bool(margin >= HULL_MARGIN_FLOOR),
        }

    @staticmethod
    def digest(output):
        elto_pts, sto_pts, residuals, margin = output
        return elto_pts.tobytes() + sto_pts.tobytes() + residuals.tobytes() + repr(margin).encode()


class Certify:
    """Construction and certification of Kraus channels: four `sto_channel`
    channels from Haar blocks, one composition of two qubit channels, and the
    four named `verify` channels through the CLI.  Items are certified
    channels."""

    name = "certify"
    in_process = True
    Q = 0.5
    SIZES = ((2, 40), (3, 40), (3, 100), (4, 100))  # (levels d, truncation N)
    NAMED = ("beta-swap", "optimal-qubit", "sim-beta-swap", "exto-optimal")
    GIBBS_MIN_TRUNCATION = 40  # below it the O(q^(N+1)) truncation error exceeds the tolerance

    def __init__(self, seed, sizes=SIZES, compose_truncation=40):
        self.seed, self.sizes, self.compose_truncation = seed, tuple(sizes), compose_truncation
        self.items = len(self.sizes) + 1 + len(self.NAMED)

    def _channel(self, d, n, rng):
        from thermops import channels, core

        bath = core.BathSpec.from_q(self.Q, n)
        return channels.sto_channel(channels.random_blocks(d, n + d - 1, rng), core.SystemSpec.ladder(d), bath)

    def _certify(self, ch, d, n, rng):
        from thermops import bounds, channels, core

        spec = core.SystemSpec.ladder(d)
        gamma = core.gibbs_state(spec, -math.log(self.Q))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        return (
            n,
            channels.cptp_deviation(ch),
            channels.verify_gibbs_preserving(ch, gamma, CERTIFY_TOL).deviation,
            channels.verify_covariant(ch, spec, CERTIFY_TOL).deviation,
            bounds.saturation_check(ch, rho, spec, 1, 0).ratio,
        )

    def run(self, i, tracer=None):
        from thermops import cli

        rng = np.random.Generator(np.random.Philox(iteration_seed(self.seed, i)))
        reports = []
        for d, n in self.sizes:
            reports.append(self._certify(self._channel(d, n, rng), d, n, rng))
        n = self.compose_truncation
        composed = self._channel(2, n, rng).compose(self._channel(2, n, rng))
        reports.append(self._certify(composed, 2, n, rng))
        verified = []
        for name in self.NAMED:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(["verify", name])
            verified.append((code, buf.getvalue()))
        return reports, verified

    def check(self, output):
        reports, verified = output
        checks = {}
        for idx, (n, cptp, gibbs, cov, ratio) in enumerate(reports):
            checks[f"channel {idx} cptp"] = cptp <= CERTIFY_TOL
            if n >= self.GIBBS_MIN_TRUNCATION:
                checks[f"channel {idx} gibbs"] = gibbs <= CERTIFY_TOL
            checks[f"channel {idx} covariance"] = cov <= CERTIFY_TOL
            checks[f"channel {idx} saturation"] = ratio <= 1.0 + CERTIFY_TOL
        for name, (code, text) in zip(self.NAMED, verified):
            try:
                passed = _strict_json(text)["results"]["pass"] is True
            except (ValueError, KeyError):
                passed = False
            checks[f"verify {name}"] = code == 0 and passed
        return checks

    @staticmethod
    def digest(output):
        reports, verified = output
        return repr(reports).encode() + b"".join(text.encode() for _, text in verified)


WORKLOADS = {w.name: w for w in (ConeAll, ConeSweep, Certify)}
