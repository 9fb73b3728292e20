"""End-to-end acceptance checks.

One test per shipped guarantee, each printing a single PASS/FAIL line with
the measured worst case.  Heavy sweeps stack 10^4 channels' shell blocks
into one batched `BlockUnitary` and run them through the library's batched
engine: amplitudes from `ideal_mode_amplitudes` (or `a_vectors` for
truncated baths), outputs from `mode_apply`, bounds from a batched
`symmetric_bound`.  A few draws of each sweep are cross-checked at 1e-12
against `sto_channel` or `shell_sto_channel` before the sweep is trusted
at scale.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from lp_oracle import lp_membership_residual
from thermops.core import BathSpec, SystemSpec, gibbs_state
from thermops.channels import (
    BlockUnitary,
    a_vectors,
    choi_distance,
    cptp_deviation,
    exto_optimal_channel,
    haar_stack,
    ideal_mode_amplitudes,
    mode_apply,
    permutation_blocks,
    qubit_optimal_sto,
    random_blocks,
    shell_sto_channel,
    simultaneous_beta_swap_kraus,
    simultaneous_beta_swap_sto,
    sto_channel,
    sto_population_matrix,
    transition_matrix,
    verify_covariant,
    verify_gibbs_preserving,
)
from thermops.bounds import (
    decoupling_witness,
    merge_down_bound,
    merge_up_bound,
    overlap_merge_bounds,
    saturation_check,
    symmetric_bound,
)
from thermops.cones import (
    elto_cone_sample,
    hull_margin,
    qubit_cto_check,
    qubit_to_segment,
    sto_cone_sample,
    to_membership,
    to_membership_residual,
)
from thermops.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"


def announce(capsys, number, name, ok, detail=""):
    with capsys.disabled():
        tail = f"  [{detail}]" if detail else ""
        print(f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")


# ---------------------------------------------------------------------------
# stacked shell blocks for the big sweeps


def qubit_blocks(phase0, mats):
    """Batch of B qubit ladders, a (B, shells, 2, 2) `BlockUnitary`: shell 0
    holds the phases phase0 [B], shells 1, 2, ... the blocks mats [B, S, 2, 2]."""
    stack = np.zeros((len(phase0), mats.shape[1] + 1, 2, 2), dtype=complex)
    stack[:, 0, 0, 0] = phase0
    stack[:, 1:] = mats
    return BlockUnitary(stack)


def qutrit_blocks(phase0, b1, b2):
    """Batch of B qutrit ladders, a (B, shells, 3, 3) `BlockUnitary`: phases
    phase0 [B] on shell 0, blocks b1 [B, 2, 2] on shell 1, b2 [B, S, 3, 3]
    on shells 2, 3, ..."""
    stack = np.zeros((len(phase0), b2.shape[1] + 2, 3, 3), dtype=complex)
    stack[:, 0, 0, 0] = phase0
    stack[:, 1, :2, :2] = b1
    stack[:, 2:] = b2
    return BlockUnitary(stack)


def four_level_amplitudes(b0, c0, bmats, cmats, q):
    """Untruncated-mode amplitudes of stacked four-level channels whose level
    pairs 0-2 and 1-3 are two qubit ladders under the gap-e2 mode: slot s of
    bmats/cmats couples (level 0 resp. 1, n = s+1) with (level 2 resp. 3,
    n = s), b0/c0 are the bottom-shell phases, and every shell above the
    slots is identity."""
    lower = ideal_mode_amplitudes(qubit_blocks(b0, bmats), q)
    a = np.zeros(lower.shape[:-3] + (4, 4, lower.shape[-1]), dtype=complex)
    a[..., 0::2, 0::2, :] = lower
    a[..., 1::2, 1::2, :] = ideal_mode_amplitudes(qubit_blocks(c0, cmats), q)
    return a


def four_level_shell_channel(spec, bath, b0, c0, bmats, cmats):
    """The same blocks routed through the library's shell assembler."""

    def block(energy, states):
        level, m = states[0]
        if len(states) == 1:
            return np.array([[b0 if level == 0 else c0]])
        mats = bmats if level == 0 else cmats
        if m - 1 < mats.shape[0]:
            return mats[m - 1]
        return np.eye(2)

    return shell_sto_channel(spec, bath, block)


QUTRIT_RHO = np.array(
    [[0.5, 0.2, 0.1], [0.2, 0.3, 0.15], [0.1, 0.15, 0.2]], dtype=complex
)
QUBIT_RHO = np.array([[0.6, 0.25], [0.25, 0.4]], dtype=complex)


def four_level_rho(r10, r32):
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 0] = rho[0, 1] = r10
    rho[3, 2] = rho[2, 3] = r32
    return rho


# ---------------------------------------------------------------------------


def test_01_exact_channel_certificates(capsys):
    ch = simultaneous_beta_swap_kraus(0.5, e2=1)
    spec = SystemSpec.four_level(1, 1)
    gamma = gibbs_state(spec, np.log(2.0))
    kraus_devs = (
        ch.completeness_deviation,
        verify_gibbs_preserving(ch, gamma, 1e-12).deviation,
        verify_covariant(ch, spec, 1e-12).deviation,
    )
    rng = np.random.Generator(np.random.Philox(77))
    worst_cptp = worst_gibbs = 0.0
    for d in (3, 4):
        spec_d = SystemSpec.ladder(d)
        gamma_d = gibbs_state(spec_d, np.log(2.0))
        for _ in range(10):
            g = sto_population_matrix(random_blocks(d, d + 9, rng), 0.5)
            exto = exto_optimal_channel(g, spec_d)
            worst_cptp = max(worst_cptp, cptp_deviation(exto))
            worst_gibbs = max(
                worst_gibbs, verify_gibbs_preserving(exto, gamma_d, 1e-10).deviation
            )
    ok = max(kraus_devs) <= 1e-12 and worst_cptp <= 1e-12 and worst_gibbs <= 1e-10
    announce(
        capsys, 1, "exact-channel-certificates", ok,
        f"swap devs <= {max(kraus_devs):.1e}; 20 population-matrix channels: "
        f"cptp <= {worst_cptp:.1e}, gibbs <= {worst_gibbs:.1e}",
    )
    assert ok


def test_02_truncation_convergence(capsys):
    exact = simultaneous_beta_swap_kraus(0.5, e2=2)
    dists = []
    for n_keep in (5, 10, 20, 40):
        _, ch = simultaneous_beta_swap_sto(BathSpec.from_q(0.5, n_keep, epsilon=2))
        dists.append(choi_distance(ch, exact))
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    gamma = gibbs_state(SystemSpec.ladder(2), np.log(2.0))
    swap_ok = True
    for n_keep in (5, 10, 20, 40):
        bath = BathSpec.from_q(0.5, n_keep)
        ch = sto_channel(permutation_blocks(2, n_keep + 1, (1, 0)), SystemSpec.ladder(2), bath)
        limit = 3.0 * 0.5 ** (n_keep + 1) / 0.5
        swap_ok = swap_ok and verify_gibbs_preserving(ch, gamma, limit).deviation <= limit
    ok = decreasing and dists[-1] <= 1e-9 and swap_ok
    announce(
        capsys, 2, "truncation-convergence", ok,
        f"choi distances {', '.join(f'{d:.2e}' for d in dists)}; "
        f"exchange-channel deviations within analytic limits: {swap_ok}",
    )
    assert ok


def test_03_qubit_damping_saturation(capsys):
    bath = BathSpec.from_q(0.5, 60)
    spec = SystemSpec.ladder(2)
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    worst_eta = worst_pop = 0.0
    for share in (0.8, 0.5, 0.2):
        p00 = 1.0 - share * bath.q  # 0.6, 0.75, 0.9
        ch = sto_channel(qubit_optimal_sto(share, bath), spec, bath)
        g = transition_matrix(ch)
        eta = abs(ch.apply(rho)[1, 0]) / 0.25
        worst_eta = max(worst_eta, abs(eta - np.sqrt(g[0, 0] * g[1, 1])))
        worst_pop = max(worst_pop, abs(g[0, 0] - p00))
    ok = worst_eta <= 1e-8 and worst_pop <= 1e-8
    announce(
        capsys, 3, "qubit-damping-saturation", ok,
        f"damping vs sqrt(retention product) dev {worst_eta:.1e}; "
        f"retention vs request dev {worst_pop:.1e}",
    )
    assert ok


def test_04_merge_bounds_saturation_and_sweep(capsys):
    # exact branch values on an aligned state
    r10, r32, x = 0.2, 0.05, 0.5
    out = simultaneous_beta_swap_kraus(x, e2=1).apply(four_level_rho(r10, r32))
    branch_dev = max(
        abs(abs(out[1, 0]) - ((1 - x) * r10 + r32)), abs(abs(out[3, 2]) - x * r10)
    )

    # sweep: 10^4 exact (untruncated) channels with Haar pair blocks
    r10, r32 = 0.2, 0.12
    rho = four_level_rho(r10, r32)
    spec = SystemSpec.four_level(1, 3)
    j_rand = 20  # pair blocks m = 1..20; identity above
    worst_excess = -np.inf
    for x, batch, seed in ((0.3, 3334, 101), (0.5, 3333, 102), (0.8, 3333, 103)):
        rng = np.random.Generator(np.random.Philox(seed))
        bmats = haar_stack(rng, batch * j_rand, 2).reshape(batch, j_rand, 2, 2)
        cmats = haar_stack(rng, batch * j_rand, 2).reshape(batch, j_rand, 2, 2)
        b0 = np.exp(2j * np.pi * rng.random(batch))
        c0 = np.exp(2j * np.pi * rng.random(batch))
        out = mode_apply(four_level_amplitudes(b0, c0, bmats, cmats, x), rho, spec)
        worst_excess = max(
            worst_excess,
            (np.abs(out[:, 1, 0]) - merge_down_bound(r10, r32, x).bound).max(),
            (np.abs(out[:, 3, 2]) - merge_up_bound(r10, r32, x).bound).max(),
        )

    # cross-validate the engine against the library assembler at a deep truncation
    bath = BathSpec.from_q(0.5, 60, epsilon=3)
    rng = np.random.Generator(np.random.Philox(7))
    kernel_dev = 0.0
    for _ in range(3):
        bmats = haar_stack(rng, j_rand, 2)
        cmats = haar_stack(rng, j_rand, 2)
        b0, c0 = np.exp(2j * np.pi * rng.random(2))
        ref = four_level_shell_channel(spec, bath, b0, c0, bmats, cmats).apply(rho)
        a = four_level_amplitudes(np.array([b0]), np.array([c0]), bmats[None], cmats[None], 0.5)
        kernel_dev = max(kernel_dev, np.abs(mode_apply(a, rho, spec)[0] - ref).max())

    ok = branch_dev <= 1e-12 and worst_excess <= 1e-9 and kernel_dev <= 1e-12
    announce(
        capsys, 4, "merge-bounds-saturation-and-sweep", ok,
        f"branch dev {branch_dev:.1e}; worst excess over bound {worst_excess:.2e} "
        f"across 10^4 channels; engine vs deep-truncation assembler dev {kernel_dev:.1e}",
    )
    assert ok


def test_05_mode_transfer_bound_sweep(capsys):
    q, n_keep, batch = 0.8, 15, 5000
    bath = BathSpec.from_q(q, n_keep)
    rng = np.random.Generator(np.random.Philox(201))
    phase0 = np.exp(2j * np.pi * rng.random(batch))
    b1 = haar_stack(rng, batch * (n_keep + 1), 2).reshape(batch, n_keep + 1, 2, 2)
    qubits = qubit_blocks(phase0, b1)
    rng = np.random.Generator(np.random.Philox(202))
    phase0 = np.exp(2j * np.pi * rng.random(batch))
    b1 = haar_stack(rng, batch, 2)
    b2 = haar_stack(rng, batch * (n_keep + 1), 3).reshape(batch, n_keep + 1, 3, 3)
    qutrits = qutrit_blocks(phase0, b1, b2)
    qutrit_entries = ((1, 0), (2, 1), (2, 0))
    worst_excess = -np.inf
    kernel_dev = 0.0
    for blocks, rho, entries in ((qubits, QUBIT_RHO, ((1, 0),)), (qutrits, QUTRIT_RHO, qutrit_entries)):
        spec = SystemSpec.ladder(len(rho))
        a = a_vectors(blocks, bath)
        g = (np.abs(a) ** 2).sum(axis=-1)
        out = mode_apply(a, rho, spec)
        for i, j in entries:
            bound = symmetric_bound(rho, g, spec, i, j)
            worst_excess = max(worst_excess, (np.abs(out[:, i, j]) - bound).max())
        for b in range(3):
            bu = BlockUnitary(blocks.stack[b])
            kernel_dev = max(
                kernel_dev,
                np.abs(a_vectors(bu, bath) - a[b]).max(),
                np.abs(sto_channel(bu, spec, bath).apply(rho) - out[b]).max(),
            )

    # equality half: the per-gap optimal channel saturates the bound
    rng = np.random.Generator(np.random.Philox(203))
    spec3 = SystemSpec.ladder(3)
    worst_ratio_dev = 0.0
    for _ in range(20):
        g_rand = sto_population_matrix(random_blocks(3, 12, rng), 0.5)
        exto = exto_optimal_channel(g_rand, spec3)
        for i, j in qutrit_entries:
            rep = saturation_check(exto, QUTRIT_RHO, spec3, i, j)
            worst_ratio_dev = max(worst_ratio_dev, abs(rep.ratio - 1.0))

    ok = worst_excess <= 1e-9 and kernel_dev <= 1e-12 and worst_ratio_dev <= 1e-10
    announce(
        capsys, 5, "mode-transfer-bound-sweep", ok,
        f"worst excess {worst_excess:.2e} over 10^4 channels; kernel dev "
        f"{kernel_dev:.1e}; saturation ratio dev {worst_ratio_dev:.1e}",
    )
    assert ok


def test_06_qubit_reachability_grid(capsys):
    q = 0.5
    p = np.array([0.8, 0.2])
    gamma = np.array([1.0, q]) / (1.0 + q)
    lo, hi = qubit_to_segment(p[0], q)
    agreements = 0
    for t in np.linspace(0.0, 1.0, 101):
        target = np.array([t, 1.0 - t])
        in_segment = lo - 1e-12 <= t <= hi + 1e-12
        curve = to_membership(target, p, gamma)
        lp = lp_membership_residual(target, p, gamma) <= 1e-9
        cto = qubit_cto_check(p, target, gamma)
        agreements += curve == lp == in_segment == cto
    bath = BathSpec.from_q(q, 40)
    spec = SystemSpec.ladder(2)
    swap = transition_matrix(sto_channel(permutation_blocks(2, 41, (1, 0)), spec, bath))
    low_end_dev = abs((swap @ p)[0] - lo)
    high_end_dev = abs((np.eye(2) @ p)[0] - hi)
    ok = agreements == 101 and low_end_dev <= 1e-9 and high_end_dev == 0.0
    announce(
        capsys, 6, "qubit-reachability-grid", ok,
        f"{agreements}/101 grid points agree; endpoint deviations "
        f"{low_end_dev:.1e} (exchange), {high_end_dev:.1e} (identity)",
    )
    assert ok


def test_07_cone_inclusions(capsys):
    p = np.array([0.8, 0.16, 0.04])
    q = 0.5
    gamma = np.array([1.0, q, q * q]) / (1.0 + q + q * q)
    elto_pts, _ = elto_cone_sample(p, gamma, depth=6, n=10_000 - 1093, seed=61)
    bath = BathSpec.from_q(q, 20)
    sto_pts, _ = sto_cone_sample(p, bath, top_shell=22, n=10_000 - 6, seed=62)
    n_elto = len(elto_pts)
    points = np.vstack([elto_pts, sto_pts])
    curve = np.array([to_membership_residual(x, p, gamma) for x in points])
    lp = np.array([lp_membership_residual(x, p, gamma) for x in points])
    margin = hull_margin(sto_pts, elto_pts)
    ok = curve.max() <= 1e-8 and lp.max() <= 1e-8 and margin >= -1e-9
    announce(
        capsys, 7, "cone-inclusions", ok,
        f"curve gaps {curve[:n_elto].max():.1e} (contact sequences), "
        f"{curve[n_elto:].max():.1e} (mode channels); LP residuals "
        f"{lp[:n_elto].max():.1e}, {lp[n_elto:].max():.1e}; "
        f"hull inclusion margin {margin:.1e}",
    )
    assert ok


def test_08_decoupling_no_go(capsys, tmp_path):
    out = tmp_path / "decouple.json"
    code = cli_main(
        ["decouple", "--p", "0.8", "--a", "0.1", "--b", "0.3", "--q", "0.5",
         "--out", str(out)]
    )
    doc = json.loads(out.read_text())
    res = doc["results"]
    oracle_ok = (
        code == 0
        and res["verdict"] == "NOT-REACHABLE"
        and abs(res["product_coherence"] - 0.112) <= 1e-12
        and abs(res["exto_bound"] - 0.1) <= 1e-12
    )
    # the a and b grids share no nonzero value (50k = 57m has no small
    # solutions), so the strict window test never sits on a float boundary
    q = 0.5
    triggered = 0
    grid_ok = True
    for p in np.linspace(0.05, 0.95, 20):
        for a in np.linspace(0.0, 0.5, 20):
            threshold = a * p * (p + q - 1.0) / (1.0 - p) ** 2
            for b in np.linspace(0.0, 0.57, 20):
                if a < b < threshold:
                    triggered += 1
                    grid_ok = grid_ok and not decoupling_witness(p, a, b, q).reachable
    ok = oracle_ok and grid_ok and triggered > 0
    announce(
        capsys, 8, "decoupling-no-go", ok,
        f"oracle point 0.112 > 0.1 NOT-REACHABLE: {oracle_ok}; "
        f"{triggered} grid cells inside the window, all unreachable: {grid_ok}",
    )
    assert ok


def test_09_overlap_bound_sweep(capsys):
    q, j_rand, batch = 0.5, 20, 10_000
    a_in, b_in = 0.2, 0.12
    rho = np.array(
        [[0.5, a_in, 0.0], [a_in, 0.3, b_in], [0.0, b_in, 0.2]], dtype=complex
    )
    spec = SystemSpec.ladder(3)
    rng = np.random.Generator(np.random.Philox(301))
    phase0 = np.exp(2j * np.pi * rng.random(batch))
    b1 = haar_stack(rng, batch, 2)
    b2 = haar_stack(rng, batch * (j_rand - 1), 3).reshape(batch, j_rand - 1, 3, 3)  # shells 2..20
    out = mode_apply(ideal_mode_amplitudes(qutrit_blocks(phase0, b1, b2), q), rho, spec)

    bounds = overlap_merge_bounds(a_in, b_in, q)
    lower = np.abs(out[:, 1, 0])
    upper = np.abs(out[:, 2, 1])
    excess = max((lower - bounds["down"]).max(), (upper - bounds["up"]).max())

    # cross-validate the engine against a deep truncation
    rng = np.random.Generator(np.random.Philox(302))
    j_small, n_deep = 8, 60
    ph = np.exp(2j * np.pi * rng.random(1))
    b1s = haar_stack(rng, 1, 2)
    b2s = haar_stack(rng, j_small - 1, 3)[None]  # shells 2..j_small
    engine_out = mode_apply(ideal_mode_amplitudes(qutrit_blocks(ph, b1s, b2s), q), rho, spec)[0]
    b2_deep = np.broadcast_to(np.eye(3, dtype=complex), (1, n_deep + 1, 3, 3)).copy()
    b2_deep[0, : j_small - 1] = b2s[0]
    bath = BathSpec.from_q(q, n_deep)
    ref = sto_channel(BlockUnitary(qutrit_blocks(ph, b1s, b2_deep).stack[0]), spec, bath).apply(rho)
    kernel_dev = np.abs(ref - engine_out).max()

    best_down = lower.max() / bounds["down"]
    best_up = upper.max() / bounds["up"]
    ok = excess <= 1e-9 and kernel_dev <= 1e-12
    announce(
        capsys, 9, "overlap-bound-sweep", ok,
        f"worst excess {excess:.2e} over 10^4 channels; kernel dev {kernel_dev:.1e}; "
        f"best achieved/bound ratios {best_down:.3f} (lower), {best_up:.3f} (upper)",
    )
    assert ok


def test_10_deterministic_exports(capsys):
    argv = [sys.executable, "-m", "thermops", "cone", "all", "--seed", "7"]
    first = subprocess.run(argv, capture_output=True, check=True).stdout
    second = subprocess.run(argv, capture_output=True, check=True).stdout
    csv_bytes = subprocess.run(
        argv + ["--format", "csv"], capture_output=True, check=True
    ).stdout
    golden_json = (GOLDEN / "cone_all_seed7.json").read_bytes()
    golden_csv = (GOLDEN / "cone_all_seed7.csv").read_bytes()
    repeat_ok = first == second
    pinned_ok = first == golden_json and csv_bytes == golden_csv
    ok = repeat_ok and pinned_ok
    announce(
        capsys, 10, "deterministic-exports", ok,
        f"repeat runs byte-identical: {repeat_ok}; matches pinned goldens: {pinned_ok}",
    )
    assert ok
