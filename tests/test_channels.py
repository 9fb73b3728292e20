import numpy as np
import pytest

from thermops.core import (
    BathSpec,
    DensityMatrix,
    SystemSpec,
    gibbs_ladder,
    gibbs_state,
    mode_decompose,
)
from thermops.channels import (
    AVectors,
    BlockUnitary,
    KrausChannel,
    TransitionMatrix,
    a_vectors,
    beta_swap_qubit,
    choi_distance,
    coherence_transfer,
    cptp_deviation,
    exto_optimal_channel,
    haar_stack,
    identity_blocks,
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

N_KEEP = 20


def ladder_gamma(d, q):
    return DensityMatrix.diagonal(gibbs_ladder(d, q))


def random_test_state(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    return m / np.trace(m)


# ---------------------------------------------------------------------------
# building blocks


def test_haar_stack_unitary(rng):
    us = haar_stack(rng, 8, 3)
    assert us.shape == (8, 3, 3)
    for u in us:
        assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12


def test_haar_stack_deterministic():
    a = haar_stack(np.random.Generator(np.random.Philox(5)), 3, 2)
    b = haar_stack(np.random.Generator(np.random.Philox(5)), 3, 2)
    assert np.array_equal(a, b)


def test_block_unitary_validation():
    with pytest.raises(ValueError):
        BlockUnitary(2, (np.eye(2),))  # shell 0 must be 1x1
    with pytest.raises(ValueError):
        BlockUnitary(2, (np.eye(1), np.array([[1.0, 0.0], [1.0, 1.0]])))
    bu = identity_blocks(3, 7)
    assert bu.top_shell == 7
    assert bu.blocks[5].shape == (3, 3)
    assert bu.blocks[1].shape == (2, 2)


def test_kraus_validation():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 0.5,))
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2), np.eye(2)), shifts=(0,))
    ch = KrausChannel((np.eye(2),), shifts=(0,))
    assert ch.dim == 2
    assert cptp_deviation(ch) <= 1e-15
    assert np.trace(ch.choi()).real == pytest.approx(2.0)


def test_transition_matrix_validation():
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[0.5, 0.0], [0.4, 1.0]]))  # column sum 0.9
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[1.1, 0.0], [-0.1, 1.0]]))
    g = TransitionMatrix(np.array([[0.75, 0.5], [0.25, 0.5]]))
    gamma = np.array([2.0 / 3.0, 1.0 / 3.0])
    assert g.gibbs_deviation(gamma) <= 1e-15
    assert g.is_gibbs_stochastic(gamma)


# ---------------------------------------------------------------------------
# assembled ladder channels


def test_identity_blocks_make_identity_channel(rng):
    bath = BathSpec.from_q(0.5, 10)
    spec = SystemSpec.ladder(3)
    ch = sto_channel(identity_blocks(3, 12), spec, bath)
    rho = random_test_state(rng, 3)
    assert np.abs(ch.apply(rho) - rho).max() <= 1e-14
    assert np.abs(transition_matrix(ch).G - np.eye(3)).max() <= 1e-14


def test_sto_channel_requires_resonant_ladder():
    bath = BathSpec.from_q(0.5, 10)
    with pytest.raises(ValueError):
        sto_channel(identity_blocks(2, 11), SystemSpec.ladder(2, spacing=2), bath)
    with pytest.raises(ValueError):
        sto_channel(identity_blocks(2, 5), SystemSpec.ladder(2), bath)  # too few shells


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_random_sto_channels_certified(d, q, rng):
    """Random block unitaries assemble to CPTP covariant channels whose only
    defect is the measured O(q^(N+1)) Gibbs error."""
    bath = BathSpec.from_q(q, N_KEEP)
    spec = SystemSpec.ladder(d)
    gamma = ladder_gamma(d, q)
    gibbs_limit = 3.0 * q ** (N_KEEP + 1) / (1.0 - q)
    for _ in range(34):
        blocks = random_blocks(d, N_KEEP + d - 1, rng)
        ch = sto_channel(blocks, spec, bath)
        assert cptp_deviation(ch) <= 1e-10
        assert verify_covariant(ch, spec, 1e-9).passed
        assert verify_gibbs_preserving(ch, gamma, gibbs_limit).passed
        g = transition_matrix(ch).G
        # no-exchange constraints on the population dynamics
        assert g[0, 0] >= 1.0 - q - 1e-10
        for k in range(d):
            for kp in range(k + 1, d):
                assert g[kp, k] <= q ** (kp - k) + 1e-10


def test_transfer_matches_channel_orientation(rng):
    """coherence_transfer(c, d, i, j) must be the actual channel matrix
    element <i| ch(|c><d|) |j>, not its conjugate."""
    bath = BathSpec.from_q(0.5, 12)
    spec = SystemSpec.ladder(3)
    blocks = random_blocks(3, 14, rng)
    ch = sto_channel(blocks, spec, bath)
    for (c, d, i, j) in [(0, 1, 0, 1), (1, 2, 0, 1), (0, 2, 0, 2), (1, 0, 2, 1)]:
        unit = np.zeros((3, 3), dtype=complex)
        unit[c, d] = 1.0
        got = ch.apply(unit)[i, j]
        want = coherence_transfer(blocks, bath, c, d, i, j)
        assert abs(got - want) <= 1e-12


def test_transfer_cauchy_schwarz(rng):
    bath = BathSpec.from_q(0.8, N_KEEP)
    for _ in range(10):
        blocks = random_blocks(3, N_KEEP + 2, rng)
        av = a_vectors(blocks, bath)
        p = av.transition_probabilities()
        t = np.einsum("icn,jdn->icjd", av.A, av.A.conj())
        for c in range(3):
            for d in range(3):
                for i in range(3):
                    for j in range(3):
                        if i - c != j - d:
                            continue
                        assert abs(t[i, c, j, d]) <= np.sqrt(p[i, c] * p[j, d]) + 1e-10


def test_transfer_mode_mismatch_warns():
    bath = BathSpec.from_q(0.5, 5)
    blocks = identity_blocks(2, 6)
    with pytest.warns(RuntimeWarning):
        assert coherence_transfer(blocks, bath, 0, 0, 0, 1) == 0j


def test_a_vectors_consistent_with_channel(rng):
    bath = BathSpec.from_q(0.5, 15)
    blocks = random_blocks(3, 17, rng)
    av = a_vectors(blocks, bath)
    g = transition_matrix(sto_channel(blocks, SystemSpec.ladder(3), bath)).G
    assert np.abs(av.transition_probabilities() - g).max() <= 1e-12
    with pytest.raises(ValueError):
        a_vectors(identity_blocks(3, 10), bath)  # needs shells up to 17
    with pytest.raises(ValueError):
        AVectors(np.ones((2, 2, 3)))


def test_channel_composition_closure(rng):
    bath = BathSpec.from_q(0.5, N_KEEP)
    spec = SystemSpec.ladder(2)
    gamma = ladder_gamma(2, 0.5)
    a = sto_channel(random_blocks(2, N_KEEP + 1, rng), spec, bath)
    b = sto_channel(random_blocks(2, N_KEEP + 1, rng), spec, bath)
    both = a.compose(b)
    assert cptp_deviation(both) <= 1e-10
    assert verify_covariant(both, spec, 1e-9).passed
    limit = 2 * 3.0 * 0.5 ** (N_KEEP + 1) / 0.5
    assert verify_gibbs_preserving(both, gamma, limit).passed


def test_mode_independence(rng):
    """The image of a single coherence mode stays inside that mode."""
    bath = BathSpec.from_q(0.5, 12)
    spec = SystemSpec.ladder(3)
    ch = sto_channel(random_blocks(3, 14, rng), spec, bath)
    rho = random_test_state(rng, 3)
    for m in (-2, -1, 0, 1, 2):
        part = mode_decompose(rho, spec)[m]
        out = mode_decompose(ch.apply(part), spec)
        for mm, blk in out.modes.items():
            if mm != m:
                assert np.abs(blk).max() <= 1e-14


# ---------------------------------------------------------------------------
# named constructions


def test_beta_swap_qubit():
    q = 0.5
    bath = BathSpec.from_q(q, N_KEEP)
    ch = sto_channel(beta_swap_qubit(bath), SystemSpec.ladder(2), bath)
    g = transition_matrix(ch).G
    w0 = (1.0 - q) / (1.0 - q ** (N_KEEP + 1))
    assert g[0, 0] == pytest.approx(w0, abs=1e-14)
    assert g[0, 1] == pytest.approx(1.0, abs=1e-14)
    assert g[1, 1] == pytest.approx(0.0, abs=1e-14)
    # exact truncation penalty of the full exchange
    dev = verify_gibbs_preserving(ch, ladder_gamma(2, q), 1.0).deviation
    expect = (1.0 - q) * q ** (N_KEEP + 1) / ((1.0 - q ** (N_KEEP + 1)) * (1.0 + q))
    assert dev == pytest.approx(expect, rel=1e-10)
    # coherence is killed outright
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    assert abs(ch.apply(rho)[1, 0]) <= 1e-15


@pytest.mark.parametrize("p00", [0.55, 0.75, 0.95])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_qubit_optimal_damping_ratio(p00, q):
    if p00 < 1.0 - q:
        pytest.skip("retention below the reachable floor")
    bath = BathSpec.from_q(q, N_KEEP)
    ch = sto_channel(qubit_optimal_sto(p00, bath), SystemSpec.ladder(2), bath)
    g = transition_matrix(ch).G
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    damping = abs(ch.apply(rho)[1, 0]) / 0.25
    ratio = damping / np.sqrt(g[0, 0] * g[1, 1])
    assert 1.0 - 10.0 * q**N_KEEP <= ratio <= 1.0 + 1e-12


def test_qubit_optimal_validation():
    bath = BathSpec.from_q(0.5, 10)
    with pytest.raises(ValueError):
        qubit_optimal_sto(0.4, bath)  # below 1 - q
    with pytest.raises(ValueError):
        qubit_optimal_sto(1.1, bath)


def test_simultaneous_beta_swap_kraus():
    x = 0.4
    ch = simultaneous_beta_swap_kraus(x, e2=2)
    assert ch.completeness_deviation <= 1e-15
    spec = SystemSpec.four_level(1, 2)
    assert verify_covariant(ch, spec, 1e-12).passed
    gamma = gibbs_state(spec, -np.log(x) / 2.0)
    assert verify_gibbs_preserving(ch, gamma, 1e-12).passed
    # population matrix and the mode action on the shared-gap coherences
    g = transition_matrix(ch).G
    expect = np.array(
        [[1 - x, 0, 1, 0], [0, 1 - x, 0, 1], [x, 0, 0, 0], [0, x, 0, 0]], dtype=float
    )
    assert np.abs(g - expect).max() <= 1e-15
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 0] = rho[0, 1] = 0.1
    rho[3, 2] = rho[2, 3] = 0.05
    out = ch.apply(rho)
    assert out[1, 0] == pytest.approx((1 - x) * 0.1 + 0.05, abs=1e-15)
    assert out[3, 2] == pytest.approx(x * 0.1, abs=1e-15)
    with pytest.raises(ValueError):
        simultaneous_beta_swap_kraus(0.0)


def test_simultaneous_beta_swap_sto_structure():
    bath = BathSpec.from_q(0.5, 8, epsilon=3)
    table, ch = simultaneous_beta_swap_sto(bath)
    sizes = {len(states) for _, states, _ in table}
    assert sizes <= {1, 2}
    # every two-state shell pairs (0,n) with (2,n-1) or (1,n) with (3,n-1)
    for _, states, _ in table:
        if len(states) == 2:
            (k0, n0), (k1, n1) = states
            assert (k0, k1) in {(0, 2), (1, 3)}
            assert n0 == n1 + 1
    assert cptp_deviation(ch) <= 1e-12
    with pytest.raises(ValueError):
        simultaneous_beta_swap_sto(BathSpec.from_q(0.5, 8, epsilon=1))


def test_simultaneous_beta_swap_sto_converges():
    x = 0.5
    exact = simultaneous_beta_swap_kraus(x, e2=2)
    dists = []
    for n in (5, 10, 20):
        bath = BathSpec.from_q(x, n, epsilon=2)
        _, ch = simultaneous_beta_swap_sto(bath)
        dists.append(choi_distance(exact, ch))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] <= 1e-5


def test_shell_sto_channel_identity():
    spec = SystemSpec.four_level(1, 3)
    bath = BathSpec.from_q(0.5, 8, epsilon=3)
    ch = shell_sto_channel(spec, bath, lambda energy, states: np.eye(len(states)))
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho[1, 0] = rho[0, 1] = 0.1
    assert np.abs(ch.apply(rho) - rho).max() <= 1e-14


def test_sto_population_matrix_exactly_gibbs(rng):
    for d, q in ((2, 0.3), (3, 0.5), (4, 0.8)):
        g = sto_population_matrix(random_blocks(d, 15, rng), q)
        assert np.abs(g.sum(axis=0) - 1.0).max() <= 1e-13
        gamma = q ** np.arange(d)
        gamma /= gamma.sum()
        assert np.abs(g @ gamma - gamma).max() <= 1e-13


def test_exto_optimal_channel(rng):
    q = 0.5
    spec = SystemSpec.ladder(3)
    gamma = ladder_gamma(3, q)
    for _ in range(5):
        g = sto_population_matrix(random_blocks(3, 12, rng), q)
        ch = exto_optimal_channel(g, spec)
        assert cptp_deviation(ch) <= 1e-12
        assert verify_covariant(ch, spec, 1e-12).passed
        assert verify_gibbs_preserving(ch, gamma, 1e-10).passed
        assert np.abs(transition_matrix(ch).G - g).max() <= 1e-13


def test_exto_optimal_validation():
    with pytest.raises(ValueError):
        exto_optimal_channel(np.eye(4) * 0.9, SystemSpec.four_level(1, 3))
    with pytest.raises(ValueError):
        # degenerate energies leave the gap -> partner map ambiguous
        exto_optimal_channel(np.eye(4), SystemSpec.four_level(1, 1))


def test_verify_rejects_bad_channels():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    had = KrausChannel((h,))
    assert not verify_covariant(had, SystemSpec.ladder(2), 1e-9).passed
    reset = KrausChannel((np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert not verify_gibbs_preserving(reset, ladder_gamma(2, 0.5), 1e-9).passed
