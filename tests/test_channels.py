import numpy as np
import pytest

from covariance_oracle import sampled_covariance_deviation
from shell_oracle import loop_a_vectors, loop_damping_blocks, loop_permutation_blocks, loop_population_matrix
from thermops.core import BathSpec, SystemSpec, gibbs_ladder, gibbs_state
from thermops.channels import (
    _enumerate_shells,
    _shell_columns,
    BlockUnitary,
    KrausChannel,
    a_vectors,
    choi_distance,
    cptp_deviation,
    damping_blocks,
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

N_KEEP = 20


def ladder_gamma(d, q):
    return np.diag(gibbs_ladder(d, q))


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


def test_block_unitary_validation(rng):
    bu = permutation_blocks(3, 7, range(3))
    assert bu.d == 3 and bu.top_shell == 7 and bu.stack.shape == (8, 3, 3)
    qubit = np.zeros((2, 2, 2))
    qubit[0, 0, 0] = 1.0
    qubit[1] = [[1.0, 0.0], [1.0, 1.0]]  # shell 1 is not unitary
    with pytest.raises(ValueError, match="not unitary"):
        BlockUnitary(qubit)
    qubit[1] = np.eye(2)
    qubit[0, 0, 0] = np.nan  # NaN inside shell 0's block
    with pytest.raises(ValueError, match="not unitary"):
        BlockUnitary(qubit)

    # one stacked check covers partial shells, deep full shells and NaN
    good = random_blocks(3, 40, rng).stack
    partial, deep, nan = good.copy(), good.copy(), good.copy()
    partial[1, :2, :2] = np.diag([1.0, 1.0 + 1e-9])  # shell 1 of 3 levels holds 2
    deep[30] = good[30] @ np.diag([1.0, 1.0, 1.0 + 1e-9])
    nan[30] = np.nan
    batch = np.stack([good, good])
    batch[1, 30, 0, 0] += 1e-9  # one non-unitary member fails the whole batch
    for stack in (partial, deep, nan, batch):
        with pytest.raises(ValueError, match="not unitary"):
            BlockUnitary(stack)

    # partial shell j keeps its leading (j+1)x(j+1) block; the padding is zero
    for value in (1e-300, np.nan):
        padded = good.copy()
        padded[1, 2, 0] = value
        with pytest.raises(ValueError, match=r"^shell 1 is nonzero outside its 2x2 block$"):
            BlockUnitary(padded)
        # in a batch, the lowest offending shell of any member is named
        batch = np.stack([good, good, good])
        batch[2, 1, 0, 2] = value
        batch[1, 0, 1, 0] = 1.0  # shell 0 of another member is unitary but padded
        with pytest.raises(ValueError, match=r"^shell 0 is nonzero outside its 1x1 block$"):
            BlockUnitary(batch)
        batch[1] = good
        with pytest.raises(ValueError, match=r"^shell 1 is nonzero outside its 2x2 block$"):
            BlockUnitary(batch[None])
    with pytest.raises(ValueError, match=r"^shell 0 is nonzero outside its 1x1 block$"):
        BlockUnitary(np.eye(2)[None])  # shell 0 holds one level
    with pytest.raises(ValueError, match=r"^shell 0 is nonzero outside its 1x1 block$"):
        BlockUnitary([[[0.0, 0.0], [1.0, 0.0]]])  # unitary columns, but not on shell 0

    for shape in ((3, 3), (2, 3, 2), (2, 0, 0), (2, 3, 3, 1)):
        with pytest.raises(ValueError, match=r"^stack must have shape \(\.\.\., shells, d, d\) with d >= 1"):
            BlockUnitary(np.zeros(shape))


def test_block_unitary_stack(rng):
    bu = random_blocks(3, 6, rng)
    assert bu.stack.shape == (7, 3, 3) and bu.stack.dtype == complex
    assert bu.d == 3 and bu.top_shell == 6
    for j in range(2):  # the partial shells
        assert not bu.stack[j, j + 1 :].any() and not bu.stack[j, :, j + 1 :].any()
    with pytest.raises(ValueError):
        bu.stack[3, 0, 0] = 2.0

    # the stack is a read-only copy of the input
    source = np.array(bu.stack)
    copy = BlockUnitary(source)
    source[3] = 0.0
    assert np.array_equal(copy.stack, bu.stack) and not copy.stack.flags.writeable
    identity = permutation_blocks(2, 3, range(2))
    real = BlockUnitary(identity.stack.real)
    assert real.stack.dtype == complex and np.array_equal(real.stack, identity.stack)

    empty = BlockUnitary(np.zeros((0, 3, 3)))
    assert empty.d == 3 and empty.top_shell == -1 and empty.stack.shape == (0, 3, 3)

    # leading axes are a batch of stacks; d and top_shell are its members'
    batch = BlockUnitary(np.broadcast_to(bu.stack, (2, 4, 7, 3, 3)))
    assert batch.d == 3 and batch.top_shell == 6 and batch.stack.shape[:-3] == (2, 4)
    assert np.array_equal(batch.stack[1, 2], bu.stack) and not batch.stack.flags.writeable
    assert BlockUnitary(np.zeros((0, 5, 3, 3))).stack.shape == (0, 5, 3, 3)


@pytest.mark.parametrize(
    "name, build",
    [
        ("perm", lambda: permutation_blocks(3, 5, (1, 0))),
        ("perm", lambda: permutation_blocks(2, 5, (1, 0, 2))),
        ("perm", lambda: permutation_blocks(3, 5, (0, 0, 1))),
        ("top_shell", lambda: permutation_blocks(3, -1, (0, 1, 2))),
        ("pair", lambda: damping_blocks(3, 5, (0, 7), 0.5)),
        ("pair", lambda: damping_blocks(3, 5, (1, 1), 0.5)),
        ("r", lambda: damping_blocks(3, 5, (0, 1), -0.5)),
        ("r", lambda: damping_blocks(3, 5, (0, 1), 1.5)),
        ("r", lambda: damping_blocks(3, 5, (0, 1), np.nan)),
        ("top_shell", lambda: random_blocks(3, -1, np.random.Generator(np.random.Philox(1)))),
        ("d", lambda: random_blocks(0, 5, np.random.Generator(np.random.Philox(1)))),
    ],
)
def test_block_family_input_checks(name, build):
    with pytest.raises(ValueError, match=f"^{name} must"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: permutation_blocks(2, 3, range(2)),
        lambda: KrausChannel((np.eye(2),)),
    ],
)
def test_array_holders_compare_by_identity(build):
    # a field-wise == would ask numpy arrays for a truth value and raise
    x, copy = build(), build()
    assert x == x
    assert not x == copy
    assert x != copy


def test_kraus_validation():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 0.5,))
    with pytest.raises(ValueError):
        KrausChannel((np.full((2, 2), np.nan),))
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2), np.eye(2)), shifts=(0,))
    for bad in (1.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="^each shift must be a whole number"):
            KrausChannel((np.eye(2),), shifts=(bad,))
    assert KrausChannel((np.eye(2),), shifts=(np.int64(-2),)).shifts == (-2,)
    ch = KrausChannel((np.eye(2),), shifts=(0,))
    assert ch.dim == 2
    assert cptp_deviation(ch) <= 1e-15
    assert np.trace(ch.choi()).real == pytest.approx(2.0)


@pytest.mark.parametrize(
    "kraus, message",
    [
        ((), "need at least one Kraus operator"),
        (np.zeros((0, 2, 2)), "need at least one Kraus operator"),
        ((np.eye(2), np.eye(3)), "all Kraus operators must be square of equal dimension"),
        ((np.eye(2), np.zeros((2, 3))), "all Kraus operators must be square of equal dimension"),
        ((np.zeros((2, 3)),), "all Kraus operators must be square of equal dimension"),
        (np.eye(2), "all Kraus operators must be square of equal dimension"),  # rows, not matrices
    ],
)
def test_kraus_shape_checks(kraus, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        KrausChannel(kraus)


def test_channels_of_different_dimensions_do_not_combine():
    qubit, qutrit = KrausChannel((np.eye(2),)), KrausChannel((np.eye(3),))
    for combine in (choi_distance, KrausChannel.compose):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            combine(qubit, qutrit)


def test_kraus_stack_is_read_only_copy():
    ops = np.array([np.eye(2)])
    ch = KrausChannel(ops)
    assert ch.kraus.shape == (1, 2, 2) and ch.kraus.dtype == complex
    ops[0, 0, 0] = 5.0  # the caller's array is not the channel's
    assert ch.kraus[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        ch.kraus[0, 0, 0] = 2.0


def test_transition_matrix_validation():
    """transition_matrix returns the population dynamics as a plain float
    array; a G handed in from outside is checked where it enters."""
    ch = simultaneous_beta_swap_kraus(0.5)
    g = transition_matrix(ch)
    assert type(g) is np.ndarray and g.dtype == float and g.shape == (4, 4)
    assert np.abs(g.sum(axis=0) - 1.0).max() <= 1e-15
    spec = SystemSpec.four_level(1, 3)
    with pytest.raises(ValueError, match="^G columns must sum to 1"):
        exto_optimal_channel(np.array([[0.5, 0.0], [0.4, 1.0]]), SystemSpec.ladder(2))
    with pytest.raises(ValueError, match="^G must be finite"):
        exto_optimal_channel(np.full((4, 4), np.nan), spec)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        exto_optimal_channel(np.eye(3), spec)


@pytest.mark.parametrize(
    "gamma, message",
    [
        (np.full((2, 2), np.nan), "gamma must have finite entries"),
        (np.array([[0.5, 0.4], [0.1, 0.5]]), "gamma must be Hermitian"),
        (np.eye(2), "gamma must have trace 1"),
        (np.array([0.5, 0.5]), "gamma must be a nonempty square matrix"),
    ],
    ids=["nan", "non-hermitian", "trace-2", "vector"],
)
def test_verify_gibbs_preserving_checks_gamma(gamma, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        verify_gibbs_preserving(KrausChannel((np.eye(2),)), gamma)


# ---------------------------------------------------------------------------
# assembled ladder channels


def test_identity_blocks_make_identity_channel(rng):
    bath = BathSpec.from_q(0.5, 10)
    spec = SystemSpec.ladder(3)
    ch = sto_channel(permutation_blocks(3, 12, range(3)), spec, bath)
    rho = random_test_state(rng, 3)
    assert np.abs(ch.apply(rho) - rho).max() <= 1e-14
    assert np.abs(transition_matrix(ch) - np.eye(3)).max() <= 1e-14


def test_sto_channel_requires_resonant_ladder():
    bath = BathSpec.from_q(0.5, 10)
    with pytest.raises(ValueError):
        sto_channel(permutation_blocks(2, 11, range(2)), SystemSpec((0, 2)), bath)
    with pytest.raises(ValueError):
        sto_channel(permutation_blocks(2, 5, range(2)), SystemSpec.ladder(2), bath)  # too few shells
    batch = BlockUnitary(permutation_blocks(2, 11, range(2)).stack[None])
    with pytest.raises(ValueError, match=r"^sto_channel builds one channel, got a batch of shape \(1,\)$"):
        sto_channel(batch, SystemSpec.ladder(2), bath)


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
        g = transition_matrix(ch)
        # no-exchange constraints on the population dynamics
        assert g[0, 0] >= 1.0 - q - 1e-10
        for k in range(d):
            for kp in range(k + 1, d):
                assert g[kp, k] <= q ** (kp - k) + 1e-10


def test_transfer_matches_channel_orientation(rng):
    """The a_vectors inner product sum_n A[i, c, n] conj(A[j, d, n]) must be
    the actual channel matrix element <i| ch(|c><d|) |j>, not its
    conjugate."""
    bath = BathSpec.from_q(0.5, 12)
    spec = SystemSpec.ladder(3)
    blocks = random_blocks(3, 14, rng)
    ch = sto_channel(blocks, spec, bath)
    av = a_vectors(blocks, bath)
    for (c, d, i, j) in [(0, 1, 0, 1), (1, 2, 0, 1), (0, 2, 0, 2), (1, 0, 2, 1)]:
        unit = np.zeros((3, 3), dtype=complex)
        unit[c, d] = 1.0
        got = ch.apply(unit)[i, j]
        want = np.sum(av[i, c] * av[j, d].conj())
        assert abs(got - want) <= 1e-12


def test_transfer_cauchy_schwarz(rng):
    bath = BathSpec.from_q(0.8, N_KEEP)
    for _ in range(10):
        blocks = random_blocks(3, N_KEEP + 2, rng)
        av = a_vectors(blocks, bath)
        p = (np.abs(av) ** 2).sum(axis=2)
        t = np.einsum("icn,jdn->icjd", av, av.conj())
        for c in range(3):
            for d in range(3):
                for i in range(3):
                    for j in range(3):
                        if i - c != j - d:
                            continue
                        assert abs(t[i, c, j, d]) <= np.sqrt(p[i, c] * p[j, d]) + 1e-10


def test_a_vectors_consistent_with_channel(rng):
    bath = BathSpec.from_q(0.5, 15)
    blocks = random_blocks(3, 17, rng)
    av = a_vectors(blocks, bath)
    g = transition_matrix(sto_channel(blocks, SystemSpec.ladder(3), bath))
    assert np.abs((np.abs(av) ** 2).sum(axis=2) - g).max() <= 1e-12
    assert np.abs((np.abs(av) ** 2).sum(axis=(0, 2)) - 1.0).max() <= 1e-12  # unit column weight
    with pytest.raises(ValueError, match=r"^blocks must cover shells 0\.\.17, got 10$"):
        a_vectors(permutation_blocks(3, 10, range(3)), bath)
    with pytest.raises(ValueError, match=r"^blocks must cover shells 0\.\.17, got 10$"):
        sto_channel(permutation_blocks(3, 10, range(3)), SystemSpec.ladder(3), bath)


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


def raw_shell_channel(spec, bath, block_for_shell):
    """One Kraus operator per mode transition n -> m, never compressed."""
    weights, by_mn = bath.gibbs_weights(), {}
    for energy, states in _enumerate_shells(spec, bath):
        b = block_for_shell(energy, states)
        for col, (k_in, n_in) in enumerate(states):
            for row, (k_out, n_out) in enumerate(states):
                if n_in <= bath.truncation:
                    k = by_mn.setdefault((n_out, n_in), np.zeros((spec.d, spec.d), dtype=complex))
                    k[k_out, k_in] += np.sqrt(weights[n_in]) * b[row, col]
    return KrausChannel(tuple(by_mn.values()), tuple((n - m) * bath.epsilon for m, n in by_mn))


def assert_same_channel(canonical, raw, rng):
    d = raw.dim
    rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert choi_distance(canonical, raw) <= 1e-13
    assert np.abs(canonical.apply(rho) - raw.apply(rho)).max() <= 1e-13
    assert len(canonical.kraus) <= d * d
    assert set(canonical.shifts) == {s for k, s in zip(raw.kraus, raw.shifts) if k.any()}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sto_channel_matches_raw_kraus(d, rng):
    bath = BathSpec.from_q(0.5, N_KEEP)
    blocks = random_blocks(d, N_KEEP + d - 1, rng)
    spec = SystemSpec.ladder(d)
    # on a unit-spaced ladder the shell at energy j is stack[j], states in level order
    raw = raw_shell_channel(spec, bath, lambda e, st: blocks.stack[e, : len(st), : len(st)])
    assert_same_channel(sto_channel(blocks, spec, bath), raw, rng)


def test_shell_sto_channel_matches_raw_kraus(rng):
    spec = SystemSpec.four_level(1, 3)
    bath = BathSpec.from_q(0.5, N_KEEP, epsilon=3)
    table = {e: haar_stack(rng, 1, len(st))[0] for e, st in _enumerate_shells(spec, bath)}
    raw = raw_shell_channel(spec, bath, lambda energy, states: table[energy])
    assert_same_channel(shell_sto_channel(spec, bath, lambda energy, states: table[energy]), raw, rng)


def test_compose_matches_raw_kraus(rng):
    """Raw factors, so a conjugating compose cannot hide behind a
    conjugating assembler."""
    bath = BathSpec.from_q(0.5, 10)
    spec = SystemSpec.ladder(3)
    blocks = [random_blocks(3, 12, rng) for _ in range(2)]
    a, b = (
        raw_shell_channel(spec, bath, lambda e, st, bu=bu: bu.stack[e, : len(st), : len(st)]) for bu in blocks
    )
    raw = KrausChannel(
        tuple(x @ y for x in a.kraus for y in b.kraus), tuple(sx + sy for sx in a.shifts for sy in b.shifts)
    )
    assert_same_channel(a.compose(b), raw, rng)


def test_mode_independence(rng):
    """The image of a single coherence mode stays inside that mode."""
    bath = BathSpec.from_q(0.5, 12)
    spec = SystemSpec.ladder(3)
    ch = sto_channel(random_blocks(3, 14, rng), spec, bath)
    rho = random_test_state(rng, 3)
    gap = np.subtract.outer(spec.energies, spec.energies)
    for m in (-2, -1, 0, 1, 2):
        out = ch.apply(np.where(gap == m, rho, 0.0))
        assert np.abs(out[gap != m]).max() <= 1e-14


# ---------------------------------------------------------------------------
# named constructions


def test_beta_swap_qubit():
    q = 0.5
    bath = BathSpec.from_q(q, N_KEEP)
    ch = sto_channel(permutation_blocks(2, N_KEEP + 1, (1, 0)), SystemSpec.ladder(2), bath)
    g = transition_matrix(ch)
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


@pytest.mark.parametrize("share", [0.0, 0.55, 0.75, 0.95, 1.0])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_qubit_optimal_damping_ratio(share, q):
    bath = BathSpec.from_q(q, N_KEEP)
    ch = sto_channel(qubit_optimal_sto(share, bath), SystemSpec.ladder(2), bath)
    g = transition_matrix(ch)
    assert g[1, 1] == pytest.approx(1.0 - share, abs=10.0 * q**N_KEEP)
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    damping = abs(ch.apply(rho)[1, 0]) / 0.25
    bound = np.sqrt(g[0, 0] * g[1, 1])
    assert (1.0 - 10.0 * q**N_KEEP) * bound <= damping <= bound + 1e-12


@pytest.mark.parametrize("q", [1e-4, 1e-8, 1e-12])
def test_qubit_optimal_full_exchange_is_exact_at_small_q(q):
    # share 1 empties the excited level exactly, and with it the coherence
    bath = BathSpec.from_q(q, 10)
    ch = sto_channel(qubit_optimal_sto(1.0, bath), SystemSpec.ladder(2), bath)
    assert transition_matrix(ch)[1, 1] == 0.0
    assert ch.apply(np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex))[1, 0] == 0.0


def test_qubit_optimal_validation():
    bath = BathSpec.from_q(0.5, 10)
    for share in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError, match="^share must"):
            qubit_optimal_sto(share, bath)


def test_simultaneous_beta_swap_kraus():
    x = 0.4
    ch = simultaneous_beta_swap_kraus(x, e2=2)
    assert ch.completeness_deviation <= 1e-15
    spec = SystemSpec.four_level(1, 2)
    assert verify_covariant(ch, spec, 1e-12).passed
    gamma = gibbs_state(spec, -np.log(x) / 2.0)
    assert verify_gibbs_preserving(ch, gamma, 1e-12).passed
    # population matrix and the mode action on the shared-gap coherences
    g = transition_matrix(ch)
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
    for e2 in (2.5, 0, -1):
        with pytest.raises(ValueError, match="^e2 must be a whole number >= 1"):
            simultaneous_beta_swap_kraus(x, e2=e2)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
def test_sto_population_matrix_validates_q(bad):
    with pytest.raises(ValueError, match="q must"):
        sto_population_matrix(permutation_blocks(3, 5, range(3)), bad)
    for q in (0.0, 1.0):  # the zero- and infinite-temperature ends
        assert np.array_equal(sto_population_matrix(permutation_blocks(3, 5, range(3)), q), np.eye(3))


def test_sto_population_matrix_tail_below_full_shells(rng):
    # shells above the top are identity, so an input level above the top
    # shell stays put with probability 1
    g = sto_population_matrix(random_blocks(4, 0, rng), 0.5)
    assert np.abs(g - np.eye(4)).max() <= 1e-15
    assert np.array_equal(g[:, 1:], np.eye(4)[:, 1:])
    g = sto_population_matrix(random_blocks(4, 1, rng), 0.5)
    assert np.abs(g.sum(axis=0) - 1.0).max() <= 1e-15
    assert np.array_equal(g[:, 2:], np.eye(4)[:, 2:])
    no_shells = BlockUnitary(np.zeros((0, 4, 4)))
    assert np.array_equal(sto_population_matrix(no_shells, 0.5), np.eye(4))


# ---------------------------------------------------------------------------
# stacked readers against the shell-by-shell reference (bit for bit)


def _families(d, top, rng):
    yield random_blocks(d, top, rng)
    yield permutation_blocks(d, top, tuple(int(k) for k in rng.permutation(d)))
    if d >= 2:
        pair = tuple(int(k) for k in rng.choice(d, 2, replace=False))
        yield damping_blocks(d, top, pair, float(rng.uniform()))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_readers_match_shell_loops(d, rng):
    # top shells below (where the reference is valid), at and above d - 1
    for top in sorted({max(0, d - 2), d - 1, d, d + 7, 42}):
        members = list(_families(d, top, rng))
        batch = BlockUnitary(np.stack([bu.stack for bu in members]))  # read at once, bit for bit
        for b, bu in enumerate(members):
            p = rng.dirichlet(np.ones(d))
            for q in (0.0, 0.3, 0.5, 0.97, 1.0):
                g, ref = sto_population_matrix(bu, q), loop_population_matrix(bu, q)
                assert np.array_equal(g, ref)
                assert np.array_equal(g @ p, ref @ p)  # a strided g would round differently
                member = sto_population_matrix(batch, q)[b]
                assert np.array_equal(member, g) and np.array_equal(member @ p, g @ p)
                assert np.array_equal(ideal_mode_amplitudes(batch, q)[b], ideal_mode_amplitudes(bu, q))
            if top - d + 1 >= 1:
                bath = BathSpec.from_q(0.6, top - d + 1)
                assert np.array_equal(a_vectors(bu, bath), loop_a_vectors(bu, bath))
                assert np.array_equal(a_vectors(batch, bath)[b], a_vectors(bu, bath))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_shell_columns_batched(d, rng):
    top = d + 5
    stacks = np.stack([random_blocks(d, top, rng).stack for _ in range(4)])
    for count in (1, 2, top - d + 2, top + 1, top + 4):
        batched = _shell_columns(stacks, count)
        assert batched.shape == (4, d, d, count)
        for b, stack in enumerate(stacks):
            single = _shell_columns(stack, count)
            assert np.array_equal(batched[b], single)
            for k_out in range(d):
                for k_in in range(d):
                    for n in range(count):
                        # shells past the stack read as zero
                        want = stack[k_in + n, k_out, k_in] if k_in + n <= top else 0.0
                        assert single[k_out, k_in, n] == want
    for bad in (0, -1, 1.5, np.nan):
        with pytest.raises(ValueError, match="^count must"):
            _shell_columns(stacks, bad)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_block_families_match_per_shell_construction(d, rng):
    for top in (0, d - 1, d + 9):
        for _ in range(4):
            perm = tuple(int(k) for k in rng.permutation(d))
            ref = loop_permutation_blocks(d, top, perm)
            assert np.array_equal(permutation_blocks(d, top, perm).stack, ref)
            if d >= 2:
                pair = tuple(int(k) for k in rng.choice(d, 2, replace=False))
                for r in (0.0, float(rng.uniform()), 1.0):
                    ref = loop_damping_blocks(d, top, pair, r)
                    got = damping_blocks(d, top, pair, r).stack
                    assert np.array_equal(got, ref)
                    assert np.array_equal(np.signbit(got.real), np.signbit(ref))  # -0.0 kept
        # Haar blocks: one single-matrix draw per shell, in shell order
        seed = int(rng.integers(2**32))
        got = random_blocks(d, top, np.random.Generator(np.random.Philox(seed))).stack
        ref_rng = np.random.Generator(np.random.Philox(seed))
        assert got.shape == (top + 1, d, d)
        for j in range(top + 1):
            size = min(d, j + 1)
            assert np.array_equal(got[j, :size, :size], haar_stack(ref_rng, 1, size)[0])
            assert not got[j, size:].any() and not got[j, :, size:].any()


# ---------------------------------------------------------------------------
# the batched single-mode engine against the Kraus assemblers


@pytest.mark.parametrize("d", [2, 3, 4])
def test_mode_apply_matches_sto_channel(d, rng):
    spec = SystemSpec.ladder(d)
    bath = BathSpec(0.6, 12)
    blocks = [random_blocks(d, bath.truncation + d - 1, rng) for _ in range(3)]
    rho = random_test_state(rng, d)
    out = mode_apply(np.stack([a_vectors(b, bath) for b in blocks]), rho, spec)
    assert out.shape == (3, d, d)
    for b, o in zip(blocks, out):
        assert np.abs(o - sto_channel(b, spec, bath).apply(rho)).max() <= 1e-12
    with pytest.raises(ValueError, match="^dimension mismatch"):
        mode_apply(a_vectors(blocks[0], bath), np.eye(d + 1) / (d + 1), spec)


def test_mode_apply_matches_shell_channel_on_four_level_grid(rng):
    # the level pairs 0-2 and 1-3 are two qubit ladders under the gap-3 mode;
    # the gap-1 coherences between them share modes with no ladder's
    spec = SystemSpec.four_level(1, 3)
    bath = BathSpec(0.4, 10, epsilon=3)
    lower, upper = (random_blocks(2, bath.truncation + 1, rng) for _ in range(2))
    a = np.zeros((4, 4, bath.truncation + 1), dtype=complex)
    a[0::2, 0::2] = a_vectors(lower, bath)
    a[1::2, 1::2] = a_vectors(upper, bath)

    def block(energy, states):
        level, n = states[0]  # joint state (0 or 1, n) opens shell n of its ladder
        return (lower if level == 0 else upper).stack[n, : len(states), : len(states)]

    rho = random_test_state(rng, 4)
    ref = shell_sto_channel(spec, bath, block).apply(rho)
    assert np.abs(mode_apply(a, rho, spec) - ref).max() <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ideal_mode_amplitudes_are_the_untruncated_channel(d, rng):
    spec = SystemSpec.ladder(d)
    for top in sorted({0, d - 1, d + 6}):
        blocks = [random_blocks(d, top, rng) for _ in range(3)]
        for q in (0.0, 0.3, 0.8, 1.0):
            a = ideal_mode_amplitudes(BlockUnitary(np.stack([b.stack for b in blocks])), q)
            assert a.shape == (3, d, d, top + 2)
            gamma = ladder_gamma(d, q)
            for b, amp, out in zip(blocks, a, mode_apply(a, gamma, spec)):
                assert np.abs((np.abs(amp) ** 2).sum(axis=-1) - sto_population_matrix(b, q)).max() <= 1e-15
                assert np.abs(out - gamma).max() <= 1e-15
            # the last column is the identity remainder of all n > top
            assert np.array_equal(a[..., -1], np.broadcast_to(np.sqrt(q ** (top + 1)) * np.eye(d), (3, d, d)))


def test_ideal_mode_amplitudes_validation():
    blocks = permutation_blocks(3, 5, range(3))
    for bad in (np.nan, -0.1, 1.1):
        with pytest.raises(ValueError, match="^q must"):
            ideal_mode_amplitudes(blocks, bad)
    # a raw array is not read: the stack must pass `BlockUnitary` first
    with pytest.raises(AttributeError):
        ideal_mode_amplitudes(np.ones((3, 2, 2)), 0.5)
    with pytest.raises(ValueError, match=r"^shell 0 is nonzero outside its 1x1 block$"):
        ideal_mode_amplitudes(BlockUnitary(np.ones((3, 2, 2))), 0.5)


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
        assert np.abs(transition_matrix(ch) - g).max() <= 1e-13


def test_exto_optimal_validation():
    with pytest.raises(ValueError):
        exto_optimal_channel(np.eye(4) * 0.9, SystemSpec.four_level(1, 3))
    with pytest.raises(ValueError):
        # degenerate energies leave the gap -> partner map ambiguous
        exto_optimal_channel(np.eye(4), SystemSpec.four_level(1, 1))


def mixed_amplitude_damping(damping):
    """Qubit amplitude damping written with the untagged operators
    (K0 +- K1)/sqrt(2): each mixes two energy shifts (at damping 0.3 an
    operator holds 0.387 off its main one), yet the channel is the
    covariant one that K0, K1 define."""
    k0 = np.diag([1.0, np.sqrt(1.0 - damping)])
    k1 = np.array([[0.0, np.sqrt(damping)], [0.0, 0.0]])
    return KrausChannel(((k0 + k1) / np.sqrt(2.0), (k0 - k1) / np.sqrt(2.0)))


def covariance_cases(rng):
    """(name, channel, spec, covariant?) for the agreement test."""
    for d in (2, 3, 4):
        bath = BathSpec.from_q(0.5, 12)
        spec = SystemSpec.ladder(d)
        for _ in range(3):
            yield f"haar d={d}", sto_channel(random_blocks(d, 12 + d - 1, rng), spec, bath), spec, True
    spec3 = SystemSpec.ladder(3)
    g = sto_population_matrix(random_blocks(3, 12, rng), 0.5)
    yield "exto-optimal ladder", exto_optimal_channel(g, spec3), spec3, True
    g4 = np.array([[0.6, 0, 1, 0], [0, 0.6, 0, 1], [0.4, 0, 0, 0], [0, 0.4, 0, 0]])
    spec4 = SystemSpec.four_level(1, 3)
    yield "exto-optimal four-level", exto_optimal_channel(g4, spec4), spec4, True
    for e2 in (1, 2):
        spec = SystemSpec.four_level(1, e2)
        yield f"sim-beta-swap e2={e2}", simultaneous_beta_swap_kraus(0.4, e2=e2), spec, True
    bath = BathSpec.from_q(0.5, 10)
    spec2 = SystemSpec.ladder(2)
    a, b = (sto_channel(random_blocks(2, 11, rng), spec2, bath) for _ in range(2))
    yield "tagged compose", a.compose(b), spec2, True
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    yield "hadamard", KrausChannel((h,)), spec2, False
    yield "mixed amplitude damping", mixed_amplitude_damping(0.3), spec2, True


def test_exact_covariance_agrees_with_sampled_reference(rng):
    for name, ch, spec, covariant in covariance_cases(rng):
        exact = verify_covariant(ch, spec, 1e-12)
        sampled = sampled_covariance_deviation(ch, spec) <= 1e-12
        assert exact.passed is sampled is covariant, name


def test_wrong_shift_tag_fails_covariance():
    """The identity is covariant, but not as an operator of shift 1."""
    spec = SystemSpec.ladder(2)
    assert verify_covariant(KrausChannel((np.eye(2),), (0,)), spec).passed
    report = verify_covariant(KrausChannel((np.eye(2),), (1,)), spec)
    assert not report.passed and report.deviation == 1.0
    assert sampled_covariance_deviation(KrausChannel((np.eye(2),), (1,)), spec) == 0.0


def test_verify_rejects_bad_channels():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    had = KrausChannel((h,))
    assert not verify_covariant(had, SystemSpec.ladder(2), 1e-9).passed
    reset = KrausChannel((np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert not verify_gibbs_preserving(reset, ladder_gamma(2, 0.5), 1e-9).passed
