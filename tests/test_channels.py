"""Channel numerics: projector form vs phase-mixture form."""

import numpy as np
import pytest

from lrcirc.channels import (
    Channel,
    DimensionError,
    LeakageFunction,
    assert_density_matrix,
    channel_distance,
    dephasing_channel,
    equivalence_sweep,
    leakage_channel,
    mixture_channel,
    random_density_matrix,
)

Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def apply_by_terms(terms, rho: np.ndarray) -> np.ndarray:
    """Reference: the operator sum over (weight, diagonal) terms, each
    Kraus operator built dense from its diagonal."""
    out = np.zeros_like(rho, dtype=complex)
    for w, d in terms:
        op = np.diag(d)
        out += w * (op @ rho @ op.conj().T)
    return out


def distance_by_probes(t1, t2) -> float:
    """Reference: max entrywise output gap over the probe states |i>,
    (|i>+|j>)/sqrt2 and (|i>+i|j>)/sqrt2, applied through `apply_by_terms`."""
    dim = len(t1[0][1])
    vectors = list(np.eye(dim, dtype=complex))
    for i in range(dim):
        for j in range(i + 1, dim):
            for phase in (1.0, 1j):
                v = np.zeros(dim, dtype=complex)
                v[i], v[j] = 1 / np.sqrt(2), phase / np.sqrt(2)
                vectors.append(v)
    return max(
        float(np.abs(apply_by_terms(t1, rho) - apply_by_terms(t2, rho)).max())
        for rho in (np.outer(v, v.conj()) for v in vectors)
    )


def _random_diagonal_channel(dim: int, terms: int, rng):
    """A channel of random phase diagonals, with the drawn (weight,
    diagonal) terms as its reference."""
    weights = rng.dirichlet(np.ones(terms))
    diags = [np.exp(2j * np.pi * rng.random(dim)) for _ in range(terms)]
    return Channel(weights, np.array(diags)), list(zip(weights, diags))


def _channels_on(n: int, rng):
    """Leakage, dephasing and mixture channels on three random functions,
    each paired with its terms built one by one from the functions."""
    ls = [LeakageFunction.random(n, int(rng.integers(1, 2 ** n + 1)), rng) for _ in range(3)]
    probs = rng.dirichlet(np.ones(3))
    mix = [(p * w, d) for l, p in zip(ls, probs) for w, d in _terms_one_by_one(l, True)]
    return [*((leakage_channel(l), _terms_one_by_one(l, False)) for l in ls),
            *((dephasing_channel(l), _terms_one_by_one(l, True)) for l in ls),
            (mixture_channel(list(zip(ls, probs))), mix)]


_IDENT2 = [(1.0, np.ones(2, dtype=complex))]


def _identity_channel(dim: int) -> Channel:
    return Channel(np.ones(1), np.ones((1, dim)))


def test_constant_function_gives_identity_channel():
    l = LeakageFunction.constant(2)
    ch = leakage_channel(l)
    rng = np.random.default_rng(0)
    rho = random_density_matrix(4, rng)
    assert np.abs(ch(rho) - rho).max() < 1e-14
    # d = 1 in the phase form as well
    assert np.abs(dephasing_channel(l)(rho) - rho).max() < 1e-14


def test_single_wire_identity_leak_dephases_plus():
    l = LeakageFunction.identity(1)
    out = leakage_channel(l)(PLUS)
    assert np.abs(out - np.diag([0.5, 0.5])).max() < 1e-14


def test_single_wire_phase_form_is_half_rho_plus_zrhoz():
    l = LeakageFunction.identity(1)
    ch = dephasing_channel(l)
    rng = np.random.default_rng(1)
    for _ in range(10):
        rho = random_density_matrix(2, rng)
        want = 0.5 * (rho + Z @ rho @ Z)
        assert np.abs(ch(rho) - want).max() < 1e-12


def test_parity_leak_keeps_coherence_within_level_sets():
    l = LeakageFunction.parity(2)
    # direct projector computation, independent of the channel code
    p_even = np.diag([1.0, 0, 0, 1.0]).astype(complex)
    p_odd = np.diag([0, 1.0, 1.0, 0]).astype(complex)
    rng = np.random.default_rng(2)
    rho = random_density_matrix(4, rng)
    want = p_even @ rho @ p_even + p_odd @ rho @ p_odd
    assert np.abs(leakage_channel(l)(rho) - want).max() < 1e-12
    # coherence survives exactly inside {00,11} and {01,10}
    out = leakage_channel(l)(rho)
    assert abs(out[0, 3] - rho[0, 3]) < 1e-12
    assert abs(out[1, 2] - rho[1, 2]) < 1e-12
    assert abs(out[0, 1]) < 1e-12 and abs(out[2, 3]) < 1e-12


def test_gapped_alphabet_is_relabeled():
    # values {0, 2}: naive omega powers would keep the cross coherence
    l = LeakageFunction(1, (0, 2))
    assert l.alphabet_size == 2
    d = channel_distance(leakage_channel(l), dephasing_channel(l))
    assert d < 1e-12


def test_dephasing_matches_leakage_on_random_functions_d3():
    rng = np.random.default_rng(3)
    for _ in range(10):
        l = LeakageFunction.random(2, 3, rng)
        rho = random_density_matrix(4, rng)
        a = leakage_channel(l)(rho)
        b = dephasing_channel(l)(rho)
        assert np.abs(a - b).max() < 1e-10


def test_mixture_single_function_equals_dephasing():
    l = LeakageFunction.parity(2)
    mix = mixture_channel([(l, 1.0)])
    rng = np.random.default_rng(4)
    rho = random_density_matrix(4, rng)
    assert np.abs(mix(rho) - dephasing_channel(l)(rho)).max() < 1e-14


def test_mixture_two_functions_averages():
    l1 = LeakageFunction.parity(2)
    l2 = LeakageFunction.identity(2)
    mix = mixture_channel([(l1, 0.5), (l2, 0.5)])
    rng = np.random.default_rng(5)
    rho = random_density_matrix(4, rng)
    want = 0.5 * dephasing_channel(l1)(rho) + 0.5 * dephasing_channel(l2)(rho)
    assert np.abs(mix(rho) - want).max() < 1e-14


def test_mixture_equals_mixture_of_leakage_channels_on_random_states():
    rng = np.random.default_rng(6)
    ls = [LeakageFunction.random(2, 3, rng) for _ in range(3)]
    probs = [0.5, 0.25, 0.25]
    mix = mixture_channel(list(zip(ls, probs)))
    for _ in range(50):
        rho = random_density_matrix(4, rng)
        want = sum(p * leakage_channel(l)(rho) for l, p in zip(ls, probs))
        assert np.abs(mix(rho) - want).max() < 1e-10


def test_mixture_rejects_bad_distribution():
    l = LeakageFunction.identity(1)
    with pytest.raises(ValueError):
        mixture_channel([(l, 0.7), (l, 0.7)])


def test_channel_distance_self_is_zero():
    l = LeakageFunction.random(2, 4, np.random.default_rng(7))
    ch = leakage_channel(l)
    assert channel_distance(ch, ch) == 0.0
    # `==` is identity: it never compares the arrays, so it cannot raise
    assert ch == ch and ch != leakage_channel(l)


def test_channel_distance_identity_vs_full_dephasing():
    ident = _identity_channel(2)
    deph = dephasing_channel(LeakageFunction.identity(1))
    # on (|0>+|1>)/sqrt2 the off-diagonal 1/2 is erased
    assert abs(channel_distance(ident, deph) - 0.5) < 1e-14


def test_channel_distance_dimension_mismatch():
    a, b = _identity_channel(2), _identity_channel(4)
    with pytest.raises(DimensionError):
        channel_distance(a, b)


def test_trace_and_positivity_preserved():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        l = LeakageFunction.random(n, 3, rng)
        for ch in (leakage_channel(l), dephasing_channel(l)):
            rho = random_density_matrix(2 ** n, rng)
            out = ch(rho)
            assert_density_matrix(out)


def test_leakage_channel_idempotent():
    rng = np.random.default_rng(9)
    l = LeakageFunction.random(2, 3, rng)
    ch = leakage_channel(l)
    rho = random_density_matrix(4, rng)
    once = ch(rho)
    assert np.abs(ch(once) - once).max() < 1e-12


def test_completeness_enforced():
    with pytest.raises(ValueError, match="trace preserving"):
        Channel(np.ones(1), np.array([[1.0, 0.0]]))


_LEAK1 = LeakageFunction(1, (0, 1))


@pytest.mark.parametrize("build, error, match", [
    (lambda: LeakageFunction(1, (0, 1, 0)), ValueError, "cover all 2"),
    (lambda: mixture_channel([]), ValueError, "empty request list"),
    # every comparison with NaN is False, so a NaN must fail the check
    (lambda: mixture_channel([(_LEAK1, float("nan"))]), ValueError, "must be a distribution"),
    (lambda: mixture_channel([(_LEAK1, 1.0), (_LEAK1, float("nan"))]), ValueError,
     "must be a distribution"),
    (lambda: mixture_channel([(_LEAK1, 0.5), (LeakageFunction(2, (0, 1, 1, 0)), 0.5)]),
     DimensionError, "share a wire count"),
    (lambda: assert_density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]])), ValueError,
     "not Hermitian"),
    (lambda: assert_density_matrix(np.eye(2)), ValueError, "trace is not 1"),
    (lambda: assert_density_matrix(np.diag([1.5, -0.5])), ValueError,
     "not positive semidefinite"),
], ids=["table-length", "empty-mixture", "nan-probability", "nan-after-one", "mixed-wire-counts",
        "non-hermitian", "trace-2", "not-psd"])
def test_malformed_inputs_are_refused(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("weights, diags", [
    ([0.5, 0.25], np.ones((2, 2))),
    (np.zeros(0), np.zeros((0, 2))),
    ([0.5, float("nan")], np.ones((2, 2))),
], ids=["weights-short", "no-terms", "nan-weight"])
def test_terms_are_refused_in_order(weights, diags):
    # the trace check is the one refusal left on the terms
    with pytest.raises(ValueError, match="trace preserving"):
        Channel(weights, diags)


@pytest.mark.parametrize("weights, diags", [
    ([0.5], np.ones((2, 2))),
    ([0.5, 0.5, 0.0], np.ones((2, 2))),
    ([1.0], np.ones(2)),
    ([[1.0]], np.ones((1, 1, 2))),
], ids=["one-weight-for-two-rows", "extra-weight", "one-row-unstacked", "3-d"])
def test_weights_and_diagonals_must_match(weights, diags):
    with pytest.raises(DimensionError, match=r"\(k, dim\) diagonal array"):
        Channel(weights, diags)


@pytest.mark.parametrize("rho", [
    np.array([[1.0]]),
    np.array([0.5, 0.5]),
    np.eye(4) / 4,
], ids=["1x1", "flat", "4x4"])
def test_channel_refuses_a_wrong_sized_state(rho):
    # numpy broadcasting would turn the first two into 2x2 outputs
    ch = leakage_channel(LeakageFunction.identity(1))
    with pytest.raises(DimensionError, match=r"state must be 2x2, got shape"):
        ch(rho)


def _terms_one_by_one(l: LeakageFunction, phases: bool):
    """Reference: each channel's (weight, diagonal) terms built one diagonal
    at a time from the function's table."""
    ranks, d = np.array(l.ranks()), l.alphabet_size
    if phases:
        omega = np.exp(2j * np.pi / d)
        return [(1.0 / d, (omega ** (k * ranks)).astype(complex)) for k in range(d)]
    return [(1.0, (ranks == v).astype(float).astype(complex)) for v in range(d)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_channel_terms_equal_the_one_by_one_construction(n):
    rng = np.random.default_rng(40 + n)
    functions = [LeakageFunction.random(n, int(rng.integers(1, 2 ** n + 1)), rng)
                 for _ in range(20)]
    for l in [*functions, LeakageFunction.constant(n), LeakageFunction.parity(n)]:
        for build, phases in ((leakage_channel, False), (dephasing_channel, True)):
            ch, expected = build(l), _terms_one_by_one(l, phases)
            assert ch.weights.shape == (len(expected),)
            assert ch.diags.shape == (len(expected), l.dim)
            for w, d, (w_ref, d_ref) in zip(ch.weights, ch.diags, expected):
                assert w == w_ref and d.dtype == d_ref.dtype
                assert d.tobytes() == d_ref.tobytes()
            ref = Channel(np.array([w for w, _ in expected]), np.array([d for _, d in expected]))
            assert ch.multiplier.tobytes() == ref.multiplier.tobytes()


def test_schur_multiplier_matches_operator_sum_on_random_diagonal_channels():
    rng = np.random.default_rng(12)
    for dim in (1, 2, 4, 8, 16):
        chans = [_random_diagonal_channel(dim, int(rng.integers(1, 6)), rng) for _ in range(4)]
        for ch, terms in chans:
            rho = random_density_matrix(dim, rng)
            assert np.abs(ch(rho) - apply_by_terms(terms, rho)).max() < 1e-14
        for a, ta in chans:
            for b, tb in chans:
                assert abs(channel_distance(a, b) - distance_by_probes(ta, tb)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_schur_multiplier_matches_operator_sum_on_leakage_channels(n):
    rng = np.random.default_rng(13 + n)
    chans = _channels_on(n, rng)
    for ch, terms in chans:
        for _ in range(3):
            rho = random_density_matrix(2 ** n, rng)
            assert np.abs(ch(rho) - apply_by_terms(terms, rho)).max() < 1e-14
    # each leakage channel against its phase form, then neighbours in the list
    for (a, ta), (b, tb) in [*zip(chans[:3], chans[3:6]), *zip(chans, chans[1:] + chans[:1])]:
        assert abs(channel_distance(a, b) - distance_by_probes(ta, tb)) < 1e-14


def test_closed_form_distance_on_unequal_channels():
    ident = _identity_channel(2)
    one = LeakageFunction.identity(1)
    deph, deph_terms = dephasing_channel(one), _terms_one_by_one(one, True)
    assert distance_by_probes(_IDENT2, deph_terms) == pytest.approx(0.5, abs=1e-14)
    assert abs(channel_distance(ident, deph) - distance_by_probes(_IDENT2, deph_terms)) < 1e-14
    parity, identity = LeakageFunction.parity(3), LeakageFunction.identity(3)
    mix_terms = [(p * w, d) for l, p in ((identity, 0.25), (parity, 0.75))
                 for w, d in _terms_one_by_one(l, True)]
    pairs = [(leakage_channel(parity), _terms_one_by_one(parity, False),
              leakage_channel(identity), _terms_one_by_one(identity, False)),
             (dephasing_channel(parity), _terms_one_by_one(parity, True),
              mixture_channel([(identity, 0.25), (parity, 0.75)]), mix_terms)]
    for a, ta, b, tb in pairs:
        assert channel_distance(a, b) > 0.1
        assert abs(channel_distance(a, b) - distance_by_probes(ta, tb)) < 1e-14


def test_dimension_guard():
    with pytest.raises(DimensionError):
        LeakageFunction(5, tuple(range(32)))


def test_equivalence_sweep_small():
    report = equivalence_sweep(max_exhaustive_wires=1, alphabet=3,
                               random_wires=2, trials=5, seed=11)
    assert report["exhaustive_max_distance"] <= 1e-10
    assert report["random_max_distance"] <= 1e-10
    assert report["exhaustive_functions"] == 9


def test_equivalence_sweep_three_wires_exhaustive():
    report = equivalence_sweep(max_exhaustive_wires=3, alphabet=3, trials=0)
    assert report["exhaustive_functions"] == 3 ** 2 + 3 ** 4 + 3 ** 8 == 6651
    assert report["exhaustive_max_distance"] <= 1e-10


def test_random_density_matrix_valid():
    rng = np.random.default_rng(10)
    for dim in (2, 4, 8):
        assert_density_matrix(random_density_matrix(dim, rng))
