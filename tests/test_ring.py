import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spin_epsilon
from spin_epsilon import (
    IsingParams,
    conditional_from_ring,
    enumerate_ring,
    extrapolated_conditional,
    future_distribution,
    magnetization,
    markov_gap,
    site_marginals,
    transition_matrix,
)
from spin_epsilon.ring import _class_layout

MAGNETIZATION_GOLDEN = 0.3787617890000907  # (J=1, B=0.3, T=2), n_half=6
# (J=1, B=0.3, T=2), n_half=10, L=3, every block summed by math.fsum
# (reference_markov_gap).
MARKOV_GAP_GOLDEN = 5.154163242870879e-07


def test_zero_hamiltonian_is_uniform():
    ens = enumerate_ring(IsingParams(0.0, 0.0, 1.0), 3)
    np.testing.assert_allclose(ens.probs, 1.0 / len(ens.probs), atol=1e-15)


def test_field_only_model_factorizes():
    J, B, T = 0.0, 0.7, 1.3
    ens = enumerate_ring(IsingParams(J, B, T), 4)
    p_up = np.exp(B / T) / (2.0 * np.cosh(B / T))
    np.testing.assert_allclose(site_marginals(ens), p_up, atol=1e-12)

    # Conditioning is vacuous for independent spins: the table is the product law.
    for condition in (1, -1):
        table = conditional_from_ring(ens, condition, 2)
        singles = np.array([p_up, 1.0 - p_up])
        np.testing.assert_allclose(
            table.probs.reshape(2, 2), np.outer(singles, singles), atol=1e-12
        )

    # Every pair marginal equals the product of singles.
    configs = np.arange(len(ens.probs), dtype=np.uint64)
    for i, j in ((0, 1), (2, 5), (1, 7)):
        up_i = 1 - ((configs >> np.uint64(i)) & np.uint64(1)).astype(float)
        up_j = 1 - ((configs >> np.uint64(j)) & np.uint64(1)).astype(float)
        joint_up = float(ens.probs @ (up_i * up_j))
        assert abs(joint_up - p_up * p_up) < 1e-12


def test_probabilities_normalized_and_positive():
    ens = enumerate_ring(IsingParams(1.2, -0.4, 0.7), 5)
    assert abs(ens.probs.sum() - 1.0) < 1e-12 * len(ens.probs)
    assert np.all(ens.probs > 0.0)


def test_translation_invariance(ring_cache):
    ens = ring_cache(1.0, 0.3, 2.0, 6)
    marginals = site_marginals(ens)
    assert float(np.ptp(marginals)) < 1e-12


def test_magnetization_golden(ring_cache):
    ens = ring_cache(1.0, 0.3, 2.0, 6)
    assert abs(magnetization(ens) - MAGNETIZATION_GOLDEN) < 1e-12


def test_zero_field_global_flip_symmetry():
    ens = enumerate_ring(IsingParams(1.0, 0.0, 1.0), 5)
    up = conditional_from_ring(ens, 1, 3).probs
    down = conditional_from_ring(ens, -1, 3).probs
    # Flipping every spin reverses each symbol, i.e. reverses the index bits.
    flipped = np.array(
        [down[int(format(i, "03b").translate(str.maketrans("01", "10")), 2)]
         for i in range(8)]
    )
    np.testing.assert_allclose(up, flipped, atol=1e-12)


def test_conditional_tables_converge_to_transfer_matrix():
    params = IsingParams(1.0, 0.3, 2.0)
    tm = transition_matrix(params)
    errors = []
    for n_half in (3, 4, 5, 6):
        ens = enumerate_ring(params, n_half)
        worst = 0.0
        for condition, start in ((1, 0), (-1, 1)):
            ring_table = conditional_from_ring(ens, condition, 3).probs
            exact = future_distribution(tm, start, 3).probs
            worst = max(worst, float(np.max(np.abs(ring_table - exact))))
        errors.append(worst)
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_extrapolated_conditional_hits_infinite_chain(ring_cache):
    params = IsingParams(1.0, 0.3, 2.0)
    tm = transition_matrix(params)
    table = extrapolated_conditional(params, -1, 4)
    exact = future_distribution(tm, 1, 4)
    assert float(np.max(np.abs(table.probs - exact.probs))) < 1e-9


def test_markov_gap_vanishes_for_independent_spins():
    ens = enumerate_ring(IsingParams(0.0, 0.5, 1.0), 5)
    assert markov_gap(ens, 3) < 1e-12


def test_markov_gap_decreases_with_ring_size(ring_cache):
    gaps = [markov_gap(ring_cache(1.0, 0.0, 1.0, n), 3) for n in (6, 8, 10)]
    assert gaps[2] < gaps[1] < gaps[0]


def test_markov_gap_golden(ring_cache):
    gap = markov_gap(ring_cache(1.0, 0.3, 2.0, 10), 3)
    assert gap < 1e-5
    assert abs(gap - MARKOV_GAP_GOLDEN) < 5e-14


@pytest.mark.parametrize("n_half", [0, 11, -1])
def test_ring_size_guard(n_half):
    with pytest.raises(ValueError):
        enumerate_ring(IsingParams(1.0, 0.0, 1.0), n_half)


def test_window_guards():
    ens = enumerate_ring(IsingParams(1.0, 0.0, 1.0), 4)
    with pytest.raises(ValueError):
        conditional_from_ring(ens, 1, 5)
    with pytest.raises(ValueError):
        conditional_from_ring(ens, 0, 2)
    with pytest.raises(ValueError):
        markov_gap(ens, 4)


def test_extrapolation_needs_three_ring_sizes():
    for n_halves in ((1, 2), (1, 2, 3, 4), 5, "abc"):
        message = re.escape(f"n_halves must be three ring sizes, got {n_halves!r}")
        with pytest.raises(ValueError, match=message):
            extrapolated_conditional(IsingParams(1.0, 0.3, 2.0), 1, 1, n_halves)


# Aitken's step removes a geometric error only over three distinct, equally
# spaced sizes: (3, 3, 3) is the n_half = 3 ring itself (8.3e-3 off at length
# 3), and (8, 8, 9) and (4, 6, 10) are 2.1e-6 off.
@pytest.mark.parametrize("n_halves", [(3, 3, 3), (8, 8, 9), (4, 6, 10)])
def test_extrapolation_needs_equally_spaced_ring_sizes(n_halves):
    message = re.escape(f"n_halves must be distinct, equally spaced ring sizes, got {n_halves!r}")
    with pytest.raises(ValueError, match=message):
        extrapolated_conditional(IsingParams(1.0, 0.3, 2.0), 1, 3, n_halves)


def test_extrapolation_takes_descending_ring_sizes():
    params = IsingParams(1.0, 0.3, 2.0)
    exact = future_distribution(transition_matrix(params), 0, 3).probs
    table = extrapolated_conditional(params, 1, 3, (10, 9, 8)).probs
    assert float(np.max(np.abs(table - exact))) < 1e-13


def test_condition_of_probability_zero_is_named(ring_cache):
    # At B = 5, T = 0.01 a down spin costs 1400 in log weight: x_0 = -1
    # underflows to 0 on every ring, and its 0/0 table was all NaN.
    ens = ring_cache(1.0, 5.0, 0.01, 5)
    message = "condition -1 has probability 0 on the n_half={} ring of IsingParams(J=1.0, B=5.0, T=0.01)"
    with pytest.raises(ValueError, match=re.escape(message.format(5))):
        conditional_from_ring(ens, -1, 3)
    with pytest.raises(ValueError, match=re.escape(message.format(8))):
        extrapolated_conditional(IsingParams(1.0, 5.0, 0.01), -1, 3)
    assert conditional_from_ring(ens, 1, 3).probs.tolist() == [1.0] + [0.0] * 7


@pytest.mark.parametrize("n_half", [1, 2, 7, 10])
def test_numpy_integer_ring_size_gives_the_same_table(n_half):
    params = IsingParams(-1.0, 0.5, 0.7)
    expected = enumerate_ring(params, n_half).probs.tobytes()
    ens = enumerate_ring(params, np.int64(n_half))
    assert ens.probs.tobytes() == expected and ens.n_half == n_half


def reference_ring_probs(params, n_half):
    """Per-configuration Boltzmann weights: each configuration's own bond and
    spin sums, log-weight and exponential, max-shifted over all of them."""
    m = 2 * n_half + 1
    configs = np.arange(2**m, dtype=np.uint64)
    rotated = (configs >> np.uint64(1)) | ((configs & np.uint64(1)) << np.uint64(m - 1))
    bond_sum = m - 2.0 * np.bitwise_count(configs ^ rotated)
    spin_sum = m - 2.0 * np.bitwise_count(configs)
    log_w = params.beta * (params.J * bond_sum + params.B * spin_sum)
    log_w -= log_w.max()
    probs = np.exp(log_w)
    return probs / probs.sum()


# The low/high half split of the index and the class layout move with n_half,
# so every size takes every point.  Size 5 is the last that normalizes by
# summing the whole table, size 6 the first whose 128-entry rows give the
# total as a tree of row sums.
_CLASS_POINTS = [(1.0, 0.3, math.inf), (3.0, 0.0, 0.05), (-3.0, 0.0, 0.05), (-3.0, 0.4, 0.05),
                 (1.0, 0.0, 1.0), (0.7, -0.4, 2.5), (0.0, 1.3, 0.2)]


@pytest.mark.parametrize(
    "J, B, T, n_half",
    [(*point, n_half) for n_half in range(1, 11) for point in [*_CLASS_POINTS, (1.0, 0.3, 2.0)]]
    # Cold antiferromagnets, where a (broken bonds, down spins) class that no
    # ring holds sits far above the others in log-weight: weighing it would
    # overflow exp, which the RuntimeWarning filter turns into an error.
    + [(-1.0, 0.3, 0.01, 10), (-2.49, 0.75, 0.0082, 1), (-2.49, 0.75, 0.0082, 5)],
)
def test_energy_class_weights_bit_identical_to_per_configuration(J, B, T, n_half):
    params = IsingParams(J, B, T)
    ens = enumerate_ring(params, n_half)
    assert ens.probs.tobytes() == reference_ring_probs(params, n_half).tobytes()


@pytest.mark.parametrize("n_half", range(1, 11))
def test_class_layout_is_a_read_only_constant(n_half):
    layout = _class_layout(n_half)
    assert _class_layout(n_half) is layout
    for a in layout:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def reference_site_marginals(ens):
    """One reshape-and-sum pass over the whole table per site."""
    return np.array(
        [float(ens.probs.reshape(-1, 2, 2**k)[:, 0].sum()) for k in range(2 * ens.n_half + 1)]
    )


@pytest.mark.parametrize(
    "J, B, T",
    [(1.0, 0.3, 2.0), (1.0, 0.0, 1.0), (-1.0, 0.5, 0.7), (0.0, 0.7, 1.3), (1.0, 0.3, math.inf)],
)
@pytest.mark.parametrize("n_half", [1, 3, 10])
def test_folded_site_marginals_match_per_site_sums(J, B, T, n_half):
    # Folding the table a site at a time sums in another order: each site
    # stays within 16 ulps of the per-site sums, and the spread across sites
    # is no wider than theirs, or than 4 ulps.  The magnetization reads site 0's entry.
    ens = enumerate_ring(IsingParams(J, B, T), n_half)
    reference, folded = reference_site_marginals(ens), site_marginals(ens)
    assert np.all(np.abs(folded - reference) <= 16 * np.spacing(reference))
    assert np.ptp(folded) <= max(np.ptp(reference), 4 * np.spacing(reference[0]))
    assert magnetization(ens) == 2.0 * folded[0] - 1.0


def fsum_middle(a):
    """Correctly rounded sums over axis 1 of a 3-D array, by math.fsum."""
    columns = a.transpose(0, 2, 1).reshape(-1, a.shape[1]).tolist()
    return np.array([math.fsum(c) for c in columns]).reshape(a.shape[0], a.shape[2])


def reference_conditional(fine, condition, length):
    """conditional_from_ring from ``fine``, the fsum window of the ring's low
    n_half + 1 bits: its entries carry relative errors below 2**-53, so a
    further fsum over them stays within about one ulp of the exact window."""
    window = fsum_middle(fine.reshape(1, -1, 2 ** (length + 1)))[0]
    block = window.reshape((2,) * (length + 1)).transpose().reshape(2, -1)
    block = block[0 if condition == 1 else 1]
    return block / math.fsum(block)


def reference_markov_gap(ens, length):
    """markov_gap with every block and pair marginal summed by math.fsum,
    over the histories whose fsum weight is positive.  It reads sites
    m-L..1, whose law the rotation-invariant table makes that of sites
    0..L+1, which markov_gap reads."""
    blocks = fsum_middle(ens.probs.reshape(2**length, -1, 4)).reshape(-1, 2, 2)
    joint = blocks.transpose(0, 2, 1).reshape(-1, 2)
    totals = joint.sum(axis=1)  # two terms: correctly rounded, as by fsum
    occurs = np.flatnonzero(totals > 0)
    cond_full = joint[occurs] / totals[occurs, None]
    pair = fsum_middle(blocks.reshape(1, -1, 4))[0].reshape(2, 2).T[occurs & 1]
    cond_pair = pair / pair.sum(axis=1, keepdims=True)
    return float(np.max(np.abs(cond_full - cond_pair)))


@pytest.mark.parametrize(
    "J, B, T", [(1.0, 0.3, 2.0), (1.0, 0.0, 1.0), (-1.0, 0.5, 0.7), (0.0, 0.7, 1.3)]
)
def test_ring_reductions_match_fsum_reference(ring_cache, J, B, T):
    # Worst entry over L = 1, 3, 5, 10 and both conditions, in ulps of the
    # fsum reference: one ones-vector product over all rows measures 1 594,
    # 18 522, 2 404 and 2 879; the two-stage _colsum 9, 14, 9 and 21.
    ens = ring_cache(J, B, T, 10)
    fine = fsum_middle(ens.probs.reshape(1, -1, 2**11))[0]
    for length in (1, 3, 5, 10):
        for condition in (1, -1):
            got = conditional_from_ring(ens, condition, length).probs
            ref = reference_conditional(fine, condition, length)
            assert np.all(np.abs(got - ref) <= 64 * np.spacing(ref)), (length, condition)
    # Gap error at L = 3, one product against two stages: 1.0e-8 and 3.2e-10
    # relative at (1, 0.3, 2), 2.9e-12 and 3.7e-14 at (1, 0, 1).  The gap of
    # independent spins is 0, and its reference 2.2e-16 is rounding: 2**-50
    # absolute covers it (2.8e-14 and 3.3e-16 off).
    reference = reference_markov_gap(ens, 3)
    assert abs(markov_gap(ens, 3) - reference) <= 1e-8 * reference + 2.0**-50


def test_markov_gap_skips_histories_that_cannot_occur(ring_cache):
    # At J = -3, T = 0.05 each pair of aligned neighbours costs 120 in log
    # weight: from L = 6 on some histories underflow to 0, and their 0/0 rows
    # made the gap NaN.  At B = 5, T = 0.01 no spin is ever down, and the
    # pair law's x_0 = -1 row of 0 was divided by its sum of 0.
    for J, B, T, n_half in ((-3.0, 0.4, 0.05, 10), (1.0, 5.0, 0.01, 5)):
        ens = ring_cache(J, B, T, n_half)
        for length in range(1, n_half):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gap = markov_gap(ens, length)
            reference = reference_markov_gap(ens, length)
            assert math.isfinite(gap) and abs(gap - reference) <= 1e-12 * reference, (J, length)


def test_ring_reductions_do_not_depend_on_blas_threads():
    # OpenBLAS splits a 4-output product over its threads and adds the parts;
    # the window, gap and site-marginal reductions must give the same bits at
    # any count.
    code = (
        "import hashlib; from spin_epsilon import *\n"
        "ens = enumerate_ring(IsingParams(1.0, 0.3, 2.0), 10)\n"
        "h = hashlib.sha256()\n"
        "for L in range(1, 11): h.update(conditional_from_ring(ens, 1, L).probs.tobytes())\n"
        "for L in range(1, 10): h.update(repr(markov_gap(ens, L)).encode())\n"
        "h.update(site_marginals(ens).tobytes())\n"
        "print(h.hexdigest())"
    )
    path = os.pathsep.join(
        filter(None, [str(Path(spin_epsilon.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    )
    digests = set()
    for threads in ("1", "4"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=120, env=env)
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout)
    assert len(digests) == 1
