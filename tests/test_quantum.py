import math
import re
import warnings

import numpy as np
import pytest

from spin_epsilon import (
    IsingParams,
    QuantumModel,
    TransitionMatrix,
    build_quantum_model,
    classical_fidelity,
    complexity,
    entropy_bits,
    fidelity_saturation_check,
    find_tmax,
    mixture_eigenvalues,
    quantum_statistical_complexity,
    statistical_complexity,
    stationary_density,
    transition_matrix,
)
from spin_epsilon import quantum, verify
from spin_epsilon.ising import transition_arrays
from spin_epsilon.sweep import compute_row
from spin_epsilon.verify import _draw

# (J=1, B=0, T=1): overlap 2*sqrt(t00*t01) and the resulting memory entropy.
OVERLAP_SYMMETRIC = 0.6480542736638853
CQ_SYMMETRIC = 0.6711874461252245

# Interior quantum-complexity maximum on T in [0.05, 100] at (J=1, B=0.3).
TMAX_GOLDEN = 1.6321218657964023
CQ_AT_TMAX_GOLDEN = 0.2888601868557145


def model_for(J, B, T):
    return build_quantum_model(transition_matrix(IsingParams(J, B, T)))


def test_uniform_rows_give_identical_states():
    model = model_for(1.0, 0.0, math.inf)
    np.testing.assert_allclose(model.amp, 1 / math.sqrt(2), atol=1e-15)
    assert abs(model.overlap() - 1.0) < 1e-12


def test_near_deterministic_rows_give_orthogonal_states():
    model = model_for(1.0, 0.0, 0.05)
    assert model.overlap() < 1e-8
    np.testing.assert_allclose(model.amp[0], [1.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(model.amp[1], [0.0, 1.0], atol=1e-8)


def test_amplitudes_unit_norm_and_overlap_closed_form():
    rng = np.random.default_rng(61)
    for point in _draw(rng, 300):
        tm = transition_matrix(IsingParams(*point))
        model = build_quantum_model(tm)
        np.testing.assert_allclose(
            np.sum(model.amp**2, axis=1), [1.0, 1.0], atol=1e-12
        )
        closed = math.sqrt(tm.t[0, 0] * tm.t[1, 0]) + math.sqrt(tm.t[0, 1] * tm.t[1, 1])
        assert abs(model.overlap() - closed) < 1e-12


def test_overlap_golden_symmetric_point():
    model = model_for(1.0, 0.0, 1.0)
    assert abs(model.overlap() - OVERLAP_SYMMETRIC) < 1e-12
    # The enumeration oracle fixes t00 to ~1e-5, which bounds the overlap too.
    t00 = 0.8807882476025745
    assert abs(model.overlap() - 2 * math.sqrt(t00 * (1 - t00))) < 1e-4


def test_density_identical_states_is_rank_one():
    model = model_for(1.0, 0.0, math.inf)
    rho = stationary_density(model)
    eigenvalues = np.linalg.eigvalsh(rho)
    np.testing.assert_allclose(eigenvalues, [0.0, 1.0], atol=1e-12)
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_density_orthogonal_states_is_maximally_mixed():
    model = QuantumModel(
        amp=np.array([[1.0, 0.0], [0.0, 1.0]]), weights=np.array([0.5, 0.5])
    )
    np.testing.assert_allclose(stationary_density(model), 0.5 * np.eye(2), atol=1e-15)
    assert abs(quantum_statistical_complexity(model) - 1.0) < 1e-12


def test_density_invariants_and_closed_form_eigenvalues():
    rng = np.random.default_rng(29)
    for point in _draw(rng, 200):
        model = build_quantum_model(transition_matrix(IsingParams(*point)))
        rho = stationary_density(model)
        (w0, w1), (a0, a1) = model.weights, model.amp
        assert rho.tobytes() == (w0 * np.outer(a0, a0) + w1 * np.outer(a1, a1)).tobytes()
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(rho[0, 1] - rho[1, 0]) < 1e-15
        direct = np.linalg.eigvalsh(rho)
        closed = mixture_eigenvalues(float(model.weights[0]), model.overlap())
        np.testing.assert_allclose(direct, closed, atol=1e-12)
        assert -1e-12 <= direct[0] and direct[1] <= 1.0 + 1e-12


def test_cq_golden_symmetric_point():
    assert abs(
        quantum_statistical_complexity(model_for(1.0, 0.0, 1.0)) - CQ_SYMMETRIC
    ) < 1e-12


@pytest.mark.parametrize(
    "J, B, T",
    [(0.0, 0.3, 1.0), (0.0, 1.0, 1.0), (0.0, 2.5, 1.0), (1e-14, 1.0, 1.0),
     (1e-13, 0.5, 1.0), (1.0, 0.0, math.inf)],
)
def test_scalar_routes_are_exactly_zero_where_causal_states_merge(J, B, T):
    # C_q == 0 whenever C_mu == 0, on the scalar routes as on the array one.
    tm = transition_matrix(IsingParams(J, B, T))
    stats = complexity(J, B, T)
    assert statistical_complexity(tm) == stats.c_mu == 0.0
    assert quantum_statistical_complexity(build_quantum_model(tm)) == stats.c_q == 0.0


@pytest.mark.parametrize("J, T", [(0.0, 1.0), (0.0, 0.05), (1.0, math.inf), (-2.0, math.inf)])
def test_merged_rows_overlap_is_at_most_one(J, T):
    # Equal rows are equal unit vectors: rounding in the sum of products
    # must not lift their overlap past 1 (it did at (0, 0, 1) and T = inf).
    B = np.linspace(-3.0, 3.0, 1001)
    stats = complexity(J, B, T)
    assert (stats.overlap <= 1.0).all()
    assert complexity(J, 0.0, T).overlap == 1.0
    assert (stats.c_mu == 0.0).all() and (stats.c_q == 0.0).all()


def test_scalar_routes_equal_complexity_bit_for_bit():
    # One closed form behind every route: the overlap, C_mu and C_q per draw
    # equal the array route's, and stacked models (two leading axes) give the
    # per-draw values.
    points = verify._draw(np.random.default_rng(1), 2000)
    stats = complexity(*points.T)
    models = []
    for k, point in enumerate(points.tolist()):
        tm = transition_matrix(IsingParams(*point))
        models.append(build_quantum_model(tm))
        assert models[-1].overlap() == stats.overlap[k]
        assert statistical_complexity(tm) == stats.c_mu[k]
        assert quantum_statistical_complexity(models[-1]) == stats.c_q[k]
    stacked = TransitionMatrix(*transition_arrays(*points.reshape(40, 50, 3).transpose(2, 0, 1)))
    model = build_quantum_model(stacked)
    assert model.overlap().tobytes() == stats.overlap.tobytes()
    assert statistical_complexity(stacked).tobytes() == stats.c_mu.tobytes()
    assert quantum_statistical_complexity(model).tobytes() == stats.c_q.tobytes()
    densities = stationary_density(model)
    assert densities.shape == (40, 50, 2, 2)
    singles = np.array([stationary_density(single) for single in models])
    assert densities.tobytes() == singles.tobytes()


def test_model_weights_must_match_amplitude_shape():
    # One weight pair for three stacked draws would give every draw's C_q at
    # the first draw's weights: [9.3e-4, 6.7e-4, 6.3e-5] in place of these.
    stacked = TransitionMatrix(*transition_arrays(1.0, 0.3, np.array([0.5, 2.0, 8.0])))
    model = build_quantum_model(stacked)
    np.testing.assert_allclose(
        quantum_statistical_complexity(model), [9.3e-4, 0.265, 0.037], rtol=0.02)
    for amp, weights in ((model.amp, model.weights[0]), (model.amp[0], model.weights)):
        shapes = f"got {amp.shape} and {weights.shape}"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            QuantumModel(amp, weights)
    with pytest.raises(ValueError, match="amp of shape"):
        QuantumModel(model.amp[..., :1], model.weights)


def test_quantum_never_beats_classical_memory():
    rng = np.random.default_rng(97)
    for point in _draw(rng, 300):
        tm = transition_matrix(IsingParams(*point))
        model = build_quantum_model(tm)
        c_mu = statistical_complexity(tm)
        c_q = quantum_statistical_complexity(model)
        assert c_q <= c_mu + 1e-10
        if 1e-6 < model.overlap() < 1.0 - 1e-6:
            assert c_q < c_mu
        # The closed form against an independent eigensolve of the density.
        eigenvalues = np.linalg.eigvalsh(stationary_density(model))
        assert abs(c_q - entropy_bits(eigenvalues)) < 1e-12


def test_entropy_bits_keeps_a_nan_weight():
    # The 0*log(0) and round-off rules drop zero and clipped weights only.
    assert math.isnan(entropy_bits([np.nan, 0.5]))
    assert entropy_bits([0.5, 0.5]) == 1.0
    assert math.copysign(1.0, entropy_bits([1.0, 0.0])) == 1.0
    assert entropy_bits([-1e-17, 1.0]) == 0.0


def test_saturation_check_trivial_cases():
    assert fidelity_saturation_check(
        transition_matrix(IsingParams(1.0, 0.0, math.inf)),
        model_for(1.0, 0.0, math.inf),
    ).passed
    tm_cold = transition_matrix(IsingParams(1.0, 0.0, 0.05))
    report = fidelity_saturation_check(tm_cold, build_quantum_model(tm_cold))
    assert report.passed
    assert report.overlap < 1e-8


def test_saturation_check_random_draws():
    rng = np.random.default_rng(5)
    for point in _draw(rng, 100):
        tm = transition_matrix(IsingParams(*point))
        report = fidelity_saturation_check(tm, build_quantum_model(tm))
        assert report.passed, str(report)


def test_saturation_fidelities_come_from_one_expansion_per_start(monkeypatch):
    # Every L = 1..12 fidelity is read off one unifilar expansion per start,
    # and each equals classical_fidelity(tm, L) exactly.
    import spin_epsilon.quantum as quantum
    from spin_epsilon.classical import future_tables

    expansions = []

    def counted(tm, start, length):
        expansions.append(start)
        return future_tables(tm, start, length)

    monkeypatch.setattr(quantum, "future_tables", counted)
    rng = np.random.default_rng(11)
    tms, reports = [], []
    for point in _draw(rng, 40):
        tm = transition_matrix(IsingParams(*point))
        expansions.clear()
        report = fidelity_saturation_check(tm, build_quantum_model(tm), 12)
        assert sorted(expansions) == [0, 1]
        assert report.fidelities == tuple(classical_fidelity(tm, n) for n in range(1, 13))
        tms.append(tm)
        reports.append(report)
    # Stacked draws: still one expansion per start, and the same reports.
    expansions.clear()
    stacked = TransitionMatrix(t=np.stack([tm.t for tm in tms]), p=np.stack([tm.p for tm in tms]))
    assert fidelity_saturation_check(stacked, build_quantum_model(stacked), 12) == reports
    assert sorted(expansions) == [0, 1]


def test_saturation_check_catches_sign_flip():
    tm = transition_matrix(IsingParams(1.0, 0.3, 2.0))
    good = build_quantum_model(tm)
    corrupted = QuantumModel(
        amp=np.array([[good.amp[0, 0], -good.amp[0, 1]], good.amp[1]]),
        weights=good.weights,
    )
    report = fidelity_saturation_check(tm, corrupted)
    assert not report.passed
    assert "FAIL" in str(report)
    nan = QuantumModel(amp=np.full_like(good.amp, np.nan), weights=good.weights)
    assert str(fidelity_saturation_check(tm, nan, 3)).startswith("FAIL: overlap=nan")


def test_mixture_entropy_decreases_with_overlap():
    weights = np.linspace(0.0, 1.0, 52)[1:-1]
    overlaps = np.linspace(0.0, 1.0, 52)[1:-1]
    for w in weights:
        entropies = []
        for f in overlaps:
            lo, hi = mixture_eigenvalues(float(w), float(f))
            entropies.append(-(lo * math.log2(lo) + hi * math.log2(hi)))
        assert all(b < a for a, b in zip(entropies, entropies[1:]))


def test_looser_encodings_cost_at_least_cq():
    rng = np.random.default_rng(13)
    for _ in range(200):
        tm = transition_matrix(IsingParams(*_draw(rng, 1)[0]))
        model = build_quantum_model(tm)
        c_q = quantum_statistical_complexity(model)
        overlap = model.overlap()
        smaller = rng.uniform(0.0, overlap)
        alt = QuantumModel(
            amp=np.array(
                [[1.0, 0.0], [smaller, math.sqrt(1.0 - smaller * smaller)]]
            ),
            weights=model.weights,
        )
        assert quantum_statistical_complexity(alt) >= c_q - 1e-12


def test_cq_decays_at_high_temperature():
    assert quantum_statistical_complexity(model_for(1.0, 0.3, 1e4)) < 1e-3
    grid = np.logspace(math.log10(TMAX_GOLDEN), 2, 60)
    values = [quantum_statistical_complexity(model_for(1.0, 0.3, float(t))) for t in grid]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_efficiency_ratio_grows_with_temperature():
    hot, warm = compute_row(1.0, 0.3, 1e4), compute_row(1.0, 0.3, 10.0)
    assert hot.ratio is not None and warm.ratio is not None
    assert hot.ratio >= 10.0 * warm.ratio


def test_find_tmax_interior_golden():
    result = find_tmax(1.0, 0.3, (0.05, 100.0), 1e-4)
    assert not result.boundary and result.unimodal
    assert abs(result.temperature - TMAX_GOLDEN) < 1e-6
    assert abs(result.cq - CQ_AT_TMAX_GOLDEN) < 1e-9
    # A tolerance below the float spacing at T_max must still return: the
    # bracket stops at a few ulps, on the maximum inside the golden's bracket.
    fine = find_tmax(1.0, 0.3, (0.05, 100.0), 1e-300)
    assert not fine.boundary and fine.unimodal
    assert abs(fine.temperature - TMAX_GOLDEN) < 1e-4
    assert fine.cq >= result.cq
    nearby = complexity(1.0, 0.3, fine.temperature + np.array([-1e-6, 1e-6])).c_q
    assert np.all(nearby < fine.cq)
    edge_low = quantum_statistical_complexity(model_for(1.0, 0.3, 0.05))
    edge_high = quantum_statistical_complexity(model_for(1.0, 0.3, 100.0))
    assert result.cq >= edge_low and result.cq >= edge_high
    # A strong field leaves C_q near 1e-16 at the cold end of the scan;
    # round-off there must not break the unimodal profile.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strong = find_tmax(1.0, 3.0, (0.05, 100.0), 1e-4)
    assert strong.unimodal and not strong.boundary


# (J, B) pairs with an interior C_q maximum: both signs of J, weak to strong fields.
INTERIOR_PAIRS = [(1.0, 0.3), (1.0, 1.0), (1.0, 3.0), (2.5, -0.7), (-1.0, 3.0), (1.0, 0.01)]


def coarse_scan_max(J, B):
    grid = np.logspace(math.log10(0.05), 2.0, 101)
    grid[0], grid[-1] = 0.05, 100.0
    return complexity(J, B, grid).c_q.max()


@pytest.mark.parametrize("J, B", INTERIOR_PAIRS)
def test_find_tmax_refines_in_few_array_calls(monkeypatch, J, B):
    calls = []

    def counted(*args):
        calls.append(args)
        return complexity(*args)

    monkeypatch.setattr(quantum, "complexity", counted)
    result = find_tmax(J, B, (0.05, 100.0), 1e-4)
    assert not result.boundary and result.unimodal
    # The coarse scan plus at most five k-section rounds, every one an array call.
    assert len(calls) <= 6
    assert all(np.ndim(T) == 1 for _, _, T in calls)


@pytest.mark.parametrize("J, B, window", [(1.0, 0.3, (1.5, 1.8)), (-1.0, 3.0, (1.8, 2.1))])
def test_find_tmax_matches_dense_scan(J, B, window):
    # Reference: the argmax of one dense scan (spacing 7.5e-6), no search.
    dense = np.linspace(*window, 40001)
    k = int(np.argmax(complexity(J, B, dense).c_q))
    assert 0 < k < len(dense) - 1  # the window brackets the maximum
    tol = 1e-4
    assert abs(find_tmax(J, B, (0.05, 100.0), tol).temperature - dense[k]) <= tol / 2


@pytest.mark.parametrize("J, B", INTERIOR_PAIRS + [(3.0, 1.5), (2.5, -2.9), (0.5, 1.7)])
@pytest.mark.parametrize("tol", [0.1, 1e-4, 1e-300])
def test_find_tmax_never_below_coarse_scan(J, B, tol):
    # At (3, 1.5), (2.5, -2.9) and (0.5, 1.7) all 33 samples of the first
    # round (the only one at tol 0.1) fall below the scan's maximum.
    result = find_tmax(J, B, (0.05, 100.0), tol)
    assert result.cq >= coarse_scan_max(J, B)
    # C_mu comes from the same sample, bit-identical to a scalar call at T_max.
    assert result.c_mu == float(complexity(J, B, result.temperature).c_mu)


def test_find_tmax_zero_field_is_boundary():
    # At B = 0 the quantum memory cost falls monotonically with temperature,
    # so the scan tops out at the cold end of the range.
    result = find_tmax(1.0, 0.0, (0.05, 100.0), 1e-4)
    assert result.boundary
    assert result.temperature == 0.05  # exactly the range end, not logspace's
    assert result.cq == pytest.approx(1.0, abs=1e-9)
    assert result.c_mu == float(complexity(1.0, 0.0, 0.05).c_mu)


def test_find_tmax_degenerate_chain_flat_zero():
    result = find_tmax(0.0, 0.0, (0.05, 100.0), 1e-4)
    assert result.boundary
    assert result.cq == result.c_mu == 0.0


def test_find_tmax_non_unimodal_returns_grid_argmax(monkeypatch):
    # A second bump near T = 20 makes the coarse C_q profile rise again after
    # its first maximum; no real (J, B) is known to do this.
    def bump(T):
        return 0.5 * np.exp(-(np.log(T) - np.log(20.0)) ** 2)

    calls = []

    def two_peaked(J, B, T):
        calls.append(T)
        stats = complexity(J, B, T)
        return quantum.ChainStatistics(stats.t, stats.p, stats.overlap, stats.c_mu,
                                       stats.c_q + bump(T))

    monkeypatch.setattr(quantum, "complexity", two_peaked)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = find_tmax(1.0, 0.3)
    assert [(w.category, str(w.message), w.filename) for w in caught] == [(
        UserWarning,
        "quantum complexity profile is not unimodal on the coarse grid; "
        "returning the grid argmax without refinement",
        __file__,  # stacklevel=2 blames the caller
    )]
    assert result.unimodal is False and result.boundary is False
    assert len(calls) == 1  # the coarse scan only: no refinement ran
    grid = calls[0]
    stats = complexity(1.0, 0.3, grid)
    cq = stats.c_q + bump(grid)
    k = int(np.argmax(cq))
    assert 0 < k < len(grid) - 1
    assert (result.temperature, result.cq, result.c_mu) == (grid[k], cq[k], stats.c_mu[k])


def test_find_tmax_input_guards():
    for t_range, tol in [
        ((0.0, 10.0), 1e-4), ((5.0, 1.0), 1e-4), ((0.05, 100.0), 0.0),
        ((0.05, math.inf), 1e-4), ((math.nan, 1.0), 1e-4), ((0.05, math.nan), 1e-4),
        ((0.05, 100.0), math.nan), ((0.05, 100.0), math.inf),
    ]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError):
                find_tmax(1.0, 0.3, t_range, tol)
        assert caught == [], (t_range, tol)
    # J, B, the ends of t_range and tol are real scalars, and t_range is a pair:
    # a bad one is a ValueError that starts with its name.
    for name, args in [
        ("J", (np.array([1.0, 2.0]), 0.3)), ("J", (np.array([1.0]), 0.3)),
        ("J", (np.array(1.0), 0.3)), ("J", (True, 0.3)), ("J", ("1", 0.3)),
        ("B", (1.0, np.array([0.3]))), ("B", (1.0, 0.3j)),
        ("t_range", (1.0, 0.3, (0.05, 1.0, 100.0))), ("t_range", (1.0, 0.3, (0.05,))),
        ("t_range", (1.0, 0.3, 5)), ("t_range", (1.0, 0.3, (True, 100.0))),
        ("t_range", (1.0, 0.3, ("0.05", 100.0))), ("tol", (1.0, 0.3, (0.05, 100.0), True)),
    ]:
        with pytest.raises(ValueError, match=f"^{name}"):
            find_tmax(*args)
    # Numpy scalars are real scalars: the same result as Python floats.
    assert find_tmax(np.float64(1.0), np.int64(0), [0.05, np.float32(100.0)]) == find_tmax(
        1.0, 0.0, (0.05, 100.0))


def test_mixture_eigenvalue_edges():
    lo, hi = mixture_eigenvalues(0.5, 1.0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = mixture_eigenvalues(0.5, 0.0)
    assert lo == pytest.approx(0.5) and hi == pytest.approx(0.5)


def test_complexity_broadcast_bit_identical_to_per_point_calls():
    # T = inf and J = 0 merge the rows (C_mu = C_q = 0); B = 0 is on the grid.
    J = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])[:, None, None]
    B = np.array([-1.0, 0.0, 0.3, 2.0])[:, None]
    T = np.array([0.05, 0.7, 2.0, 50.0, math.inf])
    stats = complexity(J, B, T)
    assert stats.c_q.shape == (5, 4, 5)
    assert (stats.c_mu[2] == 0.0).all() and (stats.c_mu[..., -1] == 0.0).all()
    for index in np.ndindex(stats.c_q.shape):
        point = (float(np.broadcast_to(x, stats.c_q.shape)[index]) for x in (J, B, T))
        single = complexity(*point)
        for field in ("t", "p", "overlap", "c_mu", "c_q"):
            assert getattr(stats, field)[index].tobytes() == getattr(single, field).tobytes()


def test_readme_domain_of_the_claim():
    # README: over tau = T/|J| in [0.1, 1e3] and 81 values of b = B/|J|,
    # C_mu never falls and C_q peaks inside the range for J > 0 with B != 0,
    # and for J < 0 only where |B| > 2|J|; C_q falls throughout at B = 0, and
    # for J < 0 with |B| <= 2|J| its maximum is at the low-T end.
    J = np.array([1.0, -1.0])[:, None, None]
    b = np.arange(-40, 41)[:, None] / 10.0  # exact at b = 0 and |b| = 2
    tau = np.logspace(-1, 3, 401)
    stats = complexity(J, b * abs(J), tau * abs(J))
    peak = stats.c_q.argmax(axis=-1)
    claim = (np.diff(stats.c_mu, axis=-1) >= 0).all(axis=-1) & (peak > 0) & (peak < tau.size - 1)
    falls = (np.diff(stats.c_q, axis=-1) < 0).all(axis=-1)
    field, strong = b[:, 0] != 0, abs(b[:, 0]) > 2
    assert claim[0, field].all() and not claim[0, ~field].any()
    assert falls[:, ~field].all()
    assert claim[1, strong].all() and not claim[1, ~strong].any()
    assert (peak[1, ~strong] == 0).all()
