import dataclasses

import numpy as np
import pytest

import spin_epsilon.circuit as circuit
import spin_epsilon.verify as verify
from spin_epsilon import FutureDistribution, IsingParams, QuantumModel, mixture_eigenvalues
from spin_epsilon.distribution import binary_entropy_bits
from spin_epsilon.verify import (
    CheckResult,
    check_circuit_agreement,
    check_entropy_monotonicity,
    check_fidelity_saturation,
    check_oracle_convergence,
    run_verification,
)


def test_draw_params_stay_in_box():
    rng = np.random.default_rng(1)
    for point in verify._draw(rng, 500):
        params = IsingParams(*point)
        assert -3.0 <= params.J <= 3.0
        assert -3.0 <= params.B <= 3.0
        assert 0.05 <= params.T <= 100.0


@pytest.mark.parametrize("seed", [0, 7, 42, 123])
def test_block_draws_follow_draw_params_order(seed):
    # Blocks of rows (J, B, T) hold the one-point draw sequence bit for bit
    # and leave the generator where the single draws leave it.
    singles, blocks = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = [verify._draw(singles, 1)[0].tolist() for _ in range(100)]
    rows = [row for n in (1, 32, 67) for row in verify._draw(blocks, n).tolist()]
    assert rows == expected
    assert blocks.random() == singles.random()


def test_quick_verification_all_green():
    results = run_verification("quick", seed=42)
    assert len(results) == 4
    assert all(r.passed for r in results), "; ".join(str(r) for r in results)
    assert {r.name for r in results} == {
        "oracle-convergence",
        "fidelity-saturation",
        "circuit-agreement",
        "entropy-monotonicity",
    }


def test_unknown_level_rejected():
    with pytest.raises(ValueError, match=r"level must be one of \('quick', 'full'\)"):
        run_verification("exhaustive", seed=0)


def test_seed_takes_the_integer_rule():
    # A bool, a float or a negative seed is named, not handed to numpy.
    for seed in (True, 1.5, -1):
        with pytest.raises(ValueError, match=rf"^seed must be >= 0, got {seed}$"):
            run_verification("quick", seed)
    assert run_verification("quick", np.int64(3)) == run_verification("quick", 3)


def test_corrupted_amplitudes_fail_saturation(monkeypatch):
    # Deliberate sign flip in the second amplitude of the first memory state:
    # the overlap leaves the fidelity bound and the check must name the draw.
    monkeypatch.setattr(verify, "build_quantum_model", _sign_flipped_builder)
    result = check_fidelity_saturation(seed=42, draws=10, max_length=6)
    assert not result.passed
    assert "first counterexample at (J=" in result.detail


def test_component_checks_report_details():
    sat = check_fidelity_saturation(seed=3, draws=10, max_length=6)
    assert sat.passed and "10 draws" in sat.detail
    circ = check_circuit_agreement(seed=3, draws=5, length=5, sync_draws=5, sync_depth=3)
    assert circ.passed and "5 distribution draws" in circ.detail
    ent = check_entropy_monotonicity(grid_points=10)
    assert ent.passed and "10x10 grid" in ent.detail
    assert str(sat).startswith("PASS fidelity-saturation")


def test_circuit_agreement_fails_on_nan_tables(monkeypatch):
    # Python's max(0.0, nan) is 0.0: a NaN gap never shows in the worst gap.
    def nan_table(su, start, length):
        probs = circuit.exact_output_distribution(su, start, length).probs
        return FutureDistribution(length, np.full_like(probs, np.nan))

    monkeypatch.setattr(verify, "exact_output_distribution", nan_table)
    result = check_circuit_agreement(seed=3, draws=5, length=5, sync_draws=5, sync_depth=3)
    assert not result.passed
    assert result.detail.endswith(", start=0: max entry gap nan")


def test_entropy_monotonicity_fails_on_nan_eigenvalues(monkeypatch):
    monkeypatch.setattr(verify, "stationary_density", lambda m: np.full(m.amp.shape, np.nan))
    result = check_entropy_monotonicity(grid_points=4)
    assert not result.passed
    assert result.detail.endswith("closed-form vs eigensolve gap nan")


def test_full_oracle_convergence_enumerates_each_ring_once(monkeypatch):
    # Two points x four ring sizes; the table errors and the Markov gaps of a
    # ring read the same enumeration.
    calls = []
    enumerate_ring = verify.enumerate_ring

    def counted(params, n_half):
        calls.append((params.J, params.B, params.T, n_half))
        return enumerate_ring(params, n_half)

    monkeypatch.setattr(verify, "enumerate_ring", counted)
    assert check_oracle_convergence(*verify._BUDGETS["full"][0]).passed
    assert len(calls) == 8 == len(set(calls))


def _exact_window(point):
    """Transfer-matrix law of the three symbols after site 0, one row per site-0 symbol."""
    tm = verify.transition_matrix(verify.IsingParams(*point))
    return np.stack([verify.future_distribution(tm, start, 3).probs for start in (0, 1)])


def _flat_error(point):
    # A uniform window reads the same error from every ring.
    return float(np.max(np.abs(0.125 - _exact_window(point))))


# Faults, each a patch of the names verify reads: the ring window at one
# point (a function of the exact window and n_half) or the Markov gaps.
def _flat(exact, n_half):
    return np.full(exact.shape, 0.125)


def _off_by_more_than_tolerance(exact, n_half):
    # Table errors 1e-6 * (1 + 1/n_half): strictly decreasing, all >= 1e-6.
    window = exact.copy()
    window[:, 0] += 1e-6 * (1 + 1 / n_half)
    window[:, 1] -= 1e-6 * (1 + 1 / n_half)
    return window


_RISING_GAPS = {4: 1e-2, 6: 1e-3, 8: 2e-3, 10: 1e-7}
_SLOW_GAPS = {4: 1e-2, 6: 1e-3, 8: 1e-4, 10: 2e-5}

# A flat fault's message, as (template, point): the template takes n_half and the errors.
_SHORT_FLAT = (
    "short-corr (J=1.0, B=0.3, T=2.0): table error not strictly decreasing across "
    "n_half={}: {}",
    verify._SHORT_CORR,
)
_LONG_FLAT = (
    "long-corr (J=1.0, B=0.0, T=1.0): table error not strictly decreasing across "
    "n_half={}: {}",
    verify._LONG_CORR,
)
_SHORT_FINAL = "short-corr table error at n_half=10 is 1.1e-06, expected < 1e-6"
_GAPS_RISING = "markov gap not strictly decreasing: [0.01, 0.001, 0.002, 1e-07]"
_GAP_FINAL = "markov gap at n_half=10 is 2e-05, expected < 1e-5"


@pytest.mark.parametrize(
    "level, windows, gaps, expected",
    [
        ("quick", {verify._SHORT_CORR: _flat}, None, _SHORT_FLAT),
        ("quick", {verify._LONG_CORR: _flat}, None, _LONG_FLAT),
        ("quick", {verify._SHORT_CORR: _flat, verify._LONG_CORR: _flat}, None, _SHORT_FLAT),
        ("full", {verify._SHORT_CORR: _flat}, None, _SHORT_FLAT),
        ("full", {verify._LONG_CORR: _flat}, None, _LONG_FLAT),
        ("full", {verify._SHORT_CORR: _off_by_more_than_tolerance}, None, _SHORT_FINAL),
        ("full", {}, _RISING_GAPS, _GAPS_RISING),
        ("full", {}, _SLOW_GAPS, _GAP_FINAL),
        # Several faults at once: the earlier bound is the one reported.
        ("full", {verify._SHORT_CORR: _flat, verify._LONG_CORR: _flat}, _RISING_GAPS,
         _SHORT_FLAT),
        ("full", {verify._LONG_CORR: _flat, verify._SHORT_CORR: _off_by_more_than_tolerance},
         _SLOW_GAPS, _LONG_FLAT),
        ("full", {verify._SHORT_CORR: _off_by_more_than_tolerance}, _RISING_GAPS, _SHORT_FINAL),
        ("full", {}, {**_RISING_GAPS, 10: 2e-5},
         "markov gap not strictly decreasing: [0.01, 0.001, 0.002, 2e-05]"),
    ],
)
def test_oracle_convergence_reports_the_first_broken_bound(
    monkeypatch, level, windows, gaps, expected
):
    window = verify._window

    def faulty_window(ens, length):
        point = (ens.params.J, ens.params.B, ens.params.T)
        if point not in windows:
            return window(ens, length)
        return windows[point](_exact_window(point), ens.n_half)

    monkeypatch.setattr(verify, "_window", faulty_window)
    if gaps is not None:
        monkeypatch.setattr(verify, "markov_gap", lambda ens, length: gaps[ens.n_half])
    if isinstance(expected, tuple):
        template, point = expected
        n_halves = (3, 4, 5, 6) if level == "quick" else (4, 6, 8, 10)
        expected = template.format(n_halves, [_flat_error(point)] * len(n_halves))
    result = check_oracle_convergence(*verify._BUDGETS[level][0])
    assert result == CheckResult("oracle-convergence", False, expected)


def reference_entropy_monotonicity(grid_points):
    """The cell-by-cell loop: one outer product and one eigensolve per cell."""
    weights = np.linspace(0.0, 1.0, grid_points + 2)[1:-1]
    overlaps = np.linspace(0.0, 1.0, grid_points + 2)[1:-1]
    worst_eig = 0.0
    for w in weights:
        previous = None
        for f in overlaps:
            lo, hi = verify.mixture_eigenvalues(w, f)
            states = np.array([[1.0, 0.0], [f, np.sqrt(1.0 - f * f)]])
            rho = w * np.outer(states[0], states[0]) + (1 - w) * np.outer(
                states[1], states[1]
            )
            direct = np.linalg.eigvalsh(rho)
            gap = float(np.max(np.abs(np.sort([lo, hi]) - direct)))
            worst_eig = max(worst_eig, gap)
            where = f"first counterexample at (weight={w}, overlap={f}): "
            if not gap <= 1e-12:
                return CheckResult(
                    "entropy-monotonicity",
                    False,
                    where + f"closed-form vs eigensolve gap {gap:.3g}",
                )
            entropy = float(verify.binary_entropy_bits(lo))
            if previous is not None and not entropy < previous:
                return CheckResult(
                    "entropy-monotonicity",
                    False,
                    where + f"entropy {entropy!r} did not decrease from {previous!r}",
                )
            previous = entropy
    return CheckResult(
        "entropy-monotonicity",
        True,
        f"{grid_points}x{grid_points} grid, max eigenvalue gap {worst_eig:.3g}",
    )


def _raised_above_half(w, f):
    # Past overlap 1/2 the small eigenvalue is off by 0.1, which also makes
    # the entropy rise there: the eigenvalue gap must be the one reported.
    lo, hi = mixture_eigenvalues(w, f)
    return lo + 0.1 * (np.asarray(f) > 0.5), hi


def _nan_in_upper_corner(w, f):
    # A NaN eigenvalue fails the eigenvalue-gap test: only gap <= tol passes.
    corner = (np.asarray(w) > 0.5) & (np.asarray(f) > 0.3)
    return tuple(np.where(corner, np.nan, x) for x in mixture_eigenvalues(w, f))


def _flat_entropy_above_half(x):
    # Exact eigenvalues whose entropy stalls at 1/2: this reaches the
    # monotonicity message.
    return np.minimum(binary_entropy_bits(x), 0.5)


@pytest.mark.parametrize("grid_points", [10, 20, 50])
@pytest.mark.parametrize(
    "fault", [None, _raised_above_half, _nan_in_upper_corner, _flat_entropy_above_half]
)
def test_entropy_monotonicity_matches_cell_by_cell_loop(monkeypatch, grid_points, fault):
    # The stacked eigensolve reports exactly what the per-cell loop reports:
    # the same numbers on a pass, the same first failing cell and message.
    if fault is _flat_entropy_above_half:
        monkeypatch.setattr(verify, "binary_entropy_bits", fault)
    elif fault is not None:
        monkeypatch.setattr(verify, "mixture_eigenvalues", fault)
    assert check_entropy_monotonicity(grid_points) == reference_entropy_monotonicity(
        grid_points
    )


def reference_fidelity_saturation(
    seed, draws, max_length, model_builder=verify.build_quantum_model
):
    """The draw-by-draw loop: one transition matrix, model and check per draw."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for point in verify._draw(rng, draws):
        params = IsingParams(*point)
        tm = verify.transition_matrix(params)
        report = verify.fidelity_saturation_check(tm, model_builder(tm), max_length)
        worst = max(worst, report.max_gap)
        if not report.passed:
            return CheckResult(
                "fidelity-saturation",
                False,
                f"first counterexample at (J={params.J}, B={params.B}, "
                f"T={params.T}): {report}",
            )
    return CheckResult(
        "fidelity-saturation",
        True,
        f"{draws} draws, max |overlap - fidelity| = {worst:.3g}",
    )


def reference_circuit_agreement(seed, draws, length, sync_draws, sync_depth):
    """The draw-by-draw loop: one circuit walk and one table per draw and start."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for point in verify._draw(rng, draws):
        params = IsingParams(*point)
        tm = verify.transition_matrix(params)
        su = verify.build_step_unitaries(verify.build_quantum_model(tm))
        for start in (0, 1):
            delta = float(
                np.max(
                    np.abs(
                        verify.exact_output_distribution(su, start, length).probs
                        - verify.future_distribution(tm, start, length).probs
                    )
                )
            )
            worst = max(worst, delta)
            if not delta <= 1e-12:
                return CheckResult(
                    "circuit-agreement",
                    False,
                    f"first counterexample at (J={params.J}, B={params.B}, "
                    f"T={params.T}), start={start}: max entry gap {delta:.3g}",
                )
    for point in verify._draw(rng, sync_draws):
        params = IsingParams(*point)
        tm = verify.transition_matrix(params)
        model = verify.build_quantum_model(tm)
        su = verify.build_step_unitaries(model)
        report = verify.assert_synchronization(su, model, sync_depth)
        if not report.passed:
            return CheckResult(
                "circuit-agreement",
                False,
                f"first counterexample at (J={params.J}, B={params.B}, "
                f"T={params.T}): {report}",
            )
    return CheckResult(
        "circuit-agreement",
        True,
        f"{draws} distribution draws at L={length} (max gap {worst:.3g}), "
        f"{sync_draws} synchronization draws at depth {sync_depth}",
    )


# The corrupted builders index with ``...``, so one function serves a single
# draw (the reference loop) and a stacked block (the check).
def _sign_flipped_builder(tm):
    amp = np.sqrt(tm.t)
    amp[..., 0, 1] = -amp[..., 0, 1]
    return QuantumModel(amp=amp, weights=tm.p.copy())


def _flip_where_cold(tm):
    # Only draws with a strongly biased first row break the bound, so the
    # first failure is not the first draw.
    amp = np.sqrt(tm.t)
    amp[..., 0, 1] = np.where(tm.t[..., 0, 0] > 0.9, -amp[..., 0, 1], amp[..., 0, 1])
    return QuantumModel(amp=amp, weights=tm.p.copy())


def assert_same_for_every_block_size(monkeypatch, check, expected, depth, whole):
    """``check()`` equals ``expected`` at the default ``_BLOCK_ENTRIES``, with
    blocks of 1 and 3 draws at ``depth``, and with ``whole`` entries (one block)."""
    for entries in (verify._BLOCK_ENTRIES, 1, 3 << depth, whole):
        monkeypatch.setattr(verify, "_BLOCK_ENTRIES", entries)
        assert check() == expected, f"_BLOCK_ENTRIES = {entries}"


@pytest.mark.parametrize("seed", [0, 7, 42, 123])
@pytest.mark.parametrize("draws, max_length", [(1, 3), (31, 6), (33, 8), (100, 12)])
@pytest.mark.parametrize("builder", [None, _sign_flipped_builder, _flip_where_cold])
def test_fidelity_saturation_matches_draw_by_draw_loop(
    monkeypatch, seed, draws, max_length, builder
):
    if builder is not None:
        monkeypatch.setattr(verify, "build_quantum_model", builder)
    expected = reference_fidelity_saturation(
        seed, draws, max_length, verify.build_quantum_model
    )
    assert_same_for_every_block_size(
        monkeypatch, lambda: check_fidelity_saturation(seed, draws, max_length), expected,
        max_length, draws << max_length,
    )


def _desynchronizing_u(su):
    # Past a first-state angle of 0.9 rad, U overshoots the second memory
    # state by 1e-5 rad: the output tables and the post-measurement memories
    # (off by ~5e-11) both leave the encoding.  Works on one draw and on
    # stacked draws.
    theta0 = np.arctan2(su.v[..., 1, 0], su.v[..., 0, 0])
    angle = np.arctan2(su.u[..., 1, 0], su.u[..., 0, 0]) + 1e-5 * (theta0 > 0.9)
    c, s = np.cos(angle), np.sin(angle)
    u = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    return dataclasses.replace(su, u=u)


def _shifted_table(su, start, length):
    # Moves 1e-9 of probability between the first two records of every draw
    # whose first-state angle passes 0.9 rad: only the table gap sees it.
    table = circuit.exact_output_distribution(su, start, length)
    shift = np.zeros(table.probs.shape)
    shift[..., 0], shift[..., 1] = 1e-9, -1e-9
    shift *= (np.arctan2(su.v[..., 1, 0], su.v[..., 0, 0]) > 0.9)[..., None]
    return FutureDistribution(length, table.probs + shift)


@pytest.mark.parametrize("seed", [0, 7, 42, 123])
@pytest.mark.parametrize(
    "draws, length, sync_draws, sync_depth",
    [(1, 1, 1, 1), (0, 4, 70, 5), (40, 5, 40, 3), (100, 10, 200, 6)],
)
@pytest.mark.parametrize("fault", [None, "u", "table"])
def test_circuit_agreement_matches_draw_by_draw_loop(
    monkeypatch, seed, draws, length, sync_draws, sync_depth, fault
):
    if fault == "u":
        build = verify.build_step_unitaries
        monkeypatch.setattr(verify, "build_step_unitaries", lambda m: _desynchronizing_u(build(m)))
    elif fault == "table":
        monkeypatch.setattr(verify, "exact_output_distribution", _shifted_table)
    args = (seed, draws, length, sync_draws, sync_depth)
    result = reference_circuit_agreement(*args)
    # 3-draw blocks are those of the deeper part; the shallower part's blocks
    # are larger by 2**(depth difference).
    assert_same_for_every_block_size(
        monkeypatch, lambda: check_circuit_agreement(*args), result,
        max(length, sync_depth), max(draws << length, sync_draws << sync_depth),
    )
    if fault == "u" and draws + sync_draws >= 70 or fault == "table" and draws >= 40:
        # Both messages are reached: the table gap whenever there are table
        # draws, the memory desynchronization when only U is off.
        assert not result.passed
        reached = "desynchronized" if draws == 0 else "max entry gap"
        assert reached in result.detail
