import numpy as np
import pytest

import spin_epsilon.verify as verify
from spin_epsilon import QuantumModel, mixture_eigenvalues
from spin_epsilon.verify import (
    CheckResult,
    check_circuit_agreement,
    check_entropy_monotonicity,
    check_fidelity_saturation,
    check_oracle_convergence,
    draw_params,
    run_verification,
)


def test_draw_params_stay_in_box():
    rng = np.random.default_rng(1)
    for _ in range(500):
        params = draw_params(rng)
        assert -3.0 <= params.J <= 3.0
        assert -3.0 <= params.B <= 3.0
        assert 0.05 <= params.T <= 100.0


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
    with pytest.raises(ValueError):
        run_verification("exhaustive", seed=0)


def test_corrupted_amplitudes_fail_saturation():
    # Deliberate sign flip in the second amplitude of the first memory state:
    # the overlap leaves the fidelity bound and the check must name the draw.
    def corrupted_builder(tm):
        amp = np.sqrt(tm.t)
        amp[0, 1] = -amp[0, 1]
        return QuantumModel(amp=amp, weights=tm.p.copy())

    result = check_fidelity_saturation(
        seed=42, draws=10, max_length=6, model_builder=corrupted_builder
    )
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


def test_full_oracle_convergence_enumerates_each_ring_once(monkeypatch):
    # Two points x four ring sizes; the table errors and the Markov gaps of a
    # ring read the same enumeration.
    calls = []
    enumerate_ring = verify.enumerate_ring

    def counted(params, n_half):
        calls.append((params.J, params.B, params.T, n_half))
        return enumerate_ring(params, n_half)

    monkeypatch.setattr(verify, "enumerate_ring", counted)
    assert check_oracle_convergence("full").passed
    assert len(calls) == 8 == len(set(calls))


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
            worst_eig = max(worst_eig, float(np.max(np.abs(np.sort([lo, hi]) - direct))))
            where = f"first counterexample at (weight={w}, overlap={f}): "
            if worst_eig > 1e-12:
                return CheckResult(
                    "entropy-monotonicity",
                    False,
                    where + f"closed-form vs eigensolve gap {worst_eig:.3g}",
                )
            entropy = float(-(np.array([lo, hi]) * np.log2([max(lo, 1e-300), hi])).sum())
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
    # NaN passes the eigenvalue-gap test (nan > tol is False) and then fails
    # the strict-decrease test, so this reaches the monotonicity message.
    corner = (np.asarray(w) > 0.5) & (np.asarray(f) > 0.3)
    return tuple(np.where(corner, np.nan, x) for x in mixture_eigenvalues(w, f))


@pytest.mark.parametrize("grid_points", [10, 20, 50])
@pytest.mark.parametrize("eigenvalues", [None, _raised_above_half, _nan_in_upper_corner])
def test_entropy_monotonicity_matches_cell_by_cell_loop(monkeypatch, grid_points, eigenvalues):
    # The stacked eigensolve reports exactly what the per-cell loop reports:
    # the same numbers on a pass, the same first failing cell and message.
    if eigenvalues is not None:
        monkeypatch.setattr(verify, "mixture_eigenvalues", eigenvalues)
    assert check_entropy_monotonicity(grid_points) == reference_entropy_monotonicity(
        grid_points
    )
