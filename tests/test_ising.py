import math
import warnings

import numpy as np
import pytest

from spin_epsilon import IsingParams, conditional_from_ring, transition_matrix
from spin_epsilon.ising import transition_arrays
from spin_epsilon.verify import _draw

# Analytic value of t00 at (J=1, B=0, T=1): 1 / (1 + exp(-2)).
CLOSED_T00_SYMMETRIC = 0.8807970779778823

# Ring-enumeration values, Aitken-extrapolated over n_half = 8, 9, 10.
RING_T00_SYMMETRIC = 0.8807882476025745
RING_T_FIELD = np.array(
    [
        [0.8247159587829384, 0.1752840412170616],
        [0.3890353908480001, 0.6109646091519997],
    ]
)
RING_P0_FIELD = 0.6893886135078398


def test_high_temperature_approaches_uniform():
    tm = transition_matrix(IsingParams(1.0, 0.0, 1e6))
    np.testing.assert_allclose(tm.t, 0.25 + 0.25 * np.ones((2, 2)), atol=1e-5)
    np.testing.assert_allclose(tm.p, [0.5, 0.5], atol=1e-5)


def test_symmetric_point_closed_form():
    tm = transition_matrix(IsingParams(1.0, 0.0, 1.0))
    assert tm.t[0, 0] == tm.t[1, 1]
    assert tm.t[0, 1] == tm.t[1, 0]
    assert tm.p[0] == 0.5 and tm.p[1] == 0.5
    assert abs(tm.t[0, 0] - CLOSED_T00_SYMMETRIC) < 1e-12
    # The enumeration oracle pins the same number to its extrapolation floor.
    assert abs(tm.t[0, 0] - RING_T00_SYMMETRIC) < 2e-5


def test_field_point_matches_ring_goldens():
    tm = transition_matrix(IsingParams(1.0, 0.3, 2.0))
    np.testing.assert_allclose(tm.t, RING_T_FIELD, atol=1e-9)
    assert abs(tm.p[0] - RING_P0_FIELD) < 1e-9
    assert abs(tm.p[1] - (1.0 - RING_P0_FIELD)) < 1e-9


def test_row_stochastic_and_stationary_over_random_draws():
    rng = np.random.default_rng(101)
    for point in _draw(rng, 1000):
        tm = transition_matrix(IsingParams(*point))
        np.testing.assert_allclose(tm.t.sum(axis=1), [1.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(tm.p @ tm.t, tm.p, atol=1e-10)
        assert abs(tm.p.sum() - 1.0) < 1e-12


def test_entries_strictly_inside_unit_interval():
    rng = np.random.default_rng(55)
    for point in _draw(rng, 1000):
        tm = transition_matrix(IsingParams(*point))
        assert np.all(tm.t > 0.0)
        # An entry may round to exactly 1.0 only when its complement sits
        # below the resolution of double precision.
        for i in range(2):
            for j in range(2):
                if tm.t[i, 1 - j] > 1e-15:
                    assert tm.t[i, j] < 1.0


def test_spin_flip_symmetry():
    rng = np.random.default_rng(7)
    swap = np.ix_([1, 0], [1, 0])
    for point in _draw(rng, 300):
        params = IsingParams(*point)
        tm = transition_matrix(params)
        flipped = transition_matrix(IsingParams(params.J, -params.B, params.T))
        np.testing.assert_allclose(tm.t, flipped.t[swap], atol=1e-12)
        np.testing.assert_allclose(tm.p, flipped.p[::-1], atol=1e-12)


def test_zero_field_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        J = rng.uniform(-3, 3)
        T = float(np.exp(rng.uniform(np.log(0.05), np.log(100.0))))
        tm = transition_matrix(IsingParams(J, 0.0, T))
        np.testing.assert_allclose(tm.p, [0.5, 0.5], atol=1e-12)
        assert abs(tm.t[0, 1] - tm.t[1, 0]) < 1e-12
        assert abs(tm.t[0, 0] - tm.t[1, 1]) < 1e-12


def test_infinite_temperature_flag_gives_uniform_rows():
    params = IsingParams(1.0, 0.5, math.inf)
    assert params.beta == 0.0
    tm = transition_matrix(params)
    np.testing.assert_array_equal(tm.t, 0.5 * np.ones((2, 2)))
    np.testing.assert_array_equal(tm.p, [0.5, 0.5])


def test_beta_inverts_temperature():
    params = IsingParams(0.7, -0.2, 3.5)
    assert params.beta * params.T == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(J=math.nan, B=0.0, T=1.0),
        dict(J=math.inf, B=0.0, T=1.0),
        dict(J=1.0, B=math.nan, T=1.0),
        dict(J=1.0, B=0.0, T=0.0),
        dict(J=1.0, B=0.0, T=-2.0),
        dict(J=1.0, B=0.0, T=math.nan),
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        IsingParams(**kwargs)
    # The array path applies the same rule, behind a valid point.
    with pytest.raises(ValueError):
        transition_arrays(kwargs["J"], kwargs["B"], [1.0, kwargs["T"]])


def test_underflow_guard():
    with pytest.raises(ValueError):
        transition_matrix(IsingParams(3000.0, 0.0, 0.01))
    # An array names its first underflowing temperature.
    with pytest.raises(ValueError, match=r"underflows double precision .*T=0\.0015\)"):
        transition_arrays(1.0, 0.3, [1.0, 0.0015, 0.001])


@pytest.mark.parametrize(
    "J, B, T, first",
    [
        (-1e300, 0.0, [1e300, 1e-10, 1e-20], "1e-10"),  # J/T overflows
        (1.0, 0.0, [1.0, 5e-324], "5e-324"),  # 1/T overflows
        (0.0, 0.0, [5e-324], "5e-324"),
        (1e308, 1e308, [math.inf], "inf"),  # J + B overflows
    ],
)
def test_overflow_guard_names_first_temperature_without_warnings(J, B, T, first):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"exponent overflows .*T={first}\)"):
            transition_arrays(J, B, T)


def test_single_step_agrees_with_ring_enumeration(ring_cache):
    # Short correlation length: quantitative agreement at the largest ring.
    tm = transition_matrix(IsingParams(1.0, 0.3, 2.0))
    errors = []
    for n_half in (6, 8, 10):
        ens = ring_cache(1.0, 0.3, 2.0, n_half)
        ring_t = np.vstack(
            [
                conditional_from_ring(ens, 1, 1).probs,
                conditional_from_ring(ens, -1, 1).probs,
            ]
        )
        errors.append(float(np.max(np.abs(ring_t - tm.t))))
    assert errors[2] < errors[1] < errors[0]
    assert errors[2] < 1e-6

    # Long correlation length: the ring still converges, just more slowly.
    tm_sym = transition_matrix(IsingParams(1.0, 0.0, 1.0))
    slow = []
    for n_half in (6, 8, 10):
        ens = ring_cache(1.0, 0.0, 1.0, n_half)
        ring_t = np.vstack(
            [
                conditional_from_ring(ens, 1, 1).probs,
                conditional_from_ring(ens, -1, 1).probs,
            ]
        )
        slow.append(float(np.max(np.abs(ring_t - tm_sym.t))))
    assert slow[2] < slow[1] < slow[0]


# A (J, B, T) grid with T = inf, B = 0 and J = 0 (rows merge) on its axes.
GRID_J = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])[:, None, None]
GRID_B = np.array([-1.0, 0.0, 0.3, 2.0])[:, None]
GRID_T = np.array([0.05, 0.7, 2.0, 50.0, math.inf])


def test_transition_arrays_broadcast_bit_identical_to_per_point_calls():
    t, p = transition_arrays(GRID_J, GRID_B, GRID_T)
    assert t.shape == (5, 4, 5, 2, 2) and p.shape == (5, 4, 5, 2)
    for index in np.ndindex(t.shape[:3]):
        J, B, T = (float(np.broadcast_to(x, t.shape[:3])[index]) for x in (GRID_J, GRID_B, GRID_T))
        t1, p1 = transition_arrays(J, B, T)
        assert t[index].tobytes() == t1.tobytes() and p[index].tobytes() == p1.tobytes()
        tm = transition_matrix(IsingParams(J, B, T))
        assert tm.t.tobytes() == t1.tobytes() and tm.p.tobytes() == p1.tobytes()


def test_broadcast_validation_names_the_first_bad_point():
    # In C order over the broadcast shape (2, 3): a non-finite J or B anywhere
    # is named before a bad T that comes earlier.
    with pytest.raises(ValueError, match=r"^J and B must be finite, got J=inf, B=0\.5$"):
        transition_arrays([1.0, 2.0, math.inf], [[0.5], [math.nan]], [[-1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match=r"^T must be strictly positive, got T=0\.0$"):
        transition_arrays([1.0, -2.0], 0.3, [[1.0], [0.0], [-1.0]])
    with pytest.raises(ValueError, match=r"^T must not be NaN$"):
        transition_arrays(1.0, [0.0, 0.3], [[1.0], [math.nan]])
    with pytest.raises(ValueError, match=r"overflows .*\(J=-1e\+300, B=0\.0, T=1e-10\)$"):
        transition_arrays([1.0, -1e300], 0.0, 1e-10)
    with pytest.raises(ValueError, match=r"underflows .*\(J=1\.0, B=0\.0, T=0\.002\)$"):
        transition_arrays([0.5, 1.0], 0.0, [[1.0], [0.002]])
