import math
import re

import numpy as np
import pytest

from spin_epsilon import (
    EpsilonMachine,
    FutureDistribution,
    IsingParams,
    StepUnitaries,
    TransitionMatrix,
    assert_synchronization,
    classical_fidelity,
    conditional_from_ring,
    enumerate_ring,
    exact_output_distribution,
    extrapolated_conditional,
    fidelity_saturation_check,
    future_distribution,
    build_quantum_model,
    build_step_unitaries,
    markov_gap,
    sample_quantum_trajectory,
    sample_trajectory,
    statistical_complexity,
    symbols_to_line,
    temperature_grid,
    transition_matrix,
)
from spin_epsilon.classical import future_tables
from spin_epsilon.ising import transition_arrays
from spin_epsilon.distribution import symbol_string
from spin_epsilon.verify import _draw


def tm_literal(t, p):
    return TransitionMatrix(t=np.array(t, dtype=float), p=np.array(p, dtype=float))


def test_balanced_two_state_machine_needs_one_bit():
    tm = transition_matrix(IsingParams(1.0, 0.0, 1.0))
    assert statistical_complexity(tm) == 1.0


def test_deterministic_state_needs_no_memory():
    tm = tm_literal([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0])
    assert statistical_complexity(tm) == 0.0


def test_identical_rows_merge_to_zero_bits():
    tm = transition_matrix(IsingParams(1.0, 0.0, math.inf))
    assert tm.p[0] == 0.5
    assert statistical_complexity(tm) == 0.0
    # Merge also applies to handcrafted matrices with coinciding rows.
    assert statistical_complexity(tm_literal([[0.7, 0.3], [0.7, 0.3]], [0.5, 0.5])) == 0.0


def test_future_distribution_single_step_is_matrix_row():
    tm = transition_matrix(IsingParams(0.8, -0.2, 1.5))
    for start in (0, 1):
        table = future_distribution(tm, start, 1)
        np.testing.assert_allclose(table.probs, tm.t[start], atol=1e-15)


def test_future_distribution_uniform_rows():
    tm = transition_matrix(IsingParams(1.0, 0.0, math.inf))
    table = future_distribution(tm, 0, 3)
    np.testing.assert_allclose(table.probs, 0.125, atol=1e-15)


def test_future_distribution_matches_ring_oracle():
    params = IsingParams(1.0, 0.3, 2.0)
    table = future_distribution(transition_matrix(params), 1, 4)
    oracle = extrapolated_conditional(params, -1, 4)
    np.testing.assert_allclose(table.probs, oracle.probs, atol=1e-9)


def test_future_distribution_guards():
    tm = transition_matrix(IsingParams(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        future_distribution(tm, 0, 0)
    with pytest.raises(ValueError):
        future_distribution(tm, 0, 21)
    with pytest.raises(ValueError):
        future_distribution(tm, 2, 3)


def test_tables_normalize_and_marginalize_consistently():
    rng = np.random.default_rng(31)
    for _ in range(100):
        tm = transition_matrix(IsingParams(*_draw(rng, 1)[0]))
        start = int(rng.integers(2))
        table = future_distribution(tm, start, 6)
        assert abs(table.probs.sum() - 1.0) < 1e-12 * len(table.probs)
        assert np.all(table.probs >= 0.0)
        # Marginalizing the last symbol reproduces the shorter table.
        np.testing.assert_allclose(
            table.probs.reshape(-1, 2).sum(-1),
            future_distribution(tm, start, 5).probs,
            atol=1e-12,
        )


def test_stationary_mixture_reproduces_symbol_marginal():
    rng = np.random.default_rng(17)
    for point in _draw(rng, 100):
        tm = transition_matrix(IsingParams(*point))
        mix = tm.p[0] * future_distribution(tm, 0, 4).probs + tm.p[1] * future_distribution(
            tm, 1, 4
        ).probs
        first_up = mix.reshape(2, -1).sum(axis=1)
        np.testing.assert_allclose(first_up, tm.p, atol=1e-12)


def test_fidelity_equals_one_for_identical_futures():
    tm = transition_matrix(IsingParams(1.0, 0.0, math.inf))
    for length in (1, 4, 9):
        assert abs(classical_fidelity(tm, length) - 1.0) < 1e-12


def test_fidelity_vanishes_for_disjoint_futures():
    tm = tm_literal([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    assert classical_fidelity(tm, 5) == 0.0


def test_fidelity_constant_in_length_and_matches_closed_form():
    rng = np.random.default_rng(23)
    for point in _draw(rng, 200):
        tm = transition_matrix(IsingParams(*point))
        closed = math.sqrt(tm.t[0, 0] * tm.t[1, 0]) + math.sqrt(tm.t[0, 1] * tm.t[1, 1])
        values = [classical_fidelity(tm, length) for length in range(1, 13)]
        assert max(values) - min(values) < 1e-10
        assert all(abs(v - closed) < 1e-10 for v in values)


def test_fidelity_of_stacked_draws_equals_single_calls():
    # Each draw sums over its own tables only: a sum over the whole stack
    # exceeds 1, which no fidelity can.
    tms = [transition_matrix(IsingParams(1.0, 0.3, T)) for T in (0.2, 0.5, 1.0, 2.0, 5.0, 20.0)]
    stacked = TransitionMatrix(t=np.stack([tm.t for tm in tms]), p=np.stack([tm.p for tm in tms]))
    for length in range(1, 13):
        got = classical_fidelity(stacked, length)
        assert got.shape == (6,)
        assert got.tolist() == [classical_fidelity(tm, length) for tm in tms]
    assert isinstance(classical_fidelity(tms[0], 3), float)


def test_complexity_monotone_in_temperature():
    values = [
        statistical_complexity(transition_matrix(IsingParams(1.0, 0.3, t / 10.0)))
        for t in range(1, 101)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_trajectory_zero_steps_keeps_state():
    machine = EpsilonMachine(transition_matrix(IsingParams(1.0, 0.3, 2.0)))
    symbols, final = sample_trajectory(machine, 1, 0, seed=5)
    assert symbols.size == 0
    assert final == 1


def test_trajectory_uniform_frequency():
    machine = EpsilonMachine(transition_matrix(IsingParams(1.0, 0.0, math.inf)))
    symbols, _ = sample_trajectory(machine, 0, 10**6, seed=12)
    stderr = 0.5 / math.sqrt(10**6)
    assert abs(np.mean(symbols == 1) - 0.5) < 3 * stderr


def test_trajectory_conditional_frequencies_match_matrix():
    tm = transition_matrix(IsingParams(1.0, 0.3, 2.0))
    machine = EpsilonMachine(tm)
    symbols, _ = sample_trajectory(machine, 0, 10**6, seed=40)
    states = (1 - symbols.astype(np.int64)) // 2
    prev, nxt = states[:-1], states[1:]
    for i in (0, 1):
        mask = prev == i
        count = int(mask.sum())
        freq = np.mean(nxt[mask] == 0)
        stderr = math.sqrt(tm.t[i, 0] * (1 - tm.t[i, 0]) / count)
        assert abs(freq - tm.t[i, 0]) < 3 * stderr


def test_trajectory_first_symbol_follows_start_row():
    tm = transition_matrix(IsingParams(1.0, 0.3, 2.0))
    machine = EpsilonMachine(tm)
    runs = 500
    ups = sum(
        sample_trajectory(machine, 1, 1, seed=s)[0][0] == 1 for s in range(runs)
    )
    stderr = math.sqrt(tm.t[1, 0] * (1 - tm.t[1, 0]) / runs)
    assert abs(ups / runs - tm.t[1, 0]) < 3 * stderr


def test_trajectory_reproducible_for_seed():
    machine = EpsilonMachine(transition_matrix(IsingParams(1.0, 0.3, 2.0)))
    first, state1 = sample_trajectory(machine, 0, 1000, seed=9)
    second, state2 = sample_trajectory(machine, 0, 1000, seed=9)
    np.testing.assert_array_equal(first, second)
    assert state1 == state2


def test_trajectory_line_export():
    assert symbols_to_line(np.array([1, -1, 1])) == "+1 -1 +1"
    assert symbols_to_line(np.array([], dtype=np.int8)) == ""
    assert symbols_to_line([]) == ""
    assert symbols_to_line([-1]) == "-1"
    # Anything not above zero renders as -1, as the per-symbol join did; one
    # simulate chunk of each input type.
    values = np.random.default_rng(3).integers(-2, 3, 2**16)
    for symbols in (values, values.astype(np.int8), values.astype(float), values.tolist(),
                    values > 0):
        expected = " ".join("+1" if s > 0 else "-1" for s in symbols)
        assert symbols_to_line(symbols) == expected


def reference_walk(q, start, steps, seed):
    """The per-step loop both samplers ran before the scan: the state moves
    to 0 when the draw is below q[state].  Returns (symbols, final state)."""
    out = np.empty(steps, dtype=np.int8)
    state = start
    for k, u in enumerate(np.random.default_rng(seed).random(steps)):
        state = 0 if u < q[state] else 1
        out[k] = state
    return 1 - 2 * out, state


@pytest.mark.parametrize(
    "J, B, T",
    [
        (1.0, 0.3, 2.0),  # ferro: a middle draw copies the state
        (-1.0, 0.5, 0.3),  # antiferro: a middle draw flips it
        (1.0, 0.0, math.inf),  # merged rows: every draw resets
        (0.0, 1.0, 1.0),  # merged rows at finite T
        (3.0, 0.0, 0.05),  # near-deterministic rows
        (-3.0, 0.0, 0.05),
    ],
)
def test_samplers_match_reference_loop(J, B, T):
    tm = transition_matrix(IsingParams(J, B, T))
    su = build_step_unitaries(build_quantum_model(tm))
    memories = su.memory_states()
    # Thresholds of each backend's own route: t for the machine, the squared
    # first amplitude of each memory vector for the circuit.
    q_classical = (tm.t[0, 0], tm.t[1, 0])
    q_quantum = tuple(float(m[0]) * float(m[0]) for m in memories)
    machine = EpsilonMachine(tm)
    for seed in range(12):
        for start in (0, 1):
            for steps in (0, 1, 2, 1000):
                expected, final = reference_walk(q_classical, start, steps, seed)
                symbols, state = sample_trajectory(machine, start, steps, seed)
                assert symbols.dtype == np.int8
                np.testing.assert_array_equal(symbols, expected)
                assert state == final

                expected, final = reference_walk(q_quantum, start, steps, seed)
                symbols, memory = sample_quantum_trajectory(su, start, steps, seed)
                np.testing.assert_array_equal(symbols, expected)
                np.testing.assert_array_equal(memory, memories[final])


def test_distribution_string_round_trip():
    tm = transition_matrix(IsingParams(1.0, 0.3, 2.0))
    table = future_distribution(tm, 0, 3)
    assert symbol_string(0, table.length) == "+++"
    assert symbol_string(5, table.length) == "-+-"


def test_machine_rejects_bad_state():
    tm = transition_matrix(IsingParams(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        EpsilonMachine(tm).reset(2)
    machine = EpsilonMachine(tm)
    with pytest.raises(ValueError):
        machine.run(-1)


_PARAMS = IsingParams(1.0, 0.3, 2.0)
_TM = transition_matrix(_PARAMS)
_SU = build_step_unitaries(build_quantum_model(_TM))
_RING = enumerate_ring(_PARAMS, 3)

# Every integer argument of the library: (site, call, lo, hi or None, the
# message for a value, a float to try).  True is an int equal to 1 that numpy
# reads as a mask (and that would hash as 1 in the ring layout cache); an
# n_half of 2.5 would make a 6-spin ring, which the 2*n_half + 1 design excludes.
INTEGER_SITES = [
    ("future_tables.start", lambda v: future_distribution(_TM, v, 3), 0, 1,
     "start must be 0 or 1, got {}", 1.0),
    ("EpsilonMachine.reset.state", lambda v: EpsilonMachine(_TM).reset(v), 0, 1,
     "state must be 0 or 1, got {}", 1.0),
    ("sample_quantum_trajectory.start", lambda v: sample_quantum_trajectory(_SU, v, 3, 0), 0, 1,
     "start must be 0 or 1, got {}", 1.0),
    ("branch_layers.start", lambda v: exact_output_distribution(_SU, v, 3), 0, 1,
     "start must be 0 or 1, got {}", 1.0),
    ("future_tables.length", lambda v: future_distribution(_TM, 0, v), 1, 20,
     "length must be in [1, 20], got {}", 2.0),
    ("branch_layers.length", lambda v: exact_output_distribution(_SU, 0, v), 1, 20,
     "length must be in [1, 20], got {}", 2.0),
    ("enumerate_ring.n_half", lambda v: enumerate_ring(_PARAMS, v), 1, 10,
     "n_half must be an integer in [1, 10], got {!r}", 2.5),
    ("conditional_from_ring.length", lambda v: conditional_from_ring(_RING, 1, v), 1, 3,
     "length must be in [1, n_half=3], got {}", 2.0),
    ("markov_gap.length", lambda v: markov_gap(_RING, v), 1, 2,
     "length must be in [1, n_half-1=2], got {}", 2.0),
    ("EpsilonMachine.run.steps", lambda v: EpsilonMachine(_TM).run(v), 0, None,
     "steps must be >= 0, got {}", 2.0),
    ("sample_quantum_trajectory.steps", lambda v: sample_quantum_trajectory(_SU, 0, v, 0), 0, None,
     "steps must be >= 0, got {}", 2.0),
    ("temperature_grid.points", lambda v: temperature_grid(0.5, 2.0, v), 2, None,
     "points must be >= 2, got {}", 2.5),
]


def integer_cases():
    """True, a float and each bound's outside neighbour must raise the site's
    message; a numpy integer at the low bound must pass (message None)."""
    for site, call, lo, hi, message, real in INTEGER_SITES:
        for value in [True, real, lo - 1] + ([] if hi is None else [hi + 1]):
            yield pytest.param(call, value, message.format(value), id=f"{site}={value!r}")
        yield pytest.param(call, np.int64(lo), None, id=f"{site}=int64")


@pytest.mark.parametrize("call, value, message", integer_cases())
def test_integer_arguments_follow_one_rule(call, value, message):
    if message is None:
        call(value)
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def _stack(*temperatures):
    """The (J, B) = (1, 0.3) transition matrices at ``temperatures``, stacked."""
    n = len(temperatures)
    return TransitionMatrix(*transition_arrays(np.ones(n), np.full(n, 0.3), np.array(temperatures)))


_TM1, _TM2 = _stack(2.0), _stack(2.0, 0.3)
_MODEL1, _MODEL2 = build_quantum_model(_TM1), build_quantum_model(_TM2)
_SU1, _SU2 = build_step_unitaries(_MODEL1), build_step_unitaries(_MODEL2)

# Two stacked arguments must stack the same draws, and the samplers take one
# model.  Before these checks, the fidelity check judged one draw of two and
# passed (the second, fidelity 0.93 against overlap 0.89, went unjudged), and
# the other sites leaked numpy's reshape, broadcast, truth-value or TypeError
# messages, or accepted the argument.
STACK_CASES = [
    ("fidelity_saturation_check.2-1", lambda: fidelity_saturation_check(_TM2, _MODEL1),
     "tm and model must stack the same draws, got t of shape (2, 2, 2) and amp of shape (1, 2, 2)"),
    ("fidelity_saturation_check.1-2", lambda: fidelity_saturation_check(_TM1, _MODEL2),
     "tm and model must stack the same draws, got t of shape (1, 2, 2) and amp of shape (2, 2, 2)"),
    ("assert_synchronization.2-1", lambda: assert_synchronization(_SU2, _MODEL1, 3),
     "su and model must stack the same draws, got v of shape (2, 2, 2) and amp of shape (1, 2, 2)"),
    ("assert_synchronization.1-2", lambda: assert_synchronization(_SU1, _MODEL2, 3),
     "su and model must stack the same draws, got v of shape (1, 2, 2) and amp of shape (2, 2, 2)"),
    ("StepUnitaries", lambda: StepUnitaries(np.eye(2), np.ones((3, 2, 2))),
     "expected v and u of shape (..., 2, 2), got v (2, 2) and u (3, 2, 2)"),
    ("EpsilonMachine", lambda: EpsilonMachine(_TM2).run(5),
     "EpsilonMachine takes one model, got t of shape (2, 2, 2)"),
    ("sample_quantum_trajectory", lambda: sample_quantum_trajectory(_SU2, 0, 5, 0),
     "sample_quantum_trajectory takes one model, got v of shape (2, 2, 2)"),
    # The spin condition follows the integer rule: True and 1.0 are not +1.
    ("conditional_from_ring.True", lambda: conditional_from_ring(_RING, True, 2),
     "condition must be +1 or -1, got True"),
    ("conditional_from_ring.1.0", lambda: conditional_from_ring(_RING, 1.0, 2),
     "condition must be +1 or -1, got 1.0"),
]


@pytest.mark.parametrize("call, message", [pytest.param(c, m, id=i) for i, c, m in STACK_CASES])
def test_stacks_and_single_model_arguments_are_checked(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integer_condition_is_a_spin():
    for condition in (1, -1):
        expected = conditional_from_ring(_RING, condition, 2).probs.tobytes()
        assert conditional_from_ring(_RING, np.int64(condition), 2).probs.tobytes() == expected


def reference_future_tables(tm, start, length):
    """The gather-and-tile expansion: each entry's next row read by its last state."""
    probs = np.ones(1)
    states = np.array([start])
    for _ in range(length):
        probs = (probs[:, None] * tm.t[states]).reshape(-1)
        states = np.tile(np.array([0, 1]), states.size)
        yield probs


def test_stacked_future_tables_bit_identical_to_per_draw():
    rng = np.random.default_rng(29)
    params = [IsingParams(*point) for point in _draw(rng, 40)] + [IsingParams(1.0, 0.3, math.inf)]
    tms = [transition_matrix(p) for p in params]
    stacked = TransitionMatrix(t=np.stack([tm.t for tm in tms]), p=np.stack([tm.p for tm in tms]))
    for start in (0, 1):
        layers = zip(
            future_tables(stacked, start, 12),
            *(reference_future_tables(tm, start, 12) for tm in tms),
        )
        for length, (table, *references) in enumerate(layers, start=1):
            assert table.shape == (len(tms), 2**length)
            assert table.tobytes() == np.stack(references).tobytes()
        for length in (1, 7):
            single = [future_distribution(tm, start, length).probs for tm in tms]
            assert future_distribution(stacked, start, length).probs.tobytes() == (
                np.stack(single).tobytes()
            )


def test_stacked_shapes_are_checked():
    with pytest.raises(ValueError, match="shape"):
        tm_literal([[0.5, 0.5]], [1.0])
    with pytest.raises(ValueError, match="shape"):
        TransitionMatrix(t=np.full((3, 2, 2), 0.5), p=np.full(2, 0.5))
    with pytest.raises(ValueError, match=r"^expected 8 entries for length 3, got shape \(7,\)$"):
        FutureDistribution(3, np.zeros(7))
    # (2,) == (2.0,), so only the integer rule stops a bool or float length.
    for length, entries in ((True, 2), (1.0, 2), (np.float64(2), 4), (-1, 1)):
        with pytest.raises(ValueError, match=rf"^length must be >= 0, got {length}$"):
            FutureDistribution(length, np.ones(entries))
    table = future_distribution(
        TransitionMatrix(t=np.full((3, 2, 2), 0.5), p=np.full((3, 2), 0.5)), 0, 3
    )
    assert table.probs.shape == (3, 8)
