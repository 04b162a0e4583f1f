import math

import numpy as np
import pytest

from spin_epsilon import (
    EpsilonMachine,
    IsingParams,
    TransitionMatrix,
    classical_fidelity,
    extrapolated_conditional,
    future_distribution,
    build_quantum_model,
    build_step_unitaries,
    sample_quantum_trajectory,
    sample_trajectory,
    statistical_complexity,
    symbols_to_line,
    transition_matrix,
)
from spin_epsilon.classical import future_tables
from spin_epsilon.verify import draw_params


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
        tm = transition_matrix(draw_params(rng))
        start = int(rng.integers(2))
        table = future_distribution(tm, start, 6)
        assert abs(table.probs.sum() - 1.0) < 1e-12 * len(table.probs)
        assert np.all(table.probs >= 0.0)
        # Marginalizing the last symbol reproduces the shorter table.
        np.testing.assert_allclose(
            table.marginalize_last().probs,
            future_distribution(tm, start, 5).probs,
            atol=1e-12,
        )


def test_stationary_mixture_reproduces_symbol_marginal():
    rng = np.random.default_rng(17)
    for _ in range(100):
        tm = transition_matrix(draw_params(rng))
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
    for _ in range(200):
        tm = transition_matrix(draw_params(rng))
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
    # Anything not above zero renders as -1, as the per-symbol join did.
    values = np.random.default_rng(3).integers(-2, 3, 1000)
    for symbols in (values, values.astype(np.int8), values.astype(float), values.tolist()):
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
    memories = (su.causal_state(0), su.causal_state(1))
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
    assert table.string(0) == "+++"
    assert table.string(5) == "-+-"


def test_machine_rejects_bad_state():
    tm = transition_matrix(IsingParams(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        EpsilonMachine(tm, state=2)
    machine = EpsilonMachine(tm)
    with pytest.raises(ValueError):
        machine.run(-1)


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
    params = [draw_params(rng) for _ in range(40)] + [IsingParams(1.0, 0.3, math.inf)]
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
    table = future_distribution(
        TransitionMatrix(t=np.full((3, 2, 2), 0.5), p=np.full((3, 2), 0.5)), 0, 3
    )
    assert table.probs.shape == (3, 8)
    assert table.marginalize_last().probs.shape == (3, 4)
