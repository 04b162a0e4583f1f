import math
import re
from dataclasses import fields

import numpy as np
import pytest

from spin_epsilon import (
    IsingParams,
    QuantumModel,
    assert_synchronization,
    branch_layers,
    build_quantum_model,
    build_step_unitaries,
    exact_output_distribution,
    future_distribution,
    sample_quantum_trajectory,
    transition_matrix,
)
from spin_epsilon.circuit import MAX_DEPTH, BranchLayer
from spin_epsilon.verify import draw_params


def unitaries_for(J, B, T):
    return build_step_unitaries(build_quantum_model(transition_matrix(IsingParams(J, B, T))))


def reference_layers(su, start, length):
    """Per-branch walk, one (weight, memory, history) tuple per branch."""
    ancilla = su.v @ np.array([1.0, 0.0])
    layer = [(1.0, su.causal_state(start), 0)]
    for _ in range(length):
        nxt = []
        for weight, memory, history in layer:
            joint = np.empty((2, 2))
            joint[0] = memory[0] * ancilla
            joint[1] = memory[1] * (su.u @ ancilla)
            probs = np.sum(joint * joint, axis=1)
            for outcome in (0, 1):
                if probs[outcome] != 0.0:
                    root = math.sqrt(probs[outcome])
                    nxt.append((weight * root, joint[outcome] / root, (history << 1) | outcome))
        layer = nxt
        yield layer


def identity_encoding_unitaries():
    """|s0> = |0>, |s1> = |1>: from |0> the emitted symbol is always +1."""
    model = QuantumModel(amp=np.eye(2), weights=np.array([0.5, 0.5]))
    return build_step_unitaries(model)


def test_v_is_identity_when_first_state_is_ket0():
    model = QuantumModel(
        amp=np.array([[1.0, 0.0], [0.0, 1.0]]), weights=np.array([0.5, 0.5])
    )
    su = build_step_unitaries(model)
    np.testing.assert_allclose(su.v, np.eye(2), atol=1e-15)


def test_u_is_identity_when_states_coincide():
    su = unitaries_for(1.0, 0.0, math.inf)
    np.testing.assert_allclose(su.u, np.eye(2), atol=1e-15)


def test_unitaries_orthogonal_and_map_states():
    rng = np.random.default_rng(73)
    for _ in range(200):
        model = build_quantum_model(transition_matrix(draw_params(rng)))
        su = build_step_unitaries(model)
        np.testing.assert_allclose(su.v @ su.v.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(su.u @ su.u.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(su.v @ [1.0, 0.0], model.amp[0], atol=1e-12)
        np.testing.assert_allclose(su.u @ model.amp[0], model.amp[1], atol=1e-12)


def test_rotation_angle_golden_symmetric_point():
    su = unitaries_for(1.0, 0.0, 1.0)
    t00 = 0.8807970779778823
    assert abs(su.theta0 - math.atan2(math.sqrt(1 - t00), math.sqrt(t00))) < 1e-12
    np.testing.assert_allclose(
        su.causal_state(0), [math.sqrt(t00), math.sqrt(1 - t00)], atol=1e-12
    )


def test_exact_distribution_uniform_quarters():
    su = unitaries_for(1.0, 0.0, math.inf)
    table = exact_output_distribution(su, 0, 2)
    np.testing.assert_allclose(table.probs, 0.25, atol=1e-14)


def test_single_step_born_rule_equals_matrix_row():
    rng = np.random.default_rng(37)
    for _ in range(50):
        tm = transition_matrix(draw_params(rng))
        su = build_step_unitaries(build_quantum_model(tm))
        for start in (0, 1):
            table = exact_output_distribution(su, start, 1)
            np.testing.assert_allclose(table.probs, tm.t[start], atol=1e-12)


def test_exact_distribution_matches_classical_tables():
    tm = transition_matrix(IsingParams(1.0, 0.3, 2.0))
    su = build_step_unitaries(build_quantum_model(tm))
    for start in (0, 1):
        circuit = exact_output_distribution(su, start, 8)
        classical = future_distribution(tm, start, 8)
        np.testing.assert_allclose(circuit.probs, classical.probs, atol=1e-12)


def test_exact_distribution_random_draws():
    rng = np.random.default_rng(41)
    for _ in range(20):
        tm = transition_matrix(draw_params(rng))
        su = build_step_unitaries(build_quantum_model(tm))
        start = int(rng.integers(2))
        circuit = exact_output_distribution(su, start, 6)
        classical = future_distribution(tm, start, 6)
        np.testing.assert_allclose(circuit.probs, classical.probs, atol=1e-12)


def test_distribution_length_guards():
    su = unitaries_for(1.0, 0.3, 2.0)
    for length in (0, MAX_DEPTH + 1):
        message = re.escape(f"length must be in [1, {MAX_DEPTH}], got {length}")
        with pytest.raises(ValueError, match=message):
            exact_output_distribution(su, 0, length)
        # The public generator guards its own depth before walking a branch.
        with pytest.raises(ValueError, match=message):
            next(branch_layers(su, 0, length))


def test_branch_weights_normalized_at_every_depth():
    su = unitaries_for(1.0, 0.3, 2.0)
    for depth, layer in enumerate(branch_layers(su, 0, 8), start=1):
        total = math.fsum(layer.weight**2)
        assert abs(total - 1.0) < 1e-12, f"depth {depth}"


def test_branch_memory_must_stay_one_qubit():
    one = np.ones(1)
    history = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError):
        BranchLayer(weight=one, memory=np.zeros((1, 4)), history=history)
    with pytest.raises(ValueError):
        BranchLayer(weight=one, memory=np.zeros(2), history=history)


def test_branch_layers_bit_identical_to_reference_walk():
    rng = np.random.default_rng(61)
    cases = [(draw_params(rng), int(rng.integers(2)), int(rng.integers(1, 9))) for _ in range(30)]
    cases += [(IsingParams(1.0, 0.0, math.inf), 0, 8), (IsingParams(1.0, 0.3, 2.0), 1, 8)]
    runs = [
        (build_step_unitaries(build_quantum_model(transition_matrix(params))), start, length)
        for params, start, length in cases
    ]
    runs.append((identity_encoding_unitaries(), 0, 6))  # drops zero outcomes
    for su, start, length in runs:
        walks = zip(branch_layers(su, start, length), reference_layers(su, start, length))
        for layer, ref in walks:
            assert layer.weight.tobytes() == np.array([b[0] for b in ref]).tobytes()
            assert layer.memory.tobytes() == np.array([b[1] for b in ref]).tobytes()
            assert layer.history.tolist() == [b[2] for b in ref]


def test_layer_length_counts_branches_and_drops_zero_outcomes():
    su = unitaries_for(1.0, 0.3, 2.0)
    for depth, layer in enumerate(branch_layers(su, 1, 6), start=1):
        assert len(layer) == layer.history.size == 2**depth
    for layer in branch_layers(identity_encoding_unitaries(), 0, 6):
        assert len(layer) == 1
        assert layer.history.tolist() == [0]
        assert layer.weight.tolist() == [1.0]


def test_exact_distribution_at_max_depth():
    tm = transition_matrix(IsingParams(1.0, 0.3, 2.0))
    su = build_step_unitaries(build_quantum_model(tm))
    circuit = exact_output_distribution(su, 1, MAX_DEPTH)
    classical = future_distribution(tm, 1, MAX_DEPTH)
    np.testing.assert_allclose(circuit.probs, classical.probs, atol=1e-12, rtol=0)


def test_synchronization_trivial_cases():
    model_uniform = build_quantum_model(transition_matrix(IsingParams(1.0, 0.0, math.inf)))
    assert assert_synchronization(
        build_step_unitaries(model_uniform), model_uniform, 4
    ).passed
    model_cold = build_quantum_model(transition_matrix(IsingParams(1.0, 0.0, 0.05)))
    assert assert_synchronization(
        build_step_unitaries(model_cold), model_cold, 4
    ).passed


def test_synchronization_random_draws():
    rng = np.random.default_rng(53)
    for _ in range(50):
        model = build_quantum_model(transition_matrix(draw_params(rng)))
        report = assert_synchronization(build_step_unitaries(model), model, 6)
        assert report.passed, str(report)
        assert report.max_deviation < 1e-12


def test_synchronization_detects_wrong_encoding():
    tm = transition_matrix(IsingParams(1.0, 0.3, 2.0))
    model = build_quantum_model(tm)
    su = build_step_unitaries(model)
    other = QuantumModel(
        amp=np.array([[1.0, 0.0], [0.0, 1.0]]), weights=model.weights
    )
    report = assert_synchronization(su, other, 3)
    assert not report.passed
    assert report.first_failure == (1, "+")


def test_sample_zero_steps():
    su = unitaries_for(1.0, 0.3, 2.0)
    symbols, memory = sample_quantum_trajectory(su, 0, 0, seed=3)
    assert symbols.size == 0
    np.testing.assert_allclose(memory, su.causal_state(0), atol=1e-15)


def test_sample_uniform_frequency():
    su = unitaries_for(1.0, 0.0, math.inf)
    symbols, _ = sample_quantum_trajectory(su, 0, 10**6, seed=21)
    stderr = 0.5 / math.sqrt(10**6)
    assert abs(np.mean(symbols == 1) - 0.5) < 3 * stderr


def test_sample_conditional_frequencies_match_matrix():
    tm = transition_matrix(IsingParams(1.0, 0.3, 2.0))
    su = build_step_unitaries(build_quantum_model(tm))
    symbols, _ = sample_quantum_trajectory(su, 0, 10**6, seed=77)
    states = (1 - symbols.astype(np.int64)) // 2
    prev, nxt = states[:-1], states[1:]
    for i in (0, 1):
        mask = prev == i
        count = int(mask.sum())
        freq = np.mean(nxt[mask] == 0)
        stderr = math.sqrt(tm.t[i, 0] * (1 - tm.t[i, 0]) / count)
        assert abs(freq - tm.t[i, 0]) < 3 * stderr


def test_sample_rejects_negative_steps():
    su = unitaries_for(1.0, 0.3, 2.0)
    with pytest.raises(ValueError):
        sample_quantum_trajectory(su, 0, -1, seed=0)
    with pytest.raises(ValueError, match="start must be 0 or 1"):
        sample_quantum_trajectory(su, 2, 5, seed=0)


def stacked(items):
    """One instance with every field of the items stacked on a leading axis."""
    cls = type(items[0])
    return cls(**{f.name: np.stack([getattr(x, f.name) for x in items]) for f in fields(cls)})


def test_stacked_runs_bit_identical_to_per_draw_calls():
    rng = np.random.default_rng(67)
    params = [draw_params(rng) for _ in range(60)]
    params += [IsingParams(1.0, 0.0, math.inf), IsingParams(3.0, 0.0, 0.05)]
    models = [build_quantum_model(transition_matrix(p)) for p in params]
    models.append(QuantumModel(amp=np.eye(2), weights=np.array([0.5, 0.5])))  # drops outcomes
    sus = [build_step_unitaries(m) for m in models]
    su, model = stacked(sus), stacked(models)
    for start in (0, 1):
        for length in (1, 6):
            table = exact_output_distribution(su, start, length).probs
            assert table.shape == (len(sus), 2**length)
            singles = [exact_output_distribution(one, start, length).probs for one in sus]
            assert table.tobytes() == np.stack(singles).tobytes()
        # Each run's branches in the flat layer are that draw's own layer.
        walks = [branch_layers(one, start, 5) for one in sus]
        for layer, *singles in zip(branch_layers(su, start, 5), *walks):
            runs = [r for r, one in enumerate(singles) for _ in range(len(one))]
            assert layer.run.tolist() == runs
            for field in ("weight", "memory", "history"):
                expected = np.concatenate([getattr(one, field) for one in singles])
                assert getattr(layer, field).tobytes() == expected.tobytes()
    # Memories checked against a wrong encoding from some draws on.
    wrong = [m if k % 3 else QuantumModel(np.eye(2), m.weights) for k, m in enumerate(models)]
    for model_set in (models, wrong):
        reports = assert_synchronization(su, stacked(model_set), 4)
        assert reports == [assert_synchronization(s, m, 4) for s, m in zip(sus, model_set)]
    assert not all(r.passed for r in reports)


def test_stacked_angles_are_math_atan2_where_numpy_differs():
    # np.arctan2 and math.atan2 disagree by an ulp on some memory states of
    # these draws; the stacked unitaries keep each draw's math.atan2 angles,
    # and every field equals the single-draw unitaries bit for bit.
    rng = np.random.default_rng(0)
    models = [build_quantum_model(transition_matrix(draw_params(rng))) for _ in range(200)]
    amp = np.stack([m.amp for m in models])
    expected = np.array([[math.atan2(a[i, 1], a[i, 0]) for i in (0, 1)] for a in amp])
    assert (np.arctan2(amp[..., 1], amp[..., 0]) != expected).any(axis=0).all()
    su = build_step_unitaries(stacked(models))
    assert su.theta0.tolist() == expected[:, 0].tolist()
    assert su.theta1.tolist() == expected[:, 1].tolist()
    singles = [build_step_unitaries(m) for m in models]
    assert isinstance(singles[0].theta0, float)
    for field in ("v", "u", "theta0", "theta1"):
        expected = np.stack([getattr(one, field) for one in singles])
        assert getattr(su, field).tobytes() == expected.tobytes()
