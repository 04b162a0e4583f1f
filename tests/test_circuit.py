import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_epsilon import (
    IsingParams,
    QuantumModel,
    TransitionMatrix,
    assert_synchronization,
    branch_layers,
    build_quantum_model,
    build_step_unitaries,
    classical_fidelity,
    exact_output_distribution,
    fidelity_saturation_check,
    future_distribution,
    sample_quantum_trajectory,
    transition_matrix,
)
from spin_epsilon import circuit
from spin_epsilon.circuit import BranchLayer, SyncReport
from spin_epsilon.classical import MAX_TABLE_LENGTH
from spin_epsilon.ising import transition_arrays
from spin_epsilon.verify import _draw


def unitaries_for(J, B, T):
    return build_step_unitaries(build_quantum_model(transition_matrix(IsingParams(J, B, T))))


def reference_layers(su, start, length):
    """Per-branch walk, one (weight, memory, history) tuple per branch."""
    ancilla = su.v @ np.array([1.0, 0.0])
    layer = [(1.0, su.memory_states()[start], 0)]
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
    for point in _draw(rng, 200):
        model = build_quantum_model(transition_matrix(IsingParams(*point)))
        su = build_step_unitaries(model)
        np.testing.assert_allclose(su.v @ su.v.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(su.u @ su.u.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(su.v @ [1.0, 0.0], model.amp[0], atol=1e-12)
        np.testing.assert_allclose(su.u @ model.amp[0], model.amp[1], atol=1e-12)


def test_rotation_angle_golden_symmetric_point():
    su = unitaries_for(1.0, 0.0, 1.0)
    t00 = 0.8807970779778823
    theta0 = np.arctan2(su.v[1, 0], su.v[0, 0])
    assert abs(theta0 - math.atan2(math.sqrt(1 - t00), math.sqrt(t00))) < 1e-12
    np.testing.assert_allclose(
        su.memory_states()[0], [math.sqrt(t00), math.sqrt(1 - t00)], atol=1e-12
    )


def test_exact_distribution_uniform_quarters():
    su = unitaries_for(1.0, 0.0, math.inf)
    table = exact_output_distribution(su, 0, 2)
    np.testing.assert_allclose(table.probs, 0.25, atol=1e-14)


def test_single_step_born_rule_equals_matrix_row():
    rng = np.random.default_rng(37)
    for point in _draw(rng, 50):
        tm = transition_matrix(IsingParams(*point))
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
        tm = transition_matrix(IsingParams(*_draw(rng, 1)[0]))
        su = build_step_unitaries(build_quantum_model(tm))
        start = int(rng.integers(2))
        circuit = exact_output_distribution(su, start, 6)
        classical = future_distribution(tm, start, 6)
        np.testing.assert_allclose(circuit.probs, classical.probs, atol=1e-12)


def test_distribution_length_guards():
    su = unitaries_for(1.0, 0.3, 2.0)
    for length in (0, MAX_TABLE_LENGTH + 1):
        message = re.escape(f"length must be in [1, {MAX_TABLE_LENGTH}], got {length}")
        with pytest.raises(ValueError, match=message):
            exact_output_distribution(su, 0, length)
        # The public generator guards its own depth before walking a branch.
        with pytest.raises(ValueError, match=message):
            next(branch_layers(su, 0, length))


def test_branch_weights_normalized_at_every_depth():
    su = unitaries_for(1.0, 0.3, 2.0)
    for depth, layer in enumerate(branch_layers(su, 0, 8), start=1):
        total = math.fsum(layer.weight.ravel() ** 2)
        assert abs(total - 1.0) < 1e-12, f"depth {depth}"


@pytest.mark.parametrize("start, total", [(0, 1.003523209228493), (1, 1.0326272244557049)])
def test_normalization_guard_rejects_non_unitary_step(start, total):
    # Stretching U by 1% makes |s1> longer than one, so the squared branch
    # weights stop summing to one at the first step.
    su = unitaries_for(1.0, 0.3, 2.0)
    bad = replace(su, u=1.01 * su.u)
    message = re.escape(f"branch weights lost normalization at depth 1: sum of squares = {total!r}")
    good = unitaries_for(-2.0, 1.0, 0.5)
    for case in (bad, stacked([good, bad, good])):
        with pytest.raises(RuntimeError, match=message):
            next(branch_layers(case, start, 4))
        with pytest.raises(RuntimeError, match=message):
            exact_output_distribution(case, start, 4)


def reference_guard_message(squares, depth):
    """The plain guard: math.fsum over every row in turn; the first row whose
    total is not within 1e-12 of one (NaN included) names the error."""
    for row in squares.tolist():
        total = math.fsum(row)
        if not abs(total - 1.0) <= 1e-12:
            return (
                f"branch weights lost normalization at depth {depth}: "
                f"sum of squares = {total!r}"
            )
    return None


def guard_message(squares, depth):
    try:
        circuit._check_normalization(squares, depth)
    except RuntimeError as exc:
        return str(exc)
    return None


def assert_guard_matches_fsum(squares, depth=7):
    """Same rows raise, alone and stacked, with the same message."""
    for row in squares:
        assert guard_message(row[None], depth) == reference_guard_message(row[None], depth)
    assert guard_message(squares, depth) == reference_guard_message(squares, depth)


def row_with_total(row, total):
    """``row`` (non-negative) rescaled so that its fsum total is ``total``: its
    largest entry below 0.5 takes up the rest, on a grid finer than half an
    ulp of ``total``."""
    row = row * (total / row.sum())
    i = np.where(row < 0.5, row, -1.0).argmax()
    row[i] = 0.0
    row[i] = math.fsum([total, *(-row).tolist()])
    assert row[i] >= 0.0 and math.fsum(row) == total
    return row


def totals_near_bound(steps):
    """1 +- 1e-12 moved by each of ``steps`` ulps: both sides of both bounds."""
    return [
        float(x)
        for bound in (1.0 - 1e-12, 1.0 + 1e-12)
        for x in bound + np.spacing(bound) * np.asarray(steps, dtype=float)
    ]


def test_normalization_guard_matches_fsum_at_the_bound():
    rng = np.random.default_rng(71)
    totals = totals_near_bound(range(-4, 5))
    for width in (1, 2, 8, 1024, 2**12):
        rows = np.array([row_with_total(rng.random(width), t) for t in totals])
        assert_guard_matches_fsum(rows)
    # The bound itself sits between two doubles: both sides are decided.
    messages = [guard_message(row_with_total(np.ones(4), t)[None], 7) for t in totals]
    assert None in messages and any(m is not None for m in messages)


def test_normalization_guard_matches_fsum_where_numpy_sum_differs():
    # One large entry and 2**16 - 1 entries below half its ulp: np.sum drops
    # some of the small ones, fsum keeps them all.
    rows = np.full((18, 2**16), 2.0**-56)
    rest = (2**16 - 1) * 2.0**-56  # exact
    rows[:, 0] = [t - rest for t in totals_near_bound(range(-4, 5))]
    assert [math.fsum(row) for row in rows] == totals_near_bound(range(-4, 5))
    assert any(float(np.sum(row)) != math.fsum(row) for row in rows)
    assert_guard_matches_fsum(rows)


def test_normalization_guard_rejects_nan_and_names_the_first_failing_run():
    rng = np.random.default_rng(73)
    good = [row_with_total(rng.random(2**10), 1.0) for _ in range(3)]
    nan_row = good[0].copy()
    nan_row[5] = np.nan
    late = row_with_total(rng.random(2**10), 1.0 + 2e-12)
    for rows in ([*good, nan_row], [*good, late], [*good, late, nan_row], [nan_row, late]):
        assert_guard_matches_fsum(np.array(rows))
    message = "branch weights lost normalization at depth 7: sum of squares = "
    assert guard_message(np.array([*good, late, nan_row]), 7) == message + repr(math.fsum(late))
    assert guard_message(np.array([*good, nan_row]), 7) == message + "nan"
    # Through the public route, a NaN rotation raises instead of giving a table of NaN.
    nan_step = circuit.StepUnitaries(v=np.full((2, 2), np.nan), u=np.eye(2))
    message = "branch weights lost normalization at depth 1: sum of squares = nan"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        exact_output_distribution(nan_step, 0, 3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 16),
    st.integers(0, 2**32 - 1),
    st.floats(1.0, 60.0),
    st.sampled_from([-1.0, 1.0]),
    st.integers(-2**14, 2**14),
)
def test_normalization_guard_matches_fsum_property(log_width, seed, skew, side, steps):
    # Skewed entries spread over many binades; the offsets reach past the
    # guard's slack (2**11 ulps at width 2**20) on both sides of both bounds.
    row = np.random.default_rng(seed).random(2**log_width) ** skew
    bound = 1.0 + side * 1e-12
    total = float(bound + steps * np.spacing(bound))
    assert_guard_matches_fsum((row * (total / row.sum()))[None])


def test_branch_memory_must_stay_one_qubit():
    one = np.ones((1, 1))
    with pytest.raises(ValueError):
        BranchLayer(weight=one, memory=np.zeros((1, 1, 4)))
    with pytest.raises(ValueError):
        BranchLayer(weight=one, memory=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        BranchLayer(weight=np.ones(2), memory=np.zeros((1, 2, 2)))


def test_branch_layers_bit_identical_to_reference_walk():
    rng = np.random.default_rng(61)
    cases = [(IsingParams(*_draw(rng, 1)[0]), int(rng.integers(2)), int(rng.integers(1, 9)))
             for _ in range(30)]
    cases += [(IsingParams(1.0, 0.0, math.inf), 0, 8), (IsingParams(1.0, 0.3, 2.0), 1, 8)]
    runs = [
        (build_step_unitaries(build_quantum_model(transition_matrix(params))), start, length)
        for params, start, length in cases
    ]
    runs.append((identity_encoding_unitaries(), 0, 6))  # has zero outcomes
    for su, start, length in runs:
        walks = zip(branch_layers(su, start, length), reference_layers(su, start, length))
        for layer, ref in walks:
            weight, memory = layer.weight[0], layer.memory[0]
            live = (memory != 0).any(axis=1)
            assert np.flatnonzero(live).tolist() == [b[2] for b in ref]
            assert weight[live].tobytes() == np.array([b[0] for b in ref]).tobytes()
            assert memory[live].tobytes() == np.array([b[1] for b in ref]).tobytes()
            assert not weight[~live].any() and not memory[~live].any()


def test_layer_length_counts_branches_and_keeps_zero_outcomes():
    su = unitaries_for(1.0, 0.3, 2.0)
    for depth, layer in enumerate(branch_layers(su, 1, 6), start=1):
        assert len(layer) == layer.weight.size == 2**depth
    # From |0> the identity encoding emits only record 0; every other record
    # is a dead branch that stays in the grid with weight 0 and memory 0.
    for depth, layer in enumerate(branch_layers(identity_encoding_unitaries(), 0, 6), start=1):
        assert len(layer) == 2**depth
        assert layer.weight.tolist() == [[1.0] + [0.0] * (2**depth - 1)]
        assert layer.memory[0, 0].tolist() == [1.0, 0.0]
        assert not layer.memory[0, 1:].any()


def test_exact_distribution_at_max_depth():
    tm = transition_matrix(IsingParams(1.0, 0.3, 2.0))
    su = build_step_unitaries(build_quantum_model(tm))
    circuit = exact_output_distribution(su, 1, MAX_TABLE_LENGTH)
    classical = future_distribution(tm, 1, MAX_TABLE_LENGTH)
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
    model = build_quantum_model(transition_matrix(IsingParams(1.0, 0.3, 2.0)))
    report = assert_synchronization(build_step_unitaries(model), model, 3)
    assert str(report) == "PASS: max synchronization deviation 0"


def test_synchronization_random_draws():
    rng = np.random.default_rng(53)
    for point in _draw(rng, 50):
        model = build_quantum_model(transition_matrix(IsingParams(*point)))
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


def test_synchronization_fails_on_nan_amplitudes():
    model = build_quantum_model(transition_matrix(IsingParams(1.0, 0.3, 2.0)))
    broken = QuantumModel(amp=np.full_like(model.amp, np.nan), weights=model.weights)
    report = assert_synchronization(build_step_unitaries(model), broken, 3)
    assert str(report) == "FAIL: memory desynchronized at depth 1 after '+' (deviation nan)"


def test_sample_zero_steps():
    su = unitaries_for(1.0, 0.3, 2.0)
    symbols, memory = sample_quantum_trajectory(su, 0, 0, seed=3)
    assert symbols.size == 0
    np.testing.assert_allclose(memory, su.memory_states()[0], atol=1e-15)


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
    params = [IsingParams(*point) for point in _draw(rng, 60)]
    params += [IsingParams(1.0, 0.0, math.inf), IsingParams(3.0, 0.0, 0.05)]
    models = [build_quantum_model(transition_matrix(p)) for p in params]
    models.append(QuantumModel(amp=np.eye(2), weights=np.array([0.5, 0.5])))  # zero outcomes
    sus = [build_step_unitaries(m) for m in models]
    su, model = stacked(sus), stacked(models)
    for start in (0, 1):
        for length in (1, 6):
            table = exact_output_distribution(su, start, length).probs
            assert table.shape == (len(sus), 2**length)
            singles = [exact_output_distribution(one, start, length).probs for one in sus]
            assert table.tobytes() == np.stack(singles).tobytes()
        # Row r of each stacked layer is draw r's own single-run layer.
        walks = [branch_layers(one, start, 5) for one in sus]
        for depth, (layer, *singles) in enumerate(zip(branch_layers(su, start, 5), *walks), 1):
            assert layer.weight.shape == (len(sus), 2**depth)
            for field in ("weight", "memory"):
                expected = np.concatenate([getattr(one, field) for one in singles])
                assert getattr(layer, field).tobytes() == expected.tobytes()
    # Memories checked against a wrong encoding from some draws on.
    wrong = [m if k % 3 else QuantumModel(np.eye(2), m.weights) for k, m in enumerate(models)]
    for model_set in (models, wrong):
        reports = assert_synchronization(su, stacked(model_set), 4)
        assert reports == [assert_synchronization(s, m, 4) for s, m in zip(sus, model_set)]
    assert not all(r.passed for r in reports)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda tm, model: future_distribution(tm, 0, 3).probs.shape, (0, 8)),
        (lambda tm, model: classical_fidelity(tm, 3).shape, (0,)),
        (lambda tm, model: fidelity_saturation_check(tm, model, 3), []),
        (lambda tm, model: build_step_unitaries(model).u.shape, (0, 2, 2)),
        (lambda tm, model: [layer.memory.shape for layer in
                            branch_layers(build_step_unitaries(model), 0, 3)],
         [(0, 2, 2), (0, 4, 2), (0, 8, 2)]),
        (lambda tm, model: exact_output_distribution(build_step_unitaries(model), 1, 3)
         .probs.shape, (0, 8)),
        (lambda tm, model: assert_synchronization(build_step_unitaries(model), model, 3), []),
    ],
    ids=["future_distribution", "classical_fidelity", "fidelity_saturation_check",
         "build_step_unitaries", "branch_layers", "exact_output_distribution",
         "assert_synchronization"],
)
def test_a_stack_of_zero_draws_is_a_valid_stack(call, expected):
    # Zero draws give empty tables, rotations and report lists, not numpy errors.
    empty = np.empty(0)
    tm = TransitionMatrix(*transition_arrays(empty, empty, empty))
    assert call(tm, build_quantum_model(tm)) == expected


def test_stacked_angles_are_math_atan2_where_numpy_differs():
    # np.arctan2 and math.atan2 disagree by an ulp on some memory states of
    # these draws; the stacked rotations are math.cos and math.sin of each
    # draw's math.atan2 angles, and equal the single-draw rotations bit for bit.
    rng = np.random.default_rng(0)
    models = [build_quantum_model(transition_matrix(IsingParams(*point))) for point in _draw(rng, 200)]
    amp = np.stack([m.amp for m in models])
    angles = np.array([[math.atan2(a[i, 1], a[i, 0]) for i in (0, 1)] for a in amp])
    assert (np.arctan2(amp[..., 1], amp[..., 0]) != angles).any(axis=0).all()

    def rotation(angle):
        c, s = math.cos(angle), math.sin(angle)
        return [[c, -s], [s, c]]

    su = build_step_unitaries(stacked(models))
    assert su.v.tobytes() == np.array([rotation(t0) for t0, _ in angles.tolist()]).tobytes()
    assert su.u.tobytes() == np.array([rotation(t1 - t0) for t0, t1 in angles.tolist()]).tobytes()
    singles = [build_step_unitaries(m) for m in models]
    for field in ("v", "u"):
        expected = np.stack([getattr(one, field) for one in singles])
        assert getattr(su, field).tobytes() == expected.tobytes()


def test_layer_length_is_runs_times_records():
    # The benchmark tracer records len(layer) as the branch count of a layer.
    sus = [unitaries_for(1.0, 0.3, 2.0), unitaries_for(-1.0, 2.0, 0.3), identity_encoding_unitaries()]
    for depth, layer in enumerate(branch_layers(stacked(sus), 1, 7), start=1):
        assert len(layer) == 3 * 2**depth
    for depth, layer in enumerate(branch_layers(sus[0], 0, 7), start=1):
        assert len(layer) == 2**depth


def test_dead_rows_stay_out_of_synchronization():
    # The identity encoding from |0> has one live record per depth; its dead
    # records (weight 0, memory 0) would each deviate by 1 if checked.  (From
    # |1> both outcomes live: cos(pi/2) leaves |s1> a 6e-17 first amplitude.)
    rng = np.random.default_rng(71)
    identity = QuantumModel(amp=np.eye(2), weights=np.array([0.5, 0.5]))
    models = [build_quantum_model(transition_matrix(IsingParams(*point))) for point in _draw(rng, 4)]
    models.insert(2, identity)
    sus = [build_step_unitaries(m) for m in models]
    su = stacked(sus)
    for depth, layer in enumerate(branch_layers(su, 0, 6), start=1):
        dead = ~(layer.memory != 0).any(axis=-1)
        assert dead[[0, 1, 3, 4]].sum() == 0
        assert dead[2].sum() == 2**depth - 1
        assert not layer.weight[dead].any() and not layer.memory[dead].any()
    assert assert_synchronization(sus[2], identity, 6) == SyncReport(True, 0.0, None)
    reports = assert_synchronization(su, stacked(models), 6)
    assert reports == [assert_synchronization(s, m, 6) for s, m in zip(sus, models)]
    assert all(r.passed for r in reports)


def test_synchronization_checks_branches_whose_weight_underflowed(monkeypatch):
    # At T = 0.05 many live branches' weights underflow to 0 by depth 12;
    # their memories are still unit vectors.
    for layer in branch_layers(unitaries_for(3.0, 3.0, 0.05), 0, 12):
        pass
    assert (layer.memory != 0).any(axis=-1).all() and (layer.weight == 0).sum() > 1000
    # Such a branch is checked; a dead one is not.  At depth 2, record 2
    # (ends in +) is dead and record 3 (ends in -) holds |s0> with weight 0.
    model = build_quantum_model(transition_matrix(IsingParams(1.0, 0.3, 2.0)))
    s0, s1, dead = model.amp[0], model.amp[1], [0.0, 0.0]
    grids = [
        BranchLayer(np.array([[1.0, 0.0]]), np.array([[s0, dead]])),
        BranchLayer(np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([[s0, s1, dead, s0]])),
    ]
    monkeypatch.setattr(circuit, "branch_layers", lambda su, start, length: iter(grids))
    report = assert_synchronization(unitaries_for(1.0, 0.3, 2.0), model, 2)
    assert report.first_failure == (2, "--")
    assert report.max_deviation == abs(abs(s0 @ s1) - 1.0)
