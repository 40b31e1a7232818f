"""Quarter-turn and general-angle co-rotation behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzverify import states
from ghzverify.checks import EIGEN_TOL, POLE_SNAP_TOL, eigen_check_general
from ghzverify.errors import DomainError
from ghzverify.oracle import (apply_observable, apply_pauli, materialize, observable_matrix,
                              rotation_diagonal)
from ghzverify.poles import eigenvalue_symbolic
from ghzverify.rotations import co_rotate_quarter
from ghzverify.states import GhzLabel, apply_rotations, build_state, parse_label
from references import from_letters


class TestQuarterTurns:
    def test_validation(self):
        with pytest.raises(DomainError, match=r"turns must lie in 0\.\.3, got \(0, 4\)"):
            co_rotate_quarter((0, 4))
        with pytest.raises(DomainError, match="need at least one turn entry"):
            co_rotate_quarter(())


class TestCoRotateQuarter:
    @pytest.mark.parametrize("turns,text", [
        ((0, 0, 0), "+XXX"),
        ((1, 0, 0), "+YXX"),
        ((2, 1, 0), "-XYX"),
        ((3, 3, 0), "+YYX"),
        ((2, 2, 2), "-XXX"),
    ])
    def test_examples(self, turns, text):
        assert co_rotate_quarter(turns) == from_letters(text[1:], 0 if text[0] == "+" else 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_general_angles_exhaustively(self, n):
        import itertools
        for turns in itertools.product(range(4), repeat=n):
            op = co_rotate_quarter(turns)
            dense = materialize(op)
            general = observable_matrix(tuple(t * math.pi / 2 for t in turns))
            assert np.max(np.abs(dense - general)) < 1e-12


class TestCoRotateGeneral:
    def test_zero_angles_reduce_to_all_x(self):
        obs = observable_matrix((0.0, 0.0, 0.0))
        assert np.max(np.abs(obs - materialize(from_letters("XXX")))) < 1e-12

    def test_quarter_angle_reduces_to_single_y(self):
        obs = observable_matrix((math.pi / 2, 0.0, 0.0))
        assert np.max(np.abs(obs - materialize(from_letters("YXX")))) < 1e-12

    def test_conjugation_identity_random_angles(self):
        # both sides of the conjugation computed densely, 8x8
        rng = np.random.default_rng(101)
        all_x = materialize(from_letters("XXX"))
        for _ in range(25):
            angles = rng.uniform(-math.pi, math.pi, size=3)
            diag = rotation_diagonal(angles)
            lhs = (diag[:, None] * all_x) * np.conj(diag)[None, :]
            rhs = observable_matrix(angles)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_factors_are_hermitian_involutions(self):
        rng = np.random.default_rng(5)
        for phi in rng.uniform(-math.pi, math.pi, size=10):
            factor = observable_matrix((phi,))
            assert np.max(np.abs(factor - factor.conj().T)) < 1e-12
            assert np.max(np.abs(factor @ factor - np.eye(2))) < 1e-12

    def test_group_action_composition(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            first = rng.uniform(-math.pi, math.pi, size=3)
            second = rng.uniform(-math.pi, math.pi, size=3)
            diag = rotation_diagonal(second)
            stepped = (diag[:, None] * observable_matrix(first)) * np.conj(diag)[None, :]
            direct = observable_matrix(first + second)
            assert np.max(np.abs(stepped - direct)) < 1e-12


class TestEigenCheckGeneral:
    def test_matching_sum_gives_plus_one(self):
        label = GhzLabel(3, 0, 1)
        assert eigen_check_general(label, 0.0, (0.7, -0.7, 0.0)) == 1

    def test_opposite_pole_gives_minus_one(self):
        label = GhzLabel(3, 0, 1)
        assert eigen_check_general(label, 0.0, (math.pi / 2, math.pi / 4, math.pi / 4)) == -1

    def test_off_pole_is_not_eigenstate(self):
        label = GhzLabel(3, 0, 1)
        assert eigen_check_general(label, 0.0, (math.pi / 3, 0.0, 0.0)) is None

    def test_minus_label_shifts_reference(self):
        label = GhzLabel(3, 0, -1)
        assert eigen_check_general(label, 0.0, (0.0, 0.0, 0.0)) == -1
        assert eigen_check_general(label, 0.0, (math.pi, 0.0, 0.0)) == 1

    def test_pattern_label_uses_signed_sum(self):
        label = GhzLabel(3, 0b011, 1)
        # signed sum: +phi_1 - phi_2 - phi_3
        assert eigen_check_general(label, 0.0, (0.5, 0.3, 0.2)) == 1
        assert eigen_check_general(label, 0.0, (0.5, 0.3, 0.2 - math.pi)) == -1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pole_predictions_quantified(self, n):
        rng = np.random.default_rng(900 + n)
        label = GhzLabel(n, 0, 1)
        expected_by_quarter = {0: 1, 1: None, 2: -1, 3: None}
        for _ in range(100):
            for quarter, expected in expected_by_quarter.items():
                angles = rng.uniform(-math.pi, math.pi, size=n)
                angles[-1] += quarter * math.pi / 2 - angles.sum()
                assert eigen_check_general(label, 0.0, angles) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["state", "setting"])
    def test_non_finite_angle_refused_before_any_vector(self, monkeypatch, bad, where):
        # a NaN residual would read as "not an eigenstate", confirmed densely
        def no_vector(*_):
            raise AssertionError("a dense vector was built before the refusal")

        monkeypatch.setattr(states, "rotated_dense", no_vector)
        state_phi, angles = (bad, (0.0, 0.0, 0.0)) if where == "state" else (0.0, (0.0, bad, 0.0))
        with pytest.raises(DomainError, match="angles must be finite"):
            eigen_check_general(GhzLabel(3, 0, 1), state_phi, angles)

    def test_offset_past_snap_is_not_a_tool_failure(self):
        # dense residual 7.07e-12 > EIGEN_TOL: off the pole in both tiers
        assert eigen_check_general(GhzLabel(3, 0, 1), 0.0, (1e-11, 0, 0)) is None

    def test_snap_tolerance_is_where_the_dense_residual_reaches_eigen_tol(self):
        assert math.isclose(math.sqrt(2) * math.sin(POLE_SNAP_TOL / 2), EIGEN_TOL)

    @pytest.mark.parametrize("offset", [1e-14, 1e-13, 5e-13, 1e-12, 2e-12, 1e-11,
                                        1e-10, 1e-9, 1e-8])
    def test_small_offsets_agree_with_dense_route(self, offset):
        label = GhzLabel(3, 0b010, 1)
        for base, pole in ((0.0, 1), (math.pi, -1)):
            for angle in (base + offset, base - offset):
                expected = pole if offset <= POLE_SNAP_TOL else None
                assert eigen_check_general(label, 0.0, (angle, 0.0, 0.0)) == expected

    @pytest.mark.parametrize("text", ["000+", "000-", "011+", "011-", "01101+", "01101-"])
    def test_rounding_at_the_snap_boundary_is_not_a_tool_failure(self, text):
        # offsets within a rounding width of POLE_SNAP_TOL may land on either
        # side of the snap, but the two tiers never report a disagreement
        label = parse_label(text, len(text) - 1)
        for base, pole in ((0.0, label.sign), (math.pi, -label.sign)):
            for factor in np.linspace(0.99, 1.01, 401):
                for direction in (1, -1):
                    angles = (base + direction * factor * POLE_SNAP_TOL,) + (0.0,) * (label.n - 1)
                    result = eigen_check_general(label, 0.0, angles)
                    if factor < 0.995:
                        assert result == pole
                    elif factor > 1.005:
                        assert result is None
                    else:
                        assert result in (pole, None)



@given(st.data())
@settings(deadline=None, max_examples=150)
def test_general_angles_agree_with_the_quarter_turn_tier(data):
    # the float route (apply_observable on general angles) against the exact
    # symbolic eigenvalue of the same setting as a phase-free Pauli string
    n = data.draw(st.integers(1, 10))
    label = GhzLabel(n, data.draw(st.integers(0, (1 << n) - 1)),
                     data.draw(st.sampled_from((1, -1))))
    turns = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    quarter = data.draw(st.integers(0, 3))
    string = co_rotate_quarter(turns)
    symbolic = eigenvalue_symbolic(label, quarter, string.z_bits)
    # a quarter-turn setting carries phase 0 or 2, the sign +1 or -1
    expected = None if symbolic is None else (1 - string.phase) * symbolic
    angles = [t * math.pi / 2 for t in turns]
    assert eigen_check_general(label, quarter * math.pi / 2, angles) == expected


class TestUntraceability:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_single_qubit_xy_expectations_vanish(self, n):
        rng = np.random.default_rng(40 + n)
        label = GhzLabel(n, 0, 1)
        base = build_state(label)
        for _ in range(10):
            rotated = apply_rotations(base, label, rng.uniform(-6, 6, size=n))
            for k in range(1, n + 1):
                for letter in ("X", "Y"):
                    single = from_letters("I" * (k - 1) + letter + "I" * (n - k))
                    value = np.vdot(rotated, apply_pauli(single, rotated))
                    assert abs(value) < 1e-12


def test_observable_application_matches_matrix():
    rng = np.random.default_rng(77)
    for n in (1, 2, 3):
        for _ in range(10):
            angles = tuple(rng.uniform(-math.pi, math.pi, size=n))
            vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            direct = apply_observable(vec, angles)
            via_matrix = observable_matrix(angles) @ vec
            assert np.max(np.abs(direct - via_matrix)) < 1e-12
