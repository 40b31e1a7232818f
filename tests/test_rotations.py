"""Quarter-turn and general-angle co-rotation behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzverify.checks import EIGEN_TOL
from ghzverify.errors import DomainError
from ghzverify.oracle import (apply_observable, apply_pauli, check_eigen, materialize,
                              observable_matrix, rotation_diagonal)
from ghzverify.poles import eigenvalue_column
from ghzverify.rotations import co_rotate_quarter
from ghzverify.states import GhzLabel, apply_rotations, build_state, parse_label, rotated_dense
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


#: An angle offset d from a pole leaves the dense residual sqrt(2) * |sin(d / 2)|,
#: so this is the offset at which that residual reaches EIGEN_TOL.
_EDGE_OFFSET = 2.0 * math.asin(EIGEN_TOL / math.sqrt(2.0))


def _residuals(label, state_phi, angles):
    """check_eigen's residuals at +1 and -1 for the observable of ``angles``
    on the labeled pair viewed at collective angle ``state_phi``."""
    vec = rotated_dense(label, state_phi)
    image = apply_observable(vec, angles)
    return [check_eigen(vec, image, sign) for sign in (1, -1)]


def dense_eigenvalue(label, state_phi, angles):
    """The sign whose dense residual is under EIGEN_TOL, or None; never both."""
    passing = [sign for sign, residual in zip((1, -1), _residuals(label, state_phi, angles))
               if residual < EIGEN_TOL]
    assert len(passing) <= 1
    return passing[0] if passing else None


class TestGeneralAngleEigen:
    """The general-angle float route, apply_observable + check_eigen on the
    rotated dense state: +1 where the setting's collective angle matches the
    state's (mod 2 pi), -1 half a turn away, and no eigenvalue elsewhere."""

    def test_matching_sum_gives_plus_one(self):
        assert dense_eigenvalue(GhzLabel(3, 0, 1), 0.0, (0.7, -0.7, 0.0)) == 1

    def test_opposite_pole_gives_minus_one(self):
        label = GhzLabel(3, 0, 1)
        assert dense_eigenvalue(label, 0.0, (math.pi / 2, math.pi / 4, math.pi / 4)) == -1

    def test_off_pole_is_not_eigenstate(self):
        assert dense_eigenvalue(GhzLabel(3, 0, 1), 0.0, (math.pi / 3, 0.0, 0.0)) is None

    def test_minus_label_shifts_reference(self):
        label = GhzLabel(3, 0, -1)
        assert dense_eigenvalue(label, 0.0, (0.0, 0.0, 0.0)) == -1
        assert dense_eigenvalue(label, 0.0, (math.pi, 0.0, 0.0)) == 1

    def test_pattern_label_uses_signed_sum(self):
        label = GhzLabel(3, 0b011, 1)
        # signed sum: +phi_1 - phi_2 - phi_3
        assert dense_eigenvalue(label, 0.0, (0.5, 0.3, 0.2)) == 1
        assert dense_eigenvalue(label, 0.0, (0.5, 0.3, 0.2 - math.pi)) == -1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pole_predictions_quantified(self, n):
        rng = np.random.default_rng(900 + n)
        label = GhzLabel(n, 0, 1)
        expected_by_quarter = {0: 1, 1: None, 2: -1, 3: None}
        for _ in range(100):
            for quarter, expected in expected_by_quarter.items():
                angles = rng.uniform(-math.pi, math.pi, size=n)
                angles[-1] += quarter * math.pi / 2 - angles.sum()
                assert dense_eigenvalue(label, 0.0, angles) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["state", "setting"])
    def test_non_finite_angle_confirms_no_eigenvalue(self, bad, where):
        # a NaN residual fails both signs; an infinite state angle is
        # refused by math.cos before any vector is built
        label = GhzLabel(3, 0, 1)
        if where == "state" and math.isinf(bad):
            with pytest.raises(ValueError, match="math domain error"):
                rotated_dense(label, bad)
            return
        state_phi, angles = (bad, (0.0, 0.0, 0.0)) if where == "state" else (0.0, (0.0, bad, 0.0))
        with np.errstate(invalid="ignore"):
            residuals = _residuals(label, state_phi, angles)
        assert all(math.isnan(residual) for residual in residuals)

    def test_offset_past_eigen_tol_is_off_the_pole(self):
        # dense residual 7.07e-12 > EIGEN_TOL
        assert dense_eigenvalue(GhzLabel(3, 0, 1), 0.0, (1e-11, 0, 0)) is None

    def test_edge_offset_residual_is_eigen_tol(self):
        for base, index in ((0.0, 0), (math.pi, 1)):
            for angle in (base + _EDGE_OFFSET, base - _EDGE_OFFSET):
                residual = _residuals(GhzLabel(3, 0, 1), 0.0, (angle, 0.0, 0.0))[index]
                assert math.isclose(residual, EIGEN_TOL, rel_tol=1e-3)

    @pytest.mark.parametrize("offset", [1e-6, 1e-3, 0.1, 1.0])
    def test_residual_is_sqrt2_sin_half_offset(self, offset):
        label = GhzLabel(3, 0b010, 1)
        for base, index in ((0.0, 0), (math.pi, 1)):
            for angle in (base + offset, base - offset):
                residual = _residuals(label, 0.0, (angle, 0.0, 0.0))[index]
                assert math.isclose(residual, math.sqrt(2) * math.sin(offset / 2), rel_tol=1e-6)

    @pytest.mark.parametrize("offset", [1e-14, 1e-13, 5e-13, 1e-12, 2e-12, 1e-11,
                                        1e-10, 1e-9, 1e-8])
    def test_small_offsets_follow_the_closed_form(self, offset):
        label = GhzLabel(3, 0b010, 1)
        for base, pole in ((0.0, 1), (math.pi, -1)):
            for angle in (base + offset, base - offset):
                expected = pole if offset <= _EDGE_OFFSET else None
                assert dense_eigenvalue(label, 0.0, (angle, 0.0, 0.0)) == expected

    @pytest.mark.parametrize("text", ["000+", "000-", "011+", "011-", "01101+", "01101-"])
    def test_rounding_at_the_edge_offset_keeps_one_verdict(self, text):
        # offsets within a rounding width of the edge may land on either side
        # of it, but never pass both signs (dense_eigenvalue asserts that)
        label = parse_label(text, len(text) - 1)
        for base, pole in ((0.0, label.sign), (math.pi, -label.sign)):
            for factor in np.linspace(0.99, 1.01, 401):
                for direction in (1, -1):
                    angles = (base + direction * factor * _EDGE_OFFSET,) + (0.0,) * (label.n - 1)
                    result = dense_eigenvalue(label, 0.0, angles)
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
    symbolic = eigenvalue_column(label, quarter, np.array([string.z_bits], np.uint64))
    # a quarter-turn setting carries phase 0 or 2, the sign +1 or -1; 0 is no eigenvalue
    expected = (1 - string.phase) * int(symbolic[0])
    vec = rotated_dense(label, quarter * math.pi / 2)
    image = apply_observable(vec, [t * math.pi / 2 for t in turns])
    passing = [sign for sign in (1, -1) if check_eigen(vec, image, sign) < EIGEN_TOL]
    assert passing == ([expected] if expected else [])


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
