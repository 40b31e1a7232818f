"""State construction, labeling, and the collective-angle rotation law."""

import cmath
import math

import numpy as np
import pytest

from ghzverify.errors import CapacityError, DimensionError, DomainError
from ghzverify.states import (GhzLabel, apply_rotations, build_state, collective_angle,
                              max_norm_diff, parse_label, rotated_dense, rotation_phases,
                              signed_bit_sums)
from references import outer_rotation_phases, outer_signed_bit_sums

SQRT_HALF = 1.0 / math.sqrt(2.0)


def _all_canonical_labels(n):
    return [GhzLabel(n, bits, sign)
            for bits in range(1 << (n - 1)) for sign in (1, -1)]


class TestGhzLabel:
    def test_complement_and_canonical(self):
        label = GhzLabel(3, 0b110, 1)
        assert label.complement_bits == 0b001
        assert not label.is_canonical
        assert GhzLabel(3, 0b001, 1).is_canonical

    def test_bit_accessor_is_msb_first(self):
        label = GhzLabel(3, 0b100, 1)
        assert [label.bit(k) for k in (1, 2, 3)] == [1, 0, 0]

    def test_parse(self):
        assert parse_label("010+") == GhzLabel(3, 2, 1)
        assert parse_label("10-") == GhzLabel(2, 2, -1)
        with pytest.raises(DomainError):
            parse_label("01x")
        with pytest.raises(DimensionError):
            parse_label("010+", n=4)

    def test_validation(self):
        with pytest.raises(DomainError):
            GhzLabel(2, 4, 1)
        with pytest.raises(DomainError):
            GhzLabel(2, -1, 1)
        with pytest.raises(DomainError):
            GhzLabel(2, 0, 2)

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_qubits_refused(self, n):
        with pytest.raises(DimensionError, match=f"need n >= 1, got {n}"):
            GhzLabel(n, 0, 1)


class TestBuildState:
    def test_plus_state(self):
        vec = build_state(GhzLabel(3, 0, 1))
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[7] = SQRT_HALF
        assert max_norm_diff(vec, expected) <= 0.0

    def test_minus_state(self):
        vec = build_state(GhzLabel(3, 0, -1))
        expected = np.zeros(8, dtype=complex)
        expected[0], expected[7] = SQRT_HALF, -SQRT_HALF
        assert max_norm_diff(vec, expected) <= 0.0

    def test_pattern_state(self):
        vec = build_state(GhzLabel(3, 0b010, 1))
        expected = np.zeros(8, dtype=complex)
        expected[0b010] = expected[0b101] = SQRT_HALF
        assert max_norm_diff(vec, expected) <= 0.0

    def test_cap(self):
        with pytest.raises(CapacityError):
            build_state(GhzLabel(15, 0, 1))

    def test_norm(self):
        for label in _all_canonical_labels(4):
            assert abs(np.linalg.norm(build_state(label)) - 1.0) < 1e-12


class TestCollectiveAngle:
    def test_plain_sum(self):
        assert collective_angle(GhzLabel(3, 0, 1), (math.pi / 2, 0, 0)) == pytest.approx(math.pi / 2)

    def test_sign_reversal_on_one_bits(self):
        assert collective_angle(GhzLabel(3, 0b100, 1), (math.pi / 2, 0, 0)) == pytest.approx(-math.pi / 2)

    def test_sum_of_fractions(self):
        angles = (math.pi / 4, math.pi / 8, math.pi / 8)
        assert collective_angle(GhzLabel(3, 0, 1), angles) == pytest.approx(math.pi / 2)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            collective_angle(GhzLabel(3, 0, 1), (0.0, 0.0))


class TestRotate2d:
    def test_half_turn_reaches_minus_partner(self):
        expected = -1j * build_state(GhzLabel(3, 0, -1))
        assert max_norm_diff(rotated_dense(GhzLabel(3, 0, 1), math.pi), expected) <= 1e-12

    def test_full_turn_flips_sign(self):
        expected = -build_state(GhzLabel(3, 0, 1))
        assert max_norm_diff(rotated_dense(GhzLabel(3, 0, 1), 2 * math.pi), expected) <= 1e-12


def _angle_sets(n):
    """Three random angle sets, each as an array and as a tuple of floats."""
    rng = np.random.default_rng(600 + n)
    for _ in range(3):
        phis = rng.uniform(-2 * math.pi, 2 * math.pi, size=n)
        yield phis
        yield tuple(phis.tolist())


def _per_index_sums(n, phis):
    """sum_k (-1)^{b_k} phi_k for each index b, one index at a time."""
    sums = []
    for b in range(1 << n):
        total = 0.0
        for k, phi in enumerate(phis, start=1):
            total += -phi if (b >> (n - k)) & 1 else phi
        sums.append(total)
    return sums


class TestSignedBitSums:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_per_index_sum(self, n):
        phis = np.random.default_rng(n).uniform(-2 * math.pi, 2 * math.pi, size=n)
        assert np.array_equal(signed_bit_sums(n, phis), np.array(_per_index_sums(n, phis)))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_bitwise_equal_to_outer_doubling(self, n):
        for phis in _angle_sets(n):
            assert signed_bit_sums(n, phis).tobytes() == outer_signed_bit_sums(n, phis).tobytes()

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            signed_bit_sums(3, (0.0, 0.0))


class TestRotationPhases:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_per_index_exponential(self, n):
        phis = np.random.default_rng(300 + n).uniform(-2 * math.pi, 2 * math.pi, size=n)
        expected = np.array([cmath.exp(-0.5j * total) for total in _per_index_sums(n, phis)])
        assert np.max(np.abs(rotation_phases(n, phis) - expected)) < 1e-13

    @pytest.mark.parametrize("n", range(1, 15))
    def test_bitwise_equal_to_outer_doubling(self, n):
        for phis in _angle_sets(n):
            assert rotation_phases(n, phis).tobytes() == outer_rotation_phases(n, phis).tobytes()

    @pytest.mark.parametrize("n", [1, 5, 14])
    def test_exact_at_zero_angles(self, n):
        assert np.array_equal(rotation_phases(n, (0.0,) * n), np.ones(1 << n))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            rotation_phases(3, (0.0, 0.0))


class TestApplyRotations:
    def test_zero_angles_identity(self):
        label = GhzLabel(3, 0, 1)
        base = build_state(label)
        assert max_norm_diff(apply_rotations(base, label, (0.0, 0.0, 0.0)), base) <= 0.0

    def test_matches_two_component_expansion(self):
        label = GhzLabel(3, 0, 1)
        rotated = apply_rotations(build_state(label), label, (math.pi / 2, 0.0, 0.0))
        expected = rotated_dense(label, math.pi / 2)
        assert max_norm_diff(rotated, expected) <= 1e-12

    def test_uniform_compression(self):
        label = GhzLabel(3, 0, 1)
        base = build_state(label)
        spread = apply_rotations(base, label, (math.pi / 6,) * 3)
        lumped = apply_rotations(base, label, (math.pi / 2, 0.0, 0.0))
        assert max_norm_diff(spread, lumped) <= 1e-12

    def test_two_component_faithfulness_random_angles(self):
        rng = np.random.default_rng(19)
        for label in (GhzLabel(3, 0, 1), GhzLabel(3, 0b010, -1)):
            base = build_state(label)
            for _ in range(100):
                phis = rng.uniform(-2 * math.pi, 2 * math.pi, size=3)
                phi = collective_angle(label, phis)
                dense = apply_rotations(base, label, phis)
                assert max_norm_diff(dense, rotated_dense(label, phi)) <= 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        label = GhzLabel(4, 0b0101, -1)
        base = build_state(label)
        for _ in range(25):
            rotated = apply_rotations(base, label, rng.uniform(-6, 6, size=4))
            assert abs(np.linalg.norm(rotated) - 1.0) < 1e-12

    def test_collapse_for_equal_collective_angle(self):
        rng = np.random.default_rng(11)
        for n in (3, 4, 5):
            for bits in (0, 1, (1 << (n - 1)) - 1):
                for sign in (1, -1):
                    label = GhzLabel(n, bits, sign)
                    base = build_state(label)
                    first = rng.uniform(-2 * math.pi, 2 * math.pi, size=n)
                    target = collective_angle(label, first)
                    second = rng.uniform(-2 * math.pi, 2 * math.pi, size=n)
                    partial = collective_angle(label, list(second[:-1]) + [0.0])
                    second[-1] = (1 - 2 * label.bit(n)) * (target - partial)
                    assert max_norm_diff(apply_rotations(base, label, first),
                                         apply_rotations(base, label, second)) <= 1e-12


class TestPihalfState:
    def test_matches_quarter_rotation_exactly(self):
        for label in _all_canonical_labels(4):
            angles = [(1 - 2 * label.bit(1)) * math.pi / 2] + [0.0] * 3
            rotated = apply_rotations(build_state(label), label, angles)
            assert max_norm_diff(rotated_dense(label, math.pi / 2), rotated) <= 1e-12

    def test_orthonormal_family(self):
        for n in (2, 3, 4):
            vectors = [rotated_dense(label, math.pi / 2) for label in _all_canonical_labels(n)]
            gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
            assert np.max(np.abs(gram - np.eye(1 << n))) < 1e-12

    def test_complement_label_is_same_ray(self):
        label = GhzLabel(3, 0b001, 1)
        raw_complement = GhzLabel(3, 0b110, 1)
        a = rotated_dense(label, math.pi / 2)
        # complement pattern with + sign equals i times the - sign state
        b = rotated_dense(GhzLabel(3, 0b001, -1), math.pi / 2)
        assert max_norm_diff(rotated_dense(raw_complement, math.pi / 2), 1j * b) <= 1e-12
        # unit vectors lie on one ray exactly when their overlap has modulus 1
        assert abs(abs(np.vdot(rotated_dense(raw_complement, math.pi / 2), b)) - 1.0) <= 1e-12
        assert abs(abs(np.vdot(a, b)) - 1.0) > 1e-12


class TestInnerProduct:
    def test_normalization(self):
        plus = build_state(GhzLabel(3, 0, 1))
        assert np.vdot(plus, plus) == pytest.approx(1.0)

    def test_orthogonality(self):
        plus = build_state(GhzLabel(3, 0, 1))
        minus = build_state(GhzLabel(3, 0, -1))
        assert abs(np.vdot(plus, minus)) < 1e-12

    def test_quarter_state_overlap_matches_hand_expansion(self):
        # <pihalf|plus> = conj((1-i)/2)/sqrt(2) + conj((1+i)/2)/sqrt(2) = 1/sqrt(2)
        overlap = np.vdot(rotated_dense(GhzLabel(3, 0, 1), math.pi / 2),
                          build_state(GhzLabel(3, 0, 1)))
        assert overlap == pytest.approx(SQRT_HALF)


class TestBasisCompleteness:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unrotated_family_orthonormal(self, n):
        vectors = [build_state(label) for label in _all_canonical_labels(n)]
        gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
        assert np.max(np.abs(gram - np.eye(1 << n))) < 1e-12
