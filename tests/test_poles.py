"""Pole classification, enumeration order, and exact eigenvalues."""

import itertools

import numpy as np
import pytest

from ghzverify import (DomainError, GhzLabel, LetterError, Pole, PoleOperator,
                       RuleNotApplicableError, classify, commutes,
                       compatible_family, c_n_binomial, enumerate_pole,
                       eigenvalue_rule, eigenvalue_symbolic, from_letters,
                       pihalf_state, single_y_generator, y_count)
from ghzverify.oracle import apply_pauli, check_eigen
from ghzverify.poles import pole_to_json, xy_string
from ghzverify.states import rotated_dense
import math


def _all_raw_labels(n):
    return [GhzLabel(n, bits, sign) for bits in range(1 << n) for sign in (1, -1)]


class TestClassify:
    @pytest.mark.parametrize("letters,pole", [
        ("XXX", Pole.E), ("YXX", Pole.N), ("YYX", Pole.W), ("YYY", Pole.S),
        ("YYYY", Pole.E), ("XXXXX", Pole.E),
    ])
    def test_examples(self, letters, pole):
        assert classify(from_letters(letters)) is pole

    def test_rejects_z(self):
        with pytest.raises(LetterError):
            classify(from_letters("XZ"))

    def test_rejects_signed(self):
        from ghzverify import parse
        with pytest.raises(DomainError):
            classify(parse("-XXX"))


class TestEnumerate:
    def test_n3_north_order(self):
        assert [p.letters for p in enumerate_pole(3, Pole.N)] == ["YXX", "XYX", "XXY"]

    def test_n3_south(self):
        assert [p.letters for p in enumerate_pole(3, Pole.S)] == ["YYY"]

    def test_n4_south_order(self):
        assert [p.letters for p in enumerate_pole(4, Pole.S)] == [
            "YYYX", "YYXY", "YXYY", "XYYY"]

    def test_n3_east(self):
        assert [p.letters for p in enumerate_pole(3, Pole.E)] == ["XXX"]

    def test_higher_counts_included(self):
        # at n=5 the N pole holds the 1-Y and 5-Y strings
        letters = [p.letters for p in enumerate_pole(5, Pole.N)]
        assert len(letters) == 5 + 1
        assert letters[-1] == "YYYYY"

    @pytest.mark.parametrize("n", range(2, 17))
    def test_south_count_matches_binomial_sum(self, n):
        assert len(enumerate_pole(n, Pole.S)) == c_n_binomial(n)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_poles_partition_all_xy_strings(self, n):
        total = sum(len(enumerate_pole(n, pole)) for pole in Pole)
        assert total == 1 << n

    def test_json_shape(self):
        payload = pole_to_json(3, Pole.S, enumerate_pole(3, Pole.S))
        assert payload == {"n": 3, "pole": "S", "operators": ["YYY"], "count": 1}


class TestEigenvalueSymbolic:
    def test_north_on_zero_pattern_is_plus(self):
        label = GhzLabel(4, 0, 1)
        for op in enumerate_pole(4, Pole.N):
            assert eigenvalue_symbolic(label, 1, op) == 1

    def test_south_on_zero_pattern_is_minus(self):
        label = GhzLabel(4, 0, 1)
        for op in enumerate_pole(4, Pole.S):
            assert eigenvalue_symbolic(label, 1, op) == -1

    def test_pattern_bit_flips_generator_value(self):
        label = GhzLabel(3, 0b100, 1)
        assert eigenvalue_symbolic(label, 1, single_y_generator(3, 1)) == -1
        assert eigenvalue_symbolic(label, 1, single_y_generator(3, 2)) == 1

    def test_perpendicular_pole_is_not_eigenstate(self):
        label = GhzLabel(3, 0, 1)
        assert eigenvalue_symbolic(label, 0, single_y_generator(3, 1)) is None
        east = enumerate_pole(3, Pole.E)[0]
        assert eigenvalue_symbolic(label, 1, east) is None

    def test_unrotated_states_under_east_west(self):
        plus, minus = GhzLabel(3, 0, 1), GhzLabel(3, 0, -1)
        east = enumerate_pole(3, Pole.E)[0]
        west = enumerate_pole(3, Pole.W)[0]
        assert eigenvalue_symbolic(plus, 0, east) == 1
        assert eigenvalue_symbolic(minus, 0, east) == -1
        assert eigenvalue_symbolic(plus, 0, west) == -1
        assert eigenvalue_symbolic(minus, 0, west) == 1


class TestEigenvalueRule:
    @pytest.mark.parametrize("bits,letters,expected", [
        (0b000, "YYY", -1),   # S string, no flips
        (0b110, "YXX", -1),   # one Y over a 1 bit
        (0b011, "XXY", -1),   # one Y over a 1 bit, N string
    ])
    def test_examples(self, bits, letters, expected):
        label = GhzLabel(3, bits, 1)
        op = PoleOperator(from_letters(letters))
        assert eigenvalue_rule(label, op) == expected
        assert eigenvalue_symbolic(label, 1, op) == expected

    def test_east_west_rejected(self):
        with pytest.raises(RuleNotApplicableError):
            eigenvalue_rule(GhzLabel(3, 0, 1), PoleOperator(from_letters("XXX")))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rule_equals_symbolic_exhaustively(self, n):
        ops = enumerate_pole(n, Pole.N) + enumerate_pole(n, Pole.S)
        for label in _all_raw_labels(n):
            for op in ops:
                assert eigenvalue_rule(label, op) == eigenvalue_symbolic(label, 1, op)

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_rule_equals_symbolic_sampled(self, n):
        rng = np.random.default_rng(60 + n)
        ops = enumerate_pole(n, Pole.N) + enumerate_pole(n, Pole.S)
        for _ in range(3000):
            label = GhzLabel(n, int(rng.integers(0, 1 << n)),
                             1 if rng.integers(0, 2) else -1)
            op = ops[int(rng.integers(0, len(ops)))]
            assert eigenvalue_rule(label, op) == eigenvalue_symbolic(label, 1, op)


class TestEigenvalueAgainstOracle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_quarters_all_ops(self, n):
        ops = [op for pole in Pole for op in enumerate_pole(n, pole)]
        for label in _all_raw_labels(n):
            for quarter in range(4):
                vec = rotated_dense(label, quarter * math.pi / 2)
                for op in ops:
                    value = eigenvalue_symbolic(label, quarter, op)
                    image = apply_pauli(op.op, vec)
                    if value is None:
                        assert not check_eigen(vec, image, 1).passed
                        assert not check_eigen(vec, image, -1).passed
                    else:
                        assert check_eigen(vec, image, value).passed

    def test_pihalf_state_is_the_quarter_one_state(self):
        for n in (2, 3):
            for label in _all_raw_labels(n):
                vec = pihalf_state(label)
                for op in enumerate_pole(n, Pole.N) + enumerate_pole(n, Pole.S):
                    value = eigenvalue_symbolic(label, 1, op)
                    assert check_eigen(vec, apply_pauli(op.op, vec), value).passed


class TestCompatibleFamily:
    @pytest.mark.parametrize("n,size", [(3, 7), (4, 15), (8, 255)])
    def test_size(self, n, size):
        assert len(compatible_family(n)) == size

    @pytest.mark.parametrize("n", range(2, 9))
    def test_pairwise_commutation(self, n):
        family = compatible_family(n)
        assert len(family) == (1 << n) - 1
        for a, b in itertools.combinations(family, 2):
            assert commutes(a, b)

    def test_minimum_size_guard(self):
        with pytest.raises(DomainError):
            compatible_family(1)

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_three_mod_four_products_are_signed_south_strings(self, n):
        family = compatible_family(n)
        south = {op.letters for op in enumerate_pole(n, Pole.S)}
        negatives = set()
        for member in family:
            if member.is_xy_string and y_count(
                    from_letters(member.letters())) % 4 == 3:
                assert member.phase.exponent == 2
                negatives.add(member.letters())
        assert negatives == south


class TestPoleDerivation:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_enumerated_strings_sit_at_their_pole(self, n):
        for pole in Pole:
            for op in enumerate_pole(n, pole):
                assert op.pole is pole
        for k in range(1, n + 1):
            assert single_y_generator(n, k).pole is Pole.N

    def test_rejects_z(self):
        with pytest.raises(LetterError):
            PoleOperator(from_letters("XZ"))

    def test_rejects_signed(self):
        from ghzverify import parse
        with pytest.raises(DomainError):
            PoleOperator(parse("-XXX"))


class TestPoleOperatorRendering:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_y_positions_match_letter_scan(self, n):
        for pole in Pole:
            for op in enumerate_pole(n, pole):
                scanned = tuple(k for k in range(1, n + 1) if op.op.letter(k) == "Y")
                assert op.y_positions == scanned

    def test_y_positions_wide(self):
        op = PoleOperator(xy_string(64, (1, 2, 40, 64)))
        assert op.y_positions == (1, 2, 40, 64)

    def test_cached_letters_leave_equality_and_hash_alone(self):
        first = single_y_generator(5, 2)
        second = single_y_generator(5, 2)
        assert first.letters == "XYXXX"
        assert first == second and hash(first) == hash(second)
        assert first.letters is first.letters


def test_xy_string_positions():
    assert xy_string(4, (2, 4)).letters() == "XYXY"
    with pytest.raises(DomainError):
        xy_string(3, (0,))
