"""Pole classification, enumeration order, and exact eigenvalues."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzverify import (CapacityError, DimensionError, DomainError, GhzLabel, LetterError,
                       Pole, PoleOperator, RuleNotApplicableError, classify, commutes,
                       compatible_family, c_n_binomial, enumerate_pole,
                       eigenvalue_rule, eigenvalue_symbolic, from_letters,
                       pihalf_state, single_y_generator, y_count)
from ghzverify.cli import main
from ghzverify.oracle import EIGEN_TOL, apply_pauli, check_eigen
from ghzverify.pauli import PauliOperator
from ghzverify.poles import (CHUNK_ROWS, eigenvalue_column, pole_masks, pole_size,
                             xy_letter_matrix, xy_string, y_columns)
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
        sizes = [len(enumerate_pole(n, pole)) for pole in Pole]
        assert sizes == [pole_size(n, pole) for pole in Pole]
        assert sum(sizes) == 1 << n

    def test_json_shape(self, capsys):
        for n, operators in ((3, ["YYY"]), (2, [])):
            assert main(["enumerate", "--n", str(n), "--pole", "S", "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out) == {
                "n": n, "pole": "S", "operators": operators, "count": len(operators)}

    def test_capacity(self):
        count, masks = next(pole_masks(63, Pole.N))
        assert count == 1 and masks[0] == 1 << 62
        with pytest.raises(CapacityError, match="capped at 63 qubits"):
            pole_masks(64, Pole.N)


class TestPoleMasks:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_order_is_position_order(self, n):
        for pole in Pole:
            expected = [(count, sum(1 << (n - k) for k in positions))
                        for count in range(pole.value, n + 1, 4)
                        for positions in itertools.combinations(range(1, n + 1), count)]
            got = [(count, z) for count, masks in pole_masks(n, pole) for z in masks.tolist()]
            assert got == expected

    def test_chunks_are_bounded_and_hold_one_y_count(self):
        n = 17
        chunks = list(pole_masks(n, Pole.S))
        assert max(len(masks) for _, masks in chunks) == CHUNK_ROWS
        for count, masks in chunks:
            assert masks.dtype == np.uint64 and masks.size
            assert (np.bitwise_count(masks) == count).all()
            assert (np.diff(masks.astype(np.int64)) < 0).all()
        assert sum(len(masks) for _, masks in chunks) == c_n_binomial(n)

    @pytest.mark.parametrize("n", [1, 4, 7, 63])
    def test_letter_matrix_matches_scalar_letters(self, n):
        rng = np.random.default_rng(n)
        masks = rng.integers(0, 1 << n, size=50, dtype=np.uint64)
        rows = xy_letter_matrix(n, masks)
        assert rows.shape == (50, n)
        assert [row.tobytes().decode() for row in rows] == [
            PoleOperator(xy_string(n, [k for k in range(1, n + 1) if int(z) >> (n - k) & 1])).letters
            for z in masks]


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


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_symbolic_eigenvalue_agrees_with_the_per_string_dense_route(data):
    # the exact tier against apply_pauli + check_eigen on the dense state
    n = data.draw(st.integers(1, 10))
    label = GhzLabel(n, data.draw(st.integers(0, (1 << n) - 1)),
                     data.draw(st.sampled_from((1, -1))))
    quarter = data.draw(st.integers(0, 3))
    op = PoleOperator(PauliOperator(n, (1 << n) - 1, data.draw(st.integers(0, (1 << n) - 1))))
    vec = rotated_dense(label, quarter * math.pi / 2)
    image = apply_pauli(op.op, vec)
    value = eigenvalue_symbolic(label, quarter, op)
    if value is None:
        assert check_eigen(vec, image, 1).residual >= EIGEN_TOL
        assert check_eigen(vec, image, -1).residual >= EIGEN_TOL
    else:
        assert check_eigen(vec, image, value).residual < EIGEN_TOL


@given(st.data())
@settings(deadline=None, max_examples=300)
def test_eigenvalue_column_is_the_scalar_eigenvalue_per_row(data):
    n = data.draw(st.one_of(st.just(63), st.integers(1, 63)))
    full = (1 << n) - 1
    label = GhzLabel(n, data.draw(st.integers(0, full)), data.draw(st.sampled_from((1, -1))))
    quarter = data.draw(st.integers(0, 3))
    masks = [0, full] + data.draw(st.lists(st.integers(0, full), max_size=20))
    column = eigenvalue_column(label, quarter, np.array(masks, np.uint64))
    assert column.dtype == np.int8
    assert column.tolist() == [
        eigenvalue_symbolic(label, quarter, PoleOperator(PauliOperator(n, full, z))) or 0
        for z in masks]


def test_eigenvalue_column_refuses_what_the_scalar_refuses():
    with pytest.raises(DomainError):
        eigenvalue_column(GhzLabel(3, 0, 1), 4, np.zeros(1, np.uint64))
    with pytest.raises(DimensionError):
        eigenvalue_column(GhzLabel(3, 0, 1), 1, np.array([0b1000], np.uint64))


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
            ops = iter(enumerate_pole(n, pole))
            for count, masks in pole_masks(n, pole):
                columns = y_columns(n, masks)
                assert columns.shape == (len(masks), count)
                for row, op in zip(columns.tolist(), ops):
                    scanned = [k for k in range(1, n + 1) if op.op.letter(k) == "Y"]
                    assert [k + 1 for k in row] == scanned

    def test_y_positions_wide(self):
        masks = np.array([xy_string(63, (1, 2, 40, 63)).z_bits], np.uint64)
        assert (y_columns(63, masks) + 1).tolist() == [[1, 2, 40, 63]]

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
