"""Pole classification, enumeration order, and exact eigenvalues."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzverify.checks import EIGEN_TOL
from ghzverify.cli import main
from ghzverify.counting import c_n_binomial, compatible_count
from ghzverify.errors import REPORT_CAP, CapacityError, DimensionError, DomainError
from ghzverify.labels import GhzLabel
from ghzverify.oracle import apply_pauli, check_eigen
from ghzverify.pauli import PauliOperator, multiply
from ghzverify.poles import (LOW_BITS, Pole, eigenvalue_column, eigenvalue_symbolic,
                             enumerate_pole, letter_bytes, pole_runs, pole_size)
from ghzverify.states import rotated_dense
from references import (combination_masks, commutes, compatible_family, eigenvalue_rule,
                        from_letters, xy_letter_matrix, xy_string)
import math


def _all_raw_labels(n):
    return [GhzLabel(n, bits, sign) for bits in range(1 << n) for sign in (1, -1)]


def _mask(letters):
    """Z mask of an X/Y string written as letters."""
    op = from_letters(letters)
    assert op.x_bits == (1 << op.n) - 1
    return op.z_bits


def _pole_letters(n, pole):
    return [PauliOperator(n, (1 << n) - 1, z).letters() for z in enumerate_pole(n, pole).tolist()]


def _xy_masks(n, poles=tuple(Pole)):
    return [z for pole in poles for z in enumerate_pole(n, pole).tolist()]


class TestClassify:
    @pytest.mark.parametrize("letters,pole", [
        ("XXX", Pole.E), ("YXX", Pole.N), ("YYX", Pole.W), ("YYY", Pole.S),
        ("YYYY", Pole.E), ("XXXXX", Pole.E),
    ])
    def test_examples(self, letters, pole):
        sitting = [p for p in Pole if _mask(letters) in enumerate_pole(len(letters), p).tolist()]
        assert sitting == [pole]


class TestEnumerate:
    def test_n3_north_order(self):
        assert _pole_letters(3, Pole.N) == ["YXX", "XYX", "XXY"]

    def test_n3_south(self):
        assert _pole_letters(3, Pole.S) == ["YYY"]

    def test_n4_south_order(self):
        assert _pole_letters(4, Pole.S) == ["YYYX", "YYXY", "YXYY", "XYYY"]

    def test_n3_east(self):
        assert _pole_letters(3, Pole.E) == ["XXX"]

    def test_column(self):
        column = enumerate_pole(9, Pole.S)
        assert column.dtype == np.uint64 and column.shape == (pole_size(9, Pole.S),)
        assert enumerate_pole(2, Pole.S).dtype == np.uint64

    def test_higher_counts_included(self):
        # at n=5 the N pole holds the 1-Y and 5-Y strings
        letters = _pole_letters(5, Pole.N)
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
        high, lows = next(pole_runs(REPORT_CAP.qubits, Pole.N))
        assert high | int(lows[0]) == 1 << (REPORT_CAP.qubits - 1)
        for n in (REPORT_CAP.qubits + 1, 64):
            with pytest.raises(CapacityError,
                               match=f"pole listings are capped at 24 qubits \\(got {n}\\)"):
                pole_runs(n, Pole.N)


class TestPoleMasks:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_order_is_position_order(self, n):
        for pole in Pole:
            expected = [(count, sum(1 << (n - k) for k in positions))
                        for count in range(pole.value, n + 1, 4)
                        for positions in itertools.combinations(range(1, n + 1), count)]
            masks = enumerate_pole(n, pole)
            got = list(zip(np.bitwise_count(masks).tolist(), masks.tolist()))
            assert got == expected

    def test_runs_are_bounded_and_hold_one_y_count(self):
        n = 17
        runs = [np.array(lows, np.uint64) | np.uint64(high) for high, lows in pole_runs(n, Pole.S)]
        assert max(len(masks) for masks in runs) == math.comb(LOW_BITS, LOW_BITS // 2)
        for masks in runs:
            assert masks.dtype == np.uint64 and masks.size
            counts = np.bitwise_count(masks)
            assert (counts == counts[0]).all()
            assert (np.diff(masks.astype(np.int64)) < 0).all()
        assert sum(len(masks) for masks in runs) == c_n_binomial(n)

    @pytest.mark.parametrize("n", [*range(1, 17), 20])
    def test_listing_matches_the_combinations_builder(self, n):
        for pole in Pole:
            masks = enumerate_pole(n, pole)
            assert masks.dtype == np.uint64
            assert np.array_equal(masks, combination_masks(n, pole))

    @pytest.mark.parametrize("n", [1, 5, 12, 13, 17])
    def test_runs_join_to_the_listing(self, n):
        low = min(n, LOW_BITS)
        for pole in Pole:
            runs = list(pole_runs(n, pole))
            for high, lows in runs:
                assert high & ((1 << low) - 1) == 0 and high >> n == 0
                assert isinstance(lows, tuple) and {type(mask) for mask in lows} == {int}
                assert {mask.bit_count() for mask in lows} == {lows[0].bit_count()}
            joined = [high | mask for high, lows in runs for mask in lows]
            assert joined == enumerate_pole(n, pole).tolist()

    @pytest.mark.parametrize("n", [0, REPORT_CAP.qubits + 1])
    def test_runs_refuse_before_the_first_run(self, n):
        with pytest.raises((DomainError, CapacityError)):
            pole_runs(n, Pole.S)

    @pytest.mark.parametrize("n", [1, 4, 7, 63])
    def test_letters_match_scalar_letters(self, n):
        rng = np.random.default_rng(n)
        masks = rng.integers(0, 1 << n, size=50, dtype=np.uint64)
        rows = xy_letter_matrix(n, masks)
        assert rows.shape == (50, n)
        scalar = [xy_string(n, [k for k in range(1, n + 1) if int(z) >> (n - k) & 1]).letters()
                  for z in masks]
        assert [row.tobytes().decode() for row in rows] == scalar
        assert [letter_bytes(n, z).decode() for z in masks.tolist()] == scalar

    def test_no_letters_spell_nothing(self):
        # a run with no high part has zero high letters
        assert letter_bytes(0, 0) == b""
        assert letter_bytes(3, 0) == b"XXX"


class TestEigenvalueSymbolic:
    def test_north_on_zero_pattern_is_plus(self):
        label = GhzLabel(4, 0, 1)
        for z in _xy_masks(4, [Pole.N]):
            assert eigenvalue_symbolic(label, 1, z) == 1

    def test_south_on_zero_pattern_is_minus(self):
        label = GhzLabel(4, 0, 1)
        for z in _xy_masks(4, [Pole.S]):
            assert eigenvalue_symbolic(label, 1, z) == -1

    def test_pattern_bit_flips_generator_value(self):
        label = GhzLabel(3, 0b100, 1)
        assert eigenvalue_symbolic(label, 1, _mask("YXX")) == -1
        assert eigenvalue_symbolic(label, 1, _mask("XYX")) == 1

    def test_perpendicular_pole_is_not_eigenstate(self):
        label = GhzLabel(3, 0, 1)
        assert eigenvalue_symbolic(label, 0, _mask("YXX")) is None
        assert eigenvalue_symbolic(label, 1, _mask("XXX")) is None

    def test_unrotated_states_under_east_west(self):
        plus, minus = GhzLabel(3, 0, 1), GhzLabel(3, 0, -1)
        east = _mask("XXX")
        west = _mask("YYX")
        assert eigenvalue_symbolic(plus, 0, east) == 1
        assert eigenvalue_symbolic(minus, 0, east) == -1
        assert eigenvalue_symbolic(plus, 0, west) == -1
        assert eigenvalue_symbolic(minus, 0, west) == 1


class TestEigenvalueRule:
    """The shortcut rule (references.eigenvalue_rule) against the exact eigenvalue."""

    @pytest.mark.parametrize("bits,letters,expected", [
        (0b000, "YYY", -1),   # S string, no flips
        (0b110, "YXX", -1),   # one Y over a 1 bit
        (0b011, "XXY", -1),   # one Y over a 1 bit, N string
    ])
    def test_examples(self, bits, letters, expected):
        label = GhzLabel(3, bits, 1)
        assert eigenvalue_rule(label, _mask(letters)) == expected
        assert eigenvalue_symbolic(label, 1, _mask(letters)) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rule_equals_symbolic_exhaustively(self, n):
        masks = _xy_masks(n, [Pole.N, Pole.S])
        for label in _all_raw_labels(n):
            for z in masks:
                assert eigenvalue_rule(label, z) == eigenvalue_symbolic(label, 1, z)

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_rule_equals_symbolic_sampled(self, n):
        rng = np.random.default_rng(60 + n)
        masks = _xy_masks(n, [Pole.N, Pole.S])
        for _ in range(3000):
            label = GhzLabel(n, int(rng.integers(0, 1 << n)),
                             1 if rng.integers(0, 2) else -1)
            z = masks[int(rng.integers(0, len(masks)))]
            assert eigenvalue_rule(label, z) == eigenvalue_symbolic(label, 1, z)


@pytest.mark.parametrize("z", [0b1000, 0b10000, -1])
def test_a_mask_that_does_not_fit_is_refused(z):
    with pytest.raises(DimensionError, match=f"z mask {z} does not fit 3 qubits"):
        eigenvalue_symbolic(GhzLabel(3, 0, 1), 1, z)


class TestEigenvalueAgainstOracle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_quarters_all_ops(self, n):
        masks = _xy_masks(n)
        for label in _all_raw_labels(n):
            for quarter in range(4):
                vec = rotated_dense(label, quarter * math.pi / 2)
                for z in masks:
                    value = eigenvalue_symbolic(label, quarter, z)
                    image = apply_pauli(PauliOperator(n, (1 << n) - 1, z), vec)
                    if value is None:
                        assert check_eigen(vec, image, 1) >= EIGEN_TOL
                        assert check_eigen(vec, image, -1) >= EIGEN_TOL
                    else:
                        assert check_eigen(vec, image, value) < EIGEN_TOL

    def test_pihalf_state_is_the_quarter_one_state(self):
        for n in (2, 3):
            for label in _all_raw_labels(n):
                vec = rotated_dense(label, math.pi / 2)
                for z in _xy_masks(n, [Pole.N, Pole.S]):
                    value = eigenvalue_symbolic(label, 1, z)
                    image = apply_pauli(PauliOperator(n, (1 << n) - 1, z), vec)
                    assert check_eigen(vec, image, value) < EIGEN_TOL


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_symbolic_eigenvalue_agrees_with_the_per_string_dense_route(data):
    # the exact tier against apply_pauli + check_eigen on the dense state
    n = data.draw(st.integers(1, 10))
    label = GhzLabel(n, data.draw(st.integers(0, (1 << n) - 1)),
                     data.draw(st.sampled_from((1, -1))))
    quarter = data.draw(st.integers(0, 3))
    z = data.draw(st.integers(0, (1 << n) - 1))
    vec = rotated_dense(label, quarter * math.pi / 2)
    image = apply_pauli(PauliOperator(n, (1 << n) - 1, z), vec)
    value = eigenvalue_symbolic(label, quarter, z)
    if value is None:
        assert check_eigen(vec, image, 1) >= EIGEN_TOL
        assert check_eigen(vec, image, -1) >= EIGEN_TOL
    else:
        assert check_eigen(vec, image, value) < EIGEN_TOL


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
    assert column.tolist() == [eigenvalue_symbolic(label, quarter, z) or 0 for z in masks]


def test_eigenvalue_column_refuses_what_the_scalar_refuses():
    with pytest.raises(DomainError):
        eigenvalue_column(GhzLabel(3, 0, 1), 4, np.zeros(1, np.uint64))
    with pytest.raises(DimensionError):
        eigenvalue_column(GhzLabel(3, 0, 1), 1, np.array([0b1000], np.uint64))


class TestCompatibleFamily:
    @pytest.mark.parametrize("n,size", [(3, 7), (4, 15), (8, 255)])
    def test_size(self, n, size):
        # the second route for the compatible column of count
        assert len(compatible_family(n)) == size == compatible_count(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_pairwise_commutation(self, n):
        family = compatible_family(n)
        assert len(family) == (1 << n) - 1
        for a, b in itertools.combinations(family, 2):
            assert commutes(a, b) and multiply(a, b) == multiply(b, a)

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_three_mod_four_products_are_signed_south_strings(self, n):
        family = compatible_family(n)
        south = set(_pole_letters(n, Pole.S))
        negatives = set()
        for member in family:
            if member.x_bits == (1 << n) - 1 and member.y_bits.bit_count() % 4 == 3:
                assert member.phase == 2
                negatives.add(member.letters())
        assert negatives == south


class TestPoleDerivation:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_enumerated_strings_sit_at_their_pole(self, n):
        for pole in Pole:
            for z in enumerate_pole(n, pole).tolist():
                letters = PauliOperator(n, (1 << n) - 1, z).letters()
                assert Pole(letters.count("Y") % 4) is pole
        north = enumerate_pole(n, Pole.N).tolist()
        for k in range(1, n + 1):
            assert xy_string(n, (k,)).z_bits in north


def _split_y_positions(n, high, lows):
    """0-based Y positions of each row, read as the lhv report reads them:
    the run's high letters, then the Y cells of the low letter table."""
    low_width = min(n, LOW_BITS)
    high_letters = xy_letter_matrix(n, np.array([high], np.uint64))[0, :n - low_width]
    low_letters = xy_letter_matrix(low_width, np.array(lows, np.uint64))
    low_columns = np.nonzero(low_letters == ord("Y"))[1].reshape(len(lows), -1)
    high_columns = np.flatnonzero(high_letters == ord("Y"))
    return np.hstack([np.broadcast_to(high_columns, (len(lows), len(high_columns))),
                      low_columns + (n - low_width)])


class TestPoleOperatorRendering:
    """Letters and Y positions of a pole's strings, read from their z masks."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_y_positions_match_letter_scan(self, n):
        for pole in Pole:
            masks_in_order = iter(enumerate_pole(n, pole).tolist())
            for high, lows in pole_runs(n, pole):
                masks = np.array(lows, np.uint64) | np.uint64(high)
                columns = _split_y_positions(n, high, lows)
                assert columns.shape == (len(masks), np.bitwise_count(masks[0]))
                for row, z in zip(columns.tolist(), masks_in_order):
                    op = PauliOperator(n, (1 << n) - 1, z)
                    scanned = [k for k in range(1, n + 1) if op.letter(k) == "Y"]
                    assert [k + 1 for k in row] == scanned

    def test_y_positions_wide(self):
        z = xy_string(63, (1, 2, 40, 63)).z_bits
        low = (1 << LOW_BITS) - 1
        lows = (z & low,)
        assert (_split_y_positions(63, z & ~low, lows) + 1).tolist() == [[1, 2, 40, 63]]


def test_xy_string_positions():
    assert xy_string(4, (2, 4)).letters() == "XYXY"
    with pytest.raises(DomainError):
        xy_string(3, (0,))


def test_xy_string_refuses_a_repeated_qubit():
    # a repeated position is refused, not collapsed into a single Y
    with pytest.raises(DomainError, match="qubit 1 more than once"):
        xy_string(3, (1, 1))
