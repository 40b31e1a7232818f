"""Exactness tests for the symplectic Pauli-string algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzverify.errors import DimensionError
from ghzverify.oracle import materialize
from ghzverify.pauli import PauliOperator, multiply
from references import LetterError, commutes, from_letters


@given(st.data())
@settings(deadline=None)
def test_phase_is_a_power_of_i_kept_mod_4(data):
    n = data.draw(st.integers(1, 4))
    x, z = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
    e, k = data.draw(st.integers(0, 3)), data.draw(st.integers(-3, 3))
    op = PauliOperator(n, x, z, e)
    shifted = PauliOperator(n, x, z, e + 4 * k)
    assert shifted == op and hash(shifted) == hash(op) and shifted.phase == e
    unphased = materialize(PauliOperator(n, x, z))
    assert np.array_equal(materialize(shifted), 1j ** e * unphased)


class TestQuarterPhase:
    """The phase is the exponent e of i**e, held as an int modulo 4."""

    def test_exponent_normalized(self):
        assert PauliOperator(1, 0, 0, 7).phase == 3
        assert PauliOperator(1, 0, 0, -1).phase == 3

    @pytest.mark.parametrize("exp,value", [(0, 1), (1, 1j), (2, -1), (3, -1j)])
    def test_values(self, exp, value):
        assert np.array_equal(materialize(PauliOperator(1, 0, 0, exp)), value * np.eye(2))


class TestMultiply:
    def test_xy_is_iz(self):
        assert multiply(from_letters("X"), from_letters("Y")) == from_letters("Z", 1)

    def test_cyclic_convention(self):
        assert multiply(from_letters("Y"), from_letters("Z")) == from_letters("X", 1)
        assert multiply(from_letters("Z"), from_letters("X")) == from_letters("Y", 1)

    def test_xx_is_identity(self):
        assert multiply(from_letters("X"), from_letters("X")) == PauliOperator(1, 0, 0)

    def test_three_generator_product(self):
        # hand multiplication per qubit: (YXX)(XYX) = +ZZI, then (ZZI)(XXY) = -YYY
        product = multiply(multiply(from_letters("YXX"), from_letters("XYX")),
                           from_letters("XXY"))
        assert product == from_letters("YYY", 2)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            multiply(from_letters("X"), from_letters("XX"))


class TestCommutes:
    # the symplectic rule of references.commutes, and multiply agreeing with it
    def test_two_anticommuting_positions_commute(self):
        a, b = from_letters("XX"), from_letters("YY")
        assert commutes(a, b) and multiply(a, b) == multiply(b, a)

    def test_single_pair_anticommutes(self):
        a, b = from_letters("X"), from_letters("Y")
        assert not commutes(a, b) and multiply(a, b) == from_letters("Z", 1)
        assert multiply(b, a) == from_letters("Z", 3)

    def test_generators_commute(self):
        a, b = from_letters("YXX"), from_letters("XYX")
        assert commutes(a, b) and multiply(a, b) == multiply(b, a)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            commutes(from_letters("X"), from_letters("XX"))


class TestYCount:
    """An X/Y string's Y count is the popcount of its z mask, which is how
    every pole and eigenvalue reads it."""

    @pytest.mark.parametrize("letters,count", [("YXX", 1), ("YYY", 3), ("XXXX", 0)])
    def test_counts(self, letters, count):
        op = from_letters(letters)
        assert op.x_bits == (1 << op.n) - 1 and op.y_bits == op.z_bits
        assert op.z_bits.bit_count() == count

    @pytest.mark.parametrize("letters", ["XIZ", "XZ", "IY"])
    def test_rejects_i_and_z(self, letters):
        # an I or Z letter clears its x bit, so no z mask stands for the string
        op = from_letters(letters)
        assert op.x_bits != (1 << op.n) - 1


class TestConstruction:
    def test_round_trip(self):
        for letters in ("XXX", "YXX", "Z", "IXYZ"):
            assert from_letters(letters).letters() == letters

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            from_letters("")

    def test_bad_letter_rejected(self):
        with pytest.raises(LetterError):
            from_letters("XQ")


def _ops(draw, n, count):
    return [PauliOperator(n,
                          draw(st.integers(0, (1 << n) - 1)),
                          draw(st.integers(0, (1 << n) - 1)),
                          draw(st.integers(0, 3)))
            for _ in range(count)]


@st.composite
def op_triples(draw):
    n = draw(st.integers(1, 8))
    return _ops(draw, n, 3)


@st.composite
def op_pairs(draw):
    n = draw(st.integers(1, 8))
    return _ops(draw, n, 2)


@given(op_triples())
@settings(deadline=None)
def test_associativity(ops):
    a, b, c = ops
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(op_pairs())
@settings(deadline=None)
def test_anticommutation_parity(ops):
    a, b = ops
    ab = multiply(a, b)
    ba = multiply(b, a)
    if commutes(a, b):
        assert ab == ba
    else:
        flipped = PauliOperator(ba.n, ba.x_bits, ba.z_bits, ba.phase + 2)
        assert ab == flipped


@given(st.text(alphabet="XYZ", min_size=1, max_size=8))
@settings(deadline=None)
def test_involution(letters):
    op = from_letters(letters)
    assert multiply(op, op) == PauliOperator(op.n, 0, 0)


@st.composite
def masked_ops(draw):
    """Operators on 1..64 qubits, often with leading I letters, and n = 64."""
    n = draw(st.one_of(st.integers(1, 64), st.just(64)))
    full = (1 << n) - 1
    # shifting both masks right leaves the first qubits at I
    shift = draw(st.integers(0, n))
    x = draw(st.integers(0, full)) >> shift
    z = draw(st.integers(0, full)) >> shift
    return PauliOperator(n, x, z)


@given(masked_ops())
@settings(deadline=None, max_examples=300)
def test_letters_match_per_qubit_letters(op):
    assert op.letters() == "".join(op.letter(k) for k in range(1, op.n + 1))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 5000])
def test_letters_at_mask_extremes(n):
    full = (1 << n) - 1
    assert PauliOperator(n, 0, 0).letters() == "I" * n
    assert PauliOperator(n, full, 0).letters() == "X" * n
    assert PauliOperator(n, 0, full).letters() == "Z" * n
    assert PauliOperator(n, full, full).letters() == "Y" * n
    assert PauliOperator(n, 1, 1).letters() == "I" * (n - 1) + "Y"


def _random_op(rng, n):
    return PauliOperator(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                         int(rng.integers(0, 4)))


@st.composite
def small_op_pairs(draw):
    return _ops(draw, draw(st.integers(1, 6)), 2)


@given(small_op_pairs())
@settings(deadline=None, max_examples=150)
def test_multiply_is_the_dense_matrix_product(ops):
    # any letters and phases; every entry is 0 or a fourth root of unity, so exact
    a, b = ops
    assert np.array_equal(materialize(multiply(a, b)), materialize(a) @ materialize(b))


class TestMatrixFaithfulness:
    def test_exhaustive_single_qubit(self):
        singles = [PauliOperator(1, x, z, e)
                   for x in (0, 1) for z in (0, 1) for e in range(4)]
        for a in singles:
            for b in singles:
                assert np.array_equal(materialize(multiply(a, b)),
                                      materialize(a) @ materialize(b))

    def test_exhaustive_two_qubit_letters(self):
        import itertools
        ops = [from_letters("".join(p)) for p in itertools.product("IXYZ", repeat=2)]
        for a in ops:
            for b in ops:
                assert np.array_equal(materialize(multiply(a, b)),
                                      materialize(a) @ materialize(b))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sampled_larger(self, n):
        rng = np.random.default_rng(20240000 + n)
        for _ in range(100):
            a = _random_op(rng, n)
            b = _random_op(rng, n)
            assert np.array_equal(materialize(multiply(a, b)),
                                  materialize(a) @ materialize(b))
