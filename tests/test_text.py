import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import surfquad as sq
from surfquad import text


def reprs(values) -> str:
    """The reference: one repr per value, each ending a line."""
    return "".join(f"{float(v)!r}\n" for v in np.ravel(values))


def kernel(values) -> str:
    cells = text.floats(np.ravel(values))
    return text.packed(text.line(cells[:, None], ",")).tobytes().decode("ascii")


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, np.inf),
                           np.nextafter(values, -np.inf)])


class TestFloats:
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_equals_repr(self, values):
        assert kernel(values) == reprs(values)

    def test_special_values(self):
        values = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072009e-308, -2.2250738585072009e-308,
                  -2.2250738585072014e-308, 1.7976931348623157e308]
        assert kernel(values) == reprs(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(7).integers(0, 2**64, size=2**18, dtype=np.uint64)
        assert kernel(bits.view(np.float64)) == reprs(bits.view(np.float64))

    def test_powers_of_two_and_ten(self):
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
        values = with_neighbours(np.concatenate([twos, tens]))
        assert kernel(values) == reprs(values)
        assert kernel(-values) == reprs(-values)

    def test_layout_edges(self):
        edges = with_neighbours([1e-4, 1e-5, 1e15, 1e16, 1e17, 9.5e15, 0.001234, 123.0])
        values = np.concatenate([edges, -edges])
        assert kernel(values) == reprs(values)
        assert kernel([1e-5, 1e16, 1.5e16, 1e100, 1e15]) == (
            "1e-05\n1e+16\n1.5e+16\n1e+100\n1000000000000000.0\n")

    def test_ties_go_to_the_even_digit(self):
        # c / 4 with c odd in [2**52, 2**53) lies halfway between two
        # 17-digit decimals, both of which read back as it
        assert kernel([2.0**50 + 0.25, 2.0**50 + 0.75]) == (
            "1125899906842624.2\n1125899906842624.8\n")
        c = np.random.default_rng(8).integers(2**52, 2**53, size=4096) | 1
        assert kernel(c / 4.0) == reprs(c / 4.0)

    def test_cells_independent_of_block(self, monkeypatch, passes):
        values = np.random.default_rng(9).uniform(-2.0, 2.0, (11, 3))
        values[3, 1] = 0.0
        whole = text.floats(values)
        monkeypatch.setattr(sq.blocks, "BLOCK", 4)
        assert np.array_equal(text.floats(values), whole)
        assert passes["floats"] == [1, 9]
        assert text.packed(text.line(whole, " ")).tobytes() == "".join(
            f"{x!r} {y!r} {z!r}\n" for x, y, z in values.tolist()).encode()


class TestExactLogs:
    """The fixed-point floor logarithms equal exact integer ones over every
    exponent the kernel uses."""

    @staticmethod
    def floor_log10(num, den):
        j = len(str(num)) - len(str(den))
        return j if num * 10**max(-j, 0) >= den * 10**max(j, 0) else j - 1

    def test_log10_of_powers_of_two(self):
        q = np.arange(-1074, 972)
        exact = [self.floor_log10(2**max(e, 0), 2**max(-e, 0)) for e in q.tolist()]
        three_quarters = [self.floor_log10(3 * 2**max(e, 0), 4 * 2**max(-e, 0))
                          for e in q.tolist()]
        assert text._flog10pow2(q).tolist() == exact
        assert text._flog10_three_quarters_pow2(q).tolist() == three_quarters

    def test_log2_of_powers_of_ten(self):
        e = np.arange(text._K_MIN, -text._K_MIN + 1)
        exact = [(10**x).bit_length() - 1 if x >= 0 else -(10**-x).bit_length()
                 for x in e.tolist()]
        assert text._flog2pow10(e).tolist() == exact


class TestInts:
    @pytest.mark.parametrize("values", [[0], [7, 0, 10, 99, 100, 123456789],
                                        [2**31 - 1, 5]])
    def test_equals_str(self, values):
        cells = text.ints(values)
        assert text.packed(text.line(cells[:, None], ",")).tobytes().decode() == "".join(
            f"{v}\n" for v in values)
