import pytest

import surfquad as sq


def lengths(slices):
    return [s.stop - s.start for s in slices]


class TestBlocks:
    @pytest.mark.parametrize("size", [1, 3, 7, 100])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_nearly_equal_slices_cover_in_order(self, size, offset):
        n = max(0, size + offset)
        slices = sq.blocks.blocks(n, size)
        assert len(slices) == -(-n // size)
        # contiguous, in order, covering range(n)
        assert [i for s in slices for i in range(n)[s]] == list(range(n))
        assert all(0 < s.stop - s.start <= size for s in slices)
        assert max(lengths(slices), default=0) - min(lengths(slices), default=0) <= 1

    @pytest.mark.parametrize("n, size, expected", [
        (0, 5, []),
        (5, 5, [5]),
        (6, 5, [3, 3]),
        (7, 3, [2, 2, 3]),
        (11, 5, [3, 4, 4]),
    ])
    def test_lengths(self, n, size, expected):
        assert lengths(sq.blocks.blocks(n, size)) == expected

    def test_default_size_read_at_call_time(self, monkeypatch):
        block = sq.blocks.BLOCK
        assert lengths(sq.blocks.blocks(block)) == [block]
        assert lengths(sq.blocks.blocks(block + 1)) == [block // 2, block // 2 + 1]
        monkeypatch.setattr(sq.blocks, "BLOCK", 4)
        assert lengths(sq.blocks.blocks(10)) == [3, 3, 4]

    def test_size_below_one_counts_as_one(self):
        assert lengths(sq.blocks.blocks(3, 0)) == [1, 1, 1]
