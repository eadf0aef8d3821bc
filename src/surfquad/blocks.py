"""The pass size and the slicing rule of every bounded loop.

A loop over many items (points, nodes, values, lines) takes them ``BLOCK`` at
a time, so its temporaries do not grow with the input; a loop over rows of
many items each takes ``BLOCK // items_per_row`` rows.  Callers read
``blocks.BLOCK`` at call time, so patching it reaches every pass.
"""

from __future__ import annotations

# items per pass
BLOCK = 8192


def blocks(n: int, size: int | None = None) -> list[slice]:
    """ceil(n / size) slices of nearly equal length, none longer than
    ``size`` (``BLOCK`` by default, at least 1), that cover range(n) in
    order: no slice is a short remainder."""
    count = -(-n // max(1, BLOCK if size is None else size))
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]
