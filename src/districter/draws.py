"""numpy's draws replayed in plain Python: the one place that mirrors
``numpy.random.Generator`` arithmetic.

A scalar ``rng.integers(n)`` call costs a few microseconds, most of it the
call into numpy, while growing a plan or running a chain makes one or two
per step.  A :class:`Span` makes the same draws from the bit generator's raw
64-bit output, pulled in bulk (``bit_generator.random_raw``), at a fraction
of that:

* ``integers(n)`` for ``1 <= n < 2**32`` is numpy's Lemire method on 32-bit
  halves.  The low half of a raw output is used first and the high half is
  kept for the next 32-bit draw, as PCG64's ``has_uint32`` / ``uinteger``
  buffer keeps it.  ``n == 1`` draws nothing.  Any other ``n`` goes to
  numpy itself, so its result and its error are numpy's;
* ``random()`` is ``(x >> 11) * 2**-53`` of a whole raw output; it leaves the
  buffered half alone.

When the span closes it leaves the generator exactly as numpy's own draws
would have: its start state advanced by the raw outputs used, with the same
buffered half (and the same stale ``uinteger`` when none is buffered), so
``bit_generator.state`` compares equal.  Only PCG64 is replayed; a span over
any other bit generator hands back the generator itself.

Opening and closing a span costs about as much as a handful of numpy draws,
so one is opened only where a call makes many: once per grown plan and once
per chain.  Permutations stay with numpy, whose C shuffle beats a Python one
beyond a few elements; they are drawn over indices
(``rng.permutation(len(x))``), which shuffles positions as
``rng.permutation(x)`` shuffles ``x``, and the list is indexed.

:func:`roulette_wheel` and :func:`roulette` are
``rng.choice(n, p=w / w.sum())``'s arithmetic over a plain list of weights,
split so that one wheel serves many picks.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import length_hint

import numpy as np

from .objective import pairwise_sum

_LOW = 0xFFFF_FFFF
_TWO32 = 1 << 32
_DOUBLE = 1.0 / 9007199254740992.0      # 2**-53
_FIRST_CHUNK, _LAST_CHUNK = 16, 1024


class Span:
    """``with Span(rng) as draws:`` gives an object whose ``integers(n)`` and
    ``random()`` make the draws ``rng``'s would, in the same order; ``rng``
    itself unless its bit generator is PCG64.  Nothing else may draw from
    ``rng`` while the span is open.  The generator is left exact however
    the block ends."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._bit_generator = None      # set while replaying

    def __enter__(self):
        bit_generator = self.rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            return self.rng
        self._bit_generator = bit_generator
        self._open()
        return self

    def __exit__(self, *exc_info):
        if self._bit_generator is not None:
            self._sync()
            self._bit_generator = None
        return False

    def _open(self) -> None:
        """Start replaying from the generator's current state."""
        self._start = start = self._bit_generator.state
        self._buffered = start["has_uint32"]
        self._half = start["uinteger"]
        self._pulled = 0
        self._chunk = _FIRST_CHUNK
        self._raw = iter(())
        self._next = self._raw.__next__

    def _sync(self) -> None:
        """Leave the generator where numpy's own draws would have: the start
        state advanced by the outputs used, and the same buffered half."""
        bit_generator = self._bit_generator
        used = self._pulled - length_hint(self._raw)
        bit_generator.state = self._start
        bit_generator.advance(used)
        state = bit_generator.state
        state["has_uint32"] = self._buffered
        state["uinteger"] = self._half
        bit_generator.state = state

    def _refill(self) -> int:
        """The next raw output, once the pulled ones are used up."""
        chunk = self._chunk
        self._raw = iter(self._bit_generator.random_raw(chunk).tolist())
        self._next = self._raw.__next__
        self._pulled += chunk
        self._chunk = min(2 * chunk, _LAST_CHUNK)
        return self._next()

    def integers(self, n):
        """``rng.integers(n)``: a uniform int in ``[0, n)``."""
        if type(n) is not int or not 0 < n < _TWO32:
            # numpy's own draw, or its error, from the replayed state
            self._sync()
            try:
                return self.rng.integers(n)
            finally:
                self._open()
        if n == 1:
            return 0
        while True:
            if self._buffered:
                self._buffered = 0
                m = self._half * n
            else:
                try:
                    x = self._next()
                except StopIteration:
                    x = self._refill()
                self._buffered = 1
                self._half = x >> 32
                m = (x & _LOW) * n
            # a low word below 2**32 % n (< n) is rejected and drawn again
            low = m & _LOW
            if low >= n or low >= _TWO32 % n:
                return m >> 32

    def random(self) -> float:
        """``rng.random()``: a uniform float in ``[0, 1)``."""
        try:
            x = self._next()
        except StopIteration:
            x = self._refill()
        return (x >> 11) * _DOUBLE


def roulette_wheel(weights: list) -> list:
    """The wheel ``rng.choice(len(weights), p=w / w.sum())`` picks from,
    for finite positive float ``weights``: the weights over their sum in
    numpy's order, and their running sum over its last entry."""
    total = pairwise_sum(weights)
    cdf = list(accumulate(w / total for w in weights))
    last = cdf[-1]
    return [c / last for c in cdf]


def roulette(wheel: list, rng) -> int:
    """The index ``rng.choice`` picks on a :func:`roulette_wheel`: one
    ``rng.random()`` draw, and ``bisect_right`` on it."""
    return bisect_right(wheel, rng.random())
