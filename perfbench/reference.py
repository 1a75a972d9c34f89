"""A machine-speed probe: a fixed reference computation timed during trials.

On a shared machine the same deterministic trial can take twice as long from
one minute to the next, because other tenants compete for the cores and
caches.  :class:`SpeedProbe` times a few short reference slices when it is
entered and when it is left, and one slice every ``INTERVAL_S`` seconds
while it is active (from a SIGALRM handler, so the slices sample the machine
while the program runs).  The benchmark subtracts the slices' time from the
trial and scales what remains by ``speed = NOMINAL_S / mean slice time``:
seconds on a machine that runs a slice in ``NOMINAL_S``.  The reference is
frozen here, outside the program, so a change to the program cannot move it.

Under a tracer the handler only queues the slice, and the tracer runs it as a
span of its own when the next traced call starts, so slices stay out of the
layers' self times and never land inside a span's bookkeeping.

A slice mixes the operations the program's hot paths are made of: a
breadth-first search in pure Python, the same search through numpy index
arrays, small numpy reductions, and ``np.unique`` over edge pairs.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Typical time of one slice on the machine the bounds were set on
# (2-core Xeon at 2.1 GHz, Python 3.11, numpy 2.4).
NOMINAL_S = 0.0038

INTERVAL_S = 0.1    # time between slices inside the block

_SIDE = 20
_N = _SIDE * _SIDE
_ADJ = [[v for v in (u - 1, u + 1, u - _SIDE, u + _SIDE)
         if 0 <= v < _N and (abs(v - u) == _SIDE or v // _SIDE == u // _SIDE)]
        for u in range(_N)]
_INDPTR = np.concatenate([[0], np.cumsum([len(a) for a in _ADJ])])
_INDICES = np.concatenate([np.array(a) for a in _ADJ])
_EDGES = np.array([(u, v) for u in range(_N) for v in _ADJ[u] if u < v])
_LABELS = np.random.default_rng(0).integers(0, 8, size=_N)
_WEIGHTS = np.random.default_rng(1).random(_N)


def _python_bfs():
    seen = [False] * _N
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in _ADJ[u]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(v)
        frontier = nxt


def _numpy_bfs():
    member = _LABELS < 6
    visited = np.zeros(_N, dtype=bool)
    visited[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in _INDICES[_INDPTR[u]:_INDPTR[u + 1]]:
                if member[v] and not visited[v]:
                    visited[v] = True
                    nxt.append(int(v))
        frontier = nxt


def _numpy_small():
    np.bincount(_LABELS, minlength=8)
    np.unique(_LABELS[_LABELS > 3])
    np.flatnonzero(_LABELS == 2)


def _edge_pairs(edges, labels, weights):
    tu, tv = labels[edges[:, 0]], labels[edges[:, 1]]
    cut = tu != tv
    np.unique(np.concatenate([np.stack([tu[cut], tv[cut]], axis=1),
                              np.stack([tv[cut], tu[cut]], axis=1)]), axis=0)
    np.bincount(labels, weights=weights, minlength=16)


def _slice():
    _python_bfs()
    _numpy_bfs()
    for _ in range(20):
        _numpy_small()
    for _ in range(2):
        _edge_pairs(_EDGES, _LABELS, _WEIGHTS)


class SpeedProbe:
    """Context manager sampling machine speed while its block runs.

    ``defer``, when given, receives each in-block slice instead of the signal
    handler running it, and must run it soon, at a point of its choosing.
    """

    EDGE_SLICES = 3     # slices taken on entry and on exit

    def __init__(self, defer=None):
        self._defer = defer
        self.samples: list = []
        self.spent = 0.0        # seconds spent in slices taken inside the block

    def _sample(self) -> float:
        start = perf_counter()
        _slice()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _take(self):
        self.spent += self._sample()

    def _on_alarm(self, signum, frame):
        if self._defer is None:
            self._take()
        else:
            self._defer(self._take)

    def __enter__(self):
        for _ in range(self.EDGE_SLICES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        for _ in range(self.EDGE_SLICES):
            self._sample()
        return False

    @property
    def speed(self) -> float:
        """NOMINAL_S over the mean slice time; above 1 on a faster machine."""
        return NOMINAL_S / statistics.fmean(self.samples)
