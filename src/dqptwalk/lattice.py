"""Shared value types and 2x2 building blocks.

Everything downstream works in the fixed coin basis (|H>, |V>): spinors are
complex arrays of shape (2,) with index 0 = H. Momentum lives on the first
Brillouin zone (-pi, pi].
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# structural identities (hermiticity, norms, algebra)
STRUCT_TOL = 1e-12
# |d0 -+ 1| below this counts as a closed gap
GAP_TOL = 1e-9
# most dt steps a time grid may take
MAX_TIME_STEPS = 10**6
# most momenta a grid may hold; one complex table over the default 701
# times is then 184 MB
MAX_MOMENTA = 2**14
# most entries of one (momenta, times) table: the 184 MB above
MAX_TABLE_ENTRIES = MAX_MOMENTA * 701


def normalize_angle(a: float) -> float:
    """Reduce an angle mod 2pi into (-pi, pi]."""
    if not np.isfinite(a):
        raise ConfigError(f"angle must be finite, got {a}")
    return float(_wrap_angle(a))


def _wrap_angle(a):
    """normalize_angle elementwise over an array, without the finite check."""
    y = (a + np.pi) % (2 * np.pi) - np.pi
    return np.where(y == -np.pi, np.pi, y)


def coin_matrix(theta: float) -> np.ndarray:
    """Coin rotation exp(-i*theta*sigma_y), real orthogonal with det 1."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


class _TextIds:
    """Texts of int64 keys, each distinct key formatted once: ids(keys) gives
    each key's index into text, in order of first sight, and fmt(the sorted
    new keys) appends theirs. Keyed by float bits, -0.0 and 0.0 keep their
    own text and each NaN pattern its one."""

    def __init__(self, fmt):
        self.fmt, self.id, self.text = fmt, {}, []

    def __call__(self, keys):
        """The keys' texts, an object array of their shape."""
        ids = self.ids(keys)    # first: it may extend text
        return np.array(self.text, dtype=object)[ids]

    def ids(self, keys):
        # the sorted distinct keys by hand, for speed: np.unique took 4x as long (7.6
        # against 1.9 ms per 256x256, loss-0.2 map in 16-row blocks; numpy 2.4.6, Xeon VM)
        u = np.sort(keys, axis=None)
        u = u[np.append(True, u[1:] != u[:-1])] if u.size else u
        n = len(self.id)
        ids = np.array([self.id.setdefault(k, len(self.id)) for k in u.tolist()], dtype=np.intp)
        self.text += self.fmt(u[ids >= n])
        return ids[np.searchsorted(u, keys)]


def _run_blocks(n, width, block) -> list:
    """block(lo, hi) for each block [lo, hi) of width columns of range(n),
    one empty block if n is 0, and the blocks' results in order.

    The calling thread runs the even blocks and, if there is more than one,
    one helper thread the odd ones. A failure raises the error of the
    earliest failing block, which is the error a one-thread run meets first.
    """
    starts = range(0, max(n, 1), width)
    done = [None] * len(starts)     # each block's result, or its error

    def run(first):
        # a thread's blocks ascend, so it stops at its first failure
        for b in range(first, len(starts), 2):
            try:
                done[b] = block(starts[b], min(starts[b] + width, n))
            except Exception as err:  # raised by the caller below, in block order
                done[b] = err
                return

    helper = threading.Thread(target=run, args=(1,)) if len(starts) > 1 else None
    if helper is not None:
        helper.start()
    try:
        run(0)
    finally:
        if helper is not None:
            helper.join()
    for part in done:
        if isinstance(part, Exception):
            raise part
    return done


def _write_csv(path, header, row, blocks) -> None:
    """Write CSV rows with the CRLF line ends of csv.writer; no field needs
    quoting. row is the %-template of one row ("%s,%.12g", say), each block an
    iterable of row tuples, and only one block of text is held at a time."""
    line = (row + "\r\n").__mod__
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for rows in blocks:
            fh.write("".join(map(line, rows)))


@dataclass(frozen=True)
class CoinAngles:
    """Protocol parameters (theta1, theta2), stored canonical in (-pi, pi]."""

    theta1: float
    theta2: float

    def __post_init__(self):
        object.__setattr__(self, "theta1", normalize_angle(self.theta1))
        object.__setattr__(self, "theta2", normalize_angle(self.theta2))


def _as_coin_angles(value) -> CoinAngles:
    """value as CoinAngles; a (theta1, theta2) pair is converted."""
    if isinstance(value, CoinAngles):
        return value
    return CoinAngles(*value)


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum samples on (-pi, pi]: -pi excluded, pi included.

    With this placement the periodic trapezoid rule integrates trigonometric
    polynomials up to degree n_points/2 - 1 exactly.
    """

    n_points: int
    samples: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_points
        if n < 16 or n % 2 or n > MAX_MOMENTA:
            raise ConfigError(f"n_points must be even and in [16, {MAX_MOMENTA}], got {n}")
        ks = -np.pi + 2 * np.pi * np.arange(1, n + 1) / n
        object.__setattr__(self, "samples", ks)

    @property
    def spacing(self) -> float:
        return 2 * np.pi / self.n_points


@dataclass(frozen=True)
class TimeGrid:
    """Walk-step times: a uniform grid from 0 to t_max for continuous curves."""

    t_max: float = 7.0
    dt: float = 0.01

    def __post_init__(self):
        if not (np.isfinite(self.t_max) and np.isfinite(self.dt)):
            raise ConfigError(f"t_max and dt must be finite, got {self.t_max} and {self.dt}")
        if self.t_max < 1 or self.dt <= 0:
            raise ConfigError("need t_max >= 1 and dt > 0")
        if self.t_max / self.dt > MAX_TIME_STEPS:
            raise ConfigError(f"t_max / dt must be at most {MAX_TIME_STEPS}, "
                              f"got {self.t_max} / {self.dt}")

    @property
    def samples(self) -> np.ndarray:
        # the largest n with n * dt <= t_max, up to rounding of the ratio
        n = int(self.t_max / self.dt + 1e-9)
        return np.arange(n + 1) * self.dt
