"""Named parameter sets for the bundled demonstration scenarios.

Each preset id maps to one or more fully specified quenches. The lossy pair
shares l = 0.36; in fig4b the evolution walk is PT broken on the whole zone
(see _broken_theta2).
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .lattice import CoinAngles
from .quench import QuenchSpec

FLAT_INITIAL = CoinAngles(np.pi / 4, -np.pi / 2)
DEMO_LOSS = 0.36


def _broken_theta2(l: float) -> float:
    """theta2 = (pi - arccos(1/alpha)) / 2. With theta1 = -pi/2, d0 = alpha
    sin(theta2) at every k, so d0^2 = alpha (alpha + 1) / 2 > 1: just past
    the exceptional line d0^2 = 1, not on it (1.0094 at l = 0.36)."""
    al = (1 + np.sqrt(1 - l)) / (2 * (1 - l) ** 0.25)
    return (np.pi - np.arccos(1 / al)) / 2


def _pure(final):
    return QuenchSpec(FLAT_INITIAL, CoinAngles(*final))


def _mixed(p):
    """The fig2a quench from a mixed preparation, lower-band weight p."""
    return QuenchSpec(FLAT_INITIAL, CoinAngles(-np.pi / 2, 3 * np.pi / 8), mix_p=p)


def _lossy(final):
    return QuenchSpec(FLAT_INITIAL, CoinAngles(*final), loss=DEMO_LOSS)


# each figure id's builder; a spec is built per call
_BUILDERS = {
    "fig2a": lambda: [("fig2a", _pure((-np.pi / 2, 3 * np.pi / 8)))],
    "fig2b": lambda: [("fig2b", _pure((-np.pi / 2, np.pi / 4)))],
    "fig3": lambda: [("fig3", _pure((-np.pi / 16, -3 * np.pi / 16)))],
    "fig4a": lambda: [("fig4a", _lossy((-np.pi / 3, np.pi / 5)))],
    "fig4b": lambda: [("fig4b", _lossy((-np.pi / 2, _broken_theta2(DEMO_LOSS))))],
    "mixed-p07": lambda: [("mixed-p07", _mixed(0.7))],
    "mixed-p09": lambda: [("mixed-p09", _mixed(0.9))],
    # the fig2a quench on the same grids, under its own label
    "s1": lambda: [("s1", _pure((-np.pi / 2, 3 * np.pi / 8)))],
    "s2": lambda: [("s2-p07", _mixed(0.7)), ("s2-p09", _mixed(0.9))],
    "s3": lambda: [("s3-a", _lossy((-np.pi / 3, np.pi / 5))),
                   ("s3-b", _lossy((-np.pi / 2, _broken_theta2(DEMO_LOSS))))],
}
PRESET_IDS = tuple(_BUILDERS)


def preset(pid: str):
    """List of (label, QuenchSpec) runs for a figure id."""
    if pid not in _BUILDERS:
        raise ConfigError(f"unknown figure id {pid!r}; choose from {', '.join(PRESET_IDS)}")
    return _BUILDERS[pid]()
