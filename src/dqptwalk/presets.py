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


def _mixed(final, p):
    return QuenchSpec(FLAT_INITIAL, CoinAngles(*final), mix_p=p)


def _lossy(final):
    return QuenchSpec(FLAT_INITIAL, CoinAngles(*final), loss=DEMO_LOSS)


def _build(pid: str):
    two_a = (-np.pi / 2, 3 * np.pi / 8)
    if pid == "fig2a":
        return [("fig2a", _pure(two_a))]
    if pid == "fig2b":
        return [("fig2b", _pure((-np.pi / 2, np.pi / 4)))]
    if pid == "fig3":
        return [("fig3", _pure((-np.pi / 16, -3 * np.pi / 16)))]
    if pid == "fig4a":
        return [("fig4a", _lossy((-np.pi / 3, np.pi / 5)))]
    if pid == "fig4b":
        return [("fig4b", _lossy((-np.pi / 2, _broken_theta2(DEMO_LOSS))))]
    if pid == "mixed-p07":
        return [("mixed-p07", _mixed(two_a, 0.7))]
    if pid == "mixed-p09":
        return [("mixed-p09", _mixed(two_a, 0.9))]
    if pid == "s1":
        # the fig2a quench on the same grids, under its own label
        return [("s1", _pure(two_a))]
    if pid == "s2":
        return [("s2-p07", _mixed(two_a, 0.7)), ("s2-p09", _mixed(two_a, 0.9))]
    if pid == "s3":
        return [("s3-a", _lossy((-np.pi / 3, np.pi / 5))),
                ("s3-b", _lossy((-np.pi / 2, _broken_theta2(DEMO_LOSS))))]
    raise ConfigError(f"unknown figure id {pid!r}; choose from {', '.join(PRESET_IDS)}")


PRESET_IDS = ("fig2a", "fig2b", "fig3", "fig4a", "fig4b",
              "mixed-p07", "mixed-p09", "s1", "s2", "s3")


def preset(pid: str):
    """List of (label, QuenchSpec) runs for a figure id."""
    return _build(pid)
