"""Fusion-center decision rule and the collision-penalty region test.

The n-out-of-N vote with threshold 1 (the OR rule) is the operating
point of the rest of the package.  condition_i_bounds brackets the
collision penalties for which that rule leaves every sensor preferring
to transmit exactly when the vote is unanimous idle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import posterior
from .model import ScenarioParams


class Announcement(enum.Enum):
    H0 = "H0"
    H1 = "H1"


class Region(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


@dataclass(frozen=True)
class CpRegion:
    lower_bound: float
    upper_bound: float
    log_lower_bound: float
    log_upper_bound: float
    region: Region
    on_boundary: bool


def fuse(busy_report_count: int, group_size: int, threshold: int) -> Announcement:
    """n-out-of-N decision: busy when at least threshold sensors say busy."""
    n, t = group_size, threshold
    if not 1 <= t <= n:
        raise ValueError(f"threshold {t} outside [1, {n}]")
    if not 0 <= busy_report_count <= n:
        raise ValueError(f"busy_report_count {busy_report_count} outside [0, {n}]")
    return Announcement.H1 if busy_report_count >= t else Announcement.H0


def condition_i_bounds(params: ScenarioParams) -> CpRegion:
    """Collision-penalty window in which the OR rule is incentive-correct.

    lower/upper are the penalties at which transmitting after a single busy
    report, respectively after a unanimous idle vote, breaks even.  Both are
    formed in log space; the linear fields saturate to inf past exp range.
    """
    n = params.n_total
    log_rate = math.log(params.total_rate)
    log_upper = posterior.log_odds_idle(n, 0, params) - math.log(n) + log_rate
    log_lower = log_upper + posterior._log_q(params)
    log_cp = posterior._log(params.collision_penalty)
    if log_cp == log_lower or log_cp == log_upper:
        region = Region.I if log_cp == log_lower else Region.III
        boundary = True
    elif log_cp < log_lower:
        region, boundary = Region.I, False
    elif log_cp > log_upper:
        region, boundary = Region.III, False
    else:
        region, boundary = Region.II, False
    return CpRegion(posterior._exp(log_lower), posterior._exp(log_upper),
                    log_lower, log_upper, region, boundary)

