"""The benchmark workloads and their known-answer oracles.

Each workload is an experiment config under ``configs/`` (the seed comes
from the command line) plus an oracle that checks every sample of the
report against an answer known from the ideal's geometry.  An oracle
raises ``GateFailure`` on the first disagreement.  ``inconclusive``
verdicts never disagree with an oracle: they count as failed samples.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))


class GateFailure(Exception):
    """A report failed verification, determinism or its oracle."""


def _check_expected_dimension(report, expected):
    got = report["config"]["expected_dimension"]
    if got != expected:
        raise GateFailure(f"expected fiber dimension {got}, oracle says {expected}")


def check_curves(report, monomials_upto):
    """Every fiber Y2 = t*Y1^2, Y3 = Y1*Y2 is a rational, hence prime, curve."""
    _check_expected_dimension(report, 1)
    for sample in report["samples"]:
        verdict = sample["verdict"]
        if verdict == "inconclusive":
            continue
        if verdict != "prime" or sample["dimension"] != 1:
            raise GateFailure(f"curves sample {sample['index']}: verdict {verdict}, "
                              f"dimension {sample['dimension']}; every fiber is a prime curve")


def check_points(report, monomials_upto):
    """Leads Y1^3, Y2^2, Y3^2 are coprime for every t: each fiber has dimension 0."""
    _check_expected_dimension(report, 0)
    for sample in report["samples"]:
        verdict = sample["verdict"]
        if verdict == "inconclusive":
            continue
        if verdict not in ("prime", "not_prime") or sample["dimension"] != 0:
            raise GateFailure(f"points sample {sample['index']}: verdict {verdict}, "
                              f"dimension {sample['dimension']}; every fiber is a nonempty "
                              "zero-dimensional scheme")


def cuts_expected(l0, l1, l2):
    """(verdict, dimension) of the line l0 + l1*Y1 + l2*Y2 cut with Y1^2 + Y2^2 = 1.

    The line meets the circle in two rational points, or touches it at
    one, exactly when D = l1^2 + l2^2 - l0^2 is a square; otherwise the
    intersection is a single closed point and the ideal is prime.
    """
    if l1 == 0 and l2 == 0:
        return ("unit_ideal", -1) if l0 else ("prime", 1)
    d = l1 * l1 + l2 * l2 - l0 * l0
    split = d >= 0 and math.isqrt(d) ** 2 == d
    return ("not_prime" if split else "prime"), 0


def check_cuts(report, monomials_upto):
    _check_expected_dimension(report, 0)
    position = {exp: i for i, exp in enumerate(monomials_upto(2, 1))}
    slots = [position[(0, 0)], position[(1, 0)], position[(0, 1)]]
    for sample in report["samples"]:
        verdict = sample["verdict"]
        if verdict == "inconclusive":
            continue
        coeffs = [Fraction(v) for v in sample["point"]["blocks"][0]]
        l0, l1, l2 = (int(coeffs[i]) for i in slots)
        expected = cuts_expected(l0, l1, l2)
        if (verdict, sample["dimension"]) != expected:
            raise GateFailure(f"cuts sample {sample['index']}: line {l0} + {l1}*Y1 + {l2}*Y2 "
                              f"gave {verdict} in dimension {sample['dimension']}, "
                              f"oracle says {expected[0]} in dimension {expected[1]}")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    default_seed: int
    oracle: Callable

    @property
    def config_path(self) -> str:
        return os.path.join(HERE, "configs", self.config)


# Default seeds: 11 and 7 are those of configs/cubic_fibers.conf and
# configs/circle_cut.conf; points has no shipped config.
WORKLOADS = {w.name: w for w in (
    Workload("curves", "curves.conf", 11, check_curves),
    Workload("points", "points.conf", 1, check_points),
    Workload("cuts", "cuts.conf", 7, check_cuts),
)}
