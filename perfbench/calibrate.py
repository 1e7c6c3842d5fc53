"""Host-speed calibration: a fixed pure-Python kernel timed between repetitions.

The shared host this benchmark was written on runs at two speeds, with
phases of several seconds to a minute; process CPU time follows wall time
and steal stays near zero, so the slowdown is in the CPU itself.  The
kernel below does the same kind of work as primespec (sparse polynomials
over Q in dicts keyed by exponent tuples, a division loop that picks the
leading term with ``max(..., key=...)``, Fraction row reduction), so it
slows down with the host by about as much as the program does.  It never
imports primespec, so no change to the program can move it.

Timings are reported as ``raw * (REFERENCE_S / kernel_s) ** ELASTICITY``:
what the measurement would read on a host where the kernel takes
``REFERENCE_S``.  In the slowest phases the kernel slows down more than the
workloads: fitting log(workload time) against log(kernel time) over
repetitions of one input gave slopes of 0.75 to 0.9, hence ELASTICITY.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Kernel time in the fast phase of a 2-core x86-64 host under CPython 3.11.
REFERENCE_S = 0.042
ELASTICITY = 0.85
ROUNDS = 10


def _key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def _mul(f, g):
    out = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            e = (ef[0] + eg[0], ef[1] + eg[1], ef[2] + eg[2])
            c = out.get(e, 0) + cf * cg
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


_DIVISORS = (
    ((2, 0, 0), {(0, 1, 0): Fraction(-1, 2), (0, 0, 0): Fraction(1, 3)}),
    ((0, 2, 0), {(0, 0, 1): Fraction(-1), (1, 0, 0): Fraction(2, 5)}),
    ((0, 0, 2), {(1, 0, 0): Fraction(-1, 3), (0, 0, 0): Fraction(-1)}),
)


def _reduce(f):
    """Remainder of f on division by x^2, y^2, z^2 rules (monic leads)."""
    work = dict(f)
    remainder = {}
    while work:
        exp = max(work, key=_key)
        coeff = work.pop(exp)
        for lead, tail in _DIVISORS:
            if all(a >= b for a, b in zip(exp, lead)):
                shift = (exp[0] - lead[0], exp[1] - lead[1], exp[2] - lead[2])
                for te, tc in tail.items():
                    e = (te[0] + shift[0], te[1] + shift[1], te[2] + shift[2])
                    c = work.get(e, 0) - coeff * tc
                    if c:
                        work[e] = c
                    else:
                        work.pop(e, None)
                break
        else:
            remainder[exp] = coeff
    return remainder


def _row_reduce(rows):
    rows = [list(r) for r in rows]
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return rows


def kernel():
    f = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-2, 3), (0, 0, 1): Fraction(1, 2),
         (0, 0, 0): Fraction(3)}
    power = {(0, 0, 0): Fraction(1)}
    vectors = []
    for _ in range(8):
        power = _reduce(_mul(power, f))
        vectors.append([power.get((a, b, c), Fraction(0))
                        for a in range(2) for b in range(2) for c in range(2)] + [Fraction(1)])
    return _row_reduce(vectors)


def calibration_s() -> float:
    """Seconds for a fixed number of kernel rounds on this host, right now."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        kernel()
    return time.perf_counter() - start


def factor(kernel_s: float) -> float:
    """Scale for timings taken while the kernel took ``kernel_s`` seconds."""
    return (REFERENCE_S / kernel_s) ** ELASTICITY
