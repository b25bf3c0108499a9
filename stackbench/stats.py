"""The stack benchmark's own arithmetic, kept apart so test_stats.py can pin it."""

import hashlib
import math
import statistics


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, q3) as statistics.quantiles(xs, n=4) gives them; a single value is
    its own quartiles."""
    if len(xs) == 1:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def nearest_rank(xs, q):
    """Nearest-rank quantile (the program's own convention); 0 for no data."""
    if not xs:
        return 0.0
    ordered = sorted(xs)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def amdahl_serial_fraction(points):
    """Least-squares serial fraction s of Amdahl's law,
    1/S = s + (1 - s)/N, over (threads N, speedup S) points.

    The law is linear in s: 1/S - 1/N = s (1 - 1/N), so the fit is
    s = sum(a b) / sum(a a) with a = 1 - 1/N and b = 1/S - 1/N. Points at
    N = 1 carry no information (a = 0)."""
    num = den = 0.0
    for threads, speedup in points:
        a = 1.0 - 1.0 / threads
        b = 1.0 / speedup - 1.0 / threads
        num += a * b
        den += a * a
    if den == 0.0:
        raise ValueError("Amdahl fit needs a point with more than one thread")
    return num / den


def coverage(terms, wall_s, threads):
    """Share of the run's host time, wall_s x threads, that the per-layer
    table explains: sum(count x seconds per call) over the layers."""
    return sum(count * per_call for count, per_call in terms) / (wall_s * threads)


def digest(fields):
    """SHA-256 over a run's exact result fields, given as (name, value) pairs
    whose value is a float or a C99 hex-float string. Values enter by their
    exact bits, so any change in any result changes the digest."""
    h = hashlib.sha256()
    for name, value in fields:
        exact = float.fromhex(value) if isinstance(value, str) else float(value)
        h.update(f"{name}={exact.hex()}\n".encode())
    return h.hexdigest()
