"""Generators for finite discretizations of standard metric spaces.

Metric conventions (all diameters normalized to 1):

* ``circle(n, metric="geodesic")`` -- regular n-gon with the arc-length
  metric divided by the half-circumference; exact rationals.
* ``circle(n, metric="chord")`` / ``sphere(n)`` -- Euclidean chord lengths
  scaled by 1/2 (the unit circle/sphere have Euclidean diameter 2).  Chords
  are irrational, so they are quantized to a rational grid and padded so the
  triangle inequality holds exactly; see ``_rationalize``.
* ``interval(n)`` -- n evenly spaced points of [0,1], Euclidean metric.
* ``cantor(level)`` -- endpoints of the level-k middle-third intervals,
  Euclidean metric.

The sphere uses a Fibonacci lattice on half the points plus their antipodes,
so the diameter is exactly 1.  All chord computations run in mpmath software
floats, which are platform independent; generated structures are therefore
byte-for-byte reproducible.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from .structures import FiniteStructure, make_structure

_GRID = 4096  # quantization denominator for irrational chord lengths


def _rationalize(raw: list[list[mpmath.mpf]], names: list[str]) -> FiniteStructure:
    """Quantize a true metric to the 1/_GRID grid, keeping it a metric.

    Nearest-grid rounding moves each distance by at most eps = 1/_GRID, which
    can break the triangle inequality by up to 3*eps; adding 3*eps to every
    off-diagonal entry restores it exactly, and capping at 1 (which preserves
    the triangle inequality) keeps the diameter at most 1.
    """
    eps = Fraction(1, _GRID)
    n = len(names)
    metric: dict[tuple[str, str], Fraction] = {}
    for i in range(n):
        for j in range(i + 1, n):
            q = Fraction(int(mpmath.nint(raw[i][j] * _GRID)), _GRID)
            metric[(names[i], names[j])] = min(q + 3 * eps, Fraction(1))
    return make_structure(names, metric)


def two_point(distance: Fraction | int | str = 1) -> FiniteStructure:
    return make_structure(["a", "b"], {("a", "b"): Fraction(distance)})


def interval(n: int) -> FiniteStructure:
    """n evenly spaced points of the unit interval; exact metric |i-j|/(n-1)."""
    if n < 2:
        return make_structure(["t0"], {})
    names = [f"t{i}" for i in range(n)]
    metric = {
        (names[i], names[j]): Fraction(j - i, n - 1)
        for i in range(n)
        for j in range(i + 1, n)
    }
    return make_structure(names, metric)


def circle(n: int, metric: str = "geodesic") -> FiniteStructure:
    """Regular n-gon on the circle, diameter normalized to 1."""
    names = [f"c{i}" for i in range(n)]
    if metric == "geodesic":
        if n % 2 != 0:
            raise ValueError("geodesic circle normalization expects even n")
        half = n // 2
        d = {
            (names[i], names[j]): Fraction(min(j - i, n - (j - i)), half)
            for i in range(n)
            for j in range(i + 1, n)
        }
        return make_structure(names, d)
    if metric == "chord":
        with mpmath.workdps(30):
            raw = [
                [mpmath.sin(mpmath.pi * abs(i - j) / n) for j in range(n)] for i in range(n)
            ]
            return _rationalize(raw, names)
    raise ValueError(f"unknown circle metric {metric!r}")


def sphere(n: int) -> FiniteStructure:
    """About-n-point discretization of the 2-sphere, chord metric, diameter 1.

    Half the points come from a Fibonacci lattice, the other half are their
    antipodes (n is rounded up to an even count), so antipodal pairs at
    distance exactly 1 are present.
    """
    half = (n + 1) // 2
    with mpmath.workdps(30):
        golden = (1 + mpmath.sqrt(5)) / 2
        coords: list[tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]] = []
        for i in range(half):
            z = 1 - Fraction(2 * i + 1, 2 * half)  # stratified heights in (-1, 1)
            zf = mpmath.mpf(z.numerator) / z.denominator
            r = mpmath.sqrt(1 - zf * zf)
            theta = 2 * mpmath.pi * i / golden
            coords.append((r * mpmath.cos(theta), r * mpmath.sin(theta), zf))
        coords.extend([(-x, -y, -z) for (x, y, z) in coords])
        names = [f"s{i}" for i in range(len(coords))]
        raw = [
            [
                mpmath.sqrt(
                    (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2
                )
                / 2
                for b in coords
            ]
            for a in coords
        ]
        return _rationalize(raw, names)


def cantor(level: int) -> FiniteStructure:
    """Endpoints of the level-k middle-third construction, Euclidean metric."""
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(level):
        nxt = []
        for lo, hi in intervals:
            third = (hi - lo) / 3
            nxt.append((lo, lo + third))
            nxt.append((hi - third, hi))
        intervals = nxt
    points: list[Fraction] = []
    for lo, hi in intervals:
        for e in (lo, hi):
            if e not in points:
                points.append(e)
    points.sort()
    names = [f"p{i}" for i in range(len(points))]
    metric = {
        (names[i], names[j]): points[j] - points[i]
        for i in range(len(points))
        for j in range(i + 1, len(points))
    }
    return make_structure(names, metric)
