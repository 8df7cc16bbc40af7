import random

import numpy as np
import pytest

from hadstab import MonicPolynomial, UnconvergedError, roots


def random_monic(
    rng: random.Random,
    degree: int,
    modulus_range=(0.05, 3.0),
    density: float = 1.0,
    real: bool = False,
) -> MonicPolynomial:
    """Random polynomial with log-uniform coefficient moduli; at least one
    nonzero coefficient."""
    lo, hi = modulus_range
    import math

    while True:
        coeffs = []
        for _ in range(degree):
            if rng.random() > density:
                coeffs.append(0j)
                continue
            m = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            theta = 0.0 if real else rng.uniform(-math.pi, math.pi)
            coeffs.append(m * complex(math.cos(theta), math.sin(theta)))
        poly = MonicPolynomial(tuple(coeffs))
        if poly.support:
            return poly


def monic_rows(polys) -> np.ndarray:
    """Ascending coefficients of polynomials of one degree, leading 1
    included, as the rows ``roots.find_root_rows`` and ``roots.row_statuses``
    take."""
    return np.array([f.coeffs + (1.0 + 0j,) for f in polys])


def fail_row(monkeypatch, bad):
    """Make ``roots._solve_chunk`` raise UnconvergedError for a chunk holding
    the row ``bad`` (ascending, leading 1 included), with ``row`` that row's
    position in the whole ``find_root_rows`` batch."""
    solve_chunk = roots._solve_chunk

    def failing(asc, offset, limit):
        hit = np.flatnonzero((asc == bad).all(axis=1))
        if hit.size:
            raise UnconvergedError("forced failure", row=offset + int(hit[0]))
        return solve_chunk(asc, offset, limit)

    monkeypatch.setattr(roots, "_solve_chunk", failing)


@pytest.fixture
def rng():
    return random.Random(20240817)
