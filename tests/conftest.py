import random

import numpy as np
import pytest

from hadstab import MonicPolynomial


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


@pytest.fixture
def rng():
    return random.Random(20240817)
