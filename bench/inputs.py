"""Seeded input generators and benchmark-side reference answers.

Everything here is computed before any timed region.  The references never
call into ``hadstab``: expected verdicts come from exact arithmetic (the
verdict-scan inputs are built from known roots) or from ``numpy.linalg``
eigenvalues of batched companion matrices (branch sets, experiment inputs).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Fractional bits of the Gaussian-dyadic roots of verdict-scan inputs.
ROOT_BITS = 40
# Inputs whose reference max modulus lies closer than this to 1 are redrawn:
# no binary64 root finder can be asked to place them reliably.
CIRCLE_GAP = 1e-6

BRANCH_CLASSES = ("all_stable", "other_unstable", "principal_unstable")


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def max_moduli(rows: np.ndarray) -> np.ndarray:
    """Largest root modulus of each monic polynomial row (ascending, no
    leading 1), from stacked companion-matrix eigenvalues."""
    k, n = rows.shape
    comp = np.zeros((k, n, n), dtype=complex)
    if n > 1:
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    comp[:, :, -1] = -rows
    return np.abs(np.linalg.eigvals(comp)).max(axis=1)


# ---------------------------------------------------------------- verdict-scan


@dataclass(frozen=True)
class ScanInput:
    """A polynomial built from known roots.

    ``max_modulus`` is the exact largest root modulus; ``simple`` is False for
    inputs with a multiple root, whose computed modulus is only checked
    through the verdict.  ``label`` names the input in failure reports.
    """

    label: str
    coeffs: tuple[complex, ...]
    max_modulus: float
    simple: bool

    @property
    def stable(self) -> bool:
        return self.max_modulus < 1.0


def expand_exact(roots: list[tuple[int, int]], bits: int) -> tuple[complex, ...]:
    """Ascending coefficients (leading 1 dropped) of prod (s - r_j) with
    r_j = (x_j + i y_j) / 2^bits, multiplied out in Python integers and
    rounded to binary64 once per coefficient."""
    re, im = [1], [0]  # ascending Gaussian-integer coefficients of Q(s)
    for x, y in roots:
        # Q(s) * (s - (x + iy))
        nre = [0] * (len(re) + 1)
        nim = [0] * (len(im) + 1)
        for k, (a, b) in enumerate(zip(re, im)):
            nre[k + 1] += a
            nim[k + 1] += b
            nre[k] -= a * x - b * y
            nim[k] -= a * y + b * x
        re, im = nre, nim
    n = len(roots)
    # Coefficient k of prod(s - X_j / 2^B) is Q_k / 2^(B (n - k)); int / int
    # is correctly rounded.
    return tuple(
        complex(re[k] / (1 << (bits * (n - k))), im[k] / (1 << (bits * (n - k))))
        for k in range(n)
    )


def _circle_roots(rng: random.Random, degree: int) -> list[complex]:
    """Simple roots on 1-3 jittered concentric circles; the outer radius is
    drawn from [0.6, 0.97] or [1.03, 1.4]."""
    if rng.random() < 0.5:
        outer = rng.uniform(0.6, 0.97)
    else:
        outer = rng.uniform(1.03, 1.4)
    circles = min(rng.randint(1, 3), degree)
    radii = [outer] + [outer * rng.uniform(0.3, 0.9) for _ in range(circles - 1)]
    cuts = sorted(rng.sample(range(1, degree), circles - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
    roots = []
    for radius, count in zip(radii, counts):
        offset = rng.uniform(0.0, 2.0 * math.pi)
        for j in range(count):
            angle = offset + 2.0 * math.pi * (j + rng.uniform(-0.2, 0.2)) / count
            r = radius * (1.0 + rng.uniform(-0.005, 0.005))
            roots.append(complex(r * math.cos(angle), r * math.sin(angle)))
    return roots


def scan_input(rng: random.Random, degree: int, label: str) -> ScanInput:
    scale = 1 << ROOT_BITS
    dyadic = [
        (round(z.real * scale), round(z.imag * scale)) for z in _circle_roots(rng, degree)
    ]
    top = max(math.hypot(x, y) for x, y in dyadic) / scale
    return ScanInput(label, expand_exact(dyadic, ROOT_BITS), top, True)


def scan_degrees(rng: random.Random, count: int) -> list[int]:
    """``count`` degrees, log-uniform on [8, 160], one per equal-probability
    stratum so every block has the same degree profile."""
    degrees = [
        int(round(8.0 * 20.0 ** ((i + rng.random()) / count))) for i in range(count)
    ]
    rng.shuffle(degrees)
    return degrees


def dyadic_clusters() -> list[ScanInput]:
    """(s - (1 +- 2^-e))^k for e = 3..9, k = 2..8, kept when every coefficient
    is exact in binary64 (86 of the 98)."""
    out = []
    for e in range(3, 10):
        for k in range(2, 9):
            for sign in (-1, 1):
                a = 1 + Fraction(sign, 2**e)
                exact = [math.comb(k, j) * (-a) ** (k - j) for j in range(k)]
                if any(Fraction(float(c)) != c for c in exact):
                    continue
                label = f"(s-(1{'-' if sign < 0 else '+'}2^-{e}))^{k}"
                coeffs = tuple(complex(float(c)) for c in exact)
                out.append(ScanInput(label, coeffs, float(a), False))
    return out


# ------------------------------------------------------------------ branch sets


@dataclass(frozen=True)
class BranchInput:
    label: str
    cls: str
    coeffs: tuple[complex, ...]
    num: int
    den: int
    stable: bool
    max_modulus: float


def branch_rows(coeffs: tuple[complex, ...], num: int, den: int) -> np.ndarray:
    """Every branch of the power num/den, one row per branch, in the order of
    ``itertools.product(range(den), repeat=|support|)``."""
    support = [k for k, c in enumerate(coeffs) if c != 0]
    p = num / den
    grids = np.meshgrid(*[np.arange(den)] * len(support), indexing="ij")
    ls = np.stack([g.ravel() for g in grids], axis=1)  # (den^s, s)
    rows = np.zeros((len(ls), len(coeffs)), dtype=complex)
    for col, k in enumerate(support):
        a = coeffs[k]
        angle = p * math.atan2(a.imag, a.real) + 2.0 * math.pi * ls[:, col] / den
        rows[:, k] = abs(a) ** p * np.exp(1j * angle)
    return rows


def _classify_set(moduli: np.ndarray) -> str | None:
    if np.min(np.abs(moduli - 1.0)) < CIRCLE_GAP:
        return None
    if moduli[0] > 1.0:
        return "principal_unstable"
    return "other_unstable" if moduli.max() > 1.0 else "all_stable"


# Target sum of branch coefficient moduli per class: the sum test makes every
# branch stable below 1, so each class is drawn where it is common.
_CLASS_SUMS = {
    "all_stable": (0.7, 1.4),
    "other_unstable": (1.0, 2.0),
    "principal_unstable": (1.2, 3.0),
}


def branch_input(rng: random.Random, cls: str, den: int, support: int, label: str) -> BranchInput:
    """Rejection-sample a base polynomial and power num/den whose branch set
    has class ``cls`` and keeps every branch CIRCLE_GAP away from the circle."""
    lo, hi = _CLASS_SUMS[cls]
    for _ in range(10_000):
        degree = support + rng.randint(0, 2)
        num = rng.choice([k for k in range(1, 4 * den) if math.gcd(k, den) == 1])
        p = num / den
        ks = sorted(rng.sample(range(degree), support))
        raw = [rng.uniform(0.2, 1.0) for _ in ks]
        target = rng.uniform(lo, hi) / sum(raw)
        coeffs = [0j] * degree
        for k, r in zip(ks, raw):
            modulus = (r * target) ** (1.0 / p)  # branch modulus |a|^p = r * target
            theta = rng.uniform(-math.pi, math.pi)
            coeffs[k] = modulus * complex(math.cos(theta), math.sin(theta))
        coeffs = tuple(coeffs)
        moduli = max_moduli(branch_rows(coeffs, num, den))
        if _classify_set(moduli) == cls:
            return BranchInput(
                label, cls, coeffs, num, den, bool(moduli.max() < 1.0), float(moduli.max())
            )
    raise RuntimeError(f"could not draw a {cls} branch set (m={den}, support={support})")


# ------------------------------------------------------------------ experiments


@dataclass(frozen=True)
class ExperimentInput:
    """``unstable`` lists the integer powers 1..100 whose principal power has
    a root outside the unit circle."""

    label: str
    coeffs: tuple[complex, ...]
    unstable: tuple[int, ...]


def experiment_input(rng: random.Random, degree: int, real: bool, label: str) -> ExperimentInput:
    """Support moduli in (0.1, 0.95), Unstable at p = 1, and no integer power
    1..100 within CIRCLE_GAP of the circle."""
    powers = np.arange(1, 101, dtype=float)
    for _ in range(10_000):
        coeffs = []
        for _ in range(degree):
            if rng.random() < 0.2:
                coeffs.append(0j)
                continue
            m = rng.uniform(0.1, 0.95)
            if real:
                coeffs.append(complex(rng.choice((-m, m)), 0.0))
            else:
                theta = rng.uniform(-math.pi, math.pi)
                coeffs.append(m * complex(math.cos(theta), math.sin(theta)))
        if not any(coeffs):
            continue
        asc = np.array(coeffs)
        mods = np.abs(asc)
        phases = np.angle(asc)
        rows = np.where(
            mods > 0,
            mods[None, :] ** powers[:, None] * np.exp(1j * powers[:, None] * phases[None, :]),
            0j,
        )
        moduli = max_moduli(rows)
        if moduli[0] > 1.0 + CIRCLE_GAP and np.min(np.abs(moduli - 1.0)) >= CIRCLE_GAP:
            unstable = tuple(int(p) for p, m in zip(powers, moduli) if m > 1.0)
            return ExperimentInput(label, tuple(coeffs), unstable)
    raise RuntimeError(f"could not draw an experiment input of degree {degree}")
