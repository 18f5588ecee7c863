"""Deterministic, seeded construction of test instances.

Frames are built inside the canonical coordinate model and randomized
with Givens rotations acting only on the rank block, so tangency of the
structure vectors is exact by construction.  Every generated instance
is a pure function of its configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import MAX_M, AmbientModel, StructureFunctions, canonical_model
from .errors import BadConfig, BadDimension
from .frames import Vec
from .submanifold import (
    PointFlags,
    SecondFundamentalForm,
    SubmanifoldPoint,
    attach_point,
)

_CONSTRAINTS = ("none", "minimal", "c_compatible", "minimal_and_c_compatible")


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    n: int
    m: int
    sigma_scale: float = 1.0
    f_ranges: tuple[tuple[float, float], ...] = ((-2.0, 2.0),) * 7
    constraint: str = "none"

    def __post_init__(self):
        if self.seed < 0:
            raise BadConfig("seed must be at least 0")
        if self.n < 1:
            raise BadConfig("n must be at least 1")
        if not 1 <= self.m <= MAX_M:
            raise BadConfig(f"m must lie in 1..{MAX_M}")
        if self.n > 2 * self.m:
            raise BadConfig("need n + 2 <= 2m + 2")
        if not (math.isfinite(self.sigma_scale) and self.sigma_scale > 0):
            raise BadConfig("sigma_scale must be positive and finite")
        if len(self.f_ranges) != 7:
            raise BadConfig("seven structure-function ranges are required")
        for lo, hi in self.f_ranges:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise BadConfig("structure-function ranges must be finite intervals")
        if self.constraint not in _CONSTRAINTS:
            raise BadConfig(f"constraint must be one of {_CONSTRAINTS}")


def slant_frame(ambient: AmbientModel, n: int, theta: float) -> list[Vec]:
    """Tangent frame with constant angle theta between f X and the span.

    For k = 1..n/2 the frame pairs dx_k with
    cos(theta) dy_k + sin(theta) dx_{n/2+k}, then appends the structure
    vectors; theta = 0 gives an invariant frame, theta = pi/2 an
    anti-invariant one.  Needs n even and m >= n.
    """
    if n < 2 or n % 2:
        raise BadDimension("a slant frame needs an even n >= 2")
    if ambient.m < n:
        raise BadDimension("the construction needs m >= n")
    dim = ambient.dim
    eye = np.eye(dim)
    frame = []
    half = n // 2
    for k in range(half):
        frame.append(eye[2 * k])  # dx_{k+1}
        frame.append(
            math.cos(theta) * eye[2 * k + 1] + math.sin(theta) * eye[2 * (half + k)]
        )
    frame.append(ambient.xi[0].copy())
    frame.append(ambient.xi[1].copy())
    return frame


def anti_invariant_frame(ambient: AmbientModel, n: int) -> list[Vec]:
    """Tangent frame {dx_1, ..., dx_n, xi_1, xi_2}; f maps its L-part
    entirely into the normal space."""
    if n < 1:
        raise BadDimension("n must be at least 1")
    if ambient.m < n:
        raise BadDimension("the construction needs m >= n")
    eye = np.eye(ambient.dim)
    return [eye[2 * k] for k in range(n)] + [ambient.xi[0].copy(), ambient.xi[1].copy()]


def random_sff(rng: np.random.Generator, normal_rank: int, tangent_dim: int,
               scale: float, constraint: str, n: int) -> SecondFundamentalForm:
    """Symmetrized uniform coefficients honoring the requested constraint.

    ``minimal`` removes the trace per normal direction; ``c_compatible``
    zeroes all rows and columns touching the structure directions (and
    the trace removal then stays inside the L block).
    """
    if not math.isfinite(2.0 * scale):  # the width of the uniform draws
        raise BadConfig(f"sigma scale {scale!r} is too large: 2 * scale overflows")
    raw = rng.uniform(-scale, scale, size=(normal_rank, tangent_dim, tangent_dim))
    coeffs = 0.5 * (raw + raw.transpose(0, 2, 1))
    c_compat = "c_compatible" in constraint
    if c_compat:
        coeffs[:, n:, :] = 0.0
        coeffs[:, :, n:] = 0.0
    if "minimal" in constraint:
        span = n if c_compat else tangent_dim
        idx = np.arange(span)
        traces = coeffs[:, idx, idx].sum(axis=1)
        coeffs[:, idx, idx] -= traces[:, None] / span
    return SecondFundamentalForm(coeffs)


def _random_rotation(rng: np.random.Generator, dim: int, block: int) -> np.ndarray:
    """Composition of seeded Givens rotations over the first ``block`` axes.

    Two passes over adjacent pairs plus one over offset pairs connect
    every axis to every other, which is enough mixing for fuzzing while
    leaving the trailing (structure) axes untouched.  The rotations act
    on the leading block only, row by row on Python floats, which is the
    same arithmetic per entry as whole-row array updates at a fraction of
    the call overhead for blocks this small.
    """
    pairs = [(i, i + 1) for i in range(block - 1)]
    offset = max(2, block // 2)
    sweep = pairs + [(i, i + offset) for i in range(block - offset)] + pairs
    angles = rng.uniform(0.0, 2.0 * math.pi, size=len(sweep)).tolist()
    g = np.eye(block).tolist()
    for (i, j), angle in zip(sweep, angles):
        c, s = math.cos(angle), math.sin(angle)
        gi, gj = g[i], g[j]
        g[i] = [c * x - s * y for x, y in zip(gi, gj)]
        g[j] = [s * x + c * y for x, y in zip(gi, gj)]
    rotation = np.eye(dim)
    rotation[:block, :block] = g
    return rotation


def random_instance(config: GeneratorConfig) -> SubmanifoldPoint:
    """Deterministic instance: rotated slant or generic frame, uniform
    structure functions, constrained random form coefficients."""
    rng = np.random.default_rng(config.seed)
    ambient = canonical_model(config.m)
    lo, hi = np.array(config.f_ranges).T
    functions = StructureFunctions(*rng.uniform(lo, hi).tolist())

    n = config.n
    slant_possible = n >= 2 and n % 2 == 0 and ambient.m >= n
    use_slant = slant_possible and rng.random() < 0.5
    if use_slant:
        theta = rng.uniform(0.0, math.pi / 2.0)
        base = slant_frame(ambient, n, theta)[:n]
    else:
        base = np.eye(ambient.dim)[:n]

    rotation = _random_rotation(rng, ambient.dim, 2 * config.m)
    l_part = [rotation @ v for v in base]
    raw = l_part + [ambient.xi[0], ambient.xi[1]]

    rank = ambient.dim - (n + 2)
    sff = random_sff(rng, rank, n + 2, config.sigma_scale, config.constraint, n)
    flags = PointFlags(c_compatible="c_compatible" in config.constraint)
    return attach_point(ambient, functions, raw, sff, flags)
