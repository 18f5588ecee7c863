"""Deterministic, seeded construction of test instances.

Frames are built inside the canonical coordinate model and randomized
with Givens rotations acting only on the rank block, so tangency of the
structure vectors is exact by construction.  Every generated instance
is a pure function of its configuration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ambient import MAX_M, AmbientModel, StructureFunctions, canonical_model
from .config import DEFAULT
from .errors import BadConfig, BadDimension
from .frames import Basis, Vec
from .submanifold import PointFlags, SecondFundamentalForm, SubmanifoldPoint, tangent_frames

#: each constraint on generated forms: (traceless, c_compatible)
_CONSTRAINTS = {"none": (False, False), "minimal": (True, False),
                "c_compatible": (False, True), "minimal_and_c_compatible": (True, True)}


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
            raise BadConfig(f"constraint must be one of {tuple(_CONSTRAINTS)}")


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
    traceless, c_compat = _CONSTRAINTS[constraint]
    if c_compat:
        coeffs[:, n:, :] = 0.0
        coeffs[:, :, n:] = 0.0
    if traceless:
        span = n if c_compat else tangent_dim
        idx = np.arange(span)
        traces = coeffs[:, idx, idx].sum(axis=1)
        coeffs[:, idx, idx] -= traces[:, None] / span
    return SecondFundamentalForm(coeffs)


#: most float entries that one batch of configs draws and builds
BATCH_ENTRIES = 1 << 17


def _entries(config: GeneratorConfig) -> int:
    """Float entries of a config's form, rotation and frame, plus 128 for
    the point's objects (about 1 KB a point at n = 1)."""
    dim = 2 * config.m + 2
    k = config.n + 2
    return (dim - k) * k ** 2 + dim ** 2 + k * dim + 128


def batches(configs):
    """The configs in order, in consecutive lists of at most
    ``BATCH_ENTRIES`` entries each; a config over the budget is a list
    of its own."""
    batch, entries = [], 0
    for config in configs:
        if batch and entries + _entries(config) > BATCH_ENTRIES:
            yield batch
            batch, entries = [], 0
        batch.append(config)
        entries += _entries(config)
    if batch:
        yield batch


@functools.cache
def _givens_sweep(block: int) -> tuple[tuple[int, int], ...]:
    """Axis pairs of the seeded rotations over the first ``block`` axes.

    Two passes over adjacent pairs plus one over offset pairs connect
    every axis to every other, which is enough mixing for fuzzing while
    leaving the trailing (structure) axes untouched.
    """
    pairs = [(i, i + 1) for i in range(block - 1)]
    offset = max(2, block // 2)
    return tuple(pairs + [(i, i + offset) for i in range(block - offset)] + pairs)


def _rotations(dim: int, angles: list[list[float]]) -> np.ndarray:
    """One rotation of R^dim per list of sweep angles, stacked: the Givens
    sweep over the leading dim - 2 axes.  Each step updates rows i and j
    by the same correctly rounded c x - s y and s x + c y, entry by
    entry, as a rotation built on its own, and cos and sin come from
    ``math``, so every rotation keeps those bits."""
    sweep = _givens_sweep(dim - 2)
    cos = np.array([[math.cos(a) for a in row] for row in angles])
    sin = np.array([[math.sin(a) for a in row] for row in angles])
    rotations = np.zeros((len(angles), dim, dim))
    rotations[:, range(dim), range(dim)] = 1.0
    g = rotations[:, :dim - 2, :dim - 2]
    # one (rotations, 1) column of c and of s per step
    for (i, j), c, s in zip(sweep, cos.T[:, :, None], sin.T[:, :, None]):
        gi, gj = g[:, i], g[:, j]
        row_i = c * gi - s * gj
        g[:, j] = s * gi + c * gj
        g[:, i] = row_i
    return rotations


class _Draws(NamedTuple):
    functions: StructureFunctions
    base: list[Vec]  # the L-part before the rotation
    angles: list[float]
    sff: SecondFundamentalForm


def _draws(config: GeneratorConfig) -> _Draws:
    """A config's random draws, from its own seeded generator in a fixed
    order: structure functions, slant coin and angle, sweep angles, form."""
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
        base = list(np.eye(ambient.dim)[:n])

    count = len(_givens_sweep(2 * config.m))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count).tolist()
    rank = ambient.dim - (n + 2)
    sff = random_sff(rng, rank, n + 2, config.sigma_scale, config.constraint, n)
    return _Draws(functions, base, angles, sff)


def random_instances(configs):
    """``random_instance`` of each config, in order: rotated slant or
    generic frame, uniform structure functions, constrained random form
    coefficients.

    Every config draws from its own generator, so each instance is a
    pure function of its config.  The configs are taken in ``batches``;
    those of equal (n, m) in a batch share one stacked Givens sweep, one
    stacked rotation of their frames and one ``tangent_frames`` call, and
    the bits are those of building each instance alone.
    A generator: each point is dropped here once it is taken.
    """
    for batch in batches(configs):
        points, _ = _batch_instances(batch)
        points.reverse()
        while points:
            yield points.pop()


def _batch_instances(configs: list[GeneratorConfig]) -> tuple[list[SubmanifoldPoint], dict]:
    """A batch's instances, one sweep and one frame build per (n, m), and each (n, m)'s indices."""
    draws = [_draws(config) for config in configs]
    classes: dict[tuple[int, int], list[int]] = {}
    for index, config in enumerate(configs):
        classes.setdefault((config.n, config.m), []).append(index)

    points: list = [None] * len(configs)
    for (n, m), indices in classes.items():
        ambient = canonical_model(m)
        rotations = _rotations(ambient.dim, [draws[i].angles for i in indices])
        base = np.array([draws[i].base for i in indices])
        frames = np.empty((len(indices), n + 2, ambient.dim))
        frames[:, :n] = np.einsum("pkd,ped->pke", base, rotations)  # @ moves some last bits
        frames[:, n:] = ambient.xi
        for frame, i in zip(tangent_frames(frames, ambient.xi, DEFAULT), indices):
            flags = PointFlags(c_compatible=_CONSTRAINTS[configs[i].constraint][1])
            points[i] = SubmanifoldPoint(ambient, draws[i].functions, Basis(frame, DEFAULT),
                                         draws[i].sff, flags)
    return points, classes


def random_instance(config: GeneratorConfig) -> SubmanifoldPoint:
    """The instance of one config; see ``random_instances``."""
    return next(random_instances([config]))
