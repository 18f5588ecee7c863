"""Session fixtures: the shared fuzz corpus and its per-instance statistics.

The corpus drives several acceptance criteria, so it is generated once
and the per-instance checks (scalar identity, then one closed-form
frame sweep for the Ricci bound over every L-frame direction and the
plane bound over every frame pair) are done in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

import gssf as G
from _builders import frame_ricci_defects

CORPUS_SIZE = 10_000
CONSTRAINTS = ("none", "minimal", "c_compatible", "minimal_and_c_compatible")


def corpus_config(index: int) -> G.GeneratorConfig:
    n = 1 + index % 6
    m = n + index % 2
    return G.GeneratorConfig(
        seed=20_000 + index, n=n, m=m, sigma_scale=1.0,
        constraint=CONSTRAINTS[index % 4],
    )


@dataclass
class CorpusStats:
    points: list
    identity_rel: np.ndarray       # per instance
    ricci_min_slack: np.ndarray    # per instance, min over L-frame directions
    ricci_defect_gap: np.ndarray   # per instance, max |slack - defect sum|
    delta_min_slack: np.ndarray    # per instance, min over frame plane pairs (inf if none)


@pytest.fixture(scope="session")
def corpus() -> CorpusStats:
    points = list(G.generators.random_instances(corpus_config(index)
                                                for index in range(CORPUS_SIZE)))
    identity_rel = np.zeros(CORPUS_SIZE)
    ricci_min = np.full(CORPUS_SIZE, np.inf)
    defect_gap = np.zeros(CORPUS_SIZE)
    delta_min = np.full(CORPUS_SIZE, np.inf)

    for index, point in enumerate(points):
        identity = G.scalar_identity_check(point)
        identity_rel[index] = identity.abs_diff / max(
            1.0, abs(identity.lhs), abs(identity.rhs)
        )

        sweep = G.frame_sweep(point)
        ricci = sweep.ricci_slacks
        ricci_min[index] = ricci.min()
        # Gauss route (the slack, through the sectional matrix) against
        # the sigma-only sum of squares
        defect_gap[index] = np.abs(ricci - frame_ricci_defects(point)).max()
        if point.n > 1:
            delta_min[index] = sweep.delta_slacks.min()

    return CorpusStats(
        points=points,
        identity_rel=identity_rel,
        ricci_min_slack=ricci_min,
        ricci_defect_gap=defect_gap,
        delta_min_slack=delta_min,
    )
