"""Shared builders for the test suite.

Random instances are always seeded; every generator takes the rng so a
failure reproduces from the seed printed by pytest.
"""

from __future__ import annotations

import numpy as np

from scptrack.region import (
    AffineInequality,
    ConvexRegion,
    Ellipsoid,
    SecondOrderCone,
    project_region,
)
from scptrack.subproblem import ConvexSubproblem


def random_region(n, kind, rng):
    """Feasible-by-construction region with one member class active."""
    lo = rng.uniform(-3.0, -0.5, n)
    hi = rng.uniform(0.5, 3.0, n)
    affine, cones, ellipsoids = (), (), ()
    if kind == "affine":
        affine = tuple(
            AffineInequality(a=rng.normal(size=n), b=rng.uniform(0.5, 2.0))
            for _ in range(2)
        )
    elif kind == "cone":
        rows = rng.normal(size=(2, n)) * 0.6
        cones = (
            SecondOrderCone(
                D=rows,
                d=rng.normal(size=2) * 0.2,
                e=np.zeros(n),
                f=rng.uniform(1.0, 3.0),
            ),
        )
    elif kind == "ellipsoid":
        B = rng.normal(size=(n, n))
        ellipsoids = (
            Ellipsoid(
                center=rng.normal(size=n) * 0.3,
                shape=B @ B.T / n + 0.3 * np.eye(n),
                radius=rng.uniform(1.0, 4.0),
            ),
        )
    elif kind != "box":
        raise ValueError(kind)
    return ConvexRegion(lower=lo, upper=hi, affine=affine, cones=cones, ellipsoids=ellipsoids)


def random_subproblem(kind, rng):
    """Feasible instance: equality rows anchored at an interior point."""
    n = int(rng.integers(2, 9))
    region = random_region(n, kind, rng)
    x0 = project_region(region, rng.normal(size=n) * 0.2)
    m = int(rng.integers(0, max(1, n - 1)))
    A = rng.normal(size=(m, n))
    if rng.random() < 0.5:
        B = rng.normal(size=(n, n))
        H = B @ B.T / n
    else:
        H = np.zeros((n, n))
    return ConvexSubproblem(
        c=rng.normal(size=n),
        m_corr=rng.normal(size=n) * 0.1,
        H=H,
        x_ref=np.zeros(n),
        A_eq=A,
        b_eq=-(A @ x0),
        region=region,
    )


def with_equality_members(sp):
    """Region whose members also pin the subproblem equality rows.

    Each row a.x + b = 0 becomes the halfspace pair a.x <= -b and
    -a.x <= b, so projecting onto this region samples points feasible
    for the full subproblem.
    """
    extra = []
    for row, b in zip(sp.A_eq, sp.b_eq):
        extra.append(AffineInequality(np.array(row), -float(b)))
        extra.append(AffineInequality(-np.array(row), float(b)))
    region = sp.region
    return ConvexRegion(
        region.lower,
        region.upper,
        tuple(region.affine) + tuple(extra),
        region.cones,
        region.ellipsoids,
    )


def feasible_samples(sp, rng, count=10):
    """Points feasible for the full subproblem, by alternating projection.

    Opposite halfspace pairs encode the equality rows, so callers compare
    objectives with a margin well above the projection's accuracy.
    Candidates whose projection verifies no point are redrawn; anchoring at
    the reference point keeps that rare.
    """
    from scptrack.errors import ProjectionError

    sampler = with_equality_members(sp)
    out = []
    for _ in range(4 * count):
        candidate = sp.x_ref + rng.normal(size=sp.c.size)
        try:
            out.append(project_region(sampler, candidate))
        except ProjectionError:
            continue
        if len(out) == count:
            break
    return out
