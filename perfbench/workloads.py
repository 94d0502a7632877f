"""Benchmark workloads and the seeded mesh files they are solved from.

Each workload is a closed loop: one process solves one mesh file after
another, with darcydd's default `arithmetic` weights and one thread. The
seed draws a log-normal factor for the conductivity of every
top-dimension element; the solver only ever sees the written file.
"""
from __future__ import annotations

import copy
import dataclasses
import hashlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from darcydd.mesh import (
    Mesh,
    generate_cross_fracture_cube,
    generate_unit_square,
    write_mesh,
)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], Mesh]
    n: int
    sigma_log: float
    n_sub: int
    tol: float
    # Distinct seeded files solved per run. Iterations and the condition
    # estimate depend on the field, so they are averaged over these files
    # to keep their seed-to-seed spread small.
    files: int
    # Resolution of the self-test mesh, solved by the benchmark pipeline and
    # by ``darcydd.cli.run``; large enough to reach every factorization path
    # the full workload takes.
    selftest_n: int

    @property
    def residual_limit(self) -> float:
        """Largest accepted full-system relative residual of a solve."""
        return 1e2 * self.tol

    @property
    def discrepancy_limit(self) -> float:
        """Largest accepted max-norm relative distance to the direct solve."""
        return 1e3 * self.tol


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fracture-contrast",
            generate=partial(
                generate_cross_fracture_cube, k1=1e3, k2=1.0, k3=1e-3
            ),
            n=8,
            sigma_log=0.5,
            n_sub=16,
            tol=1e-10,
            files=10,
            selftest_n=6,
        ),
        Workload(
            name="square-dense",
            generate=generate_unit_square,
            n=40,
            sigma_log=0.25,
            n_sub=64,
            tol=1e-7,
            files=8,
            selftest_n=16,
        ),
    )
}


def write_meshes(
    wl: Workload, n: int, seed: int, count: int, directory: Path, stem: str
) -> list[Path]:
    """Write ``count`` meshes of resolution ``n`` with seeded conductivity
    fields; the same arguments always give byte-identical files."""
    base = wl.generate(n)
    top = max(el.dim for el in base.elements)
    n_top = sum(el.dim == top for el in base.elements)
    rng = np.random.default_rng(seed)
    paths = []
    for k in range(count):
        factors = iter(rng.lognormal(0.0, wl.sigma_log, size=n_top))
        elements = [
            dataclasses.replace(el, conductivity=el.conductivity * next(factors))
            if el.dim == top
            else el
            for el in base.elements
        ]
        # Positive factors keep every tensor valid, so the generator's mesh
        # is reused with new elements instead of validating it again;
        # read_mesh validates the written file.
        mesh = copy.copy(base)
        mesh.elements = elements
        path = directory / f"{stem}-{k}.msh"
        write_mesh(mesh, str(path))
        paths.append(path)
    return paths


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
