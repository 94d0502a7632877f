"""One solve of a mesh file through darcydd's public pipeline, its checks,
and the per-layer numbers of a traced solve.

The call sequence is the README's "Library use" section, in the order
``darcydd.cli.run`` makes the same calls; the self-test holds the two to
the same result. Spans are named ``<module>.<call>`` after the darcydd
module whose public function they time.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import darcydd.bddc
import darcydd.subsolve
from darcydd.assembly import BlockSystem, SolutionTriple, assemble, full_solve_direct
from darcydd.bddc import BddcPreconditioner, build_constraints
from darcydd.cli import RunConfig, run
from darcydd.krylov import PcgConfig, SolveReport, pcg
from darcydd.mesh import read_mesh
from darcydd.partition import (
    classify_interface,
    compute_weights,
    partition_elements,
    select_corners,
)
from darcydd.subsolve import InterfaceOperator, build_substructures, recover_solution

from tracing import Span, Tracer, self_times
from workloads import Workload, write_meshes

LAYERS = ("mesh", "assembly", "partition", "subsolve", "bddc", "ldlt", "krylov")
# Every span a solve can open below its root ``solve`` span.
SPANS = (
    "mesh.read",
    "assembly.assemble",
    "partition.partition",
    "partition.classify",
    "partition.corners",
    "partition.weights",
    "subsolve.build",
    "subsolve.rhs",
    "subsolve.apply",
    "subsolve.recover",
    "bddc.constraints",
    "bddc.setup",
    "bddc.apply",
    "bddc.coarse_solve",
    "ldlt.interior_factor",
    "ldlt.constrained_factor",
    "krylov.pcg",
)


@dataclass
class Solve:
    system: BlockSystem
    solution: SolutionTriple
    report: SolveReport
    solve_s: float
    setup_s: float
    pcg_s: float
    sizes: dict[str, int]


def _factor_attrs(fact) -> dict:
    return {"mode": fact.mode, "n": fact.n}


@contextmanager
def _traced_factorizations(tracer: Tracer):
    """Time ``factor_symmetric_indefinite`` as bound in the two modules that
    factor local problems, and restore the bindings afterwards."""
    saved = (
        darcydd.subsolve.factor_symmetric_indefinite,
        darcydd.bddc.factor_symmetric_indefinite,
    )
    darcydd.subsolve.factor_symmetric_indefinite = tracer.wrap(
        "ldlt.interior_factor", saved[0], _factor_attrs
    )
    darcydd.bddc.factor_symmetric_indefinite = tracer.wrap(
        "ldlt.constrained_factor", saved[1], _factor_attrs
    )
    try:
        yield
    finally:
        (
            darcydd.subsolve.factor_symmetric_indefinite,
            darcydd.bddc.factor_symmetric_indefinite,
        ) = saved


def solve_file(path: Path, wl: Workload, tracer: Tracer | None = None) -> Solve:
    """Mesh file in, recovered solution out; spans only when ``tracer``."""
    if tracer is None:
        return _solve(path, wl, lambda name: nullcontext(), None)
    with _traced_factorizations(tracer), tracer.span("solve"):
        return _solve(path, wl, tracer.span, tracer)


def _solve(path: Path, wl: Workload, span, tracer: Tracer | None) -> Solve:
    t0 = time.perf_counter()
    with span("mesh.read"):
        mesh = read_mesh(str(path))
    with span("assembly.assemble"):
        system = assemble(mesh)
    with span("partition.partition"):
        partition = partition_elements(mesh, wl.n_sub)
    with span("partition.classify"):
        layout = classify_interface(system, partition)
    with span("partition.corners"):
        corners = select_corners(layout)
    with span("bddc.constraints"):
        constraints = build_constraints(layout, corners)
    with span("partition.weights"):
        weights = compute_weights(system, layout, "arithmetic")
    with span("subsolve.build"):
        subs = build_substructures(system, layout)
    operator = InterfaceOperator(subs, layout)
    with span("bddc.setup"):
        prec = BddcPreconditioner(subs, layout, weights, constraints)
    with span("subsolve.rhs"):
        rhs = operator.reduced_rhs()
    t_setup = time.perf_counter()
    apply_op, apply_prec = operator.apply, prec.apply
    if tracer is not None:
        apply_op = tracer.wrap("subsolve.apply", apply_op)
        apply_prec = tracer.wrap("bddc.apply", apply_prec)
        if prec.coarse_fact is not None:
            prec.coarse_fact.solve = tracer.wrap(
                "bddc.coarse_solve", prec.coarse_fact.solve
            )
    with span("krylov.pcg"):
        lam, report = pcg(apply_op, apply_prec, rhs, PcgConfig(rel_tol=wl.tol))
    t_pcg = time.perf_counter()
    with span("subsolve.recover"):
        solution = recover_solution(system, subs, layout, lam)
    t_end = time.perf_counter()
    sizes = {
        "mesh.elements": len(mesh.elements),
        "mesh.couplings": len(mesh.couplings),
        "assembly.dofs": system.n_total,
        "assembly.nnz": sum(
            blk.nnz
            for blk in (system.a, system.b, system.b_f, system.c, system.c_f, system.c_t)
        ),
        "partition.n_gamma": layout.n_interface,
        "partition.globs": len(layout.globs),
        "bddc.n_coarse": constraints.n_coarse,
    }
    return Solve(
        system=system,
        solution=solution,
        report=report,
        solve_s=t_end - t0,
        setup_s=t_setup - t0,
        pcg_s=t_pcg - t_setup,
        sizes=sizes,
    )


# ---------------------------------------------------------------------------
# correctness checks


def full_residual(system: BlockSystem, solution: SolutionTriple) -> float:
    """Full-system relative residual, recomputed from the assembled matrix."""
    rhs = system.full_rhs()
    r = rhs - system.full_matrix() @ solution.concatenated()
    return float(np.linalg.norm(r) / np.linalg.norm(rhs))


def relative_distance(x: np.ndarray, ref: np.ndarray) -> float:
    """Max-norm distance of ``x`` to ``ref``, relative to ``ref``."""
    scale = float(np.abs(ref).max(initial=0.0))
    diff = float(np.abs(x - ref).max(initial=0.0))
    return diff / scale if scale else diff


def check_solve(
    res: Solve, wl: Workload, index: int, per_file: dict[int, tuple[int, float]]
) -> tuple[str | None, bool]:
    """Why a finished solve of file ``index`` counts as failed (None if it
    does not), and whether that failure is a wrong answer. ``per_file``
    keeps each file's first iterations and condition estimate; a repeat
    solve must reproduce them exactly."""
    if not res.report.converged:
        return f"did not converge in {res.report.iterations} iterations", False
    residual = full_residual(res.system, res.solution)
    if not residual <= wl.residual_limit:
        return (
            f"full-system residual {residual:.3e} exceeds "
            f"{wl.residual_limit:.0e}"
        ), True
    outcome = (res.report.iterations, res.report.condition)
    first = per_file.setdefault(index, outcome)
    if outcome != first:
        return f"iterations/condition {outcome} differ from {first}", True
    return None, False


def direct_discrepancy(system: BlockSystem, solution: SolutionTriple) -> float:
    reference = full_solve_direct(system)
    return relative_distance(solution.concatenated(), reference.concatenated())


def self_test(wl: Workload, seed: int, directory: Path, tracer: Tracer | None) -> list[str]:
    """Problems found when the benchmark pipeline and ``darcydd.cli.run``
    solve the same small seeded file, or when the seed does not fix the
    file's bytes. Empty when everything agrees."""
    problems = []
    first, second = (
        write_meshes(wl, wl.selftest_n, seed, 1, directory, f"selftest-{wl.name}-{tag}")[0]
        for tag in "ab"
    )
    try:
        if first.read_bytes() != second.read_bytes():
            problems.append("the same seed wrote two different mesh files")
        ours = solve_file(first, wl, tracer)
        cli = run(
            RunConfig(mesh_path=str(first), n_sub=wl.n_sub, rel_tol=wl.tol),
            quiet=True,
        )
    finally:
        for path in (first, second):
            path.unlink()
    if ours.report.iterations != cli.report.iterations:
        problems.append(
            f"iterations {ours.report.iterations} differ from the CLI's "
            f"{cli.report.iterations}"
        )
    if ours.report.condition != cli.report.condition:
        problems.append(
            f"condition {ours.report.condition!r} differs from the CLI's "
            f"{cli.report.condition!r}"
        )
    dist = relative_distance(
        ours.solution.concatenated(), cli.solution.concatenated()
    )
    if dist > 1e-12:
        problems.append(f"solution differs from the CLI's by {dist:.3e}")
    return problems


# ---------------------------------------------------------------------------
# per-layer numbers of one traced solve


def layer_metrics(spans: list[Span], sizes: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced solve: ``<span>_s`` sums the span's
    seconds, ``<layer>.self_s`` the layer's self time."""
    own = self_times(spans)
    out: dict[str, float] = dict.fromkeys((f"{name}_s" for name in SPANS), 0.0)
    out.update(dict.fromkeys((f"{layer}.self_s" for layer in LAYERS), 0.0))
    calls: dict[str, int] = defaultdict(int)
    factors = []
    for s in spans:
        calls[s.name] += 1
        if s.name == "solve":
            out["trace.solve_s"] = s.seconds
            out["trace.unattributed_s"] = own[s.id]
            continue
        out[f"{s.name}_s"] += s.seconds
        out[f"{s.layer}.self_s"] += own[s.id]
        if s.name == "krylov.pcg":
            out["krylov.self_s"] = own[s.id]
        if s.layer == "ldlt":
            factors.append(s.attrs)
    for layer, name in (("subsolve", "subsolve.apply"), ("bddc", "bddc.apply")):
        out[f"{layer}.apply_ms"] = 1e3 * out[f"{name}_s"] / max(calls[name], 1)
    out["subsolve.apply_calls"] = calls["subsolve.apply"]
    out["ldlt.dense_factors"] = sum(f["mode"] == "dense" for f in factors)
    out["ldlt.sparse_factors"] = sum(f["mode"] == "sparse" for f in factors)
    out["ldlt.max_n"] = max((f["n"] for f in factors), default=0)
    out.update(sizes)
    return out
