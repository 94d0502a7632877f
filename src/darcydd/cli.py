"""Command-line driver: mesh in, solver statistics and solution out.

One invocation runs the full pipeline on a generated or loaded mesh:
assembly, partitioning, substructure factorizations, preconditioner setup,
conjugate gradients on the interface, interior recovery, and optional
verification against the monolithic direct solve.

:class:`RunConfig` defines a run and holds every default; the parser passes
on only the flags given, each under the name of the field it sets. A
benchmark suite is a table of ``RunConfig`` overrides; it emits CSV rows
with the columns ``N,n,n/N,n_Gamma,n_f,n_c,its.,cond.,set-up,PCG,solve``.
Flags that a run would ignore are refused: ``--suite`` takes only
``--csv``, ``--threads`` and ``--quiet``, and ``--mesh`` does not take
``--n``.

Exit codes: 0 success, 2 conjugate gradients stopped short of the tolerance
(the iteration budget ran out or the true residual stagnated), 3
configuration or input-format problems, 4 singular systems or insufficient
constraints.
"""
from __future__ import annotations

import argparse
import copy
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import BlockSystem, SolutionTriple, assemble, full_solve_direct
from .bddc import BddcPreconditioner, build_constraints
from .errors import (
    ConfigurationError,
    ConstraintDeficiencyError,
    DarcyError,
    IndefiniteOperatorError,
    SingularSystemError,
)
from .krylov import PcgConfig, SolveReport, pcg
from .mesh import (
    Mesh,
    generate_cross_fracture_cube,
    generate_unit_cube,
    generate_unit_square,
    read_mesh,
)
from .partition import (
    SCHEMES,
    classify_interface,
    compute_weights,
    partition_elements,
    select_corners,
)
from .subsolve import InterfaceOperator, build_substructures, recover_solution

GENERATORS = ("square", "cube", "fracture-cube")
ORACLE_DOF_LIMIT = 50_000
CSV_HEADER = "N,n,n/N,n_Gamma,n_f,n_c,its.,cond.,set-up,PCG,solve"


@dataclass
class RunConfig:
    """Everything one solver run depends on; validated before running."""

    gen: str | None = None
    mesh_path: str | None = None
    n: int = 8
    n_sub: int = 4
    scaling: str = "arithmetic"
    corners: bool = True
    rel_tol: float = PcgConfig.rel_tol
    max_iter: int = PcgConfig.max_iter
    oracle: bool = False
    csv_path: str | None = None
    solution_path: str | None = None
    threads: int = 1
    gen_params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if (self.gen is None) == (self.mesh_path is None):
            raise ConfigurationError(
                "exactly one mesh source is required: --gen or --mesh"
            )
        if self.gen is not None and self.gen not in GENERATORS:
            raise ConfigurationError(
                f"unknown generator {self.gen!r}; choose from {GENERATORS}"
            )
        if self.n < 1:
            raise ConfigurationError(f"--n must be positive, got {self.n}")
        if self.n_sub < 1:
            raise ConfigurationError(
                f"--nsub must be positive, got {self.n_sub}"
            )
        if self.scaling not in SCHEMES:
            raise ConfigurationError(
                f"unknown scaling {self.scaling!r}; choose from {SCHEMES}"
            )
        if not (0.0 < self.rel_tol < 1.0):
            raise ConfigurationError(
                f"--tol must lie in (0, 1), got {self.rel_tol}"
            )
        if self.max_iter < 1:
            raise ConfigurationError(
                f"--max-iter must be positive, got {self.max_iter}"
            )
        if self.threads < 1:
            raise ConfigurationError(
                f"--threads must be positive, got {self.threads}"
            )

    def describe(self) -> str:
        source = (
            f"mesh={self.mesh_path}"
            if self.mesh_path is not None
            else f"gen={self.gen} n={self.n}"
        )
        extras = "".join(
            f" {k}={v}" for k, v in sorted(self.gen_params.items())
        )
        return (
            f"{source}{extras} nsub={self.n_sub} "
            f"scaling={self.scaling} corners={'on' if self.corners else 'off'} "
            f"tol={self.rel_tol:g} threads={self.threads}"
        )


@dataclass
class RunResult:
    """Report plus the artifacts a caller may want to inspect."""

    report: SolveReport
    solution: SolutionTriple
    system: BlockSystem
    residual: float
    discrepancy: float | None = None


def _load_mesh(config: RunConfig) -> Mesh:
    if config.mesh_path is not None:
        return read_mesh(config.mesh_path)
    if config.gen == "square":
        return generate_unit_square(config.n, **config.gen_params)
    if config.gen == "cube":
        return generate_unit_cube(config.n, **config.gen_params)
    return generate_cross_fracture_cube(config.n, **config.gen_params)


def _full_residual(system: BlockSystem, sol: SolutionTriple) -> float:
    rhs = system.full_rhs()
    r = rhs - system.full_matrix() @ sol.concatenated()
    denom = float(np.linalg.norm(rhs))
    return float(np.linalg.norm(r)) / denom if denom else float(np.linalg.norm(r))


def run(config: RunConfig, quiet: bool = False) -> RunResult:
    """Execute one configured solve and return its result bundle."""
    config.validate()

    def say(msg: str) -> None:
        if not quiet:
            print(msg)

    say(f"run: {config.describe()}")
    t_start = time.perf_counter()
    mesh = _load_mesh(config)
    system = assemble(mesh)
    dm = system.dof_map
    say(
        f"mesh: {mesh.n_elements} elements, {len(mesh.node_coords)} nodes, "
        f"{len(mesh.couplings)} coupling links; system: {system.n_total} dofs "
        f"({dm.n_velocity} flux, {dm.n_pressure} pressure, "
        f"{dm.n_multiplier} trace)"
    )
    partition = partition_elements(mesh, config.n_sub)
    layout = classify_interface(system, partition)

    if config.n_sub == 1:
        t_setup = time.perf_counter() - t_start
        t0 = time.perf_counter()
        sol = full_solve_direct(system)
        t_pcg = time.perf_counter() - t0
        report = SolveReport()
        say("solver: single substructure, direct factorization")
    else:
        corners = select_corners(layout) if config.corners else []
        constraints = build_constraints(layout, corners)
        weights = compute_weights(system, layout, config.scaling)
        subs = build_substructures(system, layout, config.threads)
        operator = InterfaceOperator(subs, layout)
        prec = BddcPreconditioner(subs, layout, weights, constraints)
        counts = layout.glob_counts()
        say(
            f"interface: {layout.n_interface} dofs in {len(layout.globs)} "
            f"globs ({counts['face']} face, {counts['edge']} edge, "
            f"{counts['vertex']} vertex); {constraints.n_corners} corners, "
            f"{constraints.n_coarse} coarse dofs"
        )
        rhs_hat = operator.reduced_rhs()
        t_setup = time.perf_counter() - t_start
        t0 = time.perf_counter()
        lam_gamma, report = pcg(
            operator.apply,
            prec.apply,
            rhs_hat,
            PcgConfig(rel_tol=config.rel_tol, max_iter=config.max_iter),
        )
        t_pcg = time.perf_counter() - t0
        sol = recover_solution(system, subs, layout, lam_gamma)
        report.n_gamma = layout.n_interface
        report.n_face_globs = layout.n_face_globs
        report.n_corners = constraints.n_corners
        state = "converged" if report.converged else "NOT converged"
        say(
            f"pcg: {state} in {report.iterations} iterations, "
            f"condition estimate {report.condition:.2f}, final relative "
            f"residual {report.residuals[-1] if report.residuals else 0.0:.3e}"
            + (
                f" (true {report.true_residual:.3e})"
                if report.true_residual is not None
                else ""
            )
        )
    report.setup_seconds = t_setup
    report.pcg_seconds = t_pcg
    report.total_seconds = time.perf_counter() - t_start
    report.n_sub = config.n_sub
    report.n = system.n_total

    residual = _full_residual(system, sol)
    say(f"residual: full-system relative residual {residual:.3e}")
    discrepancy: float | None = None
    if config.oracle and config.n_sub == 1:
        say("oracle: skipped, this run is the direct solve")
    elif config.oracle and system.n_total <= ORACLE_DOF_LIMIT:
        reference = full_solve_direct(system)
        scale = float(np.abs(reference.concatenated()).max(initial=0.0))
        diff = float(
            np.abs(sol.concatenated() - reference.concatenated()).max(
                initial=0.0
            )
        )
        discrepancy = diff / scale if scale else diff
        say(f"oracle: max relative discrepancy vs direct solve {discrepancy:.3e}")
    elif config.oracle:
        say(
            f"oracle: skipped, {system.n_total} dofs exceed the "
            f"{ORACLE_DOF_LIMIT}-dof verification limit"
        )
    say(
        f"timings: set-up {report.setup_seconds:.3f} s, "
        f"pcg {report.pcg_seconds:.3f} s, total {report.total_seconds:.3f} s"
    )
    if config.solution_path is not None:
        write_solution(config.solution_path, system, sol)
        say(f"solution written to {config.solution_path}")
    result = RunResult(
        report=report,
        solution=sol,
        system=system,
        residual=residual,
        discrepancy=discrepancy,
    )
    if config.csv_path is not None:
        with open(config.csv_path, "w") as fh:
            fh.write(report_csv([report]))
        say(f"csv written to {config.csv_path}")
    return result


def report_csv(reports: list[SolveReport]) -> str:
    """Rows in the benchmark-table column layout, one per report."""
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.n_sub},{r.n},{r.n_per_sub:.1f},{r.n_gamma},"
            f"{r.n_face_globs},{r.n_corners},{r.iterations},"
            f"{r.condition:.2f},{r.setup_seconds:.3f},"
            f"{r.pcg_seconds:.3f},{r.total_seconds:.3f}"
        )
    return "\n".join(lines) + "\n"


def write_solution(path: str, system: BlockSystem, sol: SolutionTriple) -> None:
    """Element pressures and per-face fluxes, sectioned like the mesh format."""
    sides = system.mesh.sides
    at = np.flatnonzero(system.dof_map.side_vel >= 0)
    with open(path, "w") as fh:
        fh.write("$pressure\n")
        for e in range(system.n_pressure):
            fh.write(f"{e} {sol.p[e]:.17g}\n")
        fh.write("$end\n")
        fh.write("$flux\n")
        for e, lf, u in zip(
            sides.element[at].tolist(), sides.local_face[at].tolist(), sol.u.tolist()
        ):
            fh.write(f"{e} {lf} {u:.17g}\n")
        fh.write("$end\n")


# ---------------------------------------------------------------------------
# benchmark suites

# Each suite is a list of RunConfig overrides; run_suite adds ``threads``.
SUITES: dict[str, list[dict]] = {
    # fixed local problem size: n grows with sqrt of the substructure count
    "square-weak": [
        dict(gen="square", n=n, n_sub=n_sub, oracle=n_sub == 2)
        for n_sub, n in ((2, 12), (4, 16), (8, 24), (16, 32))
    ],
    "cube-weak": [
        dict(gen="cube", n=n, n_sub=n_sub, oracle=n_sub == 2)
        for n_sub, n in ((2, 3), (4, 4), (8, 5))
    ],
    "fracture-strong": [
        dict(
            gen="fracture-cube", n=4, n_sub=n_sub, scaling="diag",
            oracle=n_sub == 2,
        )
        for n_sub in (2, 4, 8, 16)
    ],
    "corner-study": [
        dict(
            gen="fracture-cube", n=4, n_sub=n_sub, corners=corners,
            scaling="diag", oracle=n_sub == 8 and corners,
        )
        for n_sub in (8, 16)
        for corners in (True, False)
    ],
    # strong conductivity contrast between the volume and the fractures
    "scaling-study": [
        dict(
            gen="fracture-cube", n=4, n_sub=n_sub, scaling=scheme,
            gen_params=dict(k1=1e3, k2=1.0, k3=1e-3),
            oracle=n_sub == 4 and scheme == "diag",
        )
        for n_sub in (4, 8)
        for scheme in SCHEMES
    ],
}


def run_suite(
    name: str, csv_path: str | None = None, threads: int = 1, quiet: bool = False
) -> list[RunResult]:
    """Run one named suite; returns results in configuration order."""
    if name not in SUITES:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {tuple(SUITES)}"
        )
    results = []
    for overrides in SUITES[name]:
        config = RunConfig(**copy.deepcopy(overrides), threads=threads)
        results.append(run(config, quiet=quiet))
        if not quiet:
            print()
    table = report_csv([r.report for r in results])
    if not quiet:
        print(table, end="")
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(table)
    return results


# ---------------------------------------------------------------------------
# argument handling


def _switch(text: str) -> bool:
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on or off, got {text!r}")
    return text == "on"


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit with the configuration-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")

    def refuse(self, dests: set[str], source: str) -> None:
        """Usage error naming the options that set ``dests``."""
        flags = [a.option_strings[0] for a in self._actions if a.dest in dests]
        self.error(f"{', '.join(flags)} not allowed with argument {source}")


def build_parser() -> _Parser:
    """Options named after the :class:`RunConfig` fields they set, with
    its defaults; the parsed namespace holds only the options given."""
    d = RunConfig()
    parser = _Parser(
        prog="darcydd",
        description=(
            "Substructured solver for Darcy flow in fractured porous media "
            "using mixed-hybrid finite elements"
        ),
        argument_default=argparse.SUPPRESS,
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--mesh", dest="mesh_path", metavar="PATH", help="path to a mesh file"
    )
    source.add_argument(
        "--gen", choices=GENERATORS, help="built-in mesh generator"
    )
    source.add_argument(
        "--suite",
        choices=tuple(SUITES),
        help="run a named benchmark suite instead of a single case",
    )
    parser.add_argument(
        "--n", type=int, help=f"generator resolution (default {d.n})"
    )
    parser.add_argument(
        "--nsub", dest="n_sub", type=int, metavar="N",
        help=f"number of substructures (default {d.n_sub})",
    )
    parser.add_argument(
        "--scaling", choices=SCHEMES,
        help=f"interface weight scheme (default {d.scaling})",
    )
    parser.add_argument(
        "--corners", type=_switch, metavar="{on,off}",
        help=f"corner constraints (default {'on' if d.corners else 'off'})",
    )
    parser.add_argument(
        "--tol", dest="rel_tol", type=float, metavar="X",
        help=f"relative residual tolerance (default {d.rel_tol:g})",
    )
    parser.add_argument(
        "--max-iter", type=int, metavar="N",
        help=f"iteration budget (default {d.max_iter})",
    )
    parser.add_argument(
        "--oracle", action="store_true",
        help="verify against the monolithic direct solve (dof-limited)",
    )
    parser.add_argument(
        "--csv", dest="csv_path", metavar="PATH", help="write the report table"
    )
    parser.add_argument(
        "--solution", dest="solution_path", metavar="PATH",
        help="write pressures and fluxes",
    )
    parser.add_argument(
        "--threads", type=int, metavar="N",
        help=f"worker cap for the interior solves of set-up (default {d.threads})",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    given = vars(parser.parse_args(argv))
    suite = given.pop("suite", None)
    quiet = given.pop("quiet", False)
    ignored = set(given) - {"csv_path", "threads"}
    if suite is not None and ignored:
        parser.refuse(ignored, "--suite")
    if "mesh_path" in given and "n" in given:
        parser.refuse({"n"}, "--mesh")
    try:
        if suite is not None:
            results = run_suite(suite, quiet=quiet, **given)
        else:
            results = [run(RunConfig(**given), quiet=quiet)]
    except (
        SingularSystemError,
        ConstraintDeficiencyError,
        IndefiniteOperatorError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DarcyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if any(not r.report.converged for r in results):
        print(
            "error: conjugate gradients did not reach the requested "
            "tolerance: the iteration budget ran out or the true residual "
            "stagnated above it",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
