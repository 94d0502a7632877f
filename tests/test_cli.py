"""Command-line interface: flags, exit codes, reports and output files."""
import subprocess
import sys

import numpy as np
import pytest

import darcydd.cli as cli_module
from darcydd.assembly import assemble
from darcydd.cli import (
    CSV_HEADER,
    RunConfig,
    SUITES,
    build_parser,
    main,
    report_csv,
    run,
    run_suite,
)
from darcydd.errors import ConfigurationError
from darcydd.mesh import (
    BCSpec,
    Mesh,
    generate_cross_fracture_cube,
    generate_unit_square,
    write_mesh,
)
from darcydd.partition import (
    classify_interface,
    partition_elements,
    select_corners,
)

from support import numbering_contract


def cli(*args):
    """Run ``main`` in a subprocess, as the ``darcydd`` entry point does; CI
    runs the installed script itself."""
    code = "import sys; from darcydd.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


# ---------------------------------------------------------------------------
# argument parsing


def test_parser_defaults():
    given = vars(build_parser().parse_args(["--gen", "square"]))
    assert given == {"gen": "square"}  # no suite, not quiet
    config = RunConfig(**given)
    assert config.gen == "square"
    assert config.mesh_path is None
    assert (config.n, config.n_sub) == (8, 4)
    assert config.scaling == "arithmetic"
    assert config.corners is True
    assert config.edge_averages is True
    assert config.rel_tol == 1e-7
    assert config.max_iter == 5000
    assert not config.oracle
    assert config.csv_path is None and config.solution_path is None
    assert config.threads == 1


def test_parser_full_flags(tmp_path):
    given = vars(build_parser().parse_args([
        "--gen", "fracture-cube", "--n", "4", "--nsub", "8",
        "--scaling", "diag", "--corners", "off", "--edge-averages", "off",
        "--tol", "1e-9", "--max-iter", "100", "--oracle",
        "--csv", str(tmp_path / "t.csv"), "--solution", str(tmp_path / "s.txt"),
        "--threads", "2", "--quiet",
    ]))
    assert given.pop("quiet")
    config = RunConfig(**given)
    assert config.n_sub == 8
    assert config.scaling == "diag"
    assert config.corners is False and config.edge_averages is False
    assert config.rel_tol == 1e-9 and config.max_iter == 100
    assert config.oracle
    assert config.csv_path == str(tmp_path / "t.csv")
    assert config.solution_path == str(tmp_path / "s.txt")
    assert config.threads == 2


def test_suite_excludes_other_mesh_sources(capsys):
    for source in (["--mesh", "nonexistent.msh"], ["--gen", "square"]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--suite", "corner-study", *source])
        assert exc.value.code == 3
        assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [
        ("--n", "4"),
        ("--nsub", "3"),
        ("--scaling", "diag"),
        ("--corners", "off"),
        ("--edge-averages", "off"),
        ("--tol", "0.5"),
        ("--max-iter", "10"),
        ("--oracle",),
        ("--solution", "out.txt"),
    ],
    ids=lambda flag: flag[0],
)
def test_suite_refuses_flags_it_would_ignore(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "cube-weak", "--quiet", *flag])
    assert exc.value.code == 3
    assert f"{flag[0]} not allowed with argument --suite" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def test_suite_takes_csv_threads_and_quiet(tmp_path, monkeypatch, capsys):
    """Every suite entry runs with the given thread count."""
    seen = []

    def recording_run(config, quiet=False):
        seen.append(config)
        return run(config, quiet=quiet)

    monkeypatch.setattr(cli_module, "run", recording_run)
    csv = tmp_path / "suite.csv"
    argv = ["--suite", "cube-weak", "--csv", str(csv), "--threads", "2", "--quiet"]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert seen == [RunConfig(**o, threads=2) for o in SUITES["cube-weak"]]
    assert len(csv.read_text().strip().splitlines()) == 1 + len(seen)


def test_mesh_refuses_n(tmp_path, capsys):
    path = tmp_path / "square.msh"
    write_mesh(generate_unit_square(2), str(path))
    with pytest.raises(SystemExit) as exc:
        main(["--mesh", str(path), "--n", "4", "--quiet"])
    assert exc.value.code == 3
    assert "--n not allowed with argument --mesh" in capsys.readouterr().err


def test_config_validation_messages():
    with pytest.raises(ConfigurationError, match="mesh source"):
        RunConfig().validate()
    with pytest.raises(ConfigurationError, match="mesh source"):
        RunConfig(gen="square", mesh_path="x").validate()
    with pytest.raises(ConfigurationError, match="tol"):
        RunConfig(gen="square", rel_tol=2.0).validate()
    with pytest.raises(ConfigurationError, match="threads"):
        RunConfig(gen="square", threads=0).validate()


# ---------------------------------------------------------------------------
# exit codes, through real subprocesses


def test_exit_zero_with_outputs(tmp_path):
    csv = tmp_path / "report.csv"
    solution = tmp_path / "solution.txt"
    proc = cli(
        "--gen", "square", "--n", "6", "--nsub", "2", "--quiet",
        "--csv", str(csv), "--solution", str(solution),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert csv.exists() and solution.exists()


def test_exit_two_on_iteration_budget():
    proc = cli(
        "--gen", "square", "--n", "16", "--nsub", "4",
        "--tol", "1e-13", "--max-iter", "2", "--quiet",
    )
    assert proc.returncode == 2
    assert "tolerance" in proc.stderr


def test_exit_two_on_stagnation():
    """A tolerance below rounding: the true residual stagnates above it and
    the solve stops long before the default 5000-iteration budget."""
    proc = cli("--gen", "square", "--n", "6", "--nsub", "4", "--tol", "1e-17")
    assert proc.returncode == 2
    assert "stagnated" in proc.stderr
    line = next(x for x in proc.stdout.splitlines() if x.startswith("pcg:"))
    assert int(line.split(" in ")[1].split()[0]) < 100


def test_exit_three_on_bad_configuration(tmp_path):
    assert cli("--gen", "fracture-cube", "--n", "3", "--quiet").returncode == 3
    assert cli("--gen", "square", "--scaling", "best").returncode == 3
    assert cli().returncode == 3  # no mesh source at all
    assert cli("--gen", "square", "--mesh", "x").returncode == 3
    assert cli("--frobnicate").returncode == 3
    assert cli("--mesh", str(tmp_path / "missing.msh")).returncode == 3


def test_exit_four_on_singular_system(tmp_path):
    sealed = generate_unit_square(2, bc_spec=BCSpec(rules=()))
    path = tmp_path / "sealed.msh"
    write_mesh(sealed, str(path))
    proc = cli("--mesh", str(path), "--nsub", "2", "--quiet")
    assert proc.returncode == 4
    assert "error" in proc.stderr


# ---------------------------------------------------------------------------
# reports


def test_csv_header_and_row_shape(tmp_path):
    csv = tmp_path / "r.csv"
    config = RunConfig(gen="square", n=6, n_sub=2, csv_path=str(csv))
    result = run(config, quiet=True)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "N,n,n/N,n_Gamma,n_f,n_c,its.,cond.,set-up,PCG,solve"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert len(cells) == 11
    assert int(cells[0]) == 2
    assert int(cells[1]) == result.report.n
    assert float(cells[2]) == pytest.approx(result.report.n / 2, abs=0.05)
    assert int(cells[6]) == result.report.iterations
    assert float(cells[7]) == pytest.approx(result.report.condition, abs=0.01)
    for j in (8, 9, 10):
        assert float(cells[j]) >= 0.0


def test_report_counts_cross_checked(frac2):
    result = run(RunConfig(gen="fracture-cube", n=2, n_sub=4), quiet=True)
    system = assemble(frac2)
    partition = partition_elements(frac2, 4)
    layout = classify_interface(system, partition)
    report = result.report
    assert report.n == system.n_total
    assert report.n_gamma == layout.n_interface
    assert report.n_face_globs == layout.n_face_globs
    assert report.n_corners == len(select_corners(layout))
    assert report.converged
    assert result.residual <= 1e-6


def test_thread_and_rerun_determinism(tmp_path):
    base = dict(gen="fracture-cube", n=2, n_sub=4, rel_tol=1e-9)
    runs = [
        run(RunConfig(**base, threads=1, csv_path=str(tmp_path / "a.csv")), quiet=True),
        run(RunConfig(**base, threads=2, csv_path=str(tmp_path / "b.csv")), quiet=True),
        run(RunConfig(**base, threads=1, csv_path=str(tmp_path / "c.csv")), quiet=True),
    ]
    sols = [r.solution.concatenated() for r in runs]
    assert np.array_equal(sols[0], sols[1])
    assert np.array_equal(sols[0], sols[2])
    assert len({r.report.iterations for r in runs}) == 1
    assert len({r.report.condition for r in runs}) == 1
    tables = [
        (tmp_path / f"{k}.csv").read_text().strip().splitlines()[1].split(",")
        for k in ("a", "b", "c")
    ]
    for row in tables[1:]:
        assert row[:8] == tables[0][:8]  # all but the timing columns


def test_solution_file_layout(tmp_path):
    solution = tmp_path / "s.txt"
    result = run(
        RunConfig(gen="square", n=4, n_sub=2, solution_path=str(solution)),
        quiet=True,
    )
    lines = solution.read_text().splitlines()
    system = result.system
    assert lines[0] == "$pressure"
    p_rows = lines[1 : 1 + system.n_pressure]
    assert lines[1 + system.n_pressure] == "$end"
    assert lines[2 + system.n_pressure] == "$flux"
    u_rows = lines[3 + system.n_pressure : 3 + system.n_pressure + system.n_velocity]
    assert lines[-1] == "$end"
    assert len(u_rows) == system.n_velocity
    for e, row in enumerate(p_rows):
        tok = row.split()
        assert int(tok[0]) == e
        assert float(tok[1]) == result.solution.p[e]
    assert {len(r.split()) for r in u_rows} == {3}
    contract = numbering_contract(system.mesh)
    for v, row in enumerate(u_rows):
        e, lf, value = row.split()
        assert (int(e), int(lf)) == contract.side_of_vel[v]
        assert float(value) == result.solution.u[v]


def test_oracle_smoke():
    result = run(
        RunConfig(gen="square", n=6, n_sub=2, rel_tol=1e-8, oracle=True),
        quiet=True,
    )
    assert result.discrepancy is not None
    assert result.discrepancy <= 1e-6


def test_single_substructure_direct_path():
    result = run(RunConfig(gen="square", n=4, n_sub=1), quiet=True)
    assert result.report.iterations == 0
    assert result.report.condition == 1.0
    assert result.report.converged
    assert result.residual <= 1e-10


def test_suites_are_well_formed():
    assert set(SUITES) == {
        "square-weak",
        "cube-weak",
        "fracture-strong",
        "corner-study",
        "scaling-study",
    }
    for name, table in SUITES.items():
        configs = [RunConfig(**overrides) for overrides in table]
        assert configs, name
        assert any(c.oracle for c in configs), name
        for c in configs:
            c.validate()


def test_run_suite_smoke(tmp_path):
    csv = tmp_path / "suite.csv"
    results = run_suite("cube-weak", csv_path=str(csv), quiet=True)
    assert len(results) == 3
    assert all(r.report.converged for r in results)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    with pytest.raises(ConfigurationError, match="unknown suite"):
        run_suite("warmup")


@pytest.mark.parametrize("source", ["gen", "file"])
def test_run_builds_no_element_records(tmp_path, monkeypatch, source):
    """Reading or generating, assembling, partitioning and solving work
    on the mesh arrays alone."""
    config = RunConfig(gen="fracture-cube", n=2, n_sub=4, oracle=True)
    if source == "file":
        path = tmp_path / "frac.msh"
        write_mesh(generate_cross_fracture_cube(2), str(path))
        config = RunConfig(mesh_path=str(path), n_sub=4, oracle=True)

    def refuse(mesh):
        raise AssertionError("Mesh.elements built on the solve path")

    monkeypatch.setattr(Mesh, "elements", property(refuse))
    result = run(config, quiet=True)
    assert result.report.converged


def test_report_csv_multiline():
    results = [
        run(RunConfig(gen="square", n=4, n_sub=k), quiet=True) for k in (1, 2)
    ]
    table = report_csv([r.report for r in results])
    lines = table.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"
    assert lines[2].split(",")[0] == "2"


def test_main_inprocess_quiet(capsys, tmp_path):
    code = main(["--gen", "square", "--n", "4", "--nsub", "2", "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
    code = main(["--gen", "square", "--n", "4", "--nsub", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pcg: converged" in out
    assert "residual" in out
