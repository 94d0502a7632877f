"""darcydd benchmark: seeded mesh files in, verified solutions out.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fracture-contrast --seed 1 --seconds 50 --trace 0

The run writes the workload's seeded mesh files under ``.perfbench/``,
self-tests the benchmark pipeline against ``darcydd.cli.run``, then solves
the files one after another for ``--seconds`` seconds (untraced, every file
at least once) and checks each solution. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` solves alternate untraced and traced, the metrics are
the per-layer ones, and the spans are written to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
# A run stops starting solves after this long even if some files are left,
# so it ends well within three minutes on a slow machine.
MAX_LOOP_S = 120.0


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "darcydd" / "__init__.py").is_file():
        return _fail(f"no darcydd sources under {ROOT / 'src'}")
    if not spec_path.is_file():
        return _fail(f"{spec_path} is missing")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    # Workloads run darcydd with one thread; keep BLAS to one as well. Set
    # before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = json.loads(spec_path.read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        return _fail("BENCHMARK.json and workloads.py list different workloads")
    if args.workload not in WORKLOADS:
        return _fail(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    return run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), wanted
    )


def run_workload(wl, seed: int, seconds: float, trace: bool, wanted: list[dict]) -> int:
    import pipeline
    from tracing import Tracer
    from workloads import sha256, write_meshes

    WORKDIR.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    problems: list[str] = []
    try:
        problems += pipeline.self_test(wl, seed, WORKDIR, tracer)
    except Exception:
        traceback.print_exc()
        problems.append("self-test raised")
    if tracer is not None:
        tracer.spans.clear()
    stem = f"{wl.name}-seed{seed}"
    paths = write_meshes(wl, wl.n, seed, wl.files, WORKDIR, stem)
    print(f"workload {wl.name} seed {seed}: {len(paths)} mesh files")
    for p in paths:
        print(f"  {p.name} sha256 {sha256(p)}")
    try:
        run = _solve_loop(wl, paths, seconds, tracer, problems)
    finally:
        for p in paths:
            p.unlink()
    if run is None:
        print("error: no solve succeeded", file=sys.stderr)
        return 1
    if tracer is None:
        values, samples = _end_to_end(run)
    else:
        values, samples = _per_layer(run)
        trace_path = WORKDIR / f"trace-{stem}.json"
        trace_path.write_text(
            json.dumps({"workload": wl.name, "seed": seed, "spans": tracer.to_json()})
        )
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        print(
            f"error: metrics {sorted(set(values) ^ set(names))} are not both "
            f"computed and listed in BENCHMARK.json",
            file=sys.stderr,
        )
        return 1
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted, failed = run["attempted"], run["failed"]
    print(f"solves: {attempted} attempted, {failed} failed, fail_rate {failed / attempted:g}")
    for m in wanted:
        n = samples.get(m["name"])
        note = f" (n={n})" if n else ""
        print(f"  {m['name']:<26} {values[m['name']]:.6g} {m['unit']}{note}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


def _solve_loop(wl, paths, seconds, tracer, problems) -> dict | None:
    """Solve the files in turn until ``seconds`` have passed and, untraced,
    every file was solved once. Check each solve, then compare the last one
    with the direct solver. None when no solve succeeded."""
    import pipeline

    attempted = failed = 0
    untraced: list[dict[str, float]] = []  # timings of untraced solves
    traced: list[dict[str, float]] = []  # per-layer metrics of traced solves
    pair_diffs: list[float] = []
    per_file: dict[int, tuple[int, float]] = {}
    job_s: list[float] = []
    # untraced runs solve every file, as iterations and condition average
    # over all of them; traced runs only need one pair
    min_jobs = len(paths) if tracer is None else 1
    last = None
    peak_rss_mb = None
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if k >= min_jobs and elapsed + statistics.median(job_s) > seconds:
            break
        if elapsed > MAX_LOOP_S:
            print(f"warning: stopped after {elapsed:.0f} s, before every file was solved",
                  file=sys.stderr)
            break
        t_job = time.perf_counter()
        index = k % len(paths)
        # Traced runs pair every traced solve with an untraced one of the
        # same file, alternating which goes first.
        modes = (False,) if tracer is None else ((False, True) if k % 2 else (True, False))
        done = {}
        for use_trace in modes:
            # drop the previous solve before the next one starts
            last = res = None
            gc.collect()
            attempted += 1
            if use_trace:
                tracer.solve_id = attempted
            try:
                res = pipeline.solve_file(paths[index], wl, tracer if use_trace else None)
                verdict, wrong = pipeline.check_solve(res, wl, index, per_file)
            except Exception as exc:
                traceback.print_exc()
                verdict, wrong = f"raised {exc!r}", False
            if verdict is not None:
                failed += 1
                print(f"solve {attempted} ({paths[index].name}) failed: {verdict}",
                      file=sys.stderr)
                if wrong:
                    problems.append(f"{paths[index].name}: {verdict}")
                continue
            last = res
            done[use_trace] = res.solve_s
            print(
                f"solve {attempted} {paths[index].name}{' traced' if use_trace else ''}: "
                f"solve {res.solve_s:.3f} s, set-up {res.setup_s:.3f} s, "
                f"pcg {res.pcg_s:.3f} s, {res.report.iterations} its, "
                f"condition {res.report.condition:.4f}"
            )
            if use_trace:
                traced.append(pipeline.layer_metrics(tracer.of_solve(attempted), res.sizes))
            else:
                untraced.append(
                    {"solve_s": res.solve_s, "setup_s": res.setup_s, "pcg_s": res.pcg_s}
                )
        if peak_rss_mb is None:
            # High-water mark of one solve, as a single darcydd run sees it.
            # Later solves would raise it further: on the sparse LU path the
            # process keeps some native memory per solve.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(done) == 2:
            pair_diffs.append(done[True] - done[False])
        job_s.append(time.perf_counter() - t_job)
        k += 1

    if last is not None:
        disc = pipeline.direct_discrepancy(last.system, last.solution)
        print(f"direct solve: max relative discrepancy {disc:.3e} "
              f"(limit {wl.discrepancy_limit:.0e})")
        if not disc <= wl.discrepancy_limit:
            problems.append(f"discrepancy {disc:.3e} to the direct solve "
                            f"exceeds {wl.discrepancy_limit:.0e}")
    else:
        print("direct solve: skipped, the last solve failed")
    if not untraced or (tracer is not None and not traced):
        return None
    return {
        "attempted": attempted,
        "failed": failed,
        "untraced": untraced,
        "traced": traced,
        "pair_diffs": pair_diffs,
        "per_file": per_file,
        "peak_rss_mb": peak_rss_mb,
    }


def _end_to_end(run: dict) -> tuple[dict[str, float], dict[str, int]]:
    solves, per_file = run["untraced"], run["per_file"]
    values = {
        name: statistics.median(r[name] for r in solves)
        for name in ("solve_s", "setup_s", "pcg_s")
    }
    values.update({
        # each file's counts are exact; the mean over files damps the
        # seed-to-seed spread of a single field
        "iterations": statistics.fmean(its for its, _ in per_file.values()),
        "condition": statistics.fmean(cond for _, cond in per_file.values()),
        "peak_rss_mb": run["peak_rss_mb"],
        # fail_rate is 0 at the seed commit, which a relative bound cannot
        # compare; its complement carries the same information
        "success_rate": (run["attempted"] - run["failed"]) / run["attempted"],
    })
    samples = dict.fromkeys(("solve_s", "setup_s", "pcg_s"), len(solves))
    samples.update(dict.fromkeys(("iterations", "condition"), len(per_file)))
    return values, samples


def _per_layer(run: dict) -> tuple[dict[str, float], dict[str, int]]:
    import pipeline

    per_solve = run["traced"]
    values = {
        name: statistics.median(m[name] for m in per_solve) for name in per_solve[0]
    }
    # traced minus untraced solve of the same file, median over the pairs
    values["trace.overhead_s"] = (
        statistics.median(run["pair_diffs"]) if run["pair_diffs"] else 0.0
    )
    # Per traced solve, the layers' self times plus the root's unattributed
    # time account for the traced solve time.
    gap = max(
        abs(
            sum(m[f"{layer}.self_s"] for layer in pipeline.LAYERS)
            + m["trace.unattributed_s"] - m["trace.solve_s"]
        )
        for m in per_solve
    )
    print(
        f"self-time account over {len(per_solve)} traced solves: layer self "
        f"times + unattributed match the traced solve to {gap:.1e} s"
    )
    for layer in pipeline.LAYERS:
        print(f"  {layer + '.self_s':<26} median {values[layer + '.self_s']:.4f} s")
    return values, dict.fromkeys(values, len(per_solve))


if __name__ == "__main__":
    sys.exit(main())
