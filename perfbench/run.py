#!/usr/bin/env python3
"""rigidres benchmark: one workload per process, driven as users drive it.

    python3 perfbench/run.py --workload betti-ladder --seed 1 --seconds 25 --trace 0

Jobs call ``rigidres.cli.main(argv)`` in this process on generated
``.ideal`` files; ``frame-check`` is the library step ``build_frame`` +
``verify_frame(frame, ambient=L)``.  The job list of a run is fixed by
the workload and the seed, and every job in it is a distinct
(command, input, characteristic) triple, so per-command totals compare
across versions of the program.  ``--seconds`` is the length the job
lists are sized for: a job gets at most twice that before it is stopped
by SIGALRM and counted as failed, and jobs not started by the run
deadline count as failed too.

Each output is checked after the timed phase against a route that does
not share the code under test: the Taylor-complex oracle, brute-force
lcm supports, and rigidity read off the oracle's table.

Times are scaled to a nominal host speed by reference samples taken
in the timed pass and around each set-up (see ``hostref.py``); the raw
wall times are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the job
list once untraced and once with spans around rigidres's public
functions (see ``spans.py``) and prints the per-layer metrics.  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostref
import ladder
import spans

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ("betti-ladder", "resolve-verify", "deform-scan")
CHARS = (0, 2)
SETUP_REPEATS = 5
# Imports rigidres.cli from the source tree in argv[1] and prints the
# seconds the import took.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import rigidres.cli; "
                "print(time.perf_counter() - t)")
# Wall-clock limits from process start, so a run always exits in time.
DEADLINE_S = {0: 150.0, 1: 165.0}
TRACED_BUDGET_FACTOR = 4

# The command family whose total wall time each job adds to.
FAMILY = {
    "betti-numbers": "betti_cmd_s",
    "is-rigid": "betti_cmd_s",
    "taylor": "taylor_cmd_s",
    "resolve": "resolve_cmd_s",
    "relabel": "resolve_cmd_s",
    "verify": "verify_cmd_s",
    "frame-check": "frame_check_s",
    "deform-search": "deform_cmd_s",
    "deform-simplicial": "deform_cmd_s",
    "compare": "deform_cmd_s",
}
CMD_METRICS = tuple(dict.fromkeys(FAMILY.values()))


class OverBudget(Exception):
    """Raised by the SIGALRM handler inside a job that ran too long."""


def _alarm(signum, frame):
    raise OverBudget()


# --------------------------------------------------------------------------
# inputs

def make_inputs(workload, seed):
    """Name → ideal for one workload, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")

    def fixture(name, txt):
        return name, ladder.relabel(ladder.parse(txt), rng)

    if workload == "betti-ladder":
        items = [(f"C{n}", ladder.relabel(ladder.cycle_edge_ideal(n), rng))
                 for n in range(6, 11)]
        for n, d in ((6, 4), (7, 4), (8, 4), (9, 3)):
            items.append((f"generic{n}v{d}",
                          ladder.strongly_generic(rng, n, d)))
    elif workload == "resolve-verify":
        items = [(f"C{n}", ladder.relabel(ladder.cycle_edge_ideal(n), rng))
                 for n in (7, 8)]
        items += [fixture("boolean5", ladder.BOOLEAN5),
                  fixture("twinA", ladder.TWIN_A),
                  fixture("twinB", ladder.TWIN_B),
                  fixture("squarefree17", ladder.SQUAREFREE17)]
        for n, k in ((7, 1), (7, 2), (8, 1), (8, 2)):
            items.append((f"generic{n}v4-{k}",
                          ladder.strongly_generic(rng, n, 4)))
    else:
        items = [fixture("hexagon", ladder.HEXAGON),
                 fixture("twinA", ladder.TWIN_A),
                 fixture("twinB", ladder.TWIN_B),
                 fixture("squarefree17", ladder.SQUAREFREE17)]
        items += [(name, ladder.parse(txt))
                  for name, txt, _ in ladder.SIMPLICIAL_CASES]
    return dict(items)


def write_inputs(inputs, directory):
    directory.mkdir(parents=True, exist_ok=True)
    for name, ideal in inputs.items():
        (directory / f"{name}.ideal").write_text(ladder.text(ideal) + "\n")
    (directory / "warmup.ideal").write_text(ladder.WARMUP + "\n")


# --------------------------------------------------------------------------
# jobs

@dataclass
class Result:
    exit: int = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    wall: float = 0.0
    error: str = None


@dataclass
class Job:
    command: str
    input: str
    char: int
    argv: list = None  # for CLI jobs
    call: object = None  # for library jobs: () -> (exit code, value)
    output: Path = None
    check: object = None  # (Job, Result, Oracle) -> error text or None
    result: Result = field(default_factory=Result)

    @property
    def label(self):
        return f"{self.command} {self.input} char {self.char}"


def frame_check(path, char):
    """The build_frame + verify_frame(frame, ambient=L) step of
    scripts/resolve_demo.py, from an .ideal file."""
    import rigidres as R

    F = R.FieldSpec(char)
    L = R.lcm_lattice(R.parse_ideal(Path(path).read_text()))
    B = R.betti_poset(L, F)
    frame = R.build_frame(B, F)
    report = R.verify_frame(frame, ambient=L)
    return (0 if report.ok else 2), frame.ranks()


def build_jobs(workload, inputs, indir, outdir):
    """The timed job list of one pass, outputs under outdir."""
    outdir.mkdir(parents=True, exist_ok=True)
    ideal = {name: str(indir / f"{name}.ideal") for name in inputs}
    jobs = []
    if workload == "betti-ladder":
        for name in inputs:
            for command, extra in (("betti-numbers", ["--json"]),
                                   ("is-rigid", []), ("taylor", ["--json"])):
                for c in CHARS:
                    out = outdir / f"{command}-{name}-{c}.out"
                    jobs.append(Job(
                        command, name, c, output=out, check=check_betti_ladder,
                        argv=[command, ideal[name], *extra, "--char", str(c),
                              "-o", str(out)]))
    elif workload == "resolve-verify":
        for name in inputs:
            for c in CHARS:
                ch = ["--char", str(c)]
                res = outdir / f"{name}-{c}.res"
                jobs.append(Job("resolve", name, c, output=res,
                                check=check_resolution,
                                argv=["resolve", ideal[name], *ch,
                                      "-o", str(res)]))
                jobs.append(Job("verify", name, c, check=check_exit_zero,
                                argv=["verify", str(res), *ch]))
            jobs.append(Job("frame-check", name, 0,
                            call=lambda p=ideal[name]: frame_check(p, 0),
                            check=check_frame))
        for c in CHARS:
            res = outdir / f"twinA-twinB-{c}.res"
            jobs.append(Job("relabel", "twinA->twinB", c, output=res,
                            check=check_resolution,
                            argv=["relabel", ideal["twinA"], ideal["twinB"],
                                  "--char", str(c), "-o", str(res)]))
    else:
        for c in CHARS:
            ch = ["--char", str(c)]
            # The hexagon's budget-2 scan (630 augmentations) runs in
            # characteristic 2 only; in characteristic 0 it takes 24 s, so
            # there the scan has budget 1 (35 augmentations).
            hexagon = 2 if c == 2 else 1
            for name, budget in (("hexagon", hexagon), ("twinA", 1),
                                 ("twinB", 1), ("squarefree17", 1)):
                jobs.append(Job("deform-search", name, c,
                                check=check_deform_search,
                                argv=["deform-search", ideal[name],
                                      "--budget", str(budget), *ch]))
            for name, _, facets in ladder.SIMPLICIAL_CASES:
                out = outdir / f"deform-simplicial-{name}-{c}.lattice"
                extra = ["--facets", facets] if facets else []
                jobs.append(Job("deform-simplicial", name, c, output=out,
                                check=check_deform_simplicial,
                                argv=["deform-simplicial", ideal[name],
                                      *extra, *ch, "-o", str(out)]))
            jobs.append(Job("compare", "twinA,twinB", c, check=check_compare,
                            argv=["compare", "--join-preserving",
                                  ideal["twinA"], ideal["twinB"], *ch]))
    labels = [(j.command, j.input, j.char) for j in jobs]
    if len(set(labels)) != len(labels):
        raise AssertionError("job triples must be distinct within a run")
    return jobs


def warmup_jobs(workload, indir, outdir):
    """One untimed job per command of the workload, on a small input
    that no timed job uses."""
    outdir.mkdir(parents=True, exist_ok=True)
    warm = str(indir / "warmup.ideal")
    if workload == "betti-ladder":
        argvs = [["betti-numbers", warm, "--json"], ["is-rigid", warm],
                 ["taylor", warm, "--json"]]
    elif workload == "resolve-verify":
        res = str(outdir / "warmup.res")
        argvs = [["resolve", warm, "-o", res],
                 ["verify", res, "--char", "0"],
                 ["relabel", warm, warm, "-o", str(outdir / "relabel.res")]]
    else:
        argvs = [["deform-search", warm, "--budget", "1"],
                 ["deform-simplicial", warm, "--facets", "1,2"],
                 ["compare", "--join-preserving", warm, warm]]
    jobs = [Job(a[0], "warmup", 0, argv=a) for a in argvs]
    if workload == "resolve-verify":
        jobs.append(Job("frame-check", "warmup", 0,
                        call=lambda: frame_check(warm, 0)))
    return jobs


def run_job(job, cli, budget, tracer=None):
    """Run one job under a SIGALRM budget; fills job.result."""
    r = job.result = Result()
    if tracer is not None:
        tracer.begin_job(job.label)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                if job.call is not None:
                    r.exit, r.value = job.call()
                else:
                    r.exit = cli.main(job.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        r.error = f"over budget ({budget:.1f} s)"
    except Exception as exc:  # a crashing job is a failure, not the end
        r.error = f"{type(exc).__name__}: {exc}"
    r.wall = time.perf_counter() - start
    r.stdout, r.stderr = out.getvalue(), err.getvalue()
    if (tracer is not None and job.command in ("resolve", "relabel")
            and job.output is not None and job.output.exists()):
        tracer.count("cli.res_bytes", job.output.stat().st_size)
    return r


def run_pass(jobs, cli, budget, deadline, tracer=None, clock=None):
    """Run every job in order; returns the summed wall time of the jobs,
    less the time a running host clock spent sampling inside them."""
    for job in jobs:
        left = deadline - time.perf_counter()
        if left <= 0:
            job.result = Result(error="not started before the run deadline")
            continue
        paused = clock.paused if clock is not None else 0.0
        run_job(job, cli, min(budget, left), tracer)
        if clock is not None:
            job.result.wall -= clock.paused - paused
    return sum(job.result.wall for job in jobs)


# --------------------------------------------------------------------------
# checks (outside the timed region)

class Oracle:
    """Expected values from routes independent of the code under test."""

    def __init__(self, inputs):
        self.inputs = inputs
        self._taylor = {}

    def taylor(self, ideal, char):
        """The Taylor-complex Betti table as the CLI's JSON payload."""
        key = (ladder.text(ideal), char)
        if key not in self._taylor:
            from rigidres import FieldSpec, parse_ideal, taylor_betti

            table = taylor_betti(parse_ideal(key[0]), FieldSpec(char))
            self._taylor[key] = table.to_json_dict()
        return self._taylor[key]

    def totals(self, name, char):
        return self.taylor(self.inputs[name], char)["totals"]


def _read_json(path):
    return json.loads(Path(path).read_text())


def _expect_exit(result, code):
    if result.exit != code:
        tail = (result.stderr or result.stdout).strip().splitlines()[-1:]
        return f"exit {result.exit}, expected {code} {tail}"
    return None


def check_exit_zero(job, result, oracle):
    return _expect_exit(result, 0)


def check_betti_ladder(job, result, oracle):
    table = oracle.taylor(oracle.inputs[job.input], job.char)
    if job.command == "is-rigid":
        rigid = ladder.rigid_from_table(table)
        err = _expect_exit(result, 0 if rigid else 2)
        if err is None and job.output.read_text().startswith(
                "rigid") != rigid:
            err = "verdict text disagrees with the exit code"
        return err
    err = _expect_exit(result, 0)
    if err is None and _read_json(job.output) != table:
        err = "table differs from the Taylor oracle"
    return err


def check_resolution(job, result, oracle):
    err = _expect_exit(result, 0)
    if err is not None:
        return err
    target = job.input.split("->")[-1]
    payload = _read_json(job.output)
    ranks = [len(m) for m in payload["modules"]]
    if ranks != oracle.totals(target, job.char):
        return f"ranks {ranks} differ from the Taylor totals"
    first = sorted(tuple(m["degree"]) for m in payload["modules"][1])
    if first != sorted(oracle.inputs[target][1]):
        return "position-1 degrees are not the generators"
    return None


def check_frame(job, result, oracle):
    err = _expect_exit(result, 0)
    if err is None and list(result.value) != oracle.totals(job.input,
                                                           job.char):
        err = f"frame ranks {result.value} differ from the Taylor totals"
    return err


def _totals_after(line, marker):
    return [int(x) for x in line.split(marker, 1)[1].strip().split(",")]


def check_deform_search(job, result, oracle):
    err = _expect_exit(result, 2)
    if err is not None:
        return err
    ideal = oracle.inputs[job.input]
    budget = int(job.argv[job.argv.index("--budget") + 1])
    lines = result.stdout.splitlines()
    base = _totals_after(lines[0], "base totals:")
    if base != oracle.totals(job.input, job.char):
        return f"base totals {base} differ from the Taylor totals"
    expected = ladder.augmentation_count(ideal, budget)
    scanned = [ln for ln in lines if ln.startswith("scanned ")]
    if scanned != [f"scanned {expected} augmentations:"]:
        return f"{scanned}, expected {expected} augmentations"
    if job.input == "hexagon":
        entries = [_totals_after(ln, "totals") for ln in lines
                   if ln.startswith("  +")]
        if len(entries) != expected or any(sum(t) <= sum(base)
                                           for t in entries):
            return "some augmentation does not raise the Betti totals"
    return None


def check_deform_simplicial(job, result, oracle):
    err = _expect_exit(result, 0)
    if err is not None:
        return err
    if ("certificate: rigid=yes betti-preserved=yes relabel-verified=yes"
            not in result.stdout):
        return "certificate not all yes"
    payload = _read_json(job.output)
    gens = [tuple(deg) for s, deg in zip(payload["supports"],
                                         payload["degrees"]) if len(s) == 1]
    width = len(gens[0])
    target = (tuple(f"y{j:02d}" for j in range(width)), tuple(gens))
    if (oracle.taylor(target, job.char)["totals"]
            != oracle.totals(job.input, job.char)):
        return "target ideal's Taylor totals differ from the source's"
    return None


def check_compare(job, result, oracle):
    err = _expect_exit(result, 2)
    if err is None and ("first -> second: none" not in result.stdout
                        or "second -> first: none" not in result.stdout):
        err = "the twins admit a join-preserving map"
    return err


def check_pass(jobs, oracle):
    """Check every job's output; returns the number of failed jobs."""
    failed = 0
    for job in jobs:
        r = job.result
        err = r.error
        if err is None:
            try:
                err = job.check(job, r, oracle)
            except Exception as exc:  # unreadable output is a failure
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            r.error = err
            failed += 1
            print(f"FAILED {job.label}: {err}")
    return failed


# --------------------------------------------------------------------------
# the run

def import_program():
    """Import rigidres.cli from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rigidres.cli as cli
    except ImportError as err:
        print(f"error: cannot import rigidres from {src}: {err}",
              file=sys.stderr)
        sys.exit(2)
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"error: rigidres was imported from {cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)
    return cli


def prepare(workload, seed, cli, budget, run_dir):
    """One set-up: draw and write the inputs, then run the warm-ups."""
    inputs = make_inputs(workload, seed)
    indir = run_dir / "in"
    write_inputs(inputs, indir)
    for job in warmup_jobs(workload, indir, run_dir / "warm"):
        r = run_job(job, cli, budget)
        if r.error is not None or r.exit != 0:
            print(f"warm-up {job.label}: exit {r.exit}, {r.error}")
    return inputs, indir


def import_seconds():
    """Seconds to import rigidres.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                           str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout)


def command_totals(jobs):
    totals, counts = {}, {}
    for job in jobs:
        name = FAMILY[job.command]
        totals[name] = totals.get(name, 0.0) + job.result.wall
        counts[name] = counts.get(name, 0) + 1
    return totals, counts


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, overhead, totals):
    """The per-layer metrics of a traced run.  A traced name that no
    longer exists in the program reads 0 and is listed as absent."""
    layer = tracer.metrics()
    absent = sorted(name for name, (value, _) in layer.items()
                    if value is None)
    print(f"absent: {' '.join(absent) or 'none'}")
    metrics = {name: metric(layer[name][0] or 0, unit)
               for name, unit, _ in spans.metric_specs()}
    metrics["trace_overhead_ratio"] = metric(overhead, "ratio")
    for name in CMD_METRICS:
        metrics[name] = metric(totals.get(name, 0.0), "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length the job lists are sized for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("RIGIDRES_WORKERS", None)
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print(f"env python {platform.python_version()} nproc {os.cpu_count()} "
          f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}")

    cli = import_program()
    signal.signal(signal.SIGALRM, _alarm)
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        return run(args, cli, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, cli, run_dir):
    """Set up SETUP_REPEATS times, run the timed pass (and the traced
    one), check every output and print the result line.

    A set-up is a fresh interpreter's import of rigidres.cli plus one
    preparation, and is scaled by the host reference samples around
    it."""
    budget = 2.0 * args.seconds
    imports, preps = [], []
    with hostref.HostClock(interval=None) as setup_clock:
        for k in range(SETUP_REPEATS):
            imports.append(import_seconds())
            t0 = time.perf_counter()
            inputs, indir = prepare(args.workload, args.seed, cli, budget,
                                    run_dir / f"setup{k}")
            preps.append(time.perf_counter() - t0)
            setup_clock.cut()
    setups = [i + p for i, p in zip(imports, preps)]
    norm_setups = [s * setup_clock.scale(k) for k, s in enumerate(setups)]
    setup_s = statistics.median(norm_setups)
    for name, ideal in inputs.items():
        print(f"input {name} sha256:{ladder.digest(ideal)} "
              f"{len(ideal[1])} gens {len(ideal[0])} vars: "
              f"{ladder.text(ideal)}")

    deadline = T_START + DEADLINE_S[args.trace]
    jobs = build_jobs(args.workload, inputs, indir, run_dir / "out0")
    with hostref.HostClock() as clock:
        wall = run_pass(jobs, cli, budget, deadline, clock=clock)
    norm = sum(clock.normalised())
    passes = [jobs]

    tracer = None
    if args.trace:
        traced = build_jobs(args.workload, inputs, indir, run_dir / "out1")
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_wall = run_pass(traced, cli,
                                   TRACED_BUDGET_FACTOR * budget, deadline,
                                   tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)

    oracle = Oracle(inputs)
    attempted = sum(len(p) for p in passes)
    failed = sum(check_pass(p, oracle) for p in passes)
    good = len(jobs) - sum(1 for j in jobs if j.result.error is not None)

    for job in jobs:
        print(f"job {job.label}: {job.result.wall:.4f} s")
    totals, counts = command_totals(jobs)
    for name in CMD_METRICS:
        if name in totals:
            print(f"{name}: {totals[name]:.4f} s ({counts[name]} jobs)")
    for command in sorted({j.command for j in jobs}):
        mine = [j.result.wall for j in jobs if j.command == command]
        print(f"  {command}: {sum(mine):.4f} s over {len(mine)} jobs, "
              f"median {statistics.median(mine):.4f} s")
    print(f"fail_ratio: {failed / attempted:.4f} ({failed}/{attempted} jobs)")

    if args.trace:
        metrics = layer_metrics(tracer, traced_wall / wall, totals)
        stem = WORK / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(stem)
        print(f"trace_overhead_ratio: {traced_wall / wall:.4f} "
              f"({traced_wall:.3f} s traced / {wall:.3f} s untraced)")
        print(f"spans: {len(tracer.start)} written to {stem}.json/.bin")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "norm_jobs_per_s": metric(good / norm if norm else 0.0, "1/s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
        print(f"setup wall: median {statistics.median(setups):.4f} s of "
              f"{SETUP_REPEATS} (imports "
              f"{' '.join(f'{t:.4f}' for t in imports)}; preparations "
              f"{' '.join(f'{t:.4f}' for t in preps)})")
        print(f"setup_s: {setup_s:.4f} normalised s, median of "
              f"{' '.join(f'{t:.4f}' for t in norm_setups)}")
        print(f"setup host reference: {setup_clock.describe()}")
        print(f"jobs_per_s: {good / wall:.4f} 1/s ({good} correct jobs "
              f"in {wall:.3f} s)")
        print(f"host reference (nominal {hostref.NOMINAL_S:g} s): "
              f"{clock.describe()}")
        print(f"norm_jobs_per_s: {good / norm if norm else 0.0:.4f} 1/s "
              f"({good} correct jobs in {norm:.3f} normalised s)")
        print(f"peak_rss_mb: {peak_mb:.1f} MB")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
