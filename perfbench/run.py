"""End-to-end benchmark of the turnpike CLI on the shipped models.

    python3 perfbench/run.py --workload n1_theory --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Each round of a workload runs its CLI
calls (`PYTHONPATH=src python -m turnpike.cli ...`) one subprocess at a
time; rounds repeat until --seconds is used up. With --trace 0 the run
reports the end-to-end metrics (wall_s, cpu_s, setup_s, peak_rss_mb). With
--trace 1 it runs the same command lines in this process through
turnpike.cli.main, with spans around every layer call, and reports the
per-layer metrics. Either way every output is checked against references
computed apart from the program (checks.py). The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload in turn.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402  (this directory is on sys.path as the script's)
from checks import Checker, self_test  # noqa: E402

IMPORT_REPEATS = 3    # `import turnpike.cli` timings per traced run
CALL_TIMEOUT = 150.0  # seconds before a hung CLI call is killed

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.import_s", "s"),
    ("model.check_hypotheses_ms", "ms"),
    ("entryexit.solve_delta0_n1_ms", "ms"),
    ("entryexit.relation_evals", "count"),
    ("entryexit.relation_useful_ratio", "ratio"),
    ("entryexit.base_point_ms", "ms"),
    ("entryexit.base_point_calls", "count"),
    ("quadrature.regular_slow_part_ms", "ms"),
    ("quadrature.regular_slow_part_calls", "count"),
    ("quadrature.subdivisions", "count"),
    ("quadrature.whole_line_integral_ms", "ms"),
    ("integrate.passage_ms", "ms"),
    ("integrate.us_per_step", "us"),
    ("integrate.steps", "count"),
    ("integrate.rejected", "count"),
    ("integrate.rhs_evals", "count"),
    ("integrate.accept_ratio", "ratio"),
    ("integrate.rhs_per_step", "evals/step"),
    ("blowup.z2_curve_ms", "ms"),
    ("blowup.z2_curve_calls", "count"),
    ("util.write_rows_ms", "ms"),
    ("util.rows_written", "count"),
    ("util.bytes_written", "bytes"),
    ("util.parallel_map_ms", "ms"),
    ("util.parallel_efficiency", "ratio"),
    ("cli.self_ms", "ms"),
    ("model.self_ms", "ms"),
    ("quadrature.self_ms", "ms"),
    ("entryexit.self_ms", "ms"),
    ("integrate.self_ms", "ms"),
    ("blowup.self_ms", "ms"),
    ("util.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
)


@dataclass
class Outcome:
    """What one CLI call left behind."""
    rc: int
    stdout: str
    csv_text: str | None
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, out: Outcome) -> None:
        """One operation per CLI call and one per result row."""
        self.attempted += 1
        self.failed += out.rc != 0
        if out.csv_text is not None:
            rows = out.csv_text.splitlines()[1:]
            self.attempted += len(rows)
            self.failed += sum(not r.endswith(",ok") for r in rows)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH="src")


def run_child(args, out_dir: Path, out_file: str | None = None) -> Outcome:
    """Run `python <args>` in the checkout root and wait for it alone.

    os.wait4 gives the child's own CPU time and peak resident set.
    """
    if out_file:
        (ROOT / out_file).unlink(missing_ok=True)
    with open(out_dir / "stdout.txt", "w+") as fo, \
            open(out_dir / "stderr.txt", "w+") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=child_env(), stdout=fo, stderr=fe)
        watchdog = threading.Timer(CALL_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        stdout = fo.read()
        fe.seek(0)
        err = fe.read()
    if proc.returncode != 0 and err:
        print(f"[{' '.join(args[2:4])}] exit {proc.returncode}: {err.strip()[-300:]}",
              file=sys.stderr)
    csv_text = None
    if out_file and (ROOT / out_file).exists():
        csv_text = (ROOT / out_file).read_text()
    return Outcome(proc.returncode, stdout, csv_text, wall,
                   ru.ru_utime + ru.ru_stime, ru.ru_maxrss)


def check_round(calls, outs, checker: Checker) -> list[str]:
    """Check every successful call's output, and self-test its checker."""
    problems = []
    for call, out in zip(calls, outs):
        if out.rc != 0 or (call.out and out.csv_text is None):
            continue  # counted as a failed operation
        problems += checker.check(call.kind, call.inputs, out.stdout, out.csv_text)
        problems += self_test(checker, call.kind, call.inputs, out.stdout,
                              out.csv_text)
    return problems


def same_outputs(a, b) -> bool:
    return [(o.rc, o.stdout, o.csv_text) for o in a] == \
        [(o.rc, o.stdout, o.csv_text) for o in b]


def keep_going(t_start: float, last_round: float, seconds: float) -> bool:
    """Start another whole round only if it should end within the budget."""
    return time.perf_counter() - t_start + last_round <= seconds


def timed_run(calls, seconds: float, out_dir: Path, checker: Checker):
    """Untraced subprocess rounds: the end-to-end metrics."""
    help_args = ["-m", "turnpike.cli", "--help"]
    setup = []

    def start_up():
        out = run_child(help_args, out_dir)
        if out.rc != 0:
            raise RuntimeError("`python -m turnpike.cli --help` failed")
        setup.append(out.wall)

    run_child(help_args, out_dir)  # writes the bytecode caches; not timed
    tally, walls, cpus, first, problems, peak_kb = Tally(), [], [], None, [], 0
    t_start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        # one start-up sample per round, so that setup_s sees the same
        # machine state as the rounds (the machine's speed drifts)
        start_up()
        outs = [run_child(["-m", "turnpike.cli", *c.argv], out_dir, c.out)
                for c in calls]
        walls.append(sum(o.wall for o in outs))
        cpus.append(sum(o.cpu for o in outs))
        peak_kb = max([peak_kb] + [o.rss_kb for o in outs])
        for o in outs:
            tally.add(o)
        if first is None:
            first = outs
        elif not same_outputs(first, outs):
            problems.append(f"round {len(walls)} output differs from round 1")
        if not keep_going(t_start, time.perf_counter() - r0, seconds):
            break
    start_up()
    problems += check_round(calls, first, checker)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    info = f"{len(walls)} rounds; round wall times {[round(w, 3) for w in walls]}"
    return metrics, END_TO_END, tally, problems, info


# -- traced in-process run ------------------------------------------------------

def run_inprocess(cli, calls, tracer=None):
    """Run the calls through cli.main in this process, each with its
    TURNPIKE_THREADS; spans are recorded when a tracer is installed."""
    outs = []
    for i, call in enumerate(calls):
        os.environ.pop("TURNPIKE_THREADS", None)
        if call.threads:
            os.environ["TURNPIKE_THREADS"] = str(call.threads)
        if call.out:
            (ROOT / call.out).unlink(missing_ok=True)
        buf, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buf), redirect_stderr(err):
            if tracer is None:
                rc = cli.main(list(call.argv))
            else:
                tracer.call = i
                rc = tracer.run("cli.main", cli.main, (list(call.argv),))
        wall = time.perf_counter() - t0
        csv_text = (ROOT / call.out).read_text() \
            if call.out and (ROOT / call.out).exists() else None
        outs.append(Outcome(rc, buf.getvalue(), csv_text, wall))
    os.environ.pop("TURNPIKE_THREADS", None)
    return outs


def import_seconds(out_dir: Path) -> float:
    code = ("import time; t = time.perf_counter(); import turnpike.cli; "
            "print(repr(time.perf_counter() - t))")
    vals = []
    for _ in range(IMPORT_REPEATS):
        out = run_child(["-c", code], out_dir)
        if out.rc != 0:
            raise RuntimeError("`import turnpike.cli` failed")
        vals.append(float(out.stdout.strip()))
    return statistics.median(vals)


def backend_agreement(problems: list[str]) -> str:
    """Both kernels must take the same steps on a ddr passage (when built)."""
    from turnpike.integrate import compiled_kernel_available, dulac_map_numeric
    from turnpike.model import ddr_model
    if not compiled_kernel_available():
        return "python (compiled kernel not built)"
    steps = {}
    for backend in ("python", "compiled"):
        os.environ["TURNPIKE_KERNEL"] = backend
        try:
            x_out, diag = dulac_map_numeric(ddr_model(), 1.016, 0.005)
        finally:
            os.environ.pop("TURNPIKE_KERNEL", None)
        steps[backend] = (diag.n_steps, diag.n_rejected, x_out)
    if steps["python"] != steps["compiled"]:
        problems.append(f"backends disagree on the ddr passage: {steps}")
    return "both kernels built; step counts compared"


def traced_run(calls, seconds: float, out_dir: Path, checker: Checker,
               trace_path: Path):
    """In-process rounds, alternating untraced and traced: per-layer metrics."""
    import_s = import_seconds(out_dir)
    sys.path.insert(0, str(ROOT / "src"))
    import turnpike.cli as cli
    from tracing import Tracer, layer_metrics

    if Path(cli.__file__).resolve().parents[2] != ROOT:
        raise RuntimeError(f"turnpike imported from {cli.__file__}, not this checkout")
    from turnpike.integrate import active_backend
    run_inprocess(cli, calls)  # loads scipy's lazily imported parts; not timed
    tracer = Tracer()
    tally, plain, traced, first, problems = Tally(), [], [], None, []
    t_start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        outs_plain = run_inprocess(cli, calls)
        tracer.round = len(traced)
        tracer.install()
        try:
            outs = run_inprocess(cli, calls, tracer)
        finally:
            tracer.uninstall()
        plain.append(sum(o.wall for o in outs_plain))
        traced.append(sum(o.wall for o in outs))
        for o in outs:
            tally.add(o)
        if first is None:
            first = outs
        for other in (outs_plain, outs):
            if not same_outputs(first, other):
                problems.append("in-process outputs differ between rounds")
        if not keep_going(t_start, time.perf_counter() - r0, seconds):
            break
    problems += check_round(calls, first, checker)
    for i, call in enumerate(calls):  # thread-count invariance
        if call.threads and call.out:
            serial = run_inprocess(cli, [replace(call, threads=0)])[0]
            if serial.csv_text != first[i].csv_text:
                problems.append(f"{call.kind}: CSV with TURNPIKE_THREADS="
                                f"{call.threads} differs from the serial run")
    backend = backend_agreement(problems)
    spans = tracer.records()
    metrics, per_round = layer_metrics(spans)
    if any(c != per_round[0] for c in per_round):
        problems.append("per-round counts differ between traced rounds")
    over = statistics.median(traced) - statistics.median(plain)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_ms"] = 1e3 * over
    metrics["trace.overhead_share"] = over / statistics.median(plain)
    tracer.dump(trace_path, spans)
    info = (f"backend {active_backend()}: {backend}; {len(traced)} traced rounds, "
            f"median {statistics.median(traced):.3f} s traced vs "
            f"{statistics.median(plain):.3f} s untraced; spans in {trace_path.relative_to(ROOT)}")
    return metrics, PER_LAYER, tally, problems, info


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    out_dir = HERE / "out" / name
    out_dir.mkdir(parents=True, exist_ok=True)
    calls = workloads.build(name, seed, ROOT, str(out_dir.relative_to(ROOT)))
    checker = Checker(ROOT)
    if trace:
        return traced_run(calls, seconds, out_dir, checker,
                          HERE / "out" / f"trace-{name}.jsonl")
    return timed_run(calls, seconds, out_dir, checker)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/turnpike/cli.py", *workloads.MODELS)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a turnpike checkout, missing {missing}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for key in [k for k in os.environ if k.startswith("TURNPIKE_")]:
        del os.environ[key]  # default backend choice and serial sweeps
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        values, spec, tally, problems, info = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
        print(f"# {name} (seed {args.seed}): {info}")
        for metric, unit in spec:
            print(f"{name:12s} {metric:36s} {values[metric]:14.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": values[metric], "unit": unit}
        print(f"{name:12s} operations attempted {tally.attempted}, failed {tally.failed}")
        for p in problems[:20]:
            print(f"CHECK FAILED [{name}]: {p}", file=sys.stderr)
        if len(problems) > 20:
            print(f"CHECK FAILED [{name}]: ... {len(problems) - 20} more", file=sys.stderr)
        correct = correct and not problems
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
