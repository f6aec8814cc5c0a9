"""powersumkit benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The runner imports powersumkit from ./src and computes nothing with it
itself: every cold task runs in a child forked from this pristine process,
so cold means a fresh process and no cache is ever cleared by name.  One
client drives a closed loop, with at most one child alive at a time, and
repeats whole rounds of its workload until --seconds have passed.  Every
output is checked against perfbench/oracles.py outside the timed interval.

With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric, taken from a traced run (perfbench/tracer.py) that
follows a shorter untraced one.  A task is one CLI-equivalent invocation
or one library query.  Metrics:

- setup_s: median, over fresh interpreters started between rounds, of the
  time to start one, import powersumkit.cli and call build_parser();
- task_p50_s: median task wall time, fork to reaped child for cold tasks;
- task_tail_s: the highest percentile with at least ten samples beyond it,
  i.e. the 11th-largest task time;
- tasks_per_s: tasks completed per second of task time (one client, no
  think time);
- peak_rss_mb: largest peak resident set of a process that served tasks;
- fail_rate: failed / attempted, printed and carried by the `failed` and
  `attempted` fields.  A task fails if it raises, exits non-zero or its
  output disagrees with the oracle.

Each run also writes perfbench/out/<workload>-seed<seed>-trace<t>.json with
the seed, interpreter, CPU, processor count and source revision, and a
traced run writes its spans to perfbench/out/<workload>-seed<seed>-spans.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import oracles
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_CODE = "import powersumkit.cli as cli; cli.build_parser()"
SETUP_SAMPLES = 10
TASK_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
UNTRACED_SHARE = 0.35  # of --seconds, for the untraced half of a traced run
DETERMINISM_TASKS = 2
DETERMINISM_QUERIES = 2000
TASK_SPAN_CAP = 2000
SESSION_SPAN_CAP = 20000
RUN_SPAN_CAP = 100000
COLD_REPEAT_MIN_RATIO = 0.5


class SelfCheckError(Exception):
    """The benchmark's own invariants failed; no figure can be trusted."""


# -- child processes -----------------------------------------------------------

def fork_call(fn):
    """Run fn() in a forked child and return (wall seconds, its JSON result
    or None if it failed or timed out, peak RSS of the child in KiB)."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(read_fd)
            data = memoryview(json.dumps(fn()).encode())
            while data:
                data = data[os.write(write_fd, data):]
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks, timed_out = [], False
    try:
        while True:
            left = start + TASK_TIMEOUT_S - time.perf_counter()
            ready, _, _ = select.select([read_fd], [], [], max(left, 0.0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                timed_out = True
                break
            chunk = os.read(read_fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, wait_status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    ok = not timed_out and os.waitstatus_to_exitcode(wait_status) == 0
    return elapsed, json.loads(b"".join(chunks)) if ok else None, usage.ru_maxrss


def cold_task(pk, cli, task: workloads.Task, tracer) -> dict:
    """Body of a cold child: run one CLI call or library query."""
    if tracer:
        tracer.reset()
    out = io.StringIO()
    sys.stdout = out
    rc, error = 0, None
    try:
        argv = task.argv()
        if argv is None:
            out.write(str(pk.bernoulli_number(*task.args)))
        else:
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:
        rc, error = None, f"{type(exc).__name__}: {exc}"[:300]
    result = {"rc": rc, "error": error, "out": out.getvalue()}
    if tracer:
        result["trace"] = tracer.export()
        result["counters"] = tracer.counters()
    return result


def warm_session(pk, ref: oracles.Reference, task: workloads.Task, tracer,
                 snapshot_at: int = 0) -> dict:
    """Body of a session child: answer the task's query stream in one
    process, timing each query and checking it after the clock stops."""
    seed, count = task.args
    if tracer:
        tracer.reset()
    rng = random.Random(seed)
    clock = time.perf_counter
    durations, failed, snapshot = array("d"), [], None
    for i in range(count):
        kind, name, args = workloads.draw_query(rng, pk)
        fn = getattr(pk, name)
        if tracer:
            tracer.task_id = i
        start = clock()
        try:
            value = fn(*args)
        except Exception as exc:
            value = exc
        durations.append(clock() - start)
        if not query_ok(ref, kind, args, value):
            failed.append(i)
        if tracer and i + 1 == snapshot_at:
            snapshot = tracer.counters()
    result = {"durations": durations.tolist(), "failed": failed}
    if tracer:
        result["trace"] = tracer.export()
        result["counters"] = snapshot
    return result


def query_ok(ref: oracles.Reference, kind: str, args: tuple, value) -> bool:
    return not isinstance(value, Exception) and _passes(ref.check_query, kind, args, value)


def _passes(check, *args) -> bool:
    try:
        return bool(check(*args))
    except (AttributeError, TypeError, ValueError, IndexError, KeyError):
        return False


# -- the closed loop -------------------------------------------------------------

class Tally:
    """Task times and outcomes of one phase of a run."""

    def __init__(self):
        self.durations: list[float] = []
        self.failed: list[int] = []  # task indices
        self.examples: list[str] = []
        self.peak_rss_kib = 0
        self.tasks: list[workloads.Task] = []
        self.counters: list[dict] = []  # traced per-unit counters, in order
        self.trace = tracing.TraceTotals(RUN_SPAN_CAP)

    def add(self, duration: float, ok: bool, detail: str) -> None:
        if not ok:
            self.failed.append(len(self.durations))
            if len(self.examples) < 5:
                self.examples.append(detail)
        self.durations.append(duration)

    @property
    def attempted(self) -> int:
        return len(self.durations)


class Runner:
    def __init__(self, pk, cli, workload: workloads.Workload, seed: int):
        self.pk, self.cli, self.workload, self.seed = pk, cli, workload, seed
        self.ref = oracles.Reference(workload.ref_rows, workload.ref_bernoulli)
        self.caches = tracing.module_caches(tracing.package_modules())
        self.tracer = None

    def _assert_pristine(self) -> None:
        totals = tracing.cache_totals(self.caches)
        if totals["entries"] or totals["hits"] or totals["misses"]:
            raise SelfCheckError(f"the parent process has used powersumkit caches: {totals}")

    def run_unit(self, task: workloads.Task, tally: Tally, snapshot_at: int = 0) -> None:
        """Run one cold task or one session in a fresh child and record it."""
        self._assert_pristine()
        tracer = self.tracer
        if tracer:
            tracer.span_cap = SESSION_SPAN_CAP if task.kind == "session" else TASK_SPAN_CAP
        if task.kind == "session":
            elapsed, res, rss = fork_call(
                lambda: warm_session(self.pk, self.ref, task, tracer, snapshot_at))
            if res is None:
                raise SelfCheckError(f"session {task.args} died")
            failed = set(res["failed"])
            for i, duration in enumerate(res["durations"]):
                tally.add(duration, i not in failed, f"session {task.args} query {i}")
        else:
            elapsed, res, rss = fork_call(lambda: cold_task(self.pk, self.cli, task, tracer))
            self.record(task, elapsed, res, tally)
        tally.peak_rss_kib = max(tally.peak_rss_kib, rss)
        tally.tasks.append(task)
        if tracer:
            if res is not None:
                tally.trace.add(res["trace"])
            tally.counters.append(res and res["counters"])

    def record(self, task: workloads.Task, elapsed: float, res, tally: Tally) -> None:
        """Check a cold task's result against the oracle and count it."""
        ok = res is not None and res["error"] is None and _passes(
            self.ref.check, task.kind, task.args, res["rc"], res["out"])
        detail = "child died" if res is None else res["error"] or f"rc={res['rc']}"
        tally.add(elapsed, ok, f"{task.argv() or task.args}: {detail}")

    def loop(self, seconds: float, tally: Tally, between_rounds=None) -> None:
        """Closed loop over whole rounds until `seconds` have passed."""
        deadline = time.perf_counter() + seconds
        for tasks in workloads.rounds(self.workload, self.seed):
            for task in tasks:
                self.run_unit(task, tally)
            if time.perf_counter() >= deadline:
                return
            if between_rounds:
                between_rounds()


def summarize(tally: Tally) -> dict:
    times = sorted(tally.durations)
    n = len(times)
    tail_index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {"task_p50_s": statistics.median(times),
            "task_tail_s": times[tail_index],
            "tail_percentile": 100.0 * (tail_index + 1) / n,
            "tasks": n,
            "tasks_per_s": n / sum(times),
            "peak_rss_mb": tally.peak_rss_kib / 1024,
            "fail_rate": len(tally.failed) / n}


class SetupTimer:
    """Times fresh interpreters that import powersumkit.cli and build its
    parser.  Starts are spread over the run, so setup_s sees the machine
    in the same states as the tasks; one unmeasured start writes bytecode
    caches first."""

    def __init__(self, seconds: float):
        self.interval = seconds / SETUP_SAMPLES
        self.samples: list[float] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self._start()
        self.last = time.perf_counter()

    def _start(self) -> float:
        # No timeout: with one, subprocess polls with sleeps of up to 50 ms
        # and the figure snaps to the next poll.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=self.env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    def between_rounds(self) -> None:
        if time.perf_counter() - self.last >= self.interval:
            self.samples.append(self._start())
            self.last = time.perf_counter()

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES // 2 + 1:
            self.samples.append(self._start())
        return statistics.median(self.samples)


# -- self-checks -------------------------------------------------------------------

def _corrupt(text: str) -> str:
    """The text with its first digit changed."""
    for i, ch in enumerate(text):
        if ch.isdigit():
            return text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]
    return text + "0"


def self_test_fail_counting(runner: Runner) -> None:
    """A right value must pass and a wrong one must count toward fail_rate,
    through the same checks the measured tasks go through."""
    tally = Tally()
    if runner.workload.session:
        args = (runner.pk.Method("brute"), 3, 10, 1)
        right = oracles.method_sum("brute", 3, 10)
        for value in (right, right + 1):
            tally.add(1.0, query_ok(runner.ref, "compute", args, value), "self-test")
    else:
        task = next(workloads.rounds(runner.workload, runner.seed))[0]
        right = runner.ref.expected_output(task.kind, task.args)
        for out in (right, _corrupt(right)):
            runner.record(task, 1.0, {"rc": 0, "error": None, "out": out}, tally)
    if tally.failed != [1] or summarize(tally)["fail_rate"] != 0.5:
        raise SelfCheckError("the oracle check does not separate right from wrong values")


def check_cold_repeat(runner: Runner, tally: Tally) -> dict:
    """Repeating a cold task must not be faster than its first run, or the
    children are not starting cold."""
    first_round = len(next(workloads.rounds(runner.workload, runner.seed)))
    index = max(range(min(first_round, tally.attempted)), key=tally.durations.__getitem__)
    task, first = tally.tasks[index], tally.durations[index]
    repeats = Tally()
    for _ in range(2):
        runner.run_unit(task, repeats)
    ratio = max(repeats.durations) / first
    if ratio < COLD_REPEAT_MIN_RATIO:
        raise SelfCheckError(f"repeating {task} took {ratio:.2f} of its first run")
    return {"task": task.argv(), "first_s": first, "repeat_s": repeats.durations,
            "ratio": ratio}


def check_trace(runner: Runner, untraced: Tally, traced: Tally) -> dict:
    """The traced run must reach every layer the workload uses, fail exactly
    where the untraced one does, and count the same work when repeated."""
    missing = [layer for layer in runner.workload.layers if not traced.trace.layer(layer)[0]]
    if missing:
        raise SelfCheckError(f"no spans from layers {missing}")
    # Both phases run the same seeded tasks in the same order, so over the
    # tasks both ran the failures, and so the fail_rate, must be identical.
    common = min(untraced.attempted, traced.attempted)
    if [i for i in untraced.failed if i < common] != [i for i in traced.failed if i < common]:
        raise SelfCheckError("tracing changed which tasks fail")
    if runner.workload.session:
        unit = workloads.Task("session", (traced.tasks[0].args[0], DETERMINISM_QUERIES))
        runs = [Tally(), Tally()]
        for run in runs:
            runner.run_unit(unit, run, snapshot_at=DETERMINISM_QUERIES)
        pairs = [(runs[0].counters[0], runs[1].counters[0])]
    else:
        again = Tally()
        for task in traced.tasks[:DETERMINISM_TASKS]:
            runner.run_unit(task, again)
        pairs = list(zip(traced.counters, again.counters))
    if any(a != b for a, b in pairs):
        raise SelfCheckError("two traced runs of the same inputs counted different work")
    return {"layers_with_spans": list(runner.workload.layers), "repeated_units": len(pairs)}


# -- metrics -------------------------------------------------------------------------

POWERSUM_FUNCTIONS = {
    "brute": "s_brute", "lang-original": "s_lang_original",
    "lang-refined": "s_lang_refined", "newton-recurrence": "s_newton_recurrence",
    "binomial-recurrence": "s_binomial_recurrence", "range-r-stirling": "s_range",
    "even-central": "s_even_powers", "odd-central": "s_odd_even_powers",
    "odd-bernoulli-poly": "s_odd_even_powers_poly", "triangular-ls": "triangular_sum_ls",
    "triangular-binomial": "triangular_sum_binomial",
}
VERIFY_SUITES = ("concordance", "orthogonality", "ones", "central", "triangular",
                 "ls_tables", "range", "zeta", "bernoulli", "pn_coeffs")
SIGMA_H_FUNCTIONS = ("r_stirling_first", "r_stirling_second", "central_factorial_first",
                     "central_factorial_second", "legendre_stirling_first",
                     "legendre_stirling_second")
NAMED_FUNCTIONS = ("symfuncs.elementary_prefix", "symfuncs.complete_prefix",
                   "combinatorics.bernoulli_number", "combinatorics.bernoulli_polynomial",
                   "zeta.zeta_even_exact", "exact.Poly.__mul__", "exact.Poly.__call__")
# Every traced function a per-layer metric is read from.
TRACED_NAMES = (set(NAMED_FUNCTIONS)
                | {f"powersums.{fn}" for fn in POWERSUM_FUNCTIONS.values()}
                | {f"verify.suite.{suite}" for suite in VERIFY_SUITES}
                | {f"combinatorics.{fn}" for fn in SIGMA_H_FUNCTIONS})


def layer_metrics(t: tracing.TraceTotals, overhead_ratio: float) -> dict:
    """Every per-layer figure of a traced run, by name."""
    out = {}
    for layer in tracing.LAYERS:
        calls, self_s, errors = t.layer(layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.errors"] = errors
    out["symfuncs.dp_steps"] = t.counts[0]
    for name in NAMED_FUNCTIONS:
        out[f"{name}.self_s"] = t.func(name)[1]
    out["combinatorics.bernoulli_number.calls"] = t.func("combinatorics.bernoulli_number")[0]
    out["combinatorics.sigma_h_families.self_s"] = sum(
        t.func(f"combinatorics.{fn}")[1] for fn in SIGMA_H_FUNCTIONS)
    out["exact.poly_coeff_products"] = t.counts[1]
    for method, fn in POWERSUM_FUNCTIONS.items():
        out[f"powersums.{method}.self_s"] = t.func(f"powersums.{fn}")[1]
    for suite in VERIFY_SUITES:
        out[f"verify.suite.{suite}.s"] = t.func(f"verify.suite.{suite}")[3]
    out["cache.entries"] = t.cache["entries"]
    out["cache.hits"] = t.cache["hits"]
    out["cache.misses"] = t.cache["misses"]
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def environment() -> dict:
    """What the figures depend on besides the code."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(), "src_sha256": digest.hexdigest()}


def _git_commit() -> str:
    """HEAD of the checkout's own .git, without running git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- runs ----------------------------------------------------------------------------

def run_workload(pk, cli, spec: dict, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    runner = Runner(pk, cli, workloads.WORKLOADS[name], seed)
    self_test_fail_counting(runner)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment()}
    if not trace:
        setup = SetupTimer(seconds)
        tally = Tally()
        runner.loop(seconds, tally, setup.between_rounds)
        record["setup_s"] = setup.median()
        record["setup_samples_s"] = setup.samples
        stats = summarize(tally)
        if not runner.workload.session:
            record["cold_repeat"] = check_cold_repeat(runner, tally)
        metrics = {"setup_s": record["setup_s"], **stats}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        untraced = Tally()
        runner.loop(seconds * UNTRACED_SHARE, untraced)
        runner.tracer = tracing.Tracer(TASK_SPAN_CAP)
        runner.tracer.install()
        unwrapped = sorted(TRACED_NAMES - set(runner.tracer.stats))
        if unwrapped:
            raise SelfCheckError(f"per-layer metrics name functions not traced: {unwrapped}")
        tally = Tally()
        runner.loop(seconds * (1 - UNTRACED_SHARE), tally)
        stats = summarize(tally)
        record["untraced"] = summarize(untraced)
        record["trace_checks"] = check_trace(runner, untraced, tally)
        metrics = layer_metrics(tally.trace, stats["task_p50_s"] / record["untraced"]["task_p50_s"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        _write_spans(name, seed, tally.trace)
    if runner.workload.session:
        record["repeat_share"] = workloads.repeat_share([t.args for t in tally.tasks], pk)
    record.update(stats=stats, failures=tally.examples)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SelfCheckError(f"BENCHMARK.json names metrics the run does not make: {missing}")
    record["metrics"] = {n: {"value": metrics[n], "unit": u} for n, u in units.items()}
    record["result"] = {"correct": not tally.failed, "attempted": tally.attempted,
                        "failed": len(tally.failed), "metrics": record["metrics"]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def _write_spans(name: str, seed: int, totals: tracing.TraceTotals) -> None:
    OUT.mkdir(exist_ok=True)
    data = {"fields": ["id", "name", "start_s", "end_s", "parent_id", "task_id"],
            "spans": totals.spans, "dropped": totals.dropped}
    (OUT / f"{name}-seed{seed}-spans.json").write_text(json.dumps(data))


def report(record: dict) -> None:
    env, stats = record["environment"], record["stats"]
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"python={env['python']} cpu={env['cpu_model']!r} nproc={env['nproc']} "
          f"commit={env['git_commit'][:12]} src={env['src_sha256'][:12]}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<44} {metric['value']:<22.10g} {metric['unit']}")
    print(f"  {'fail_rate':<44} {stats['fail_rate']:<22.10g} ratio "
          f"({record['result']['failed']}/{stats['tasks']} tasks failed)")
    print(f"  task_tail_s is p{stats['tail_percentile']:.2f} of {stats['tasks']} tasks")
    if "repeat_share" in record:
        print(f"  repeated queries: {record['repeat_share']:.3f} of all queries")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def run_all(args) -> int:
    """Each workload in its own process (tracing patches the process that
    installs it), then one summary table."""
    summary = []
    for name in sorted(workloads.WORKLOADS):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--trace", str(args.trace)] + (["--seconds", str(args.seconds)] if args.seconds else [])
        if subprocess.run(cmd).returncode:
            return 3
        record = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        summary.append(record)
    print("summary:")
    for record in summary:
        print(f"  {record['workload']}")
        shown = record["metrics"].items() if args.trace == 0 else ()
        for metric, value in shown:
            print(f"    {metric:<14} {value['value']:<16.6g} {value['unit']}")
        print(f"    {'fail_rate':<14} {record['stats']['fail_rate']:<16.6g} ratio")
    print(json.dumps({r["workload"]: r["result"] for r in summary}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="powersumkit benchmark")
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (SRC / "powersumkit" / "__init__.py").is_file():
        print(f"error: {spec_path} and {SRC}/powersumkit are needed", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import powersumkit
    import powersumkit.cli
    if Path(powersumkit.__file__).resolve().parent != SRC / "powersumkit":
        print(f"error: imported powersumkit from {powersumkit.__file__}", file=sys.stderr)
        return 2
    try:
        record = run_workload(powersumkit, powersumkit.cli, spec, args.workload, args.seed,
                              args.seconds or spec["run_seconds"], bool(args.trace))
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 3
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
