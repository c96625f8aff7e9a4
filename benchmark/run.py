#!/usr/bin/env python3
"""kpokit's benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload {gap-scan,design,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a kpokit checkout; kpokit is imported from its
``src/``. One process runs one task at a time (a closed loop) for S
seconds, then checks every output. With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the raw and reference times behind the figures. See README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# one BLAS thread, for this process and every child, before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

if not os.path.isfile(os.path.join(SRC, "kpokit", "__init__.py")):
    sys.exit(f"benchmark: no kpokit sources under {SRC}")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import kpokit.cli  # noqa: E402

import checks  # noqa: E402
import drift  # noqa: E402
import inputs  # noqa: E402
import tasks  # noqa: E402
from tracer import Tracer  # noqa: E402

WARM_UP_INDEX = 1_000_000
SETUP_PROBES = 2


# --------------------------------------------------------------------------
# workloads: prepare an input, execute it (the timed part), check it
# --------------------------------------------------------------------------

class GapScan:
    kind = "gap-scan"
    round_size = 1
    min_tasks = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self, index: int):
        return inputs.gap_scan_input(self.seed, index)

    def execute(self, inp):
        return tasks.gap_scan_task(inp)

    def check(self, index, inp, out) -> list[dict]:
        return [_op("gap-scan", lambda: checks.gap_scan_problems(inp, out), out)]


class Design:
    kind = "design"
    round_size = 1
    min_tasks = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self, index: int):
        return inputs.design_input(self.seed, index)

    def execute(self, inp):
        return tasks.design_task(inp)

    def check(self, index, inp, out) -> list[dict]:
        def audit():
            truth = checks.true_relations(inp["audit_pumps"], inputs.AUDIT_ORDER)
            problems, missed = checks.audit_problems(out["audit"], truth)
            if inputs.PLANTED_RELATION in missed:
                return problems, f"planted (1,1,-1,-1) missed, {len(missed)} relations in all"
            return problems, f"missed {missed}" if missed else None

        return [_op("design", lambda: checks.design_problems(inp, out), out),
                _op("pump-audit", audit, out, known=True)]


class Cli:
    """One task is one fresh `python -m kpokit.cli` process."""

    kind = "cli"
    min_tasks = 2 * len(tasks.SUBCOMMANDS + tasks.MALFORMED)

    def __init__(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.ctx = inputs.cli_input(seed, workdir)
        self.commands = tasks.cli_commands(self.ctx["paths"])
        self.round_size = len(self.commands)
        self.env = tasks.child_env(SRC)
        self.first_stdout: dict[str, bytes] = {}

    def prepare(self, index: int):
        return self.commands[index % len(self.commands)]

    def execute(self, inp):
        name, argv = inp
        base = os.path.join(self.workdir, name)
        return tasks.run_cli(argv, self.env, base + ".out", base + ".err")

    def execute_in_process(self, inp):
        """The same command through kpokit.cli.main, stdout captured."""
        name, argv = inp
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = kpokit.cli.main(argv)
            except Exception as exc:  # an uncaught error ends a real process with 1
                print(repr(exc), file=stderr)
                code = 1
        return {"code": code, "stdout": stdout.getvalue().encode(),
                "stderr": stderr.getvalue().encode()}

    def check(self, index, inp, out) -> list[dict]:
        name = inp[0]
        if name in tasks.MALFORMED:
            return [_op(name, lambda: ([], None if checks.rejects_cleanly(
                out["code"], out["stderr"]) else f"exit {out['code']}, no KPOKIT-ERROR"),
                out, known=True)]

        def problems():
            if name == "oracle" and "oracle_reference_mhz" not in self.ctx:
                self.ctx["oracle_reference_mhz"] = tasks.cli_oracle_reference()
            if out["code"] != 0:
                return [f"{name}: exit {out['code']}: {out['stderr'][-300:]!r}"]
            found = checks.cli_problems(name, out["stdout"], self.ctx)
            first = self.first_stdout.setdefault(name, out["stdout"])
            if out["stdout"] != first:
                found.append(f"{name}: stdout differs between two invocations")
            return found

        return [_op(name, problems, out)]


WORKLOADS = {w.kind: w for w in (GapScan, Design, Cli)}


def _op(name: str, check, out, known: bool = False) -> dict:
    """Run one check. A known fault is (problems, fault or None); a
    result that raised is a failure of every operation of its task."""
    if isinstance(out, TaskError):
        return {"op": name, "failed": True, "known": False, "problems": [out.message]}
    try:
        result = check()
    except Exception as exc:  # a check that cannot read the output fails it
        return {"op": name, "failed": True, "known": False, "problems": [repr(exc)]}
    if known:
        problems, fault = result
        return {"op": name, "failed": bool(problems) or fault is not None,
                "known": not problems, "problems": problems or ([fault] if fault else [])}
    return {"op": name, "failed": bool(result), "known": False, "problems": result}


class TaskError:
    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def _execute(run, inp):
    try:
        return run(inp)
    except Exception as exc:  # recorded and counted as failed operations
        return TaskError(exc)


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def set_up(workload_cls, seed: int, workdir: str):
    """Everything before the first timed task: inputs and one warm-up task."""
    os.makedirs(workdir, exist_ok=True)
    workload = workload_cls(seed, workdir)
    workload.execute(workload.prepare(WARM_UP_INDEX))
    return workload


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, in raw seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--probe-setup"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    ready = [line for line in proc.stdout.splitlines() if line.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return float(ready[-1].split()[1])


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def _tally(ops: list[dict]) -> dict:
    failures = [op for op in ops if op["failed"]]
    return {
        "correct": not any(not op["known"] for op in failures),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": {f"{op['op']}: {p}" for op in failures for p in op["problems"][:1]},
    }


def timed_run(args, workdir: str) -> tuple[dict, dict]:
    workload = set_up(WORKLOADS[args.workload], args.seed, workdir)
    setup_raw = [time.perf_counter() - _T0]
    ref = drift.reference_time()
    setup_refs = [ref]
    for _ in range(SETUP_PROBES):
        setup_raw.append(probe_setup(args))
        setup_refs.append(drift.reference_time())
    setup = [drift.correct(setup_raw[0], setup_refs[0], setup_refs[0])]
    setup += [drift.correct(raw, setup_refs[i], setup_refs[i + 1])
              for i, raw in enumerate(setup_raw[1:])]

    # each output is checked after the reference time that follows its
    # task, outside the timed region, and then dropped
    raw, refs, ops, child_rss = [], [], [], [0.0]
    start = time.perf_counter()
    index = 0
    while True:
        inp = workload.prepare(index)
        before = drift.reference_time()
        t = time.perf_counter()
        out = _execute(workload.execute, inp)
        raw.append(time.perf_counter() - t)
        refs.append((before, drift.reference_time()))
        ops += workload.check(index, inp, out)
        if isinstance(out, dict) and "rss_mb" in out:
            child_rss.append(out["rss_mb"])
        index += 1
        if (time.perf_counter() - start >= args.seconds and index >= workload.min_tasks
                and index % workload.round_size == 0):
            break

    corrected = [drift.correct(r, *ref) for r, ref in zip(raw, refs)]
    if args.workload == "cli":
        rss = max(child_rss)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = _tally(ops)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "task_p50_ms": {"value": 1e3 * statistics.median(corrected), "unit": "ms"},
        "tasks_per_s": {"value": len(corrected) / sum(corrected), "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "tasks": len(raw),
        "task_raw_s": raw, "task_corrected_s": corrected, "reference_s": refs,
        "nominal_reference_s": drift.NOMINAL_REF_S,
        "raw_task_p50_ms": 1e3 * statistics.median(raw),
        "setup_raw_s": setup_raw, "setup_reference_s": setup_refs,
        "setup_corrected_s": setup,
        "failures": sorted(tally.pop("failures")),
    }
    return {**tally, "metrics": metrics}, detail


def traced_run(args, workdir: str) -> tuple[dict, dict]:
    """The workload's own tasks, traced, then one task of each other kind so
    that every layer reports. Only the workload's own operations count in
    attempted and failed; every output is checked."""
    primary = set_up(WORKLOADS[args.workload], args.seed, workdir)
    others = [set_up(cls, args.seed, os.path.join(workdir, kind))
              for kind, cls in WORKLOADS.items() if kind != args.workload]
    tracer = Tracer()
    tracer.install()
    done, import_ms = [], []

    def traced_task(workload, index):
        inp = workload.prepare(index)
        if workload.kind == "cli" and inp[0] in tasks.MALFORMED and workload is not primary:
            return
        before = drift.reference_time()
        if workload.kind == "cli":
            out = tracer.task("cli", f"cli.{inp[0]}", _execute, workload.execute_in_process,
                              inp)
        else:
            out = tracer.task(workload.kind, f"task.{workload.kind}", _execute,
                              workload.execute, inp)
        after = drift.reference_time()
        tracer.tasks[-1]["factor"] = drift.correct(1.0, before, after)
        done.append((workload, index, inp, out))
        if workload.kind == "cli" and index % workload.round_size == 0:
            import_ms.append(_import_ms())

    start = time.perf_counter()
    index = 0
    while True:
        traced_task(primary, index)
        index += 1
        if (time.perf_counter() - start >= args.seconds and index >= primary.min_tasks
                and index % primary.round_size == 0):
            break
    for workload in others:
        for i in range(workload.round_size):
            traced_task(workload, i)
    tracer.uninstall()
    tracer.write(os.path.join(workdir, "trace.json"))

    primary_ops, other_ops = [], []
    for workload, i, inp, out in done:
        (primary_ops if workload is primary else other_ops).extend(workload.check(i, inp, out))
    tally, other = _tally(primary_ops), _tally(other_ops)
    tally["correct"] = tally["correct"] and other["correct"]
    failures = tally.pop("failures") | other["failures"]

    per_task = tracer.per_task()
    metrics = tracer.layer_metrics(per_task)
    metrics["cli.import_ms"] = {"value": statistics.mean(import_ms), "unit": "ms"}
    for name in tasks.SUBCOMMANDS:
        values = [1e3 * per_task[t]["seconds"] * task["factor"]
                  for t, task in enumerate(tracer.tasks)
                  if task["kind"] == "cli" and tracer.spans[task["span"]][0] == f"cli.{name}"]
        metrics[f"cli.{name}.ms"] = {"value": statistics.mean(values), "unit": "ms"}

    unattributed = {}
    for kind in WORKLOADS:
        shares = [d["unattributed"] / d["seconds"]
                  for d, task in zip(per_task, tracer.tasks) if task["kind"] == kind]
        unattributed[kind] = statistics.median(shares)
    traced = [1e3 * d["seconds"] * task["factor"]
              for d, task in zip(per_task, tracer.tasks) if task["kind"] == primary.kind]
    detail = {
        "workload": args.workload, "seed": args.seed, "spans": len(tracer.spans),
        "traced_task_p50_ms": statistics.median(traced),
        "unattributed_share_median": unattributed,
        "cli_import_ms": import_ms,
        "failures": sorted(failures),
    }
    return {**tally, "metrics": metrics}, detail


def _import_ms() -> float:
    """A fresh `import kpokit.cli`, timed inside the child, drift-corrected."""
    before = drift.reference_time()
    code = ("import time; t = time.perf_counter(); import kpokit.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=tasks.child_env(SRC),
                          capture_output=True, text=True, check=True)
    return 1e3 * drift.correct(float(proc.stdout), before, drift.reference_time())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}")
    if args.probe_setup:
        set_up(WORKLOADS[args.workload], args.seed, os.path.join(workdir, "probe"))
        print(f"ready {time.perf_counter() - _T0!r}", flush=True)
        return 0
    result, detail = (traced_run if args.trace else timed_run)(args, workdir)
    with open(os.path.join(workdir, "detail.json"), "w") as fh:
        json.dump(detail, fh)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
