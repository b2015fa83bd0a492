"""Stage times of the benchmark's workload commands, measured in process.

    python3 benchmarks/bench_pipeline.py --out BENCH_pipeline.json

Each command of each workload in perfbench/run.py (`verify` or `analyze` of
one action at the workload's sample count) runs through orthofold.cli.main
in this process at program seed SEED, REPEATS times, with every BLAS
library held to one thread as perfbench holds its children. The pipeline
stages are timed by wrapping the functions cli.run_pipeline calls: the cloud
build, the orbit type partition, the isostabilizer decomposition, orbit
identification and the Klein partition. Everything else the command does is
the report stage: correspondence, principal data, singularity labels, the
interval model, the verify checks, the payload and its rendering.

Per command and stage the JSON keeps the minimum over the repetitions and
the first repetition; a workload's stage time is the sum over its commands.

perfbench's search workloads run at 100 samples, where a command's work is
a small part of its process. So the harness also runs the library
workload `verify all --samples 2000 --seed 0` (LIBRARY_WORKLOADS),
LIBRARY_REPEATS times, in process and as fresh processes alike. Its stage
times are also split per action (`actions_min_s`): each stage call is
charged to the action it works on, and an action's report stage is its
cli.verify_action time less its stages.
Every repetition of a command must exit 0 and print a report-sha256, the
same one each time, which is recorded. The first repetition is not a cold
run: the commands before it have loaded every module and warmed the
process's caches, and an in-process run has no start or exit.

So each command also runs REPEATS times as a fresh `python -m orthofold.cli`
process, with the same thread variables, timed from spawn to reap, as
perfbench times its commands; `process_s` keeps the minimum and the median,
and the report-sha256 of each must be the in-process one. The gap between
a command's process_s and its in-process total is what one process costs
on top of the work: interpreter start, imports and exit. Each process's
peak resident memory is its ru_maxrss from os.wait4, as perfbench reads
it: `process_rss_mb` keeps the minimum, the median and the maximum per
command, and a workload's is the maximum over its commands' processes.
A child spawned from this process would report at least this process's
own peak, which the in-process runs raise above a command's: at exec
the kernel keeps the high-water mark of the address space the child
leaves, and a vfork child leaves its parent's. So each command process
is spawned, timed and reaped by a small launcher (LAUNCHER), as
perfbench's small driver process spawns its children.

The environment (core count, BLAS library and threads, Python and numpy
versions) is perfbench/probe.py's, which needs scipy (the test extra), plus
PYTHONDONTWRITEBYTECODE, under which every process compiles the package
from source.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import THREAD_ENV, WORKLOADS  # noqa: E402  (standard library only)

# before numpy loads its BLAS
os.environ.update(THREAD_ENV)

import probe  # noqa: E402

from orthofold import cli, quotient, strata  # noqa: E402

# stage name -> (module, function) of the calls cli.run_pipeline makes
STAGES = {
    "cloud": (strata, "build_cloud"),
    "orbit_type": (strata, "orbit_type_partition"),
    "isostabilizer": (strata, "isostabilizer_decomposition"),
    "identify_orbits": (quotient, "identify_orbits"),
    "klein": (quotient, "klein_partition"),
}
REPORT = "report"
REPEATS = 10  # runs per command
SEED = 0  # program seed
# workloads of the library at a size perfbench does not reach, and the runs
# per command: a verify all at 2000 samples takes 1-3 s
LIBRARY_WORKLOADS = {"verify-all-2000": [["verify", "all", "--samples", "2000", "--seed", "0"]]}
LIBRARY_REPEATS = 5
# argv -> the command's stdout, then one line: exit code, wall seconds from
# spawn to reap, and ru_maxrss in kB
LAUNCHER = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
sys.stdout.buffer.write(out)
print(os.waitstatus_to_exitcode(status), repr(wall), usage.ru_maxrss)
"""


def _action_of(arg) -> str:
    """The action a stage call works on: its ActionModel's name, or its cloud's."""
    return arg.action if isinstance(arg, strata.SampleCloud) else arg.name


@contextlib.contextmanager
def timed_stages(times: dict, per_action: dict):
    """Add the seconds spent in each stage function to times[stage], and to
    per_action[action][stage] for the action the call works on; the
    seconds of cli.verify_action go to per_action[action]["total"]."""
    saved = []
    targets = {**STAGES, "total": (cli, "verify_action")}
    for stage, (module, name) in targets.items():
        fn = getattr(module, name)

        def timed(*args, _fn=fn, _stage=stage, **kwargs):
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                if _stage in times:
                    times[_stage] += dt
                split = per_action.setdefault(_action_of(args[0]), dict.fromkeys(targets, 0.0))
                split[_stage] += dt

        saved.append((module, name, fn))
        setattr(module, name, timed)
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def run_once(argv: list[str]) -> tuple[dict, dict, int, str | None]:
    """Stage seconds, per-action stage seconds, exit code and report-sha256
    of one command."""
    times = dict.fromkeys(STAGES, 0.0)
    per_action: dict = {}
    out = io.StringIO()
    gc.collect()
    with timed_stages(times, per_action), contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        total = time.perf_counter() - start
    times[REPORT] = total - sum(times.values())
    times["total"] = total
    for split in per_action.values():
        split[REPORT] = split["total"] - sum(split[k] for k in STAGES)
    trailer = [line for line in out.getvalue().splitlines() if line.startswith("report-sha256:")]
    sha = trailer[0].split()[1] if trailer else None
    return times, per_action, code, sha


def process_runs(argv: list[str], sha: str, repeats: int) -> tuple[dict, dict]:
    """Wall seconds (min and median) and peak resident MB (min, median and
    max) of fresh CLI processes, each run by LAUNCHER: wall from spawn to
    reap, memory the process's own ru_maxrss from os.wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    walls, peaks = [], []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "orthofold.cli", *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise SystemExit(f"{' '.join(argv)}: launcher exit {done.returncode}: {done.stderr.strip()}")
        # the command's stdout, less its final newline, then the launcher's line
        out, _, trailer = done.stdout[:-1].rpartition("\n")
        code, wall, kb = trailer.split()
        walls.append(float(wall))
        peaks.append(int(kb) / 1024.0)
        if code != "0" or not out.endswith(f"report-sha256: {sha}"):
            raise SystemExit(f"{' '.join(argv)}: process exit {code}, or not report {sha}")
    wall = {"min": round(min(walls), 6), "median": round(statistics.median(walls), 6)}
    rss = {k: round(f(peaks), 3) for k, f in (("min", min), ("median", statistics.median), ("max", max))}
    return wall, rss


def bench_command(argv: list[str], repeats: int) -> dict:
    runs = [run_once(argv) for _ in range(repeats)]
    codes = sorted({code for *_, code, _ in runs})
    shas = {sha for *_, sha in runs}
    if None in shas or len(shas) != 1 or codes != [0]:
        raise SystemExit(f"{' '.join(argv)}: exit codes {codes}, report hashes {shas}")
    sha = shas.pop()
    wall, rss = process_runs(argv, sha, repeats)
    doc = {
        "argv": argv,
        "report_sha256": sha,
        "first_s": {k: round(v, 6) for k, v in runs[0][0].items()},
        "min_s": {k: round(min(t[k] for t, *_ in runs), 6) for k in runs[0][0]},
        "process_s": wall,
        "process_rss_mb": rss,
    }
    actions = runs[0][1]
    if len(actions) > 1:
        doc["actions_min_s"] = {
            name: {k: round(min(r[1][name][k] for r in runs), 6) for k in (*STAGES, REPORT, "total")}
            for name in actions
        }
    return doc


def bench_workload(cmds: list[list[str]], repeats: int) -> dict:
    results = [bench_command(argv, repeats) for argv in cmds]
    summed = {k: round(sum(r["min_s"][k] for r in results), 6) for k in results[0]["min_s"]}
    process = {k: round(sum(r["process_s"][k] for r in results), 6) for k in ("min", "median")}
    rss = {"max": max(r["process_rss_mb"]["max"] for r in results)}
    return {"commands": results, "min_s": summed, "process_s": process, "process_rss_mb": rss}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_pipeline.json"))
    args = ap.parse_args(argv)

    plan = [(name, [c.args(SEED) for c in cmds], REPEATS) for name, cmds in WORKLOADS.items()]
    plan += [(name, cmds, LIBRARY_REPEATS) for name, cmds in LIBRARY_WORKLOADS.items()]
    workloads = {}
    for name, cmds, repeats in plan:
        workloads[name] = bench_workload(cmds, repeats)
        print(
            name,
            " ".join(f"{k}={v * 1e3:.1f}ms" for k, v in workloads[name]["min_s"].items()),
            " ".join(f"process_{k}={v * 1e3:.1f}ms" for k, v in workloads[name]["process_s"].items()),
            f"process_rss_max={workloads[name]['process_rss_mb']['max']:.2f}MB",
        )
    doc = {
        "harness": "benchmarks/bench_pipeline.py",
        "repeats": REPEATS,
        "library_repeats": LIBRARY_REPEATS,
        "seed": SEED,
        "stages": [*STAGES, REPORT],
        "env": {**probe.environment(), "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
