"""orthofold pipeline benchmark: three search-shaped workloads run through the CLI.

A run of a workload runs its real commands, `python3 -m orthofold.cli
verify|analyze <action> ... --seed <s>`, one per action, each in a fresh child
process, once for each of the INPUTS program seeds the benchmark seed gives,
and reads each child's own wall time, CPU time and peak resident memory
(os.wait4). Every report is checked: the exit code, the [PASS]/[FAIL] lines,
the report-sha256 trailer against the payload it covers, and identical
payloads whenever one program seed runs more than once.

    python3 perfbench/run.py --workload so3-search --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0    # every workload in turn

--trace 0 measures the end-to-end metrics over all of the seed's inputs.
--trace 1 takes only the first input: it alternates untraced runs with runs
under perfbench/tracer.py, at least twice and as often as fits in --seconds,
and reports per-layer metrics instead. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Command:
    verb: str  # verify | analyze
    action: str
    samples: int

    def args(self, seed: int) -> list[str]:
        return [self.verb, self.action, "--samples", str(self.samples), "--seed", str(seed)]


def commands(verb: str, actions: tuple[str, ...], samples: int) -> tuple[Command, ...]:
    return tuple(Command(verb, a, samples) for a in actions)


# A workload runs one command, in its own process, per action, so that an
# action the program crashes in does not skip the work of the others.
# Sample counts: below about 100 the search workloads' small clouds hit
# degenerate interval models and skewed principal classes, which fail checks
# for reasons no search optimisation touches. cn-tn(3) is left out of
# torus-search: its 73 catalog special points alone take 12-18 s, too long to
# repeat within one run.
WORKLOADS = {
    "so3-search": commands("verify", ("s2xs2-so3", "cp2-so3"), 100),
    "torus-search": commands("verify", ("rp2-so2", "cp2-u1", "cn-tn(2)"), 100),
    "finite-dense": commands("analyze", ("s2-zn(5)",), 3000),
}
WORKLOADS_ACTIONS = sorted({c.action for cmds in WORKLOADS.values() for c in cmds})
# Program seeds per benchmark seed. How long a search command takes depends on
# its cloud (so3-search, one BLAS thread: 5.4-7.0 s over eight seeds, 5.4-5.9 s
# in seven of eight runs of one seed), so a run averages over several clouds
# instead of repeating one. It is also the number of timed `catalog` processes
# per round, whose median is setup_s. Four keeps a round of a search workload
# under 50 s when the host runs at its slowest seen (so3-search 11 s a seed).
INPUTS = 4
# One BLAS thread in every child. With the default (one per core) the search
# commands spin a second core for no gain in wall time, and so3-search's wall
# time at one seed spread by 22% (interquartile range over eight runs on a
# shared 2-core host) against 5% with one thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TRACED_REPS = 2  # least number of traced runs; their counts must agree exactly
BUDGET_S = 170.0  # a single-workload run must end within 180 s
TRACE_PREFIX = "perfbench-trace: "

# per-layer counts, which repeat exactly at one seed: metric -> (function, field, unit)
LAYER_COUNTS = {
    "isotropy.stabilizer.calls": ("isotropy.stabilizer", "calls", "count"),
    "kernels.so3_refine.calls": ("kernels.so3_refine", "calls", "count"),
    "kernels.so3_refine.rows": ("kernels.so3_refine", "rows", "count"),
    "groups.in_identity_component.calls": ("groups.in_identity_component", "calls", "count"),
    "groups.sample_elements.calls": ("groups.sample_elements", "calls", "count"),
    "groups.sample_elements.elements": ("groups.sample_elements", "elements", "count"),
    "isotropy.slice_representation.calls": ("isotropy.slice_representation", "calls", "count"),
    "actions.pairwise_distances.calls": ("actions.pairwise_distances", "calls", "count"),
    "actions.pairwise_distances.bytes_computed": ("actions.pairwise_distances", "bytes_computed", "B"),
    "quotient.local_model.calls": ("quotient.local_model", "calls", "count"),
    "isotropy.transport_element.calls": ("isotropy.transport_element", "calls", "count"),
    "isotropy.transport_element.found": ("isotropy.transport_element", "found", "count"),
}
# per-layer seconds, median of the traced repetitions: metric -> (function, field)
LAYER_TIMES = {
    "strata.build_cloud.s": ("strata.build_cloud", "s"),
    "isotropy.stabilizer.self_s": ("isotropy.stabilizer", "self_s"),
    "isotropy.slice_representation.s": ("isotropy.slice_representation", "s"),
    "strata.isostabilizer_decomposition.s": ("strata.isostabilizer_decomposition", "s"),
    "actions.pairwise_distances.s": ("actions.pairwise_distances", "s"),
    "quotient.klein_partition.self_s": ("quotient.klein_partition", "self_s"),
    "quotient.local_model.s": ("quotient.local_model", "s"),
    "cli.render_report.s": ("cli.render_report", "s"),
}
# printed with the trace but kept out of the JSON metrics, which hold only
# times measured on every workload: these read exactly 0 s on a workload
# that never enters the layer
LAYER_TIMES_PRINTED = {
    "kernels.so3_refine.s": ("kernels.so3_refine", "s"),
    "groups.in_identity_component.s": ("groups.in_identity_component", "s"),
    "isotropy.transport_element.s": ("isotropy.transport_element", "s"),
}


@dataclass
class Run:
    code: int
    out: str
    err: str
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Rep:
    """One repetition of a workload: its commands run one after another."""

    runs: list[Run]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.runs)

    @property
    def rss_mb(self) -> float:
        return max(r.rss_mb for r in self.runs)


def run_child(args: list[str], deadline: float) -> Run:
    """Run `python3 <args>` from the checkout root with src on the path.

    The child is killed at the deadline (time.monotonic). Its rusage comes
    from wait4 on its own pid, so peak memory is the child's alone.
    """
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # interrupted (SIGTERM, ^C): the child does not outlive the benchmark
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Run(
        code=proc.returncode,
        out=out.decode("utf-8", "replace"),
        err=err[0].decode("utf-8", "replace"),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def parse_report(text: str):
    """Lines before the report document, its payload and its sha256.

    Raises ValueError unless the trailer hash matches the payload region
    exactly as the CLI serialized it.
    """
    lines = text.splitlines(keepends=True)
    if not lines or not lines[-1].startswith("report-sha256: "):
        raise ValueError("missing report-sha256 trailer")
    sha = lines[-1].split(":", 1)[1].strip()
    if "{\n" not in lines:
        raise ValueError("missing report document")
    start = lines.index("{\n")
    doc = "".join(lines[start:-1])
    marker = '\n "payload": '
    at = doc.find(marker)
    if at < 0 or not doc.endswith("\n}\n"):
        raise ValueError("malformed report document")
    if hashlib.sha256(doc[at + len(marker) : -3].encode("utf-8")).hexdigest() != sha:
        raise ValueError("report-sha256 does not match the payload")
    return lines[:start], json.loads(doc)["payload"], sha


def crash_of(run: Run) -> str | None:
    """The exception line of a command the program ended with an uncaught exception."""
    if run.code > 0 and "Traceback (most recent call last):" in run.err:
        return _tail(run.err)
    return None


def check_output(cmd: Command, seed: int, points: int, run: Run):
    """(operations, failed operations, outcome, problems) of one command.

    An operation is a verify check, or the whole pipeline for analyze. A
    [FAIL] line or a nonzero exit is a failed operation. When the program
    ends with an uncaught exception, the checks it printed before count as
    operations and the crash as one more, failed; the outcome is then the
    exception line instead of the payload sha256. A report that is
    malformed or inconsistent with the command, or no report without such a
    crash, is a problem, which makes the run incorrect.
    """
    crash = crash_of(run)
    if crash is not None and "report-sha256: " not in run.out:
        checks = [ln for ln in run.out.splitlines() if ln.startswith(("[PASS] ", "[FAIL] "))]
        fails = sum(ln.startswith("[FAIL] ") for ln in checks) + 1
        return len(checks) + 1, fails, f"crash: {crash}", []
    try:
        head, payload, sha = parse_report(run.out)
    except ValueError as e:
        return 1, 1, None, [f"{e} (exit {run.code}: {_tail(run.err)})"]
    problems = []
    if payload.get("seed") != seed or payload.get("samples") != cmd.samples:
        problems.append("report seed or sample count differs from the command")
    if cmd.verb == "verify":
        checks = [ln for ln in head if ln.startswith(("[PASS] ", "[FAIL] "))]
        ops = len(checks)
        fails = sum(ln.startswith("[FAIL] ") for ln in checks)
        docs = payload.get("actions", [])
        if (
            [d["action"] for d in docs] != [cmd.action]
            or sum(len(d["checks"]) for d in docs) != ops
            or payload.get("failures") != fails
            or f"{'FAIL' if fails else 'PASS'}: {fails} failing check(s)\n" not in head
        ):
            problems.append("check lines disagree with the report payload")
        if run.code != (1 if fails else 0):
            problems.append(f"exit code {run.code} with {fails} failing checks")
            fails = max(fails, 1)
    else:
        ops, fails = 1, int(run.code != 0)
        if run.code != 0:
            problems.append(f"exit code {run.code}")
        if payload.get("action") != cmd.action or payload.get("cloud", {}).get("points") != points:
            problems.append("report action or cloud size differs from the command")
    return ops, fails, sha, problems


class Measurement:
    """Runs of one workload at one benchmark seed, with their correctness tally."""

    def __init__(self, name: str, seed: int, specials: dict, deadline: float):
        self.name, self.deadline = name, deadline
        # program seeds: disjoint for distinct benchmark seeds, and seed 0
        # gives the pinned program seed 0 first
        self.seeds = [INPUTS * seed + i for i in range(INPUTS)]
        self.cmds = WORKLOADS[name]
        self.cloud = {c.action: c.samples + specials[c.action] for c in self.cmds}
        self.points = sum(self.cloud.values())
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # per (action, program seed): its payload sha256s, or crash lines, over all runs
        self.outcomes: dict[tuple[str, int], set[str]] = {}

    def crashed(self, action: str, seed: int) -> bool:
        return any(o.startswith("crash: ") for o in self.outcomes.get((action, seed), ()))

    def run(self, traced: bool, seed: int, label: str) -> Rep:
        """The workload's commands at one program seed."""
        prefix = [str(HERE / "tracer.py")] if traced else ["-m", "orthofold.cli"]
        rep = Rep([])
        ops = fails = 0
        for cmd in self.cmds:
            run = run_child(prefix + cmd.args(seed), self.deadline)
            rep.runs.append(run)
            o, f, outcome, problems = check_output(cmd, seed, self.cloud[cmd.action], run)
            ops, fails = ops + o, fails + f
            self.problems += problems
            if outcome:
                self.outcomes.setdefault((cmd.action, seed), set()).add(outcome)
        self.attempted += ops
        self.failed += fails
        print(
            f"{label}: wall {rep.wall_s:.3f} s, cpu {rep.cpu_s:.3f} s, rss {rep.rss_mb:.1f} MB,"
            f" exit {','.join(str(r.code) for r in rep.runs)}, {ops} ops, {fails} failed",
            flush=True,
        )
        return rep

    def rounds(self, seconds: float, min_rounds: int, one_round) -> list:
        """one_round(1), one_round(2), ...: as many as fit in `seconds`, and at
        least min_rounds unless the run's budget ends first."""
        results = []
        start = time.monotonic()
        while True:
            cycle = time.monotonic()
            results.append(one_round(len(results) + 1))
            now = time.monotonic()
            if now + (now - cycle) > self.deadline:
                print(f"stopped after {len(results)} rounds at the {BUDGET_S:.0f} s budget")
                break
            if len(results) >= min_rounds and now - start + (now - cycle) > seconds:
                break
        return results

    def setup_once(self) -> float:
        """Wall time of one fresh `orthofold catalog` process, whose listing is checked."""
        run = run_child(["-m", "orthofold.cli", "catalog"], self.deadline)
        names = {ln.split()[0] for ln in run.out.splitlines() if "group=" in ln}
        if run.code != 0 or not set(WORKLOADS_ACTIONS) <= names:
            self.problems.append(f"catalog failed (exit {run.code}: {_tail(run.err)})")
        return run.wall_s

    def traced(self, seed: int, label: str) -> tuple[Rep, dict]:
        """One traced run at one program seed, and the trace of its commands summed."""
        rep = self.run(True, seed, label)
        total: dict = {"functions": {}, "pipeline_in_verify_s": 0.0, "clouds": []}
        for run in rep.runs:
            lines = [ln for ln in run.err.splitlines() if ln.startswith(TRACE_PREFIX)]
            if not lines:
                self.problems.append(f"traced run gave no trace ({_tail(run.err)})")
                continue
            s = json.loads(lines[-1][len(TRACE_PREFIX) :])
            for fn, rec in s["functions"].items():
                acc = total["functions"].setdefault(fn, dict.fromkeys(rec, 0))
                for k, v in rec.items():
                    acc[k] += v
            total["pipeline_in_verify_s"] += s["pipeline_in_verify_s"]
            total["clouds"] += s["clouds"]
        return rep, total

    def trace_problems(self, seed: int, summaries: list[dict]) -> list[str]:
        """Self-checks of the traced runs: complete rebinding, repeatable counts."""
        problems = []
        for s in summaries:
            seen = {c["action"]: c for c in s["clouds"]}
            # an action the program crashed in may have crashed before its
            # cloud was built
            expected = [c.action for c in self.cmds if c.action in seen or not self.crashed(c.action, seed)]
            if len(s["clouds"]) != len(seen) or sorted(seen) != sorted(expected):
                built = [c["action"] for c in s["clouds"]]
                problems.append(f"traced clouds {built} differ from the workload's actions")
            for act, c in seen.items():
                if c["points"] != self.cloud.get(act):
                    problems.append(f"{act}: traced cloud of {c['points']} points, expected {self.cloud.get(act)}")
                if c["stabilizer_calls"] < c["points"]:
                    problems.append(
                        f"{act}: {c['stabilizer_calls']} traced stabilizer calls for {c['points']}"
                        " points; some caller still holds the untraced function"
                    )
        counts = [
            {fn: {k: v for k, v in rec.items() if k not in ("s", "self_s")} for fn, rec in s["functions"].items()}
            for s in summaries
        ]
        if len(counts) < TRACED_REPS or any(c != counts[0] for c in counts):
            problems.append("traced runs of one seed gave different counts")
        return problems

    def finish(self) -> bool:
        for (action, seed), outcomes in sorted(self.outcomes.items()):
            if len(outcomes) > 1:
                self.problems.append(f"{action}: runs of seed {seed} gave different payloads or crashes")
            for outcome in sorted(outcomes):
                if outcome.startswith("crash: "):
                    print(f"FAILED {self.name} {action} seed {seed}: the command ended in {outcome[7:]}")
                else:
                    print(f"payload-sha256 {self.name} {action} seed {seed}: {outcome}")
        ratio = self.failed / self.attempted if self.attempted else float("nan")
        print(f"check_fail_ratio {self.name}: {ratio:.6g} ({self.failed}/{self.attempted})")
        for p in self.problems:
            print(f"PROBLEM {self.name}: {p}")
        return not self.problems


def probe(names: tuple[str, ...], deadline: float) -> dict:
    """Environment and special-point counts; also warms the bytecode and page caches."""
    run = run_child([str(HERE / "probe.py"), *names], deadline)
    if run.code != 0:
        raise SystemExit(f"perfbench: probe failed (exit {run.code}): {_tail(run.err)}")
    return json.loads(run.out.strip().splitlines()[-1])


def field(summary: dict, fn: str, key: str):
    return summary["functions"].get(fn, {}).get(key, 0)


def end_to_end(m: Measurement, seconds: float) -> dict:
    """Per round, the mean over its program seeds; reported, the median round.

    Each workload run is preceded by one timed `catalog` process, so set-up
    and workload are sampled over the same stretch of time.
    """
    setup: list[float] = []

    def one_round(i: int) -> list[Rep]:
        reps = []
        for seed in m.seeds:
            setup.append(m.setup_once())
            reps.append(m.run(False, seed, f"round {i} seed {seed}"))
        return reps

    rounds = m.rounds(seconds, 1, one_round)
    print("setup runs: " + ", ".join(f"{w:.3f}" for w in setup) + " s")

    def per_round(value) -> float:
        return statistics.median(value(reps) for reps in rounds)

    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (per_round(lambda reps: statistics.fmean(r.wall_s for r in reps)), "s"),
        "points_per_s": (per_round(lambda reps: len(reps) * m.points / sum(r.wall_s for r in reps)), "1/s"),
        "cpu_s": (per_round(lambda reps: statistics.fmean(r.cpu_s for r in reps)), "s"),
        "peak_rss_mb": (per_round(lambda reps: max(r.rss_mb for r in reps)), "MB"),
    }


def per_layer(m: Measurement, seconds: float) -> dict:
    """Untraced and traced runs of the first program seed, alternated so that
    both sample the same stretch of time."""
    seed = m.seeds[0]

    def one_pair(i: int) -> tuple[Rep, Rep, dict]:
        plain = m.run(False, seed, f"untraced run {i} seed {seed}")
        return (plain, *m.traced(seed, f"traced run {i} seed {seed}"))

    pairs = m.rounds(seconds, TRACED_REPS, one_pair)
    plain, traced, summaries = (list(x) for x in zip(*pairs))
    m.problems += m.trace_problems(seed, summaries)
    first = summaries[0]
    metrics = {k: (field(first, fn, key), unit) for k, (fn, key, unit) in LAYER_COUNTS.items()}
    tried = field(first, "isotropy.transport_element", "calls")
    found = field(first, "isotropy.transport_element", "found")
    metrics["isotropy.transport_element.found_ratio"] = (found / tried if tried else 0.0, "ratio")
    for k, (fn, key) in LAYER_TIMES.items():
        metrics[k] = (statistics.median(field(s, fn, key) for s in summaries), "s")
    overhead = statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
    metrics["trace_overhead_s"] = (overhead, "s")

    printed = {
        k: statistics.median(field(s, fn, key) for s in summaries)
        for k, (fn, key) in LAYER_TIMES_PRINTED.items()
    }
    printed["cli.checks.s"] = statistics.median(
        field(s, "cli.verify_action", "s") - s["pipeline_in_verify_s"] for s in summaries
    )
    for k, v in printed.items():
        print(f"{k} {v!r} s (printed only)")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[bool, int, int, dict]:
    """Correctness, operations attempted and failed, and {metric: (value, unit)}."""
    deadline = time.monotonic() + BUDGET_S
    info = probe(tuple(c.action for c in WORKLOADS[name]), deadline)
    m = Measurement(name, seed, info["specials"], deadline)
    seeds = m.seeds[:1] if trace else m.seeds
    shown = "; ".join(" ".join(c.args(seeds[0])[:-1] + ["<s>"]) for c in m.cmds)
    print(f"workload {name}: {shown} for s in {seeds} ({m.points} cloud points per seed)")
    print("env " + json.dumps(info["env"], sort_keys=True))
    metrics = per_layer(m, seconds) if trace else end_to_end(m, seconds)
    correct = m.finish()
    for k, (v, unit) in metrics.items():
        print(f"{k} {v!r} {unit}")
    return correct, m.attempted, m.failed, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument(
        "--seed",
        type=int,
        default=0,
        help=f"benchmark seed n, giving program seeds {INPUTS}n to {INPUTS}n+{INPUTS - 1} (default 0)",
    )
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "orthofold" / "cli.py").is_file():
        print(f"perfbench: no orthofold source under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, met = measure(name, args.seed, args.seconds, bool(args.trace))
        correct &= ok
        attempted += att
        failed += fail
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in met.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
