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
the first repetition, which starts with this process's caches cold, as a
fresh CLI process does; a workload's stage time is the sum over its
commands. Every repetition of a command must exit 0 and print a
report-sha256, the same one each time, which is recorded. The environment
(core count, BLAS library and threads, Python and numpy versions) is
perfbench/probe.py's, which needs scipy (the test extra).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
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


@contextlib.contextmanager
def timed_stages(times: dict):
    """Add the seconds spent in each stage function to times[stage]."""
    saved = []
    for stage, (module, name) in STAGES.items():
        fn = getattr(module, name)

        def timed(*args, _fn=fn, _stage=stage, **kwargs):
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                times[_stage] += time.perf_counter() - start

        saved.append((module, name, fn))
        setattr(module, name, timed)
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def run_once(argv: list[str]) -> tuple[dict, int, str | None]:
    """Stage seconds, exit code and report-sha256 of one command."""
    times = dict.fromkeys(STAGES, 0.0)
    out = io.StringIO()
    gc.collect()
    with timed_stages(times), contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        total = time.perf_counter() - start
    times[REPORT] = total - sum(times.values())
    times["total"] = total
    trailer = [line for line in out.getvalue().splitlines() if line.startswith("report-sha256:")]
    sha = trailer[0].split()[1] if trailer else None
    return times, code, sha


def bench_command(argv: list[str]) -> dict:
    runs = [run_once(argv) for _ in range(REPEATS)]
    codes = sorted({code for _, code, _ in runs})
    shas = {sha for *_, sha in runs}
    if None in shas or len(shas) != 1 or codes != [0]:
        raise SystemExit(f"{' '.join(argv)}: exit codes {codes}, report hashes {shas}")
    return {
        "argv": argv,
        "report_sha256": shas.pop(),
        "first_s": {k: round(v, 6) for k, v in runs[0][0].items()},
        "min_s": {k: round(min(t[k] for t, *_ in runs), 6) for k in runs[0][0]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_pipeline.json"))
    args = ap.parse_args(argv)

    workloads = {}
    for name, cmds in WORKLOADS.items():
        results = [bench_command(c.args(SEED)) for c in cmds]
        summed = {k: round(sum(r["min_s"][k] for r in results), 6) for k in results[0]["min_s"]}
        workloads[name] = {"commands": results, "min_s": summed}
        print(name, " ".join(f"{k}={v * 1e3:.1f}ms" for k, v in summed.items()))
    doc = {
        "harness": "benchmarks/bench_pipeline.py",
        "repeats": REPEATS,
        "seed": SEED,
        "stages": [*STAGES, REPORT],
        "env": probe.environment(),
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
