"""Run one orthofold CLI command with the public functions of its layers timed.

    PYTHONPATH=src python3 perfbench/tracer.py verify cp2-so3 --samples 100 --seed 0

Every public function defined in the layer modules is wrapped from outside
the program, and the wrapper is bound in place of the original under every
name that any orthofold module holds it by, so `from .isotropy import
stabilizer` callers are traced too. The command's output goes to stdout
unchanged. When it returns, one line `perfbench-trace: {json}` on stderr
holds per function its call count, inclusive seconds (outermost frames
only), self seconds (minus traced children) and extra counters, plus the
stabilizer-call count seen inside each cloud build.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from orthofold import actions, cli, groups, isotropy, kernels, quotient, strata

LAYERS = (strata, isotropy, kernels, groups, actions, quotient, cli)
TRACE_PREFIX = "perfbench-trace: "

# extra counters: function -> {counter: f(bound arguments, result)}
COUNTERS = {
    "kernels.so3_refine": {"rows": lambda a, out: len(a["G0"])},
    "groups.sample_elements": {"elements": lambda a, out: int(a["count"])},
    "actions.pairwise_distances": {"bytes_computed": lambda a, out: int(out.nbytes)},
    "isotropy.transport_element": {"found": lambda a, out: int(out is not None)},
}


class Tracer:
    """Call counts, inclusive and self time per wrapped function."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.extra: dict[str, dict] = {}
        self.clouds: list[dict] = []
        self._stack: list[list] = []  # per open frame: [start, traced child seconds]
        self._depth: dict[str, int] = {}
        # seconds spent in run_pipeline while verify_action is open, so the
        # check battery's own time is verify_action minus this
        self.pipeline_in_verify_s = 0.0

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        counters = COUNTERS.get(name)
        extra = self.extra.setdefault(name, {k: 0 for k in counters}) if counters else None
        sig = inspect.signature(fn) if counters else None
        stack, depth = self._stack, self._depth
        clock = time.perf_counter
        in_pipeline = name == "cli.run_pipeline"

        def traced(*args, **kwargs):
            level = depth.get(name, 0)
            depth[name] = level + 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                depth[name] = level
                stats[0] += 1
                if level == 0:
                    stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if in_pipeline and depth.get("cli.verify_action", 0):
                    self.pipeline_in_verify_s += dur
            if counters:
                bound = sig.bind(*args, **kwargs).arguments
                for key, count in counters.items():
                    extra[key] += count(bound, out)
            return out

        return functools.wraps(fn)(traced)

    def wrap_build_cloud(self, traced_fn):
        """Record, per cloud, its size and the stabilizer calls made inside."""
        stab = self.stats["isotropy.stabilizer"]

        def build_cloud(*args, **kwargs):
            before = stab[0]
            cloud = traced_fn(*args, **kwargs)
            self.clouds.append(
                {"action": cloud.action, "points": len(cloud), "stabilizer_calls": stab[0] - before}
            )
            return cloud

        return functools.wraps(traced_fn)(build_cloud)

    def install(self) -> None:
        """Wrap every public layer function and rebind it in every orthofold module."""
        replace: dict[int, tuple] = {}
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                replace[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        build = id(strata.build_cloud)
        original, traced = replace[build]
        replace[build] = (original, self.wrap_build_cloud(traced))

        for name, mod in list(sys.modules.items()):
            if name != "orthofold" and not name.startswith("orthofold."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def summary(self) -> dict:
        return {
            "functions": {
                name: {"calls": c, "s": s, "self_s": self_s, **self.extra.get(name, {})}
                for name, (c, s, self_s) in sorted(self.stats.items())
            },
            "pipeline_in_verify_s": self.pipeline_in_verify_s,
            "clouds": self.clouds,
        }


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        # also when the command raises, so the counts up to the crash are kept
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.summary()) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
