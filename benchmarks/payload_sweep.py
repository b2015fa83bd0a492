"""Report hashes of a fixed sweep of commands, for diffing two checkouts.

    python3 benchmarks/payload_sweep.py > sweep.txt

Every command runs in this process through orthofold.cli.main, and the
script prints one line per command, `<command> <report-sha256>`. Run it in
two checkouts and diff the outputs: equal lines mean byte-identical hashed
payloads. The sweep covers:

- `analyze` of the six catalog actions and of cn-tn(3), s2-zn(2) and
  s2-zn(64), at 100 and 300 samples, seeds 0-3;
- `analyze s2-zn(5)` at 3000 samples, seeds 0-3;
- `verify all --samples 2000 --seed 0`;
- `classify` at every named point (cli._POINT_ALIASES) of those actions,
  seed 0.

The script exits 1 if any command exits non-zero or prints no hash, after
running the rest.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orthofold import actions, cli  # noqa: E402

ACTIONS = [*actions.catalog_ids(), "cn-tn(3)", "s2-zn(2)", "s2-zn(64)"]


def commands() -> list[list[str]]:
    out = []
    for name in ACTIONS:
        for samples in (100, 300):
            for seed in range(4):
                out.append(["analyze", name, "--samples", str(samples), "--seed", str(seed)])
    for seed in range(4):
        out.append(["analyze", "s2-zn(5)", "--samples", "3000", "--seed", str(seed)])
    out.append(["verify", "all", "--samples", "2000", "--seed", "0"])
    for name in ACTIONS:
        aliases = cli._POINT_ALIASES.get(name, cli._POINT_ALIASES.get(name.split("(")[0], {}))
        for point in aliases:
            out.append(["classify", name, point, "--seed", "0"])
    return out


def main() -> int:
    failed = 0
    for argv in commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        sha = text.rsplit("report-sha256:", 1)[1].strip() if "report-sha256:" in text else "-"
        if code != 0 or sha == "-":
            failed = 1
            sha = f"{sha} exit={code}"
        print(" ".join(argv), sha, flush=True)
    return failed


if __name__ == "__main__":
    sys.exit(main())
