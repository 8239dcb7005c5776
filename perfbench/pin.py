"""Regenerate perfbench/pins.json: the sha256 of every artifact that the
simulation workloads can produce, one entry per pool master seed.

    python3 perfbench/pin.py [WORKLOAD ...]

Run from the root of a memesim checkout at the commit whose outputs are the
reference.  Workloads not named keep their existing entries.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import gen
from checks import digest_dir

HERE = Path(__file__).resolve().parent
PINNED = ("subcritical", "supercritical", "sweep")


def main(argv) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from memesim import cli

    pins_path = HERE / "pins.json"
    pins = json.loads(pins_path.read_text()) if pins_path.exists() else {}
    work = root / ".perfbench_work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    default = root / "configs" / "default.json"
    try:
        for workload in argv or PINNED:
            entries = {}
            for ms in (gen.SWEEP_POOL if workload == "sweep" else gen.SIM_POOL):
                out = work / f"{workload}-{ms}"
                if workload == "sweep":
                    cli.cmd_sweep(gen.sweep_config(default, ms, work / "sweep.json"), out)
                else:
                    cli.cmd_simulate(gen.simulate_config(workload, default, work), out,
                                     seed_override=ms)
                entries[str(ms)] = digest_dir(out)
                shutil.rmtree(out)
                print(workload, ms, flush=True)
            pins[workload] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    pins_path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
