"""Guard for the benchmark's tracer, which patches memesim by name."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Install the tracer, then run one tiny simulation through the patched names.
SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from memesim import cli
tracer.install(tracer.Tracer())
doc = {"population": 30, "recruits": 2, "horizon_ticks": 8,
       "world_width": 8.0, "world_height": 8.0, "output_dir": sys.argv[3]}
with open(sys.argv[3] + ".json", "w") as fh:
    json.dump(doc, fh)
sys.exit(cli.main(["simulate", "--config", sys.argv[3] + ".json"]))
"""


def test_tracer_installs_on_current_names(tmp_path):
    # A rename in memesim makes install() raise AttributeError, which would
    # otherwise surface only in a traced benchmark run.
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(tmp_path / "run")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "events.log").is_file()
