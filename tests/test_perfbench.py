"""Guard for the benchmark's tracer, which patches memesim by name."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"

# Install the tracer, then run one tiny simulation, analyze and fit through
# the patched names, and print the traced call counts.
SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from memesim import cli
trace = tracer.Tracer()
tracer.install(trace)
out, fixtures = sys.argv[3], sys.argv[4]
doc = {"population": 30, "recruits": 2, "horizon_ticks": 8,
       "world_width": 8.0, "world_height": 8.0, "output_dir": out}
with open(out + ".json", "w") as fh:
    json.dump(doc, fh)
codes = [cli.main(["simulate", "--config", out + ".json"]),
         cli.main(["analyze", "--log", fixtures + "/tiny.log", "--bin", "2",
                   "--out", out + "-analysis"]),
         cli.main(["fit", "--data", fixtures + "/line.csv", "--model", "ols",
                   "--out", out + "-fit.json"])]
print(json.dumps({"codes": codes, "calls": trace.summary()["calls"]}))
"""


def test_tracer_installs_on_current_names(tmp_path):
    # A rename in memesim makes install() raise AttributeError, which would
    # otherwise surface only in a traced benchmark run.
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(tmp_path / "run"), str(FIXTURES)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "events.log").is_file()
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    for name in ("engine.run", "engine.recruit_step", "engine.walk_step",
                 "engine.wrap_coords", "core.RngStream.uniforms",
                 "cli.cmd_analyze", "logio.aggregate_hits",
                 "logio.writers", "cli.cmd_fit", "stats.load_design_csv",
                 "stats.ols_fit"):
        assert report["calls"].get(name, 0) >= 1, name
