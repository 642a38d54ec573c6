"""One benchmark set-up in a fresh process, timed by run.py from outside.

Imports gaudinlab.cli, generates the workload's configs from the seed and
validates each with load_config, then exits.  The host's speed is probed
throughout (hostspeed.py); the last line of standard output is the probes'
total seconds and the speed scale, for run.py to correct the wall time.

usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import json
import sys
from pathlib import Path

from hostspeed import HostSpeed

speed = HostSpeed()
speed.start()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gaudinlab import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

for call in WORKLOADS[sys.argv[1]](int(sys.argv[2])):
    cli.load_config(call.config)
speed.stop()
print(json.dumps({"probe_s": sum(speed.probes), "scale": speed.scale()}))
