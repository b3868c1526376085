"""Set-up probe: one fresh interpreter imports chlab and loads the plan's
configs, as every CLI invocation does before its work starts.

Prints one JSON line: the wall-clock time at which set-up ended (the
caller subtracts the time it started the interpreter) and the split into
import, config loading with validation, and initial-data building.

Usage: python3 perfbench/setup_probe.py ROOT PLAN.json
"""

import json
import sys
import time
from pathlib import Path

root, plan_path = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "src"))
t0 = time.perf_counter()
import chlab.cli  # noqa: E402
from chlab.config import load_scenario  # noqa: E402

t1 = time.perf_counter()
scenarios = [load_scenario(p)
             for p in json.loads(plan_path.read_text())["configs"].values()]
t2 = time.perf_counter()
for scenario in scenarios:
    scenario.build_initial()
t3 = time.perf_counter()
end = time.time()
print(json.dumps({"end": end, "import_s": t1 - t0, "load_s": t2 - t1,
                  "build_s": t3 - t2}))
