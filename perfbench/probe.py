"""Set-up probe: import loopcs and build one workload's inputs, then exit.

    python3 perfbench/probe.py <workload> <seed>

Prints one JSON line with the import and input-building times as soon as
the inputs are ready; run.py times the whole interpreter from spawn to
that line.  References are not computed here: they are the benchmark's
own cost, not the program's.
"""
import json
import sys
import time

import common

start = time.perf_counter()
common.import_loopcs()
import loopcs.cli  # noqa: E402,F401  (the custom_cli workload drives the CLI)
imported = time.perf_counter()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), common.OUT_DIR / "probe")
ready = time.perf_counter()
print(json.dumps({"import_s": imported - start, "inputs_s": ready - imported}),
      flush=True)
