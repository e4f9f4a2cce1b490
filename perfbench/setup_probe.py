"""Time one set-up of a workload in a fresh process: import locdom, build the inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR

run.py starts this once per set-up repeat, from the root of a locdom
checkout.  Each repeat so pays the cold import of locdom and of everything
locdom imports while its workload sets up (networkx too, where that set-up
needs it), as a CLI call does.  Only refclock and the benchmark's workload
module, which import no third-party package, are loaded before the timer
starts.  Prints one JSON object: raw seconds, and work in reference-loop
units (refclock.PassTimer).
"""

from __future__ import annotations

import importlib
import json
import os
import sys

from refclock import PassTimer
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    name, seed, work_dir = argv[0], int(argv[1]), argv[2]
    # run.py has checked that ./src/locdom is the program it imports.
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    workload = WORKLOADS[name]

    def set_up():
        importlib.import_module("locdom.cli")
        return workload.setup(sys.modules["locdom"], seed, work_dir)

    _, raw_s, rel = PassTimer().measure(set_up)
    print(json.dumps({"raw_s": raw_s, "rel": rel}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
