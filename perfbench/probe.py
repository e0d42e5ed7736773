"""One set-up of a workload in a fresh process, for the set-up time metric.

    python3 perfbench/probe.py <workload> <seed>

Imports flexcat from the checkout, builds the workload, draws its first
requests and warms up, then prints {"import_s": ...} and exits. The parent
times the process from its start until that line arrives.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    import_s = run.load_package()
    import workloads

    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=run.OUT)
    try:
        wl = workloads.WORKLOADS[name](workdir, str(run.ROOT))
        rng = run.workload_rng(name, seed)
        [wl.request(rng) for _ in range(wl.block)]
        wl.warm_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
