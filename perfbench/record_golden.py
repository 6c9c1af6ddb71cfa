"""Record golden.json: output digests of round 0 of every workload at the
default seed.

    python3 perfbench/record_golden.py

``run.py`` compares the default seed's round-0 digests with this record, to
1e-9 relative.  Re-record only on a commit whose outputs are known good, and
say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    cli = run.load_program()
    record = {"seed": run.DEFAULT_SEED, "git_revision": run.git_revision(),
              "workloads": {}}
    for name in WORKLOADS:
        work_dir = run.WORK_ROOT / f"golden-{name}-{os.getpid()}"
        try:
            runner = run.Runner(cli, name, run.DEFAULT_SEED, work_dir)
            results = [runner.generate()] + [runner.run(op) for op in runner.rounds[0]]
            for result in results:
                if not result.ok:
                    print(f"{name} {result.op_id} failed: {result.error}", file=sys.stderr)
                    return 1
            digests = {r.op_id: r.digest for r in results[1:]}
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        record["workloads"][name] = digests
    run.GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
