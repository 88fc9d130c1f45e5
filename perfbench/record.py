"""Record the reference output digests in ``golden.json``.

    python3 perfbench/record.py --workload covert_paper --seeds 0 15

Run this only on a commit whose outputs are known good: the benchmark
treats every later digest that differs as a failed experiment.  Existing
entries for other workloads and seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from run import SCRATCH, import_program
    from workloads import WORKLOADS

    import_program()
    workload = WORKLOADS[args.workload]
    path = HERE / "golden.json"
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        iteration = workload.run(seed, SCRATCH, nullcontext)
        digests = iteration.digests()
        failed = [name for name, digest in digests.items() if digest is None]
        if failed:
            print(f"{args.workload} seed {seed}: {failed} raised; not recorded", file=sys.stderr)
            return 1
        golden = json.loads(path.read_text())
        golden.setdefault(args.workload, {})[str(seed)] = digests
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"{args.workload} seed {seed}: {iteration.wall:.2f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
