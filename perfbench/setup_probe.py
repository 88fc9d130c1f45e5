"""Time ``import repro`` plus building one runtime, in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py '<default_runtime kwargs as JSON>'``.
Prints the normalised seconds taken and, on the next line, the host
slice time sampled meanwhile (see ``hostspeed.py``).  ``run.py`` starts
it several times per run and reports the median as ``setup_s``.
"""

import json
import sys
import time
from pathlib import Path

from hostspeed import SpeedSampler

#: Seconds between two host-speed samples: the setup lasts tenths of a second.
PERIOD_S = 0.02


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    kwargs = json.loads(sys.argv[1])
    with SpeedSampler(PERIOD_S) as sampler:
        started = time.perf_counter()
        from repro.experiments.common import default_runtime

        default_runtime(**kwargs)
        setup = time.perf_counter() - started
    for value in sampler.normalised(started, setup):
        print(repr(value))


if __name__ == "__main__":
    main()
