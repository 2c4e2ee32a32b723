"""Time a cold ``import switchcap`` plus building one fixed channel.

Run in a fresh interpreter by ``run.py``::

    python3 perfbench/cold_start.py SRC_DIR '{"kind": ..., "family": ..., "p": ..., "amps": ...}'

and prints the seconds from before the import to the fixed channel.
"""

import json
import sys
import time

src, spec = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
start = time.perf_counter()
import switchcap  # noqa: E402  (the import is what is timed)

amps = None if spec["amps"] is None else [complex(re, im) for re, im in spec["amps"]]
switchcap.fix_control(
    switchcap.build_supermap(
        switchcap.SupermapKind(spec["kind"]),
        switchcap.Family(spec["family"]),
        spec["p"],
        amps,
    )
)
print(time.perf_counter() - start)
