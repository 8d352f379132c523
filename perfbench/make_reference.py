"""Write perfbench/reference.json: the blow-up time t* and snapshot count of
every blowup-workload delta, as computed by the program at the current
commit. The checked-in file holds the values of the commit that defined the
benchmark; the blowup check compares later commits against them.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from critwave import solver  # noqa: E402

from workloads import BLOWUP_DELTAS, REFERENCE, blowup_config  # noqa: E402


def main() -> int:
    out = {}
    for delta in BLOWUP_DELTAS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = solver.run(solver.RunConfig.from_dict(blowup_config(delta)))
        out[repr(delta)] = {"t_star": rep.t_star, "snapshots": len(rep.snapshots),
                            "outcome": rep.outcome, "energy_drift": rep.energy_drift}
        print(delta, out[repr(delta)], flush=True)
    REFERENCE.write_text(json.dumps({"blowup": out}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
