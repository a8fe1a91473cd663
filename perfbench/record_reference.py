"""Record the reference digest of every unit's canonical output.

    python3 perfbench/record_reference.py

Runs each unit once, single-process (sweep output does not depend on the
worker count), the seeded search units once per seed in RECORDED_SEEDS, and
writes ``reference.json``.  The digests in the committed file were recorded
at the commit named in it; re-record only when a change is meant to alter
output, and say so in that change.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import git_commit  # noqa: E402


def main() -> int:
    ref: dict = {"recorded_at_commit": git_commit()}
    tmp = workloads.tmpdir_for(ROOT)
    try:
        for w in workloads.WORKLOADS.values():
            digests = ref[w.name] = {}
            for unit in w.units:
                for seed in workloads.RECORDED_SEEDS if unit.seeded else (0,):
                    ctx = workloads.Context(seed=seed, workers=1, tmpdir=tmp)
                    out, items = unit.run(ctx)
                    digests[unit.reference_key(seed)] = workloads.digest(out)
                    flag = "" if items == unit.items else f"  (pinned {unit.items})"
                    print(f"{w.name:8s} {unit.reference_key(seed):48s} items={items}{flag}",
                          flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
