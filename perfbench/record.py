#!/usr/bin/env python3
"""Write perfbench/expected.json: the outcome of every op of every
workload (steps, status and a hash of what is printed or of the normal
forms), and the sampled experiments' totals at their default seed, as the
checked-out clsh computes them.

    python3 perfbench/record.py

Rerun it only when the workloads' inputs change.  A change to clsh must
leave these outcomes as they are: the benchmark counts any difference as a
failed op.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def dump(out: dict) -> str:
    """JSON with one op per line, so that a changed outcome shows as one
    changed line."""
    blocks = []
    for name, entries in out.items():
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                           for k, v in entries.items())
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    out = {}
    for name in ("catalog", "church", "trace", "sampled"):
        lib = workloads.Lib(workloads.import_clsh())
        rec = workloads.Recorder(None)
        for smoke in (False, True):
            inputs = workloads.INPUTS[name](lib, 0, smoke)
            workloads.PASSES[name](lib, inputs, 0, rec)
        if rec.failed:
            print("\n".join(rec.failures), file=sys.stderr)
            return 1
        out[name] = dict(sorted(rec.recorded.items()))
    lib = workloads.Lib(workloads.import_clsh())
    seed = lib.mods["randterms"].DEFAULT_SEED
    totals = workloads.sampled_run(lib, seed, workloads.SAMPLED_N,
                                   workloads.Recorder(None))
    out["sampled_totals"] = {"default_seed": {
        "seed": seed, "n": workloads.SAMPLED_N, "checked": totals.checked,
        "nonconverged": len(totals.nonconverged),
        "mismatches": totals.mismatches, "compared": totals.compared,
        "skipped": len(totals.skipped),
        "counterexamples": totals.counterexamples}}
    (HERE / "expected.json").write_text(dump(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
