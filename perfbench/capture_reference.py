"""Regenerate the seed reference the benchmark checks against.

Run from the root of a checkout of the reference commit::

    python3 perfbench/capture_reference.py --workload small-n --seeds 0-15

For each workload it runs one pass per seed and writes into
``perfbench/reference/``:

- ``<workload>.json.xz``: the exact and closed-form columns of every CSV the
  workload writes (``{op_id: {file: {column: [cell, ...]}}}``).  These do not
  depend on the seed; the script fails if two seeds disagree on them.
- ``<workload>.digests.json``: per seed, a digest of each op's CSV bytes in
  the order of ``"ops"`` (null where the op failed), which
  ``cli.files_identical`` compares against.  A workload without Monte Carlo
  stores one row under ``"any"``.

Ops that fail at the reference commit get no entry.
"""

from __future__ import annotations

import argparse
import json
import lzma
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def capture(root: Path, workload: str, seeds: list[int]) -> None:
    plan = workloads.plan(workload)
    schema = json.loads((root / "src/spectral_mask/schemas/summary.schema.json").read_text())
    sampled = any(op.samples > 0 for op in plan if op.command != "verify")
    if not sampled:
        seeds = seeds[:1]
    columns: dict = {}
    digests: dict = {}
    out = root / run.OUT_DIR / "capture" / workload
    for seed in seeds:
        shutil.rmtree(out, ignore_errors=True)
        result = run.run_pass(root, workload, seed, False, out, {}, schema,
                                time.perf_counter() + 3600)
        seen = {}
        per_op = {}
        for op, rec, chk in zip(plan, result.ops, result.checks):
            if op.command == "verify" or rec["rc"] != 0:
                continue
            if not chk.ok:
                raise SystemExit(f"{op.id}: {chk.reason}")
            files = {}
            for name in op.expected_files():
                header, rows = check.read_csv(out / op.id / name)
                files[name] = check.extract_columns(op.command, header, rows)
            seen[op.id] = files
            per_op[op.id] = run.op_digest(chk)
        if columns and seen != columns:
            raise SystemExit(f"seed {seed}: exact or closed-form columns differ from seed {seeds[0]}")
        columns = seen
        digests[str(seed)] = per_op
        print(f"{workload} seed {seed}: {len(per_op)} ops captured", flush=True)
    shutil.rmtree(out, ignore_errors=True)
    ref_dir = check.REFERENCE_DIR
    ref_dir.mkdir(exist_ok=True)
    blob = json.dumps(columns, sort_keys=True, separators=(",", ":")).encode()
    (ref_dir / f"{workload}.json.xz").write_bytes(lzma.compress(blob, preset=9 | lzma.PRESET_EXTREME))
    ids = [op.id for op in plan if op.command != "verify"]
    rows = {seed: [per_op.get(i) for i in ids] for seed, per_op in digests.items()}
    table = {"ops": ids, "seeds": {"any": rows[str(seeds[0])]} if not sampled else rows}
    text = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table["seeds"].items())
    (ref_dir / f"{workload}.digests.json").write_text(
        f'{{"ops": {json.dumps(ids)},\n "seeds": {{\n{text}\n}}}}\n'
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="capture the benchmark's seed reference")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="workload to capture (repeatable; default all)")
    parser.add_argument("--seeds", default="0-15", help="seed range, e.g. 0-15")
    args = parser.parse_args(argv)
    root = run.repo_root()
    for workload in args.workload or list(workloads.WORKLOADS):
        capture(root, workload, parse_seeds(args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
