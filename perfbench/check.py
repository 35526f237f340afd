"""Output checks for one op, against the seed reference.

An op passes when it exited 0 and every artifact it should write is present
and well formed:

- ``verify``: ``summary.json`` is valid against the shipped summary schema and
  reports ``all_passed``.
- ``tails`` / ``psi2``: every expected file and row is there with the
  documented header; the exact and closed-form columns equal the seed
  reference within 1e-12 absolute (empty cells stay empty); the Monte Carlo
  columns are filled exactly when sampling is on.  An op with no reference
  entry (it failed at the seed commit) gets only the structural checks.

The Monte Carlo cells are returned as a digest so the caller can demand that
every pass of one seed reproduces them bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import math
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

TAILS_HEADER = ["t", "exact", "mc", "mc_halfwidth", "thm23", "eq9", "eq10", "q_form"]
PSI2_HEADER = [
    "N", "l", "m", "part",
    "exact_psi2", "mc_psi2", "moment_psi2", "upper_cor27", "upper_eq12",
]
#: Columns compared with the seed reference (seed-independent).
REF_COLUMNS = {
    "tails": ("t", "exact", "thm23", "eq9", "eq10", "q_form"),
    "psi2": ("exact_psi2", "moment_psi2", "upper_cor27", "upper_eq12"),
}
#: Columns that depend on the Monte Carlo stream.
MC_COLUMNS = {"tails": ("mc", "mc_halfwidth"), "psi2": ("mc_psi2",)}
HEADERS = {"tails": TAILS_HEADER, "psi2": PSI2_HEADER}
TOLERANCE = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class OpCheck:
    ok: bool
    reason: str = ""
    points: int = 0
    mc_digest: str = ""
    ci_misses: int = 0
    files: list = field(default_factory=list)  # (name, digest)


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _cells_match(got: str, want: str) -> bool:
    if got == "" or want == "":
        return got == want
    a, b = float(got), float(want)
    return math.isfinite(a) and abs(a - b) <= TOLERANCE


def load_reference(workload: str) -> dict:
    """``{op_id: {file: {column: [cell, ...]}}}`` captured at the seed commit."""
    path = REFERENCE_DIR / f"{workload}.json.xz"
    if not path.exists():
        return {}
    return json.loads(lzma.decompress(path.read_bytes()))


def extract_columns(command: str, header: list[str], rows: list[list[str]]) -> dict:
    return {col: [row[header.index(col)] for row in rows] for col in REF_COLUMNS[command]}


def check_op(op, op_dir: Path, rc, reference: dict | None, summary_schema: dict) -> OpCheck:
    if rc != 0:
        return OpCheck(False, f"exit code {rc}")
    if op.command == "verify":
        return _check_verify(op_dir, summary_schema)
    return _check_table(op, op_dir, reference)


def _check_verify(op_dir: Path, schema: dict) -> OpCheck:
    path = op_dir / "summary.json"
    if not path.exists():
        return OpCheck(False, "summary.json missing")
    summary = json.loads(path.read_text())
    try:
        jsonschema.validate(summary, schema)
    except jsonschema.ValidationError as exc:
        return OpCheck(False, f"summary.json invalid: {exc.message}")
    if summary.get("all_passed") is not True:
        failing = [k for k, v in summary["suites"].items() if v["failed"]]
        return OpCheck(False, f"verify suites failed: {failing}")
    return OpCheck(True)


def _check_table(op, op_dir: Path, reference: dict | None) -> OpCheck:
    header_want = HEADERS[op.command]
    mc_hash = hashlib.sha256()
    result = OpCheck(True, points=len(op.points))
    for name in op.expected_files():
        path = op_dir / name
        if not path.exists():
            return OpCheck(False, f"{name} missing")
        result.files.append((name, file_digest(path.read_bytes())))
        header, rows = read_csv(path)
        if header != header_want:
            return OpCheck(False, f"{name}: header {header}")
        if any(len(row) != len(header) for row in rows):
            return OpCheck(False, f"{name}: ragged row")
        if op.command == "psi2":
            keys = [row[:4] for row in rows]
            want = [[str(N), str(l), str(m), part] for (N, l, m) in op.points for part in op.parts]
            if keys != want:
                return OpCheck(False, f"{name}: rows {keys} != expected {want}")
        ref = None if reference is None else reference.get(name)
        if ref is not None:
            got = extract_columns(op.command, header, rows)
            for col, want_cells in ref.items():
                if len(got[col]) != len(want_cells):
                    return OpCheck(False, f"{name}: {len(got[col])} rows, reference has {len(want_cells)}")
                for i, (g, w) in enumerate(zip(got[col], want_cells)):
                    if not _cells_match(g, w):
                        return OpCheck(False, f"{name}: {col}[{i}] = {g!r}, reference {w!r}")
        elif reference is not None:
            return OpCheck(False, f"{name}: no reference entry")
        for col in MC_COLUMNS[op.command]:
            cells = [row[header.index(col)] for row in rows]
            if op.samples > 0 and not all(c and math.isfinite(float(c)) for c in cells):
                return OpCheck(False, f"{name}: Monte Carlo column {col} not filled")
            if op.samples == 0 and any(cells):
                return OpCheck(False, f"{name}: Monte Carlo column {col} filled with sampling off")
            mc_hash.update(f"{name}:{col}:{','.join(cells)}\n".encode())
        if op.command == "tails" and op.samples > 0:
            result.ci_misses += _ci_misses(header, rows)
    result.mc_digest = mc_hash.hexdigest()[:16]
    return result


def _ci_misses(header: list[str], rows: list[list[str]]) -> int:
    ie, im, ih = header.index("exact"), header.index("mc"), header.index("mc_halfwidth")
    return sum(
        1
        for row in rows
        if row[ie] and abs(float(row[im]) - float(row[ie])) > float(row[ih])
    )
