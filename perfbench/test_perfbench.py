"""Self-tests of the benchmark's checks and tracing.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spectral_mask import cli  # noqa: E402

SCHEMA = json.loads((HERE.parent / "src/spectral_mask/schemas/summary.schema.json").read_text())


def small_n_op(op_id: str) -> workloads.Op:
    return next(op for op in workloads.small_n() if op.id == op_id)


def run_real_op(op: workloads.Op, tmp_path: Path, workers: int = 2, seed: int = 3):
    config = tmp_path / f"{op.id}.json"
    config.write_text(json.dumps(dict(op.config, workers=workers)))
    out = tmp_path / op.id
    rc, wall, err = worker.run_op(cli, op.argv(str(config), str(out), seed))
    return rc, wall, err, out


@pytest.fixture(scope="module")
def reference():
    return check.load_reference("small-n")


def test_unaltered_op_passes(tmp_path, reference):
    op = small_n_op("tails-N5-l2")
    rc, _, _, out = run_real_op(op, tmp_path)
    result = check.check_op(op, out, rc, reference[op.id], SCHEMA)
    assert result.ok, result.reason
    assert result.points == 5


def test_one_altered_exact_cell_fails_the_op(tmp_path, reference):
    op = small_n_op("tails-N5-l2")
    rc, _, _, out = run_real_op(op, tmp_path)
    path = out / op.expected_files()[2]
    header, rows = check.read_csv(path)
    col = header.index("exact")
    row = next(r for r in rows if r[col] not in ("", "0"))
    row[col] = repr(float(row[col]) + 1e-9)
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    result = check.check_op(op, out, rc, reference[op.id], SCHEMA)
    assert not result.ok
    assert "exact" in result.reason


def test_psi2_rows_are_checked_against_the_reference(tmp_path, reference):
    op = small_n_op("psi2-N6-l1")
    rc, _, _, out = run_real_op(op, tmp_path)
    assert check.check_op(op, out, rc, reference[op.id], SCHEMA).ok
    path = out / "psi2.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert not check.check_op(op, out, rc, reference[op.id], SCHEMA).ok


def test_known_defect_op_fails_with_the_ledgered_error(tmp_path):
    op = small_n_op("psi2-N8-l4")
    rc, _, err, out = run_real_op(op, tmp_path)
    assert rc == 2
    assert not check.check_op(op, out, rc, None, SCHEMA).ok
    assert run.known_failure(run.load_ledger(), "small-n", op.id, err) is not None


class RaisingCli:
    @staticmethod
    def main(argv):
        raise RuntimeError("boom")


def test_raising_op_is_failed_and_its_points_excluded(tmp_path, reference):
    plan = [small_n_op("tails-N5-l2"), small_n_op("tails-N6-l1")]
    good_rc, _, _, good_out = run_real_op(plan[0], tmp_path)
    bad_rc, _, bad_err = worker.run_op(RaisingCli, ["tails"])
    assert bad_rc is None
    assert "RuntimeError: boom" in bad_err
    checks = [
        check.check_op(plan[0], good_out, good_rc, reference[plan[0].id], SCHEMA),
        check.check_op(plan[1], tmp_path / "missing", bad_rc, reference[plan[1].id], SCHEMA),
    ]
    assert [c.ok for c in checks] == [True, False]
    ops = [{"id": plan[0].id, "wall_s": 1.0}, {"id": plan[1].id, "wall_s": 1.0}]
    passed = run.PassResult(False, 0.0, 2.0, ops, checks, 0.0, 0.0, {})
    # 5 points from the good op over 2 s of tails time: the failed op's
    # 6 points are dropped, its time is kept.
    assert run.points_per_second(plan, [passed], "tails") == pytest.approx(2.5)


def traced(fn):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
    finally:
        restore()
    return tracer, wall


def test_oracle_span_inside_cli_span_has_it_as_parent():
    tracer = tracing.Tracer()
    from spectral_mask import oracle
    from spectral_mask.model import ModelParams, Part

    restore = tracing.install(tracer)
    try:
        same_thread = tracer.wrap(
            "cli", "cli.main", lambda: oracle.exact_moment(ModelParams(5, 2, 2), Part.REAL, 2)
        )
        same_thread()
        other_thread = tracer.wrap(
            "cli", "cli.main",
            lambda: _in_thread(lambda: oracle.exact_moment(ModelParams(5, 1, 2), Part.REAL, 2)),
        )
        other_thread()
    finally:
        restore()
    assert oracle.exact_moment.__name__ == "exact_moment"
    assert not hasattr(oracle.exact_moment, "__wrapped__")
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    cli_spans = sorted(by_name["cli.main"], key=lambda s: s.start)
    oracle_spans = sorted(by_name["oracle.moment"], key=lambda s: s.start)
    assert [s.parent for s in oracle_spans] == [c.id for c in cli_spans]
    assert oracle_spans[1].thread != cli_spans[1].thread


def _in_thread(fn):
    t = threading.Thread(target=fn)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()


def test_every_span_of_a_real_op_descends_from_its_cli_span(tmp_path):
    op = small_n_op("tails-N6-l1")
    tracer, _ = traced(lambda: run_real_op(op, tmp_path))
    by_id = {s.id: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s.name == "cli.main"]
    layers = set()
    for span in tracer.spans:
        node = span
        while node.parent is not None:
            node = by_id[node.parent]
        assert node.id == root.id
        layers.add(span.layer)
    assert {"oracle", "montecarlo", "bounds"} <= layers
    assert len({s.thread for s in tracer.spans}) >= 2


def test_layer_busy_time_is_at_most_workers_times_wall(tmp_path):
    workers = 2
    ops = [small_n_op(i) for i in ("verify", "tails-N7-l3", "psi2-N7-l3", "tails-N6-l2")]

    def body():
        for op in ops:
            rc, _, err, _ = run_real_op(op, tmp_path, workers=workers)
            assert rc == 0, err

    tracer, wall = traced(body)
    from spectral_mask.verify import SUITES

    layers = tracing.layer_metrics(tracer.spans, list(SUITES))
    verify_busy = sum(layers[f"verify.{s}.wall_s"] for s in SUITES)
    busy = {
        "oracle": layers["oracle.busy_s"],
        "montecarlo": layers["montecarlo.busy_s"],
        "bounds": layers["bounds.busy_s"],
        "verify": verify_busy,
    }
    for layer, value in busy.items():
        assert 0 < value <= workers * wall, (layer, value, wall)
    assert 0 <= layers["cli.self_s"] <= wall
    assert layers["montecarlo.samples"] > 0
    assert layers["oracle.calls"] >= layers["oracle.law_keys"] > 0


def test_union_length_merges_overlaps():
    assert tracing._union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert tracing._union_length([]) == 0.0
