"""One pass of a workload inside a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py PASS_JSON

``PASS_JSON`` names the workload, seed, output directory and whether to trace.
The worker imports ``spectral_mask.cli``, loads both schemas, prints
``ready`` (the parent times set-up up to that line), runs every op through
``spectral_mask.cli.main`` one after another, and writes ``result.json`` into
the output directory.  With ``--setup-only`` it exits after ``ready``.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def setup():
    from spectral_mask import cli

    cli.load_config(None)
    schema = importlib.resources.files("spectral_mask") / "schemas" / "summary.schema.json"
    json.loads(schema.read_text())
    return cli


def run_op(cli, argv: list[str]) -> tuple[int | None, float, str]:
    """Run one CLI invocation; an op that raises is reported with rc None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the benchmark must keep running and report the failure
        rc = None
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - start, err.getvalue()


def main(argv: list[str]) -> int:
    if argv == ["--setup-only"]:
        setup()
        print("ready", flush=True)
        return 0
    spec = json.loads(Path(argv[0]).read_text())
    cli = setup()
    print("ready", flush=True)

    import workloads

    out_dir = Path(spec["out_dir"])
    tracer = restore = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    ops = []
    for op in workloads.plan(spec["workload"]):
        op_dir = out_dir / op.id
        op_dir.mkdir(parents=True, exist_ok=True)
        config_path = out_dir / f"{op.id}.config.json"
        config_path.write_text(json.dumps(dict(op.config, workers=spec["workers"])))
        rc, wall, err = run_op(cli, op.argv(str(config_path), str(op_dir), spec["seed"]))
        ops.append({"id": op.id, "rc": rc, "wall_s": wall, "stderr": err[-2000:]})
    usage = resource.getrusage(resource.RUSAGE_SELF)
    import numpy
    from spectral_mask import montecarlo

    result = {
        "facts": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "rng_algorithm": montecarlo.RNG_ALGORITHM,
        },
        "ops": ops,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        restore()
        from spectral_mask.verify import SUITES

        result["layers"] = tracing.layer_metrics(tracer.spans, list(SUITES))
        write_spans(tracer.spans, out_dir / "spans.json")
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


def write_spans(spans, path: Path) -> None:
    """Span dump: names interned, times in ns from the first span."""
    names: dict[str, int] = {}
    threads: dict[int, int] = {}
    t0 = min((s.start for s in spans), default=0.0)
    rows = [
        [
            s.id,
            names.setdefault(s.name, len(names)),
            round((s.start - t0) * 1e9),
            round((s.end - t0) * 1e9),
            s.parent,
            threads.setdefault(s.thread, len(threads)),
            int(s.outer),
        ]
        for s in spans
    ]
    fields = ["id", "name", "start_ns", "end_ns", "parent", "thread", "outer"]
    path.write_text(json.dumps({"fields": fields, "names": list(names), "spans": rows}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
