"""spectral-mask benchmark: closed-loop CLI workloads with output checks.

Run from the repository root::

    python3 perfbench/run.py --workload small-n --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --runs 3      # every workload, quartiles

One run sets up a fresh interpreter several times (``setup_s`` is their
median), then runs passes over the workload's ops until ``--seconds`` would
be exceeded, each pass in its own fresh interpreter.  Every op's output is
checked (see ``check.py``).  With ``--trace 0`` the last stdout line reports
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` untraced and
traced passes alternate, and it reports the per-layer metrics.

Known failures listed in ``known_failures.json`` count as failed ops but do
not make the run incorrect; any other failure does.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_ONLY_SAMPLES = 6
#: Stop starting passes once this much of the run is spent, whatever --seconds says.
HARD_STOP_S = 140.0
#: Kill a worker still running this long after the run started (the run must end within 180 s).
RUN_DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, worker crash)."""


@dataclass
class PassResult:
    traced: bool
    setup_s: float
    wall_s: float
    ops: list
    checks: list
    peak_rss_mb: float
    cpu_s: float
    facts: dict
    layers: dict = field(default_factory=dict)
    files_written: int = 0
    bytes_written: int = 0


def repo_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "spectral_mask" / "cli.py").is_file():
        raise BenchError(f"{root} holds no src/spectral_mask; run from the repository root")
    return root


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("SPECTRAL_MASK_THREADS", None)
    return env


def spawn_worker(root: Path, args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it with the seconds until it printed ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")


def setup_sample(root: Path, deadline: float) -> float:
    proc, setup = spawn_worker(root, ["--setup-only"])
    finish(proc, deadline)
    return setup


def run_pass(root: Path, workload: str, seed: int, traced: bool, pass_dir: Path,
             reference: dict, schema: dict, deadline: float) -> PassResult:
    pass_dir.mkdir(parents=True)
    spec = {
        "workload": workload,
        "seed": seed,
        "trace": traced,
        "workers": workloads.worker_count(),
        "out_dir": str(pass_dir),
    }
    spec_path = pass_dir / "pass.json"
    spec_path.write_text(json.dumps(spec))
    start = time.perf_counter()
    proc, setup = spawn_worker(root, [str(spec_path)])
    finish(proc, deadline)
    wall = time.perf_counter() - start
    result = json.loads((pass_dir / "result.json").read_text())
    plan = {op.id: op for op in workloads.plan(workload)}
    checks = []
    for rec in result["ops"]:
        op = plan[rec["id"]]
        ref = reference.get(op.id) if op.command != "verify" else None
        checks.append(check.check_op(op, pass_dir / op.id, rec["rc"], ref, schema))
    files = [p for rec in result["ops"] for p in (pass_dir / rec["id"]).rglob("*") if p.is_file()]
    return PassResult(
        traced=traced,
        setup_s=setup,
        wall_s=wall,
        ops=result["ops"],
        checks=checks,
        peak_rss_mb=result["peak_rss_mb"],
        cpu_s=result["cpu_s"],
        facts=result["facts"],
        layers=result.get("layers", {}),
        files_written=len(files),
        bytes_written=sum(p.stat().st_size for p in files),
    )


def load_ledger() -> list[dict]:
    return json.loads((HERE / "known_failures.json").read_text())["failures"]


def known_failure(ledger, workload: str, op_id: str, stderr: str) -> dict | None:
    for entry in ledger:
        if entry["workload"] == workload and entry["op"] == op_id and entry["error"] in stderr:
            return entry
    return None


def load_digests(workload: str, seed: int) -> dict:
    """Seed-commit digests of each op's CSV artifacts for this seed, if stored."""
    path = check.REFERENCE_DIR / f"{workload}.digests.json"
    table = json.loads(path.read_text())
    row = table["seeds"].get("any") or table["seeds"].get(str(seed))
    if row is None:
        return {}
    return {op_id: d for op_id, d in zip(table["ops"], row) if d is not None}


def op_digest(chk) -> str:
    return check.file_digest("".join(f"{n}:{d}\n" for n, d in chk.files).encode())[:12]


def points_per_second(plan, passes, command: str) -> float:
    """Points of the ops of ``command`` that passed their check, per second
    of wall time of all those ops, failed ones included."""
    points = wall = 0.0
    for p in passes:
        for op, rec, chk in zip(plan, p.ops, p.checks):
            if op.command == command:
                wall += rec["wall_s"]
                points += chk.points if chk.ok else 0
    return points / wall if wall else 0.0


def mean_ops_wall(passes) -> float:
    """Summed op wall time of one pass, averaged over passes."""
    return sum(r["wall_s"] for p in passes for r in p.ops) / len(passes)


def quantiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One benchmark invocation: set-up samples, passes, checks, metrics."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, traced: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.traced = seconds, traced
        self.plan = workloads.plan(workload)
        self.reference = check.load_reference(workload)
        if not self.reference:
            raise BenchError(f"no seed reference for {workload} in {check.REFERENCE_DIR}")
        self.schema = json.loads(
            (root / "src" / "spectral_mask" / "schemas" / "summary.schema.json").read_text()
        )
        self.ledger = load_ledger()
        self.out = root / OUT_DIR / workload
        self.setups: list[float] = []
        self.passes: list[PassResult] = []
        self.problems: list[str] = []
        self.known: list[str] = []

    def execute(self) -> None:
        deadline = time.perf_counter() + RUN_DEADLINE_S
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        for _ in range(SETUP_ONLY_SAMPLES):
            self.setups.append(setup_sample(self.root, deadline))
        begin = time.perf_counter()
        while True:
            traced = self.traced and len(self.passes) % 2 == 1
            pass_dir = self.out / f"pass{len(self.passes)}"
            result = run_pass(self.root, self.workload, self.seed, traced, pass_dir,
                              self.reference, self.schema, deadline)
            self.passes.append(result)
            self.setups.append(result.setup_s)
            self.judge(result)
            if len(self.passes) > 1:
                shutil.rmtree(self.out / f"pass{len(self.passes) - 2}", ignore_errors=True)
            elapsed = time.perf_counter() - begin
            longest = max(p.wall_s for p in self.passes)
            enough = len(self.passes) >= (2 if self.traced else 1)
            if enough and (elapsed + longest > self.seconds or elapsed + longest > HARD_STOP_S):
                break

    def judge(self, result: PassResult) -> None:
        first = self.passes[0]
        for i, (rec, chk) in enumerate(zip(result.ops, result.checks)):
            if not chk.ok:
                entry = known_failure(self.ledger, self.workload, rec["id"], rec["stderr"])
                if entry is not None:
                    self.known.append(rec["id"])
                else:
                    self.problems.append(f"{rec['id']}: {chk.reason}: {rec['stderr'].strip()[-300:]}")
            elif first.checks[i].ok and chk.mc_digest != first.checks[i].mc_digest:
                chk.ok = False
                self.problems.append(f"{rec['id']}: Monte Carlo cells differ between passes of seed {self.seed}")

    # -- metrics ---------------------------------------------------------

    def _untraced(self) -> list[PassResult]:
        return [p for p in self.passes if not p.traced]

    def end_to_end(self) -> dict[str, float]:
        untraced = self._untraced()
        return {
            "setup_s": statistics.median(self.setups),
            "tails_points_per_s": points_per_second(self.plan, untraced, "tails"),
            "ops_wall_s": mean_ops_wall(untraced),
            "peak_rss_mb": max(p.peak_rss_mb for p in untraced),
        }

    def per_layer(self) -> dict[str, float]:
        untraced = self._untraced()
        traced = [p for p in self.passes if p.traced]
        out = {}
        for name in traced[0].layers:
            out[name] = statistics.median(p.layers[name] for p in traced)
        verify_walls = [r["wall_s"] for p in untraced for r in p.ops if r["id"] == "verify"]
        out["verify_s"] = statistics.median(verify_walls) if verify_walls else 0.0
        out["psi2_points_per_s"] = points_per_second(self.plan, untraced, "psi2")
        attempted = sum(len(p.ops) for p in untraced)
        failed = sum(not c.ok for p in untraced for c in p.checks)
        out["failed_op_ratio"] = failed / attempted
        last = self.passes[-1]
        out["cli.ops"] = len(last.ops)
        out["cli.files_written"] = statistics.median(p.files_written for p in self.passes)
        out["cli.bytes_written"] = statistics.median(p.bytes_written for p in self.passes)
        digests = load_digests(self.workload, self.seed)
        compared = identical = 0
        for rec, chk, op in zip(last.ops, last.checks, self.plan):
            if op.command == "verify" or op.id not in digests:
                continue
            n_files = len(op.expected_files())
            compared += n_files
            if chk.files and op_digest(chk) == digests[op.id]:
                identical += n_files
        out["cli.files_compared"] = compared
        out["cli.files_identical"] = identical
        out["montecarlo.ci_misses"] = statistics.median(
            sum(c.ci_misses for c in p.checks) for p in self.passes
        )
        cpu = [p.cpu_s for p in untraced]
        nproc = len(os.sched_getaffinity(0))
        out["process.cpu_s"] = statistics.median(cpu)
        out["process.cpu_util"] = statistics.median(p.cpu_s / (p.wall_s * nproc) for p in untraced)
        out["trace.overhead_s"] = mean_ops_wall(traced) - mean_ops_wall(untraced)
        return out

    def facts(self) -> dict:
        commit = None
        if (self.root / ".git").exists():
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        return {
            "workload": self.workload,
            "seed": self.seed,
            "nproc": len(os.sched_getaffinity(0)),
            "workers": workloads.worker_count(),
            "samples": sorted({op.samples for op in self.plan}),
            "passes": len(self.passes),
            "traced_passes": sum(p.traced for p in self.passes),
            "git_commit": commit,
            **self.passes[0].facts,
        }


def benchmark_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def select(values: dict, declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_one(root: Path, args) -> int:
    spec = benchmark_spec(root)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    facts = run.facts()
    (run.out / "facts.json").write_text(json.dumps(facts, indent=2))
    print("facts " + json.dumps(facts, sort_keys=True))
    for op_id in sorted(set(run.known)):
        print(f"known failure: {op_id} (see perfbench/known_failures.json)")
    for problem in run.problems:
        print(f"FAILED {problem}")
    if args.trace:
        metrics = select(run.per_layer(), spec["per_layer"])
    else:
        metrics = select(run.end_to_end(), spec["end_to_end"])
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(len(p.ops) for p in run.passes)
    failed = sum(not c.ok for p in run.passes for c in p.checks)
    line = {"correct": not run.problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


def run_all(root: Path, args) -> int:
    """Every workload, ``--runs`` fresh runs each; median and quartiles per metric."""
    spec = benchmark_spec(root)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {}
    ok = True
    for w in spec["workloads"]:
        values: dict[str, list[float]] = {m["name"]: [] for m in declared}
        for i in range(args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise BenchError(f"{w['name']} run {i} exited {proc.returncode}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and line["correct"]
            print(f"{w['name']} seed {args.seed + i}: correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']}", flush=True)
            for name, m in line["metrics"].items():
                values[name].append(m["value"])
        summary[w["name"]] = {}
        for m in declared:
            q1, med, q3 = quantiles(values[m["name"]])
            summary[w["name"]][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                             "runs": args.runs, "unit": m["unit"]}
            print(f"  {w['name']:12s} {m['name']:32s} median {med:.6g} "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}] {m['unit']} (n={args.runs})")
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3, help="runs per workload with --workload all")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        root = repo_root()
        if args.workload == "all":
            return run_all(root, args)
        return run_one(root, args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
