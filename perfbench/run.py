"""rank3affine benchmark: run one workload through the CLI and print its metrics.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--record FILE]

Every command runs as its own ``python3 -m rank3affine`` child, one at a
time (a closed loop with a single client), with ``PYTHONPATH`` pointing at
this checkout's ``src``.  The workload's command list is repeated while the
next repetition is expected to end within S seconds (at least once), and
every report is checked.  With ``--trace 0`` the last line of stdout holds
the end-to-end metrics; with ``--trace 1`` each repetition is run once
untraced and once under ``tracer.py`` and the last line holds the per-layer
metrics.  The line before it records the environment, the sample counts and
the reports' sha256.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from math import ceil
from pathlib import Path

from workloads import WORKLOADS, Command, failed_ops, warmup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PER_PASS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "fields.build_field.calls": "count",
    "fields.build_field.total_s": "s",
    "fields.build_field.max_ms": "ms",
    "znaction.enumerate.calls": "count",
    "znaction.enumerate.total_s": "s",
    "znaction.enumerate.p50_ms": "ms",
    "znaction.enumerate.tail_ms": "ms",
    "znaction.enumerate.partitions": "count",
    "znaction.enumerate.share": "ratio",
    "znaction.verify_lemma.self_s": "s",
    "classify.classify_field.calls": "count",
    "classify.classify_field.self_s": "s",
    "classify.classify_field.tail_ms": "ms",
    "classify.verify_theorem.self_s": "s",
    "families.connection_set.calls": "count",
    "families.connection_set.total_s": "s",
    "graphs.build_cayley.total_s": "s",
    "graphs.srg_params.total_s": "s",
    "graphs.srg_params.pairs": "count",
    "graphs.export_graph6.total_s": "s",
    "graphs.export_graph6.bytes": "bytes",
    "graphs.share": "ratio",
    "cli.main.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.inprocess_s": "s",
    "trace.overhead_ratio": "ratio",
    "proc.cpu_s": "s",
    "fail_ratio": "ratio",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


@dataclass
class CommandRun:
    wall_s: float
    maxrss_mb: float
    cpu_s: float
    ops: int
    failed: int
    report_bytes: int
    sha256: str
    trace: dict | None


class Runner:
    """Runs rank3affine children from one checkout, one at a time."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argv: list[str]) -> tuple[float, int, os.struct_rusage]:
        """Wall time, exit code and resource usage of one child."""
        with open(self.workdir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=self.workdir)
            _, status, rusage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, rusage

    def setup_time(self) -> float:
        """Interpreter start plus ``import rank3affine``."""
        wall, code, _ = self.spawn([sys.executable, "-c", "import rank3affine"])
        if code != 0:
            raise RuntimeError(f"import rank3affine exited {code}: "
                               f"{self._stderr_tail()}")
        return wall

    def command(self, cmd: Command, traced: bool = False) -> CommandRun:
        report = self.workdir / "report.json"
        spans = self.workdir / "spans.json"
        report.unlink(missing_ok=True)
        spans.unlink(missing_ok=True)
        head = ([str(HERE / "tracer.py"), str(spans)] if traced
                else ["-m", "rank3affine"])
        argv = [sys.executable, *head, *cmd.args, "--output", str(report)]
        wall, code, rusage = self.spawn(argv)
        data = report.read_bytes() if report.exists() else b""
        failed = failed_ops(cmd, code, data)
        if failed:
            print(f"FAILED ({failed}/{cmd.ops} ops, exit {code}): "
                  f"rank3affine {' '.join(cmd.args)[:200]}\n"
                  f"{self._stderr_tail()}", file=sys.stderr)
        trace = json.loads(spans.read_text()) if spans.exists() else None
        return CommandRun(wall, rusage.ru_maxrss / 1024,
                          rusage.ru_utime + rusage.ru_stime, cmd.ops, failed,
                          len(data), hashlib.sha256(data).hexdigest(), trace)

    def _stderr_tail(self) -> str:
        return (self.workdir / "stderr.txt").read_text(errors="replace")[-2000:]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    ten samples beyond it, by nearest rank; (0, 0) below twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 0.0, 0.0


def layer_metrics(runs: list[CommandRun]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the tail percentiles used.

    A span's self time is its duration minus that of its direct children;
    calls are synchronous, so children never overlap.
    """
    durations = defaultdict(list)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    for run in runs:
        spans = run.trace["spans"] if run.trace else []
        covered = [0.0] * len(spans)
        for _, parent, t0, t1, _ in spans:
            if parent is not None:
                covered[parent] += t1 - t0
        for (name, _, t0, t1, count), child in zip(spans, covered):
            durations[name].append(t1 - t0)
            self_s[name] += t1 - t0 - child
            counts[name] += count or 0

    def total(name):
        return sum(durations[name])

    inprocess = total("cli.main")
    graphs = sum(total(f"graphs.{f}")
                 for f in ("build_cayley", "srg_params", "export_graph6"))
    enum = durations["znaction.enumerate"]
    enum_pct, enum_tail = tail(enum)
    field_pct, field_tail = tail(durations["classify.classify_field"])
    metrics = {
        "fields.build_field.calls": len(durations["fields.build_field"]),
        "fields.build_field.total_s": total("fields.build_field"),
        "fields.build_field.max_ms":
            1000 * max(durations["fields.build_field"], default=0.0),
        "znaction.enumerate.calls": len(enum),
        "znaction.enumerate.total_s": total("znaction.enumerate"),
        "znaction.enumerate.p50_ms":
            1000 * statistics.median(enum) if enum else 0.0,
        "znaction.enumerate.tail_ms": 1000 * enum_tail,
        "znaction.enumerate.partitions": counts["znaction.enumerate"],
        "znaction.enumerate.share":
            total("znaction.enumerate") / inprocess if inprocess else 0.0,
        "znaction.verify_lemma.self_s": self_s["znaction.verify_lemma"],
        "classify.classify_field.calls":
            len(durations["classify.classify_field"]),
        "classify.classify_field.self_s": self_s["classify.classify_field"],
        "classify.classify_field.tail_ms": 1000 * field_tail,
        "classify.verify_theorem.self_s": self_s["classify.verify_theorem"],
        "families.connection_set.calls":
            len(durations["families.connection_set"]),
        "families.connection_set.total_s": total("families.connection_set"),
        "graphs.build_cayley.total_s": total("graphs.build_cayley"),
        "graphs.srg_params.total_s": total("graphs.srg_params"),
        "graphs.srg_params.pairs": counts["graphs.srg_params"],
        "graphs.export_graph6.total_s": total("graphs.export_graph6"),
        "graphs.export_graph6.bytes": counts["graphs.export_graph6"],
        "graphs.share": graphs / inprocess if inprocess else 0.0,
        "cli.main.self_s": self_s["cli.main"],
        "trace.inprocess_s": inprocess,
    }
    percentiles = {"znaction.enumerate.tail_ms": enum_pct,
                   "classify.classify_field.tail_ms": field_pct}
    return metrics, percentiles


def measure(runner: Runner, commands: list[Command], seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """Run the workload; return the result line and the run's info."""
    runner.command(warmup(commands[0].kind))
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # spread over the run, so that no single moment of a noisy host
        # sets setup_s
        if not trace:
            setup += [runner.setup_time() for _ in range(SETUP_PER_PASS)]
        plain = [runner.command(c) for c in commands]
        traced = [runner.command(c, traced=True) for c in commands] if trace else []
        passes.append((plain, traced))
        now = time.perf_counter()
        if now + (now - t0) - start > seconds:
            break
    every = [r for plain, traced in passes for r in plain + traced]
    attempted = sum(r.ops for r in every)
    failed = sum(r.failed for r in every)
    info = {"passes": len(passes), "commands": len(commands),
            "report_sha256": [r.sha256 for r in passes[0][0]]}
    if trace:
        metrics = traced_metrics(passes, info)
        metrics["fail_ratio"] = failed / attempted
        units = PER_LAYER
    else:
        walls = [sum(r.wall_s for r in plain) for plain, _ in passes]
        metrics = {
            "wall_s": statistics.fmean(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(
                max(r.maxrss_mb for r in plain) for plain, _ in passes),
        }
        info["samples"] = {"wall_s": len(walls), "setup_s": len(setup),
                           "peak_rss_mb": len(walls)}
        info["wall_s_each"], info["setup_s_each"] = walls, setup
        units = END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, info


def traced_metrics(passes: list, info: dict) -> dict:
    """Medians over (untraced, traced) pass pairs of the per-layer metrics."""
    per_pass = []
    for plain, traced in passes:
        metrics, info["tail_percentiles"] = layer_metrics(traced)
        metrics["cli.report_bytes"] = sum(r.report_bytes for r in plain)
        metrics["proc.cpu_s"] = sum(r.cpu_s for r in plain)
        metrics["trace.overhead_ratio"] = (sum(r.wall_s for r in traced)
                                           / sum(r.wall_s for r in plain))
        per_pass.append(metrics)
    info["samples"] = {"per_layer": len(per_pass)}
    info["absent"] = sorted({a for _, traced in passes for r in traced
                             if r.trace for a in r.trace["absent"]})
    return {name: statistics.median(m[name] for m in per_pass)
            for name in per_pass[0]}


def environment(seed: int) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "commit": commit, "seed": seed,
            "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record",
                    help="append this run as one JSON line (see compare.py)")
    args = ap.parse_args(argv)
    if not (SRC / "rank3affine" / "cli.py").is_file():
        print(f"error: no rank3affine sources under {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    commands = WORKLOADS[args.workload](args.seed)
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_work"))
    try:
        result, info = measure(Runner(workdir), commands, args.seconds,
                               bool(args.trace))
    finally:
        shutil.rmtree(workdir)
    info.update(workload=args.workload, trace=args.trace,
                seconds=args.seconds, env=env)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
