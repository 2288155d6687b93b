"""Borges benchmark runner.

Run one workload::

    python3 perfbench/run.py --workload build_lookup --seed 11 --seconds 48 --trace 0

or every workload, each in its own process, with a table of results::

    python3 perfbench/run.py --workload all --seed 11 --seconds 48 --trace 0

and append both the untraced and the traced results of every workload to
the trajectory::

    python3 perfbench/run.py --workload all --seed 11 --seconds 48 \\
        --record perfbench/trajectory.json

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is non-zero when any correctness check failed.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of each metric, in print order.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("generate_s", "s"),
    ("mapping_s", "s"),
    ("refresh_s", "s"),
    ("publish_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rps", "1/s"),
    ("p50_ms", "ms"),
]

PER_LAYER: List[Tuple[str, str]] = [
    ("universe.plan_s", "s"),
    ("universe.materialize_s", "s"),
    ("universe.assemble_s", "s"),
    ("digest.whois_s", "s"),
    ("digest.pdb_s", "s"),
    ("digest.web_s", "s"),
    ("pipeline.init_s", "s"),
    ("pipeline.dag_s", "s"),
    ("stage.oid_w_s", "s"),
    ("stage.oid_p_s", "s"),
    ("stage.ner_extract_s", "s"),
    ("stage.notes_aka_s", "s"),
    ("stage.scrape_s", "s"),
    ("stage.rr_s", "s"),
    ("stage.favicons_s", "s"),
    ("stage.merge_s", "s"),
    ("llm.requests", "count"),
    ("llm.cache_hit_ratio", "ratio"),
    ("web.fetches", "count"),
    ("artifacts.hit_ratio", "ratio"),
    ("partition.plan_s", "s"),
    ("shard.datasets_s", "s"),
    ("shard.max_s", "s"),
    ("shard.skew", "ratio"),
    ("merge.reduce_s", "s"),
    ("shard.retries", "count"),
    ("shard.quarantined", "count"),
    ("index.build_s", "s"),
    ("blob.compile_s", "s"),
    ("blob.bytes", "bytes"),
    ("httpd.overhead_us", "us"),
    ("admission.shed", "count"),
    ("service.lookup_us", "us"),
    ("service.batch_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("index.lookup_us", "us"),
    ("server.cpu_us_per_req", "us"),
    ("loadgen.cpu_share", "ratio"),
    ("latency.p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
]


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }


def result_line(
    values: Dict[str, float], names: List[Tuple[str, str]],
    attempted: int, failed: int,
) -> str:
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in names
    }
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    )


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    print("perfbench stamp: " + json.dumps(stamp(workload, seed)), flush=True)
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, layers, outcome = workloads.run(
            workload, ROOT, seed, float(seconds), trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in outcome.problems[:20]:
        print("perfbench check failed: " + problem, file=sys.stderr)
    samples = metrics.pop("open_loop_samples")
    print(f"perfbench info: p50_ms over {samples} open-loop responses")
    values, names = (layers, PER_LAYER) if trace else (metrics, END_TO_END)
    print(result_line(values, names, outcome.attempted, outcome.failed), flush=True)
    return 0 if outcome.failed == 0 else 1


def run_workload_process(workload: str, seed: int, seconds: int, trace: bool):
    """Run one workload in a child process; returns (exit code, result)."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0",
        ],
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def print_table(results: Dict[str, Optional[dict]], names) -> None:
    print(f"{'metric':<26}{'unit':<7}" + "".join(f"{w:>16}" for w in results))
    for name, unit in names:
        row = f"{name:<26}{unit:<7}"
        for result in results.values():
            value = result["metrics"][name]["value"] if result else float("nan")
            row += f"{value:>16.6g}"
        print(row)
    for workload, result in results.items():
        verdict = "no result" if result is None else (
            f"correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}"
        )
        print(f"{workload}: {verdict}")


def run_all(
    seed: int, seconds: int, trace: bool, record: Optional[Path] = None
) -> int:
    """Every workload in its own process (so ``peak_rss_mb`` is its own).

    With *record*, each workload runs untraced and traced, and one entry
    with both sets of metrics is appended to the trajectory file.
    """
    import workloads

    modes = (False, True) if record is not None else (trace,)
    status = 0
    results: Dict[bool, Dict[str, Optional[dict]]] = {}
    for mode in modes:
        results[mode] = {}
        for workload in workloads.SPECS:
            code, results[mode][workload] = run_workload_process(
                workload, seed, seconds, mode
            )
            status = status or code
        print_table(results[mode], PER_LAYER if mode else END_TO_END)
    if record is not None:
        entry = {"stamp": stamp("all", seed), "seconds": seconds, "workloads": {}}
        for workload in workloads.SPECS:
            row: Dict[str, object] = {}
            for mode, key in ((False, "end_to_end"), (True, "per_layer")):
                result = results[mode][workload] or {}
                row[key] = {
                    name: metric["value"]
                    for name, metric in result.get("metrics", {}).items()
                }
                row[key + "_correct"] = result.get("correct", False)
            entry["workloads"][workload] = row
        trajectory = json.loads(record.read_text()) if record.exists() else []
        trajectory.append(entry)
        record.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"appended entry {len(trajectory)} to {record}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.SPECS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", type=Path, default=None,
        help="with --workload all: run untraced and traced, and append "
        "the results to this trajectory file",
    )
    args = parser.parse_args(argv)
    if args.record is not None and args.workload != "all":
        parser.error("--record needs --workload all")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.record)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit so ``finally`` blocks stop the server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
