"""semcal benchmark: one workload run, printed as a metric table plus one
JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload calib-c6 --seed 0 --seconds 15 --trace 0

The run writes the workload's scenes from the seed with
``semcal.synth.generate`` (input preparation, outside every metric), runs
the closed loop in one worker process (``worker.py``), checks every
operation's outputs, compares each operation's output digest and counts
with earlier runs of the same code and item, and prints the metrics that
``BENCHMARK.json`` names: its ``end_to_end`` list with ``--trace 0`` and its
``per_layer`` list with ``--trace 1``.  Scratch files live under
``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _code_digest() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "semcal").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    """HEAD of the checkout, or 'none' outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _environment(np) -> str:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} blas={blas} "
            f"{threads} cli_threads=1 commit={_git_commit()} code={_code_digest()}")


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return f"none (n={n}; a percentile at or above p50 needs n >= 20)"
    return f"p{100 * (n - 10) // n}={sorted(values)[n - 11]!r} s (n={n})"


def _check_determinism(ops: list[dict], record_path: Path) -> list[str]:
    """Compare digests and counts per item within the run and with the record
    of earlier runs of the same code; then add this run to the record."""
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    mismatches = []
    for rec in ops:
        if "digest" not in rec:
            continue
        seen = record.setdefault(rec["key"], {})
        for field, value in (("digest", rec["digest"]), ("counts", rec.get("counts"))):
            if value is None:
                continue
            if field in seen and seen[field] != value:
                mismatches.append(f"{rec['key']}: {field} {value} != earlier {seen[field]}")
            seen.setdefault(field, value)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return mismatches


def _end_to_end(result: dict) -> dict[str, float]:
    """Bounded metrics, from times corrected for the host's speed (speed.py)."""
    times = [r["s"] for r in result["ops"] if not r["traced"]]
    return {
        "op_s_p50": median(times),
        "ops_per_min": 60.0 * len(times) / sum(times),
        "setup_s": median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _wall(result: dict) -> list[tuple[str, str]]:
    """The same timings in uncorrected wall time, and wall over corrected
    time of the operations."""
    ops = [r for r in result["ops"] if not r["traced"]]
    times = [r["wall_s"] for r in ops]
    return [
        ("op_wall_s_p50", f"{median(times)!r} s"),
        ("ops_per_wall_min", f"{60.0 * len(times) / sum(times)!r} 1/min"),
        ("setup_wall_s", f"{median(result['setup_wall_s'])!r} s"),
        ("wall_over_corrected", f"{sum(times) / sum(r['s'] for r in ops)!r} wall/corrected"),
    ]


def _accuracy(ops: list[dict]) -> list[tuple[str, str]]:
    """Accuracy lines: one value per scene (each is deterministic), then the
    median over scenes; 'n/a' where the workload has no such output."""
    per_item = {r["key"]: r for r in ops if "final_cost" in r}
    banded = [r for r in per_item.values() if "in_band" in r]
    calibrations = [r for r in banded if r["key"].startswith("calib")]

    def line(values, unit):
        values = list(values)
        return f"{median(values)!r} {unit}" if values else "n/a"

    return [
        ("pass_rate", f"{sum(r['in_band'] for r in calibrations) / len(calibrations)!r} share"
         if calibrations else "n/a"),
        ("rot_err_deg_p50", line((r["rot_err_deg"] for r in banded), "deg")),
        ("trans_err_m_p50", line((r["trans_err_m"] for r in banded), "m")),
        ("final_cost_p50", line((r["final_cost"] for r in per_item.values()), "cost")),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    src = ROOT / "src"
    if not (src / "semcal" / "__init__.py").is_file():
        return _fail(f"no semcal sources under {src}; run from the repository root")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail("no BENCHMARK.json in the current directory")
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    # Pin the load before numpy loads a BLAS; the worker inherits this.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"env: {_environment(np)}")
    try:
        items = workloads.prepare(args.workload, args.seed, work / "scenes")
        config = {
            "src": str(src), "items": items, "seconds": args.seconds, "trace": args.trace,
            "work": str(work), "result": str(work / "result.json"),
            "spans": str(base / f"spans-{args.workload}-{args.seed}.jsonl"),
            "setup_reps": workloads.SETUP_REPS[args.workload],
            "speed_exponent": workloads.SPEED_EXPONENT[args.workload],
        }
        (work / "config.json").write_text(json.dumps(config))
        budget = RUN_LIMIT_S - (time.perf_counter() - t_start)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(work / "config.json")],
                stdout=sys.stderr, timeout=budget, check=False,
            )
        except subprocess.TimeoutExpired:
            return _fail(f"worker did not finish within {budget:.0f} s")
        if proc.returncode != 0:
            return _fail(f"worker exited with code {proc.returncode}")
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work / "scenes", ignore_errors=True)

    ops = result["ops"]
    failed = [r for r in ops if r["problems"]]
    nondeterminism = _check_determinism(ops, base / "records" / f"{_code_digest()}.json")
    for rec in ops:
        print(f"op {rec['key']:<22} traced={int(rec['traced'])} wall_s={rec['wall_s']:.4f} "
              f"corrected_s={rec['s']:.4f}")
    for rec in failed:
        print(f"FAILED {rec['key']}: {'; '.join(rec['problems'])}")
    for line in nondeterminism:
        print(f"NONDETERMINISM {line}")

    e2e = _end_to_end(result)
    print(f"ops: {len(ops)} attempted, {len(failed)} failed, "
          f"{len(nondeterminism)} nondeterministic")
    print("end to end (untraced operations; times corrected for host speed):")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        print(f"  {name:<22}{value!r} {units.get(name, '')}")
    print(f"  {'op_s_tail':<22}{_tail([r['s'] for r in ops if not r['traced']])}")
    for name, text in _wall(result):
        print(f"  {name:<22}{text}")
    print(f"  {'fail_rate':<22}{len(failed) / len(ops)!r} share")
    for name, text in _accuracy(ops):
        print(f"  {name:<22}{text}")

    if args.trace:
        layers = result["layers"]
        print("per layer (traced operations):")
        for name, value in layers.items():
            print(f"  {name:<40}{value!r}")
        for name, share in workloads.INTENDED_SPLIT[args.workload].items():
            held = layers[name] > 0.5 if share == "majority" else layers[name] == 0
            print(f"intended split: {name} is {share}: {'yes' if held else 'NO'}")
        values = layers
    else:
        values = e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"BENCHMARK.json names metrics this run does not produce: {missing}")
    print(json.dumps({
        "correct": not failed and not nondeterminism,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
