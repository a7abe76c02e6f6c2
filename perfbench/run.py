"""evomin benchmark: run one workload through `evomin.cli.main` and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; evomin is imported from `src/`.
Closed loop, one client, one process: a job starts when the previous one has
finished.  The first job is an untimed warm-up.  Jobs run in whole input
cycles until the next cycle would end after S seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
jobs.  --trace 1 reports the per-layer metrics: jobs then run in pairs on the
same input, untraced and traced, and the paired difference is the tracing
overhead.  Every job's artifacts are checked for correctness.  The last line
of stdout is the JSON result; the lines before it are for people.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"          # before numpy is imported anywhere
for _var in ("EVOMIN_OUT", "EVOMIN_WORKERS"):
    os.environ.pop(_var, None)      # the program sees only the generated config

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
TIMED_UNITS = ("s", "1/s")          # per-layer metrics reported as medians over traced jobs


@dataclass
class Job:
    index: int
    seconds: float
    problems: list
    artifacts: dict
    metrics: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


class Bench:
    def __init__(self, workload, seed: int, work: Path, entry):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.entry = entry              # evomin.cli.main
        self.jobs: list[Job] = []

    def run_job(self, index: int, traced: bool = False) -> Job:
        """One cli.main call on input `index`, then its correctness check.

        Only the call is timed.  A traced job installs the tracer around the
        call alone, so the check is never traced.
        """
        cfg = self.workload.config(self.seed, index)
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        cfg["output"]["directory"] = str(out)
        path = self.work / "job.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
        argv = [self.workload.command, "--config", str(path), "--seed", str(cfg["seed"])]
        problems = []
        tracer = tracing.Tracer() if traced else None
        with tracer or contextlib.nullcontext():
            root = tracer.span(tracing.ROOT) if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with root:
                    rc = self.entry(argv)
            except Exception as exc:
                rc = None
                problems.append(f"cli.main raised {type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
        if rc is not None:
            if rc != 0:
                problems.append(f"exit code {rc}")
            try:
                problems += self.workload.check(cfg, out)
            except Exception as exc:
                problems.append(f"correctness check raised {type(exc).__name__}: {exc}")
        artifacts = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                     if out.is_dir() else {})
        job = Job(index, seconds, problems, artifacts)
        if tracer is not None:
            job.spans = tracer.take()
            job.metrics = tracing.job_metrics(job.spans)
            job.metrics["cli.artifact_bytes"] = sum(len(b) for b in artifacts.values())
        self.jobs.append(job)
        return job

    def timed_loop(self, step, seconds: float) -> None:
        """step(i) for i = 0, 1, ... in whole cycles, stopping before the cycle
        that would end after `seconds`."""
        cycle = self.workload.cycle
        start = time.perf_counter()
        i = 0
        while True:
            for _ in range(cycle):
                step(i)
                i += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / (i // cycle) > seconds:
                return


def same_artifacts(reference: Job, other: Job) -> None:
    if other.artifacts != reference.artifacts:
        differ = sorted(k for k in set(reference.artifacts) | set(other.artifacts)
                        if reference.artifacts.get(k) != other.artifacts.get(k))
        other.problems.append(f"traced artifacts differ from untraced ones: {differ}")


def measure_setup(bench: Bench) -> list[float]:
    """Seconds to import evomin, parse input 0's config and build its problem,
    each time in a fresh interpreter."""
    path = bench.work / "setup.yaml"
    path.write_text(yaml.safe_dump(bench.workload.config(bench.seed, 0)), encoding="utf-8")
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(path)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(SRC / "evomin"),
        "benchmark_sha256": source_digest(HERE),
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(top: Path) -> str:
    """sha256 over the files under `top`, identifying the code outside git."""
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_ledger(key: str, counts: dict) -> None:
    """Deterministic counts must repeat exactly for the same source, platform and seed."""
    path = WORK / "ledger.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    known = ledger.get(key)
    if known is not None and known != counts:
        diff = {k: (known.get(k), counts.get(k)) for k in sorted(set(known) | set(counts))
                if known.get(k) != counts.get(k)}
        sys.exit(f"FAIL: deterministic counts changed between runs of {key}: {diff}")
    ledger[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(path)


def cycle_median(values: list, cycle: int) -> float:
    """Median over whole input cycles of the mean value within a cycle.

    With one input per cycle this is the plain median over jobs.  On a
    multi-input panel it weighs every panel input equally, where a median over
    single jobs would sit between the panel's fast and slow inputs.
    """
    return statistics.median(statistics.fmean(values[i:i + cycle])
                             for i in range(0, len(values), cycle))


def tail(values: list) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return ""
    q = math.floor(100 * (n - 10) / n)
    return f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f}"


def measure_end_to_end(bench: Bench, seconds: float):
    """Untraced timed jobs, then input 0 once more, traced and untimed, for its counts."""
    setup = measure_setup(bench)
    bench.run_job(0)                                    # warm-up, untimed
    timed: list[Job] = []
    bench.timed_loop(lambda i: timed.append(bench.run_job(i)), seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    count_job = bench.run_job(0, traced=True)
    same_artifacts(timed[0], count_job)
    times = [j.seconds for j in timed]
    cycle = bench.workload.cycle
    values = {"job_s": cycle_median(times, cycle), "setup_s": statistics.median(setup),
              "peak_rss_mb": peak_rss_mb}
    print(f"job_s {values['job_s']:.4f} s ({len(times)} jobs in cycles of {cycle}; "
          f"per-job median {statistics.median(times):.4f}{tail(times)})")
    print(f"setup_s {values['setup_s']:.4f} s (median of {len(setup)})")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    record = {"job_seconds": times, "setup_seconds": setup}
    return values, count_job, record


def measure_per_layer(bench: Bench, seconds: float, spec: dict):
    """Pairs of jobs on the same input, untraced then traced."""
    bench.run_job(0)                                    # warm-up, untimed
    plain: list[Job] = []
    traced: list[Job] = []

    def pair(i):
        plain.append(bench.run_job(i))
        traced.append(bench.run_job(i, traced=True))
        same_artifacts(plain[-1], traced[-1])
        if i > 0:
            traced[-1].spans = []                       # keep input 0's spans only

    bench.timed_loop(pair, seconds)
    cycle = bench.workload.cycle
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "tracing_overhead_s":
            values[name] = cycle_median([t.seconds - p.seconds for p, t in zip(plain, traced)],
                                        cycle)
        elif metric["unit"] in TIMED_UNITS:
            values[name] = cycle_median([j.metrics[name] for j in traced], cycle)
        else:
            values[name] = traced[0].metrics[name]
    total = values["traced_job_s"]
    print(f"traced_job_s {total:.4f} s, untraced "
          f"{cycle_median([j.seconds for j in plain], cycle):.4f} s, tracing_overhead_s "
          f"{values['tracing_overhead_s']:.4f} s ({len(traced)} pairs in cycles of {cycle})")
    print("self-time shares: " + ", ".join(
        f"{layer} {values[f'{layer}.self_s'] / total:.1%}"
        for layer in sorted(tracing.LAYERS, key=lambda l: -values[f"{l}.self_s"])))
    print(f"rejected trials by type (input 0): {tracing.rejected_trials(traced[0].spans)}")
    write_spans(bench.work / "spans.jsonl", traced[0].spans)
    record = {"job_seconds": [j.seconds for j in plain],
              "traced_seconds": [j.seconds for j in traced]}
    return values, traced[0], record


def write_spans(path: Path, spans: list) -> None:
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"i": i, "job": 0, "name": s.name,
                                 "parent": index.get(id(s.parent)), "start": s.start,
                                 "end": s.end, "error": s.error, "note": s.note}) + "\n")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "evomin" / "__init__.py").is_file():
        print(f"error: no evomin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    from evomin import cli

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workloads.WORKLOADS[args.workload], args.seed, work, cli.main)
    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace == 0:
        values, count_job, record = measure_end_to_end(bench, args.seconds)
        reported = spec["end_to_end"]
    else:
        values, count_job, record = measure_per_layer(bench, args.seconds, spec)
        reported = spec["per_layer"]

    counts = {m["name"]: count_job.metrics[m["name"]] for m in spec["per_layer"]
              if m["unit"] not in TIMED_UNITS}
    check_ledger("|".join([args.workload, f"seed={args.seed}", env["source_sha256"],
                           env["benchmark_sha256"], env["cpu_model"], env["numpy"],
                           env["scipy"]]), counts)
    failed = [j for j in bench.jobs if j.problems]
    for job in failed:
        print(f"FAILED job {job.index}: " + "; ".join(job.problems))
    print(f"attempted {len(bench.jobs)}, failed {len(failed)}, "
          f"fail_ratio {len(failed) / len(bench.jobs):.4f}")
    print(f"lbfgs_iters {counts['lbfgs_iters']} count, "
          f"euler_newton_iters {counts['euler_newton_iters']} count (input 0)")

    record.update(workload=args.workload, trace=args.trace, env=env, counts=counts,
                  failures={j.index: j.problems for j in failed}, metrics=values)
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": not failed,
        "attempted": len(bench.jobs),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
