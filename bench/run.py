#!/usr/bin/env python3
"""The oloid benchmark: closed-loop CLI and script requests, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each request is one entry point run in a fresh interpreter, ``python -m
oloid ...`` or ``python scripts/reproduce_constants.py ...``, with the
checkout's ``src`` on PYTHONPATH.  One client sends the next request when
the previous one has exited (closed loop) until S seconds have passed.
Every output is checked (see check.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run of the same requests: each request runs once plain and once
under bench/trace_boot.py, and the difference of the two median latencies
is reported as the tracing overhead.  The last line of stdout is the result
as one JSON object; the line before it holds the provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import trace_boot  # noqa: E402
import workloads  # noqa: E402

# set-up is probed between requests, spread over the run, so it samples the
# same machine state as the requests do
SETUP_ARGS = ("-c", "import oloid.cli")
SETUP_EVERY_S = 2.0
TAIL_BEYOND = 10
SETUP_DEADLINE_S = 30.0


@dataclass
class Execution:
    seconds: float
    timed_out: bool
    returncode: int
    maxrss_kb: int
    stdout: str
    stderr: str


def execute(args: tuple[str, ...] | list[str], deadline_s: float, tmp: Path) -> Execution:
    """Run the interpreter with ``args`` to exit or deadline; time it from spawn."""
    out, err = tmp / "stdout", tmp / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(deadline_s * 1000.0)
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        seconds = deadline_s if timed_out else time.perf_counter() - start
    finally:
        os.close(pidfd)
    return Execution(
        seconds, timed_out, os.waitstatus_to_exitcode(status), usage.ru_maxrss,
        out.read_text(errors="replace"), err.read_text(errors="replace"))


def warm_up(tmp: Path) -> None:
    """Import the package once, untimed, so bytecode caches exist."""
    warm = execute(SETUP_ARGS, SETUP_DEADLINE_S, tmp)
    if warm.returncode != 0:
        raise SystemExit(f"cannot import the package:\n{warm.stderr}")


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with >= 10 requests beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / n


def _git_sha(git: Path) -> str | None:
    """Commit of HEAD, read from the files (the benchmark may run outside git)."""
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(name: str, seed: int, seconds: float, trace: int) -> dict:
    git_sha = _git_sha(ROOT / ".git")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": name, "seed": seed, "run_seconds": seconds, "trace": trace,
        "git_sha": git_sha, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "loop": "closed, 1 client",
        "deadline_s": workloads.WORKLOADS[name].deadline_s,
        "mix": workloads.WORKLOADS[name].mix,
    }


def run(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> tuple[dict, dict]:
    workload = workloads.WORKLOADS[name]
    warm_up(tmp)
    setup: list[float] = []
    stream = workloads.requests(name, seed, os.path.relpath(tmp, ROOT))
    plain: list[Execution] = []
    traced: list[Execution] = []
    layers: list[dict] = []
    attempted = failed = wrong = 0
    digits: list[float] = []
    failures: dict[str, int] = {}
    spans_path = tmp / "spans.json"

    def record(args, ex: Execution) -> None:
        nonlocal attempted, failed, wrong
        attempted += 1
        outcome = check.judge(args, ex.returncode, ex.stdout, ex.timed_out)
        digits.extend(outcome.digits)
        if not outcome.ok:
            failed += 1
            wrong += not ex.timed_out
            key = f"{' '.join(args[:3])}: {outcome.reason}"[:300]
            failures[key] = failures.get(key, 0) + 1

    start = time.perf_counter()
    next_probe = start
    probing = 0.0
    while (now := time.perf_counter()) - start < seconds:
        if not trace and now >= next_probe:
            setup.append(execute(SETUP_ARGS, SETUP_DEADLINE_S, tmp).seconds)
            probing += time.perf_counter() - now
            next_probe = now + SETUP_EVERY_S
            continue
        args = next(stream)
        ex = execute(args, workload.deadline_s, tmp)
        plain.append(ex)
        record(args, ex)
        if trace:
            spans_path.unlink(missing_ok=True)
            tex = execute(["-X", "importtime", str(BENCH / "trace_boot.py"),
                           str(spans_path), *args], workload.deadline_s, tmp)
            traced.append(tex)
            record(args, tex)
            if spans_path.is_file():
                layers.append(trace_boot.layer_metrics(
                    json.loads(spans_path.read_text()), tex.stderr.splitlines(),
                    len(tex.stdout.encode())))
    wall = time.perf_counter() - start - probing

    latencies = [ex.seconds for ex in plain]
    tail_value, tail_pct = tail(latencies)
    info = {
        "attempted": attempted, "failed": failed, "wrong_outputs": wrong,
        "failures": failures, "requests": len(plain), "tail_percentile": tail_pct,
        "setup_probes": len(setup),
    }
    if trace:
        metrics = {k: statistics.fmean(m[k] for m in layers) if layers else 0.0
                   for k in trace_boot.layer_metrics([], [], 0)}
        metrics["trace.overhead_s"] = (
            statistics.median(ex.seconds for ex in traced) - statistics.median(latencies))
        info["traced_requests"] = len(layers)
    else:
        metrics = {
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_value,
            "requests_per_s": sum(not ex.timed_out for ex in plain) / wall,
            "peak_rss_mb": max(ex.maxrss_kb for ex in plain) / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
            "accuracy_digits": min(digits) if digits else 0.0,
            "setup_s": statistics.median(setup),
        }
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/oloid/cli.py", "scripts/reproduce_constants.py",
                           "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: program not found in {ROOT}: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    os.chdir(ROOT)
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        metrics, info = run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    meta = provenance(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"provenance": meta | info}, sort_keys=True))
    print(json.dumps({
        "correct": info["wrong_outputs"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
