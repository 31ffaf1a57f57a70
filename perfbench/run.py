"""Closed-loop benchmark of the peakalg command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/README.md says why each was chosen):

  verify-n5  peakalg verify --suite all --n-max 5 --format json --jobs 1
  tables     the six default-cap `peakalg table --format json` commands,
             in one process, in an order drawn from the seed

This process is the only client.  Each iteration starts one child
interpreter (child.py) that runs the workload's commands one after the
other, and the next iteration starts only after it has exited.  Iterations
repeat until --seconds have passed, at least once.  Every output is
checked against the sha256 digests in digests.json, taken when the
benchmark was defined.

With --trace 0 the result holds the end-to-end metrics: the median over
the iterations of cpu_adj_s, the CPU time of the workload's commands; the
median set-up time of every child started, the CPU time until
peakalg.cli is imported; and the largest resident set of any process.
The times are read from the child's thread CPU clock, which stops while the
hypervisor has taken the core away, and adjusted for how fast the host
runs while it has it: each child times yardstick.py's reference
computation next to its own work, and each stretch of time between two
samples is multiplied by REF_NOMINAL_S over the reference time of the
sample before it (see nominal_s).  The raw times and the factors are on
the info line.  With --trace 1 the
workload runs once untraced and once with tracer.py's layer wrappers, and
the result holds the per-layer metrics of the traced pass.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An operation is a check of the
verify report or a table command; one that fails, errors or prints output
with another digest counts as failed.  --n-max 3 runs a small version of
every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("verify-n5", "tables")
# cli.TABLE_CAPS when the benchmark was defined: the default-cap ranks.
TABLES = {"P": 6, "whp": 6, "solB": 4, "SigA": 6, "SigB": 4, "SigD": 4}
SUITES = (
    "descents",
    "peaks",
    "chi",
    "phi",
    "psi",
    "ideals",
    "exactseq",
    "commutative",
    "mr",
    "theta",
    "hopf",
    "words",
)
HASH_SEED = "0"
SETUP_PROBES = 10
RUN_LIMIT_S = 175.0
# the median sample of yardstick.py in a tables iteration on a calm 2-vCPU
# Xeon VM; it only sets the scale of the adjusted times, so it never changes
REF_NOMINAL_S = 0.002

# tracer keys reported with their call count and self time
CALLS_AND_SELF = (
    "algebra.internal_product",
    "algebra.SpanSolver",
    "bases.descent_coordinates",
    "peak.peak_coordinates",
    "peak.interior_peak_coordinates",
    "mr.tclass_coordinates",
    "commutative.coarsen",
    "maps.theta",
    "maps.theta_pm",
    "hopf.coproduct",
    "hopf.external_product",
)


class RunFailed(Exception):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def commands(workload: str, seed: int, n_max: int) -> list:
    if workload == "tables":
        order = sorted(TABLES)
        random.Random(seed).shuffle(order)
        ranks = {a: min(r, n_max + 1) for a, r in TABLES.items()}
        return [["table", "--algebra", a, "--n", str(ranks[a]), "--format", "json"] for a in order]
    return [["verify", "--suite", "all", "--n-max", str(n_max), "--format", "json", "--jobs", "1"]]


def digest_key(argv: list) -> str:
    """--jobs does not change the output, so the key leaves it out."""
    if "--jobs" in argv:
        i = argv.index("--jobs")
        argv = argv[:i] + argv[i + 2 :]
    return " ".join(argv)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PEAKALG_")}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(SRC)
    return env


def git_sha():
    """HEAD of the repository the benchmark runs in; None in a plain checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "peakalg").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n_max": args.n_max,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "loadavg": os.getloadavg(),
        "PYTHONHASHSEED": HASH_SEED,
        "unset": sorted(k for k in os.environ if k.startswith("PEAKALG_")),
    }


class Client:
    """Starts the child interpreters one at a time, within the run's time limit."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, cmds: list, trace_dir: Path | None = None) -> dict:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            out = Path(tmp) / "result.json"
            argv = [sys.executable, str(BENCH / "child.py"), str(out), str(trace_dir or "-"), json.dumps(cmds)]
            proc = subprocess.Popen(argv, env=self.env, stdout=sys.stderr, start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - clock()))
            except subprocess.TimeoutExpired:
                raise RunFailed(f"the run did not finish within {RUN_LIMIT_S} s") from None
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            if code != 0 or not out.is_file():
                raise RunFailed(f"child exited with {code}")
            result = json.loads(out.read_text())
        result["setup_s"] = result["t_import"] - (result["t_pre"] - result["t_main"])
        return result


def gate(result: dict, expected: dict) -> tuple:
    """(attempted, failed) operations of one child's commands."""
    attempted = failed = 0
    for cmd in result["commands"]:
        ok = cmd["exit"] == 0 and cmd["sha256"] == expected.get(digest_key(cmd["argv"]))
        if cmd["argv"][0] == "verify" and "checks" in cmd:
            attempted += cmd["checks"]
            failed += max(cmd["checks_failed"], 0 if ok else 1)
        else:
            attempted += 1
            failed += 0 if ok else 1
    return attempted, failed


def setup_factor(result: dict) -> float:
    """How many times slower than nominal the reference ran around the import.

    The geometric mean of the median samples of the bursts just before and
    just after it.
    """
    before = [d for t, d in result["samples"] if t < result["t_pre"]]
    after = [d for t, d in result["samples"] if result["t_import"] <= t < result["t_start"]]
    if not before or not after:
        raise RunFailed("the child took no samples of the host's speed")
    return math.sqrt(statistics.median(before) * statistics.median(after)) / REF_NOMINAL_S


def nominal_s(samples: list, start: float, end: float) -> float:
    """The time from start to end, as it would read on a host of nominal speed.

    Each stretch between two samples is divided by the factor of the last
    sample taken before it, so the adjustment follows the host's speed as
    it drifts within a command.  The samples' own time is left out.
    """
    total = 0.0
    mark, duration = start, None
    for t, d in samples:
        if t >= end:
            break
        if t >= start:
            total += (t - mark) * REF_NOMINAL_S / (duration or d)
            mark = t + d
        duration = d
    if duration is None:
        raise RunFailed("the child took no samples of the host's speed")
    return total + (end - mark) * REF_NOMINAL_S / duration


def end_to_end(client: Client, cmds: list, seconds: int) -> tuple:
    # set-up probes before and after the iterations, so that they sample
    # the machine at more than one moment
    probes = [client.run([]) for _ in range(SETUP_PROBES)]
    iterations = []
    stop = clock() + seconds
    while not iterations or clock() < stop:
        iterations.append(client.run(cmds))
    probes += [client.run([]) for _ in range(SETUP_PROBES)]
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [r["setup_s"] / setup_factor(r) for r in probes + iterations]
    cpus = [
        (it["cpu_s"], sum(nominal_s(it["samples"], c["t0"], c["t1"]) for c in it["commands"]))
        for it in iterations
    ]
    metrics = {
        "cpu_adj_s": {"value": statistics.median(adj for _, adj in cpus), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(children, own) / 1024.0, "unit": "MB"},
    }
    info = {
        "iterations": len(iterations),
        "samples": [len(it["samples"]) for it in iterations],
        "cpu_s": [raw for raw, _ in cpus],
        "factor": [raw / adj for raw, adj in cpus],
        "setup_s_raw_median": statistics.median(r["setup_s"] for r in probes + iterations),
    }
    return iterations, metrics, info


def per_layer(client: Client, cmds: list) -> tuple:
    untraced = client.run(cmds)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        traced = client.run(cmds, Path(tmp))
        snap = json.loads((Path(tmp) / "main.json").read_text())
    calls, work, self_s = Counter(snap["calls"]), Counter(snap["work"]), Counter(snap["self_s"])
    total_s, failed = Counter(snap["total_s"]), Counter(snap["failed"])

    def count(value):
        return {"value": value, "unit": "count"}

    def secs(value):
        return {"value": value, "unit": "s"}

    m = {
        "perms.compose.calls": count(calls["perms.compose"]),
        "perms.group_elements.elements": count(work["perms.group_elements"]),
        "algebra.internal_product.term_pairs": count(work["algebra.internal_product"]),
        "hopf.external_product.term_pairs": count(work["hopf.external_product"]),
        "hopf.coproduct_split.calls": count(calls["hopf.coproduct_split"]),
        "bases.structure_cube.self_s": secs(self_s["bases.structure_cube"]),
        "bases.structure_constants.self_s": secs(self_s["bases.structure_constants"]),
    }
    for key in CALLS_AND_SELF:
        m[f"{key}.calls"] = count(calls[key])
        m[f"{key}.self_s"] = secs(self_s[key])
    for suite in SUITES:
        m[f"verify.suite.{suite}.busy_s"] = secs(total_s[f"verify.suite.{suite}"])
    m["verify.check.max_s"] = secs(snap["max_s"].get("verify.check", 0.0))
    m["verify.checks.attempted"] = count(calls["verify.check"])
    m["verify.checks.failed"] = count(failed["verify.check"])

    table_s = {c["argv"][2]: c["s"] for c in traced["commands"] if c["argv"][0] == "table"}
    for algebra in TABLES:
        m[f"cli.table.{algebra}.s"] = secs(table_s.get(algebra, 0.0))
    m["cache.entries"] = count(snap["cache_entries"])
    m["trace.overhead_s"] = secs(traced["cpu_s"] - untraced["cpu_s"])
    info = {"untraced_cpu_s": untraced["cpu_s"], "traced_cpu_s": traced["cpu_s"]}
    return [untraced, traced], m, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-max", type=int, choices=(3, 5), default=5, help="3 is the smoke-test size")
    args = parser.parse_args(argv)
    if not (SRC / "peakalg" / "cli.py").is_file():
        print(f"error: no peakalg sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still kills and reaps its child's process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    client = Client(clock() + RUN_LIMIT_S)
    print(json.dumps({"environment": environment(args)}), flush=True)
    expected = json.loads((BENCH / "digests.json").read_text())
    cmds = commands(args.workload, args.seed, args.n_max)
    try:
        client.run([])  # writes the bytecode caches; not measured
        if args.trace:
            results, metrics, info = per_layer(client, cmds)
        else:
            results, metrics, info = end_to_end(client, cmds, args.seconds)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = failed = 0
    for result in results:
        a, f = gate(result, expected)
        attempted += a
        failed += f
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
