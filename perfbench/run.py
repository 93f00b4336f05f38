"""Certificate benchmark for replalg.

Run from the root of a replalg checkout::

    python3 perfbench/run.py --workload endalg --seed 0 --seconds 20 --trace 0

Every pass runs the workload's certificate commands one after another in a
fresh Python process (closed loop, one client, no threads), so no
memoisation survives from one pass to the next: each pass pays what a CLI
user pays.  Every report is checked byte for byte against
``perfbench/refs`` (the ``seed`` field aside), every exit code against
``refs/exit_codes.json``, and the known answers in ``workloads.py``.

``--trace 0`` runs set-up probes, then as many passes as fit in
``--seconds`` (at least two), and reports the end-to-end metrics of
``BENCHMARK.json``: median ``pass_s``, median ``setup_s`` and median
``peak_rss_mb``.  Times are scaled to a reference speed of the core by the
probe in ``speed.py``, because the host's cores run at two speeds that
flip within seconds.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics;
the spans go to ``perfbench/out/``.

The last line on stdout is one JSON object with ``correct``,
``attempted``, ``failed`` (commands that raised, exited differently from
the reference, or printed another report) and ``metrics``; failed /
attempted is the benchmark's failed_frac.  A summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFS = os.path.join(HERE, "refs")
sys.path.insert(0, HERE)

from speed import to_reference  # noqa: E402
from workloads import KNOWN_ANSWERS, WORKLOADS  # noqa: E402

# Set-up is short and noisy, so it is sampled in extra processes as well.
SETUP_PROBES = 3
# The per-run median needs at least this many passes, whatever --seconds says.
MIN_PASSES = 2
# A run must end within 180 s, worker time-outs included.
RUN_LIMIT_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # fixed string hashing: set iteration order, and so the work done, repeats
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int = 0, *, setup_only: bool = False,
               trace_path: str | None = None, timeout: float = RUN_LIMIT_S) -> dict:
    """One fresh worker process; returns its JSON line."""
    cmd = [sys.executable, "-B", os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path:
        cmd += ["--trace", trace_path]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker for {workload} ran past {timeout:.0f} s")
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.splitlines()[-1])


def load_refs() -> tuple[dict[str, str], dict[str, int]]:
    with open(os.path.join(REFS, "exit_codes.json"), encoding="utf-8") as fh:
        codes = json.load(fh)
    reports = {}
    for label in codes:
        with open(os.path.join(REFS, label + ".json"), encoding="utf-8") as fh:
            reports[label] = fh.read()
    return reports, codes


def check_pass(out: dict, workload: str, refs: tuple[dict[str, str], dict[str, int]]) -> list[str]:
    """One message per failed command of a worker's pass; empty when all agree."""
    reports, codes = refs
    expected = [label for label, _ in WORKLOADS[workload]]
    got = [c["label"] for c in out["commands"]]
    if got != expected:
        return [f"pass ran {got}, expected {expected}"] * len(expected)
    failures = []
    for cmd in out["commands"]:
        label = cmd["label"]
        if "error" in cmd:
            failures.append(f"{label}: {cmd['error']}")
        elif cmd["exit"] != codes[label]:
            failures.append(f"{label}: exit code {cmd['exit']}, reference {codes[label]}")
        elif cmd["report"] != reports[label]:
            failures.append(f"{label}: report differs from perfbench/refs/{label}.json")
        elif label in KNOWN_ANSWERS:
            errors = KNOWN_ANSWERS[label](json.loads(cmd["report"]))
            if errors:
                failures.append("; ".join(errors))
    return failures


def layer_value(summary: dict, metric: str) -> float:
    """A per-layer metric from the trace summary; 0 when the span never ran."""
    span, _, stat = metric.rpartition(".")
    return summary.get(span, {}).get(stat, 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="certificate benchmark for replalg")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "replalg", "cli.py")):
        print(f"error: no replalg sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    refs = load_refs()
    started = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    outs: list[dict] = []
    failures: list[str] = []

    def one_pass(**kw) -> dict:
        out = run_worker(args.workload, args.seed, timeout=remaining(), **kw)
        outs.append(out)
        failures.extend(check_pass(out, args.workload, refs))
        return out

    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}.json")
        plain = one_pass()
        traced = one_pass(trace_path=spans_path)
        overhead = traced["pass_s"] / plain["pass_s"] - 1.0
        metrics = {
            m["name"]: {"value": overhead if m["name"] == "trace_overhead_frac"
                        else layer_value(traced["trace"], m["name"]), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        setups = [run_worker(args.workload, args.seed, setup_only=True, timeout=remaining())
                  for _ in range(SETUP_PROBES)]
        # Start another pass only while it is expected to end within --seconds,
        # so a slower machine runs fewer passes instead of longer runs.
        t0 = time.perf_counter()
        durations: list[float] = []
        while len(outs) < MIN_PASSES or \
                time.perf_counter() - t0 + statistics.median(durations) <= args.seconds:
            t = time.perf_counter()
            one_pass()
            durations.append(time.perf_counter() - t)
        samples = {
            "pass_s": [to_reference(o["pass_s"], o["pass_kernel_s"]) for o in outs],
            "setup_s": [to_reference(o["setup_s"], o["setup_kernel_s"]) for o in setups + outs],
            "peak_rss_mb": [o["peak_rss_mb"] for o in outs],
        }
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print(f"{args.workload}: {len(outs)} passes; at reference speed pass_s "
              f"{[round(x, 3) for x in samples['pass_s']]}, setup_s "
              f"{[round(x, 3) for x in samples['setup_s']]}; wall pass_s "
              f"{[round(o['pass_s'], 3) for o in outs]}", file=sys.stderr)

    attempted = sum(len(o["commands"]) for o in outs)
    failed = len(failures)
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"{args.workload}: failed_frac = {failed}/{attempted}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
