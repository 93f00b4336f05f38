"""One fresh-process pass over a workload's certificate commands.

Run by ``perfbench/run.py`` from the root of a replalg checkout::

    python3 -B perfbench/worker.py --workload endalg --seed 0 [--trace spans.json]
    python3 -B perfbench/worker.py --workload endalg --setup-only

It imports replalg from ``src/`` of the checkout, parses the workload's
quiver files (the end of set-up), then runs each command through
``replalg.cli.main`` with stdout captured.  It prints one JSON line: set-up
seconds, pass seconds, peak RSS, the speed-probe kernel times that go with
set-up and pass (``speed.py``), and per command the exit code and the
report with its top-level ``seed`` value replaced by 0.  With ``--trace``
the layers are wrapped after set-up and the spans are written to the path
given, the per-name summary is added to the JSON line, and the pass runs
without the speed probe.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Speed-probe kernels run right after set-up, and the fewest a pass is scaled by.
SETUP_BURST = 20
MIN_KERNELS = 20

# The report's own seed line: two-space indent marks the top level, and
# "seed" sorts last among the top-level keys, so no comma follows it.
SEED_LINE = re.compile(r'^  "seed": (-?\d+)$', re.MULTILINE)


def normalise_seed(text: str, seed: int) -> tuple[str, str | None]:
    """Replace the report's seed value by 0; error if it is not `seed`."""
    found = SEED_LINE.findall(text)
    if found != [str(seed)]:
        return text, f"report seed field is {found}, expected [{seed}]"
    return SEED_LINE.sub('  "seed": 0', text), None


def run_commands(cli, commands, seed: int, tracer) -> list[dict]:
    """Run each command through ``cli.main``; one outcome per command."""
    results = []
    for label, argv_cmd in commands:
        full = argv_cmd + ["--report", "json", "--seed", str(seed)]
        buf = io.StringIO()
        span = tracer.span(f"cli.{label}") if tracer else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(buf):
                code = cli.main(full)
        except (Exception, SystemExit):  # a traceback is a failed command, not a crash of the pass
            results.append({"label": label, "error": traceback.format_exc(limit=3)})
            continue
        report, err = normalise_seed(buf.getvalue(), seed)
        entry = {"label": label, "exit": code, "report": report}
        if err:
            entry["error"] = err
        results.append(entry)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans here and add a summary")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, quiver_files

    commands = WORKLOADS[args.workload]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import replalg.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported replalg from {cli.__file__}, not from {SRC}")
    for path in quiver_files(args.workload):
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            cli.parse_quiver(fh.read())
    setup_s = time.perf_counter() - t0
    # imported after set-up, so that set-up still pays for importing fractions
    import speed

    out = {"setup_s": setup_s, "setup_kernel_s": speed.trimmed_mean(speed.burst(SETUP_BURST))}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.chdir(ROOT)
    # The speed probe would add its own time to the spans, so a traced pass runs without it.
    probe = speed.Probe()
    t1 = time.perf_counter()
    with contextlib.nullcontext() if tracer else probe:
        results = run_commands(cli, commands, args.seed, tracer)
    out["pass_s"] = time.perf_counter() - t1 - sum(probe.samples)
    if not tracer:
        short = max(0, MIN_KERNELS - len(probe.samples))
        out["pass_kernel_s"] = speed.trimmed_mean(probe.samples + speed.burst(short))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["commands"] = results
    if tracer:
        out["trace"] = tracer.summary()
        tracer.dump(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
