"""The benchmark's workloads, their certificate commands and known answers.

Each workload is a list of (label, argv) pairs run through
``replalg.cli.main`` one after another in one fresh process.  ``--report
json --seed <seed>`` is appended to every argv.  Labels name the command
and the instance, e.g. ``repdim.kronecker-m1``.

Quiver files live in ``perfbench/quivers`` so the inputs are part of the
benchmark: kronecker.json and a3.json are copies of the samples shipped in
``quivers/``, a4.json and a5.json are linearly oriented A4 and A5.
"""

from __future__ import annotations

QUIVERS = "perfbench/quivers"


def _cmd(command: str, quiver: str | None = None, m: int | None = None, *extra: str) -> list[str]:
    argv = [command]
    if quiver is not None:
        argv += ["--quiver", f"{QUIVERS}/{quiver}.json"]
    if m is not None:
        argv += ["--m", str(m)]
    return argv + list(extra)


WORKLOADS: dict[str, list[tuple[str, list[str]]]] = {
    # End(M) assembly and gl.dim End: the trace-form radical dominates.
    "endalg": [
        ("repdim.kronecker-m1", _cmd("repdim", "kronecker", 1)),
        ("repdim.a3-m2", _cmd("repdim", "a3", 2)),
        ("example34.golden", _cmd("example34")),
    ],
    # Thousands of repeated covers/envelopes on ~61 modules inside A^(3).
    "extcheck": [
        ("extcheck.kronecker-m1", _cmd("extcheck", "kronecker", 1)),
    ],
    # Hom-system solving and exact elimination over 21 inventory targets.
    "lemma24": [
        ("lemma24.kronecker-m2", _cmd("lemma24", "kronecker", 2, "--target", "all-inventory")),
    ],
    # A few large modules: the regular module of A^(m) and its coresolution.
    "resolve": [
        ("domdim.a5-m2", _cmd("domdim", "a5", 2)),
        ("bounds.a5-m2", _cmd("bounds", "a5", 2)),
        ("domdim.a4-m3", _cmd("domdim", "a4", 3)),
        ("bounds.a4-m3", _cmd("bounds", "a4", 3)),
    ],
}


def quiver_files(workload: str) -> list[str]:
    """The quiver files a workload's commands read, in first-use order."""
    out: list[str] = []
    for _, argv in WORKLOADS[workload]:
        if "--quiver" in argv:
            path = argv[argv.index("--quiver") + 1]
            if path not in out:
                out.append(path)
    return out


# -- known answers that do not come from the engine ----------------------------

# Example 3.4 of the paper: the ten indecomposable summands of M for the
# duplicated Kronecker algebra, as dimension vectors (1@0, 2@0, 1@1, 2@1).
GOLDEN_34_DIMS = sorted([
    [1, 0, 0, 0], [2, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1], [1, 2, 1, 0],
    [0, 1, 2, 1], [0, 2, 1, 0], [0, 3, 2, 0], [0, 0, 3, 2], [0, 0, 4, 3],
])


def _values(report: dict) -> dict:
    (result,) = report["results"]
    return result["values"]


def _check_example34(report: dict) -> list[str]:
    v = _values(report)
    dims = sorted(report["results"][0]["witnesses"]["summand_dims"])
    errors = []
    if v["num_summands_M"] != 10 or dims != GOLDEN_34_DIMS:
        errors.append("example34: summands of M differ from the paper's ten dimension vectors")
    if v["gl_dim_end_M"] != 3:
        errors.append(f"example34: gl.dim End(M) = {v['gl_dim_end_M']}, paper says 3")
    if v["gl_dim_end_M0"] != 5:
        errors.append(f"example34: gl.dim End(M0) = {v['gl_dim_end_M0']}, paper says 5")
    return errors


def _check_repdim(report: dict) -> list[str]:
    v = _values(report)
    if v.get("gl_dim_end_M") is None or v["gl_dim_end_M"] > 3:
        return [f"repdim: gl.dim End(M) = {v.get('gl_dim_end_M')}, theorem 3.3 says <= 3"]
    return []


def _check_domdim_a5_m2(report: dict) -> list[str]:
    # The A3 m=1 finding of the README, one size up: A^(2) of linearly
    # oriented A5 is serial with t = 5 and dominant dimension exactly 3, so
    # dom.dim >= m holds and the proof-level bound dom.dim >= t-1 fails.
    v = _values(report)
    want = {"t_gl_dim_replicated": 5, "dominant_dim": 3,
            "theorem_dom_ge_m": True, "proof_bound_dom_ge_t_minus_1": False}
    got = {k: v.get(k) for k in want}
    return [] if got == want else [f"domdim a5 m=2: got {got}, expected {want}"]


def _check_domdim(report: dict) -> list[str]:
    v = _values(report)
    m = report["instance"]["m"]
    if v["dominant_dim"] < m or v["theorem_dom_ge_m"] is not True:
        return [f"domdim: dominant dimension {v['dominant_dim']} below m = {m}"]
    return []


def _check_bounds(report: dict) -> list[str]:
    # gl.dim of a path algebra with an arrow is 1; the sandwich bounds are
    # recomputed here from m and gl.dim A, not read from the report.
    v = _values(report)
    m = report["instance"]["m"]
    base = 1 if report["instance"]["arrows"] else 0
    lower, upper = m + base, (m + 1) * base + m
    errors = []
    if (v["gl_dim_base"], v["lower"], v["upper"]) != (base, lower, upper):
        errors.append(f"bounds: (gl_dim_base, lower, upper) = "
                      f"{(v['gl_dim_base'], v['lower'], v['upper'])}, expected {(base, lower, upper)}")
    if not lower <= v["gl_dim_replicated"] <= upper:
        errors.append(f"bounds: gl.dim A^(m) = {v['gl_dim_replicated']} outside [{lower}, {upper}]")
    return errors


KNOWN_ANSWERS = {
    "example34.golden": _check_example34,
    "repdim.kronecker-m1": _check_repdim,
    "repdim.a3-m2": _check_repdim,
    "domdim.a5-m2": _check_domdim_a5_m2,
    "domdim.a4-m3": _check_domdim,
    "bounds.a5-m2": _check_bounds,
    "bounds.a4-m3": _check_bounds,
}
