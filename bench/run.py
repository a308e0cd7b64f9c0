"""Yardstick benchmark: the desk-scale solve chains, end to end and by layer.

    python3 bench/run.py --workload ref3d --seed 0 --seconds 10 --trace 0

Run from the repository root.  The package is imported from src/, so
nothing needs installing.  Every pass runs in a fresh interpreter
(bench/worker.py), one pass at a time: a closed loop with one client.

--trace 0  measures the end-to-end metrics.  Passes repeat while one
           more pass, at the mean length so far, still ends within
           --seconds (there is always at least one); wall_s and
           peak_rss_mb are medians over passes, setup_s the median over
           SETUP_SAMPLES fresh processes.
--trace 1  runs one untraced pass and one traced pass, checks that both
           give the same energies and iteration counts bit for bit and
           that every wrapped name was restored, and reports the
           per-layer metrics of the traced pass.

The seed goes to SolverConfig.seed and nowhere else.  Every solve is
checked (see worker.py); a failed solve counts in "failed" and makes
"correct" false.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import LAYERS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Solve outcomes the traced pass must reproduce exactly.
SAME_IN_TRACE = ("tag", "ok", "energy", "iters", "restart_energies",
                 "grad_residual", "p_residual", "nodal_count")


def per_layer_unit(name: str) -> str:
    if name.endswith("ms_per_call"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_frac", ".share")):
        return "ratio"
    return "count"


def call_worker(args, mode, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: {mode} worker passed the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench: {mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_solves(passes):
    for p in passes:
        for s in p["solves"]:
            if "energy" in s:
                line = (f"energy={s['energy']:.6f} iters={s['iters']} "
                        f"grad={s['grad_residual']:.2e} P={s['p_residual']:.2e} "
                        f"nodal={s['nodal_count']}/{s['order']}")
            else:
                line = "no solution"
            verdict = "ok" if s["ok"] else "FAILED " + "; ".join(s["failures"])
            print(f"solve {p['mode']} {s['tag']}: {line} {verdict}")


def layer_table(wl_name, layers):
    wall = layers["traced_wall_s"]
    print(f"layer shares of the traced wall time {wall:.3f} s ({wl_name})")
    print(f"  {'layer':<13}{'self_s':>9}{'share':>8}")
    rest = wall
    for layer in LAYERS:
        self_s = layers[f"{layer}.self_s"]
        rest -= self_s
        print(f"  {layer:<13}{self_s:>9.3f}{self_s / wall:>8.1%}")
    print(f"  {'unattributed':<13}{rest:>9.3f}{rest / wall:>8.1%}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "choquard" / "__init__.py").is_file():
        sys.exit(f"bench: no choquard package under {ROOT / 'src'}")

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if args.trace:
        passes = [call_worker(args, "pass", deadline),
                  call_worker(args, "trace", deadline)]
    else:
        passes = [call_worker(args, "pass", deadline)]
        while (time.monotonic() - start) * (len(passes) + 1) / len(passes) <= args.seconds:
            passes.append(call_worker(args, "pass", deadline))
    print("env " + json.dumps(passes[0]["env"], sort_keys=True))
    print_solves(passes)

    solves = [s for p in passes for s in p["solves"]]
    attempted = len(solves)
    failed = sum(not s["ok"] for s in solves)
    correct = failed == 0
    if args.trace:
        plain, traced = passes
        same = all(
            json.dumps([s.get(k) for k in SAME_IN_TRACE])
            == json.dumps([t.get(k) for k in SAME_IN_TRACE])
            for s, t in zip(plain["solves"], traced["solves"])
        )
        print(f"trace self-check: outcomes identical {same}, "
              f"names restored {traced['restored']}; spans in {traced['spans_file']}")
        correct = correct and same and traced["restored"]
        layers = dict(traced["layers"])
        layers["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        layer_table(args.workload, layers)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
    else:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(call_worker(args, "setup", deadline)["setup_s"])
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print("pass wall_s " + " ".join(f"{p['wall_s']:.4f}" for p in passes)
              + ", setup_s " + " ".join(f"{v:.5f}" for v in setups))
    for name, m in metrics.items():
        value = m["value"]
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {m['unit']}")
    n_solves = len(WORKLOADS[args.workload].chain)
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} solves, "
          f"{n_solves} per pass)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
