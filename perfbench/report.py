"""Run every workload and print one report.

    python3 perfbench/report.py [--seed 1]

For each workload of ``BENCHMARK.json`` this makes four runs of
``perfbench/run.py``, each of ``run_seconds``: untraced on ``--seed``,
traced on ``--seed`` twice, and untraced on the held-out seed
``HELDOUT_SEED``. It prints the end-to-end metrics with units and sample counts,
``fail_frac`` (failed calls over attempted calls), the self-time table
and the per-layer metrics of the traced run, and the exact-count check:
the count metrics of the two traced runs must be identical. The held-out
seed is for checking a claimed gain on a seed not used while the change
was written. Exits 1 if any run fails a check or the counts differ.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
HELDOUT_SEED = 7919

# Named beforehand as counts: they must repeat exactly between two
# traced runs with the same seed, so later changes can cite them.
COUNT_METRICS = (
    "samplers.calls",
    "samplers.proposals_per_draw",
    "samplers.accept_rate",
    "samplers.exact_share",
    "samplers.cost_proxy",
    "hermite.exact.calls",
    "hermite.exact.points",
    "hermite.exact.lane_steps",
    "hermite.exact.lanes_per_call",
    "hermite.exact.out_of_window_frac",
    "dominator.spec_builds",
    "dominator.draw.points",
    "dominator.eval.points",
    "vanveen.squeeze.points",
    "vanveen.squeeze.resolved_frac",
    "rng.calls",
    "rng.variates",
    "joint.calls",
    "joint.attempts_per_spectrum",
    "cli.calls",
    "cli.bytes_out",
)


def run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    res = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    if res.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    # the "env: {...}" and "calibration: {...}" lines
    tags = {
        key: json.loads(rest)
        for key, _, rest in (ln.partition(": ") for ln in lines)
        if key in ("env", "calibration")
    }
    return json.loads(lines[-1]), tags, res.returncode


def main():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    ok = True
    tags, e2e, held, traced = {}, {}, {}, {}
    for name in names:
        print(f"running {name} ...", file=sys.stderr, flush=True)
        runs = [
            run(name, args.seed, seconds, 0),
            run(name, args.seed, seconds, 1),
            run(name, args.seed, seconds, 1),
            run(name, HELDOUT_SEED, seconds, 0),
        ]
        for rec, _, code in runs:
            ok &= rec["correct"] and code == 0
        e2e[name], traced[name], again, held[name] = (rec for rec, _, _ in runs)
        tags[name] = (runs[0][1], runs[3][1])
        diff = [m for m in COUNT_METRICS if traced[name]["metrics"][m] != again["metrics"][m]]
        print(f"exact-count check {name}: " + ("identical" if not diff else f"DIFFER {diff}"))
        ok &= not diff

    print("env: " + json.dumps(tags[names[-1]][0]["env"]))
    print(f"\nend-to-end, seed {args.seed} (held-out seed {HELDOUT_SEED} in brackets)")
    for name in names:
        rec, h = e2e[name], held[name]
        print(
            f"{name}: {rec['attempted']} calls [{h['attempted']}], "
            f"fail_frac {rec['failed'] / rec['attempted']:.3g} [{h['failed'] / h['attempted']:.3g}], "
            f"checks {'pass' if rec['correct'] else 'FAIL'} [{'pass' if h['correct'] else 'FAIL'}]"
        )
        for m in spec["end_to_end"]:
            v, hv = rec["metrics"][m["name"]]["value"], h["metrics"][m["name"]]["value"]
            print(f"  {m['name']:<14} {v:12.6g} [{hv:12.6g}] {m['unit']}")
        for label, t in zip(("", "held-out "), tags[name]):
            cal = t["calibration"]
            raw = ", ".join(f"{k} {v:.6g}" for k, v in cal["wall"].items())
            print(
                f"  {label}raw wall: {raw}; speed factor {cal['speed_factor_median']:.3f}"
                + (" SUSPECT" if cal["suspect"] else "")
            )

    print(f"\nper layer, traced runs on seed {args.seed}")
    print(f"{'metric':<36} {'unit':<10}" + "".join(f"{n:>14}" for n in names))
    for m in spec["per_layer"]:
        row = "".join(f"{traced[n]['metrics'][m['name']]['value']:14.5g}" for n in names)
        print(f"{m['name']:<36} {m['unit']:<10}{row}")
    print("\nall checks pass" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
