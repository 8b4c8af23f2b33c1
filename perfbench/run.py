"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fixed-k1e4 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` calls run with no instrumentation and the
run reports the end-to-end metrics of ``BENCHMARK.json``. With
``--trace 1`` every call runs twice on the same inputs, once plain and
once with span recorders installed, and the run reports the per-layer
metrics. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the environment, the sample counts, the raw wall-clock
figures and median speed factor behind the calibrated times (with a
``suspect`` flag, see ``USUAL_SPEED_FACTOR``) and, when traced, the
self-time table. A failed output check makes the exit code 1; a checkout
without the package, or a bad argument, makes it 2 with no result line.
"""

import os

# One process, one thread: pin BLAS/OpenMP pools before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = HERE / "out"

MIN_CALLS = 110  # p90 needs at least ten samples beyond it
COUNT_WINDOW = 20  # traced calls whose counts must repeat exactly
SETUP_REPS = 11
KS_CALLS = 10  # calls whose draws go into the KS test
Z_BOUND = 5.0  # two-sided; false-alarm rate about 6e-7 per check
KS_ALPHA = 1e-5
# probe() time at the fast state of a 2-core Intel Xeon box; calibrated
# seconds are seconds at that speed
PROBE_REF_S = 0.4e-3
# Range of a run's median speed factor over the runs that sized this
# benchmark on that box. A run whose median leaves it by more than the
# draws_per_s bound is marked suspect: the program may be slowing the
# whole process (a leftover thread, allocator or GC pressure), which
# slows the probe too and so cancels out of calibrated times.
USUAL_SPEED_FACTOR = (0.60, 1.00)


def fingerprint(seed):
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = "unknown"
    if (CHECKOUT / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True, text=True, timeout=30
        )
        commit = res.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def probe():
    """Seconds for a fixed mix of interpreter and small-array numpy work.

    The least of three repeats, which drops interrupt spikes. Nothing in
    it depends on the program under test.
    """
    import numpy as np

    a = np.arange(256.0)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(6000):
            s += i * i
        for _ in range(60):
            a * 1.0001 + a
        best = min(best, time.perf_counter() - t0)
    return best


class Calibration:
    """Speed factors from a probe run before and after each timed interval.

    The box this benchmark runs on alternates between faster and slower
    states for seconds at a time. Scaling each interval by
    PROBE_REF_S / (mean of the probes around it) reports it in seconds
    at the speed where the probe takes PROBE_REF_S, which cancels most
    of that drift.
    """

    def __init__(self):
        self.last = probe()

    def factor(self):
        """Probe now and return the factor for the interval since the last probe."""
        p = probe()
        f = PROBE_REF_S / ((self.last + p) / 2.0)
        self.last = p
        return f


def setup_seconds(wl, seed):
    """Median over fresh interpreters of ``import guegen`` plus one count=1
    call, each calibrated; also returns the raw wall times."""
    from workloads import call_seed

    out = OUT / f"setup-{os.getpid()}.csv"
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import guegen\n"
        f"{wl.setup.format(seed=seed, call0=call_seed(seed, 0), out=out)}\n"
        "print(time.perf_counter() - t0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cal = Calibration()
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        res = subprocess.run(
            [sys.executable, "-c", code],
            cwd=CHECKOUT, env=env, capture_output=True, text=True, timeout=120,
        )
        if res.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{res.stderr}")
        raw.append(float(res.stdout.split()[-1]))
        scaled.append(raw[-1] * cal.factor())
    out.unlink(missing_ok=True)
    return statistics.median(scaled), raw


class Checker:
    """Per-call and pooled output checks of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.failed_calls = set()
        self.errors = []
        self.sq_sum = 0.0
        self.sq_n = 0
        self.ks_draws = []

    def error(self, msg, call=None):
        if call is not None:
            self.failed_calls.add(call)
        self.errors.append(msg)
        print(f"check failed: {msg}", file=sys.stderr)

    def timed(self, index, fn, *args):
        """``fn(*args)`` and its wall seconds; output None if it raised."""
        t0 = time.perf_counter()
        try:
            output = fn(*args)
        except Exception:  # a failing call is counted, not fatal
            self.error(f"call {index} raised:\n{traceback.format_exc()}", index)
            output = None
        return output, time.perf_counter() - t0

    def output(self, index, inputs, output, pool=True):
        """Check one call's output; returns its bytes, or None if it failed.

        ``pool`` adds its draws to the moment and KS tests.
        """
        if output is None:
            return None
        try:
            draws, blob = self.wl.check(inputs, output)
        except Exception as exc:  # includes CheckFailed and unreadable output
            self.error(f"call {index}: {exc!r}", index)
            return None
        if pool:
            sq = (draws * draws).reshape(len(draws), -1).sum(axis=1)
            self.sq_sum += float(sq.sum())
            self.sq_n += sq.size
            if self.wl.ks_degree is not None and index < KS_CALLS:
                self.ks_draws.append(draws)
        return blob

    def pooled(self):
        """Second-moment z-test and, where the workload has one, the KS test."""
        mean, var = self.wl.moment
        z = (self.sq_sum / self.sq_n - mean) / (var / self.sq_n) ** 0.5
        print(f"moment: z = {z:+.3f} over {self.sq_n} draws (|z| <= {Z_BOUND})")
        if abs(z) > Z_BOUND:
            self.error(f"second moment off by z = {z:.2f}")
        if self.ks_draws:
            import numpy as np
            from guegen import hermite, stats

            k = self.wl.ks_degree
            ks = stats.ks_one_sample(
                np.concatenate(self.ks_draws), lambda x: hermite.phi_sq_cdf_many(k, x)
            )
            crit = stats.ks_critical(KS_ALPHA)
            print(
                f"KS vs phi_{k}^2: sqrt(n) D = {ks.scaled:.4f} over {ks.n_effective:.0f} "
                f"draws (< {crit:.4f}, alpha {KS_ALPHA})"
            )
            if ks.scaled >= crit:
                self.error(f"KS test rejects: sqrt(n) D = {ks.scaled:.4f} >= {crit:.4f}")


def run_calls(wl, seed, seconds, tracer):
    """Closed loop: call i+1 starts when call i and its checks are done.

    Returns the checker, the (wall seconds, speed factor) pairs of plain
    and of traced calls, the speed factor of each traced call by index,
    and the number of calls.
    """
    checker = Checker(wl)
    scratch = OUT / f"{wl.name}-{os.getpid()}.csv"
    # warm-up call; its bytes are the reference for the reproducibility check
    inputs = wl.prepare(seed, 0, scratch)
    ref = checker.output(0, inputs, checker.timed(0, wl.call, inputs)[0], pool=False)
    cal = Calibration()
    plain, traced, scale = [], [], {}
    min_calls = MIN_CALLS if tracer is None else COUNT_WINDOW
    start = time.perf_counter()
    i = 0
    while i < min_calls or time.perf_counter() - start < seconds:
        blobs = {}
        # traced runs make each call twice on the same inputs, alternating
        # which twin goes first
        for is_traced in (False,) if tracer is None else (i % 2 == 1, i % 2 == 0):
            inputs = wl.prepare(seed, i, scratch)
            if is_traced:
                output, t = checker.timed(i, tracer.traced_call, i, wl.call, inputs)
                scale[i] = cal.factor()
                traced.append((t, scale[i]))
            else:
                output, t = checker.timed(i, wl.call, inputs)
                plain.append((t, cal.factor()))
            blobs[is_traced] = checker.output(i, inputs, output, pool=not is_traced)
        if tracer is not None and blobs[True] != blobs[False]:
            checker.error(f"call {i}: traced and plain outputs differ", i)
        if i == 0 and (blobs[False] is None or blobs[False] != ref):
            checker.error("call 0 repeated with the same seed gave different bytes", 0)
        i += 1
    scratch.unlink(missing_ok=True)
    checker.pooled()
    return checker, plain, traced, scale, i


def call_metrics(draws, times):
    """draws_per_s, call_s_p50 and call_s_p90 of calls taking ``times``."""
    return {
        "draws_per_s": draws * len(times) / sum(times),
        "call_s_p50": statistics.median(times),
        "call_s_p90": statistics.quantiles(times, n=10)[8],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "guegen" / "__init__.py").is_file():
        print(f"error: no guegen package under {SRC}", file=sys.stderr)
        return 2
    spec_path = CHECKOUT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import guegen

    if Path(guegen.__file__).resolve().parent != (SRC / "guegen").resolve():
        print(f"error: imported guegen from {guegen.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = args.seed % 2**64
    OUT.mkdir(exist_ok=True)
    env = fingerprint(args.seed)
    print("env: " + json.dumps(env))

    values = {}
    if args.trace:
        tracer = Tracer()
        checker, plain, traced, scale, calls = run_calls(wl, seed, args.seconds, tracer)
        values.update(tracer.metrics(COUNT_WINDOW, scale))
        values["trace.overhead_frac"] = (
            sum(t * f for t, f in traced) / sum(t * f for t, f in plain) - 1.0
        )
        values["trace.calls"] = len(traced)
        factors = [f for _, f in plain + traced]
        wall = call_metrics(wl.draws, [t for t, _ in plain])
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
        print(f"traced calls: {len(traced)} (counts over the first {COUNT_WINDOW})")
        print("self time by layer (share of traced wall time):")
        for key in sorted(k for k in values if k.startswith("self_frac.")):
            print(f"  {key[len('self_frac.'):]:<13} {values[key]:8.2%}")
        wanted = spec["per_layer"]
    else:
        setup, setup_raw = setup_seconds(wl, seed)
        checker, plain, _, _, calls = run_calls(wl, seed, args.seconds, None)
        wall = call_metrics(wl.draws, [t for t, _ in plain])
        values.update(call_metrics(wl.draws, [t * f for t, f in plain]))
        values["setup_s"] = setup
        wall["setup_s"] = statistics.median(setup_raw)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        factors = [f for _, f in plain]
        print(
            f"timed calls: {len(plain)} of {wl.draws} draws each "
            f"({len(plain) - int(0.9 * len(plain))} beyond p90)"
        )
        wanted = spec["end_to_end"]

    # calibrated metrics cancel slowdowns the probe shares; record the raw
    # wall figures and the speed factor beside them so those stay visible
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "draws_per_s")
    factor = statistics.median(factors)
    lo, hi = USUAL_SPEED_FACTOR
    calibration = {
        "wall": wall,
        "speed_factor_median": factor,
        "suspect": not lo * (1.0 - bound) <= factor <= hi * (1.0 + bound),
    }
    print("calibration: " + json.dumps(calibration))
    if calibration["suspect"]:
        print(
            f"warning: median speed factor {factor:.3f} is outside the usual "
            f"{lo}..{hi} by more than {bound:.0%}; compare the raw wall figures",
            file=sys.stderr,
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    failed = len(checker.failed_calls)
    correct = not checker.errors
    record = {"correct": correct, "attempted": calls, "failed": failed, "metrics": metrics}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {"env": env, "workload": wl.name, "errors": checker.errors, **calibration, **record},
            indent=1,
        )
    )
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
