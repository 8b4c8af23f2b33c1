"""Span recording around guegen's layer boundaries, from outside the package.

The tracer replaces the module attributes (and ``RandomStream`` methods)
that the samplers call through with wrappers that record one span per
call: name, start, end, parent span and the benchmark call it belongs to,
plus the work counts of that call. Nothing inside ``src/`` is edited; the
originals are restored when recording stops.

A span's self time is its duration minus the durations of its direct
children. Self times of all spans under one benchmark call partition the
call's wall time, so the per-layer self times, the wrappers' own hook
time ("trace") and the root's own self time ("unattributed") add up to
the traced wall time.
"""

import functools
import inspect
import json
import os
import time
from collections import defaultdict

from guegen import cli, dominator, hermite, joint, samplers, vanveen
from guegen.rng import RandomStream

LAYERS = ("rng", "dominator", "vanveen", "hermite", "samplers", "joint", "cli")
ROOT = "call"
TRACE = "trace"  # the wrappers' own argument binding and counting


def _size(x):
    return int(getattr(x, "size", 1))


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        # [name, start_ns, end_ns, parent_index, call_index, attrs]
        self.spans = []
        self._stack = []
        self._call = -1
        self._make_spec = dominator.make_spec
        self._x1 = {}
        self._patches = []
        self._plan()

    # -- recording ---------------------------------------------------

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._call, attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def traced_call(self, index, fn, *args):
        """Run ``fn(*args)`` as benchmark call ``index`` with every wrapper
        installed."""
        self._call = index
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            idx = self._open(ROOT, {})
            try:
                result = fn(*args)
            finally:
                self._close(idx)
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
        return result

    def _wrap(self, owner, attr, name, before=None, after=None):
        original = getattr(owner, attr)
        sig = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # hook time goes to a span of its own, not to the caller's layer
            hook = tracer._open(TRACE, {})
            try:
                bound = sig.bind(*args, **kwargs)
                attrs = before(bound.arguments) if before else {}
            finally:
                tracer._close(hook)
            idx = tracer._open(name, attrs)
            try:
                result = original(*bound.args, **bound.kwargs)
            finally:
                tracer._close(idx)
            if after:
                hook = tracer._open(TRACE, {})
                try:
                    after(attrs, bound.arguments, result)
                finally:
                    tracer._close(hook)
            return result

        self._patches.append((owner, attr, original, wrapper))

    # -- what gets wrapped, and what each span counts ----------------

    def _window_x1(self, k):
        if k not in self._x1:
            self._x1[k] = self._make_spec(k).x1
        return self._x1[k]

    def _plan(self):
        def hermite_before(a):
            k, n = int(a["k"]), _size(a["x"])
            return {"k": k, "points": n, "lane_steps": n * max(k - 1, 0)}

        def hermite_after(attrs, a, _):
            k = attrs["k"]
            x = a["x"]
            oow = int((abs(x) > self._window_x1(k)).sum()) if k >= 1 else attrs["points"]
            attrs["out_of_window"] = oow

        self._wrap(hermite, "phi_squared_many", "hermite.exact", hermite_before, hermite_after)
        self._wrap(dominator, "make_spec", "dominator.spec")
        self._wrap(
            dominator, "sample_envelope_many", "dominator.draw",
            lambda a: {"points": int(a["size"])},
        )
        self._wrap(
            dominator, "envelope_many", "dominator.eval",
            lambda a: {"points": _size(a["x"])},
        )
        self._wrap(
            vanveen, "squeeze_bounds_many", "vanveen.squeeze",
            lambda a: {"points": _size(a["x"])},
        )
        for method in ("uniforms", "standard_normals", "gammas", "rademachers", "indices"):
            self._wrap(
                RandomStream, method, f"rng.{method}",
                lambda a: {"variates": int(a["size"])},
            )

        stat_fields = ("proposals", "exact_evals", "accepted")

        def sampler_before(a):
            if a.get("stats") is None:
                # the sampler would create its own; hand it one we can read
                a["stats"] = samplers.SamplerStats()
            st = a["stats"]
            return {"k": int(a["k"]), "_base": [getattr(st, f) for f in stat_fields]}

        def sampler_after(attrs, a, _):
            st = a["stats"]
            base = attrs.pop("_base")
            for f, b in zip(stat_fields, base):
                attrs[f] = getattr(st, f) - b
            attrs["cost_units"] = attrs["proposals"] + attrs["k"] * attrs["exact_evals"]

        self._wrap(
            samplers, "sample_phi_sq_many", "samplers.phi_sq_many",
            sampler_before, sampler_after,
        )
        self._wrap(samplers, "sample_gue_eigenvalues", "samplers.gue_eigenvalues")

        def joint_after(attrs, a, result):
            attrs["spectra"] = int(a["count"])
            attrs["attempts"] = int(result[1].sum())

        self._wrap(joint, "sample_joint_many", "joint.sample_many", after=joint_after)

        def cli_after(attrs, a, _):
            argv = list(a["argv"])
            attrs["rows"] = int(argv[argv.index("--count") + 1])
            attrs["bytes_out"] = os.path.getsize(argv[argv.index("--out") + 1])

        self._wrap(cli, "main", "cli.main", after=cli_after)

    # -- output --------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, call, attrs) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "call": call,
                            **attrs,
                        }
                    )
                    + "\n"
                )

    def self_times(self, scale):
        """Self time of every span, in span order, in seconds times the
        speed factor ``scale[call]`` of the call it belongs to."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1] - c) * 1e-9 * scale[s[4]] for s, c in zip(self.spans, child)]

    def metrics(self, window, scale):
        """Per-layer metrics.

        Count metrics (calls, points, variates, and ratios of counts) cover
        the calls with index below ``window``, so two runs with the same
        seed report them identically; time metrics cover every traced call.
        ``self_s`` metrics are mean self seconds per traced call. Times
        are scaled by each call's speed factor in ``scale``.
        """
        selfs = self.self_times(scale)
        n_calls = max(len(scale), 1)
        wall = sum((s[2] - s[1]) * 1e-9 * scale[s[4]] for s in self.spans if s[0] == ROOT)

        win = defaultdict(float)  # "<span>.<attr>" and "<span>#" totals in the window
        tot = defaultdict(float)  # the same over every call
        self_by_span = defaultdict(float)
        self_by_layer = defaultdict(float)
        for s, t in zip(self.spans, selfs):
            name, parent, call, attrs = s[0], s[3], s[4], s[5]
            layer = name.split(".")[0]
            self_by_span[name] += t
            self_by_layer[layer if layer in LAYERS + (TRACE,) else "unattributed"] += t
            if layer == "rng":
                # variates of nested rng calls are already counted by their parent
                if parent >= 0 and self.spans[parent][0].startswith("rng."):
                    continue
                name = "rng"
            for acc in (tot, win) if call < window else (tot,):
                acc[name + "#"] += 1
                for key, v in attrs.items():
                    acc[f"{name}.{key}"] += v

        def ratio(a, b):
            return a / b if b else 0.0

        def per_call(*names):
            return sum(self_by_span[n] for n in names) / n_calls

        def ns_per(names, key):
            return ratio(1e9 * sum(self_by_span[n] for n in names), tot[key])

        rng_spans = [n for n in self_by_span if n.startswith("rng.")]
        sampler_spans = ("samplers.phi_sq_many", "samplers.gue_eigenvalues")
        h, s, j = "hermite.exact", "samplers.phi_sq_many", "joint.sample_many"
        in_window = win[h + ".points"] - win[h + ".out_of_window"]
        m = {
            "hermite.exact.calls": win[h + "#"],
            "hermite.exact.points": win[h + ".points"],
            "hermite.exact.lane_steps": win[h + ".lane_steps"],
            "hermite.exact.self_s": per_call(h),
            "hermite.exact.ns_per_lane_step": ns_per([h], h + ".lane_steps"),
            "hermite.exact.lanes_per_call": ratio(win[h + ".points"], win[h + "#"]),
            "hermite.exact.out_of_window_frac": ratio(
                win[h + ".out_of_window"], win[h + ".points"]
            ),
            "samplers.calls": win[s + "#"],
            "samplers.self_s": per_call(*sampler_spans),
            "samplers.proposals_per_draw": ratio(win[s + ".proposals"], win[s + ".accepted"]),
            "samplers.accept_rate": ratio(win[s + ".accepted"], win[s + ".proposals"]),
            "samplers.exact_share": ratio(win[s + ".exact_evals"], win[s + ".proposals"]),
            "samplers.cost_proxy": ratio(win[s + ".cost_units"], win[s + ".accepted"]),
            "dominator.spec_builds": win["dominator.spec#"],
            "dominator.spec_self_s": per_call("dominator.spec"),
            "dominator.draw.points": win["dominator.draw.points"],
            "dominator.draw.ns_per_point": ns_per(["dominator.draw"], "dominator.draw.points"),
            "dominator.eval.points": win["dominator.eval.points"],
            "dominator.eval.ns_per_point": ns_per(["dominator.eval"], "dominator.eval.points"),
            "vanveen.squeeze.points": win["vanveen.squeeze.points"],
            "vanveen.squeeze.self_s": per_call("vanveen.squeeze"),
            "vanveen.squeeze.ns_per_point": ns_per(["vanveen.squeeze"], "vanveen.squeeze.points"),
            "vanveen.squeeze.resolved_frac": (
                1.0 - ratio(in_window, win["vanveen.squeeze.points"])
                if win["vanveen.squeeze.points"]
                else 0.0
            ),
            "rng.calls": win["rng#"],
            "rng.variates": win["rng.variates"],
            "rng.self_s": per_call(*rng_spans),
            "rng.ns_per_variate": ns_per(rng_spans, "rng.variates"),
            "joint.calls": win[j + "#"],
            "joint.self_s": per_call(j),
            "joint.attempts_per_spectrum": ratio(win[j + ".attempts"], win[j + ".spectra"]),
            "joint.ns_per_attempt": ns_per([j], j + ".attempts"),
            "cli.calls": win["cli.main#"],
            "cli.self_s": per_call("cli.main"),
            "cli.ns_per_row": ns_per(["cli.main"], "cli.main.rows"),
            "cli.bytes_out": win["cli.main.bytes_out"],
        }
        for layer in LAYERS + (TRACE, "unattributed"):
            m[f"self_frac.{layer}"] = ratio(self_by_layer[layer], wall)
        return m
