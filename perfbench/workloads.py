"""The four benchmark workloads.

Each workload is a closed-loop client making calls of one fixed size.
Call ``i`` of a run draws from its own stream, derived from the workload
seed and ``i``, so the same seed gives the same inputs and a call can be
repeated exactly. Why each workload is in the benchmark is recorded in
``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from guegen import cli, joint, samplers
from guegen.rng import RandomStream


class CheckFailed(Exception):
    """An output of the program is wrong."""


def call_seed(seed, i):
    """64-bit seed of call ``i``, for calls that take an integer seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1, np.uint64)[0])


def _finite_vector(values, count):
    if values.shape != (count,):
        raise CheckFailed(f"expected {count} draws, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise CheckFailed("non-finite draw")
    return values


def _array_check(count):
    """Check for calls that return an array of ``count`` draws."""

    def check(_, out):
        x = _finite_vector(np.asarray(out), count)
        return x, x.tobytes()

    return check


@dataclass(frozen=True)
class Workload:
    name: str
    draws: int  # accepted draws per call
    prepare: Callable  # (seed, i, scratch_path) -> inputs, built outside the timer
    call: Callable  # inputs -> output; the timed part
    check: Callable  # (inputs, output) -> (draws, output bytes); raises CheckFailed
    moment: tuple  # exact (mean, variance) of the squared norm of one draw
    setup: str  # statement making call 0 with count=1; fields: seed, call0 (its seed), out
    ks_degree: int | None = None  # degree of a phi_k^2 KS test on the draws


K_FIXED, FIXED_COUNT = 10_000, 500
N_MIX, MIX_COUNT = 10_000, 4
K_CLI, CLI_COUNT = 100, 2000
N_JOINT, JOINT_COUNT, BETA = 6, 500, 2.0


def _cli_argv(seed, count, out):
    return [
        "sample", "--k", str(K_CLI), "--count", str(count),
        "--seed", str(seed), "--out", str(out),
    ]


def _cli_check(inputs, code):
    if code != 0:
        raise CheckFailed(f"guegen sample exited with {code}")
    out = inputs[-1]
    with open(out, "rb") as fh:
        blob = fh.read()
    lines = blob.decode().splitlines()
    if lines[0] != "index,value" or len(lines) != CLI_COUNT + 1:
        raise CheckFailed(f"expected a header and {CLI_COUNT} rows in {out}")
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    if not np.array_equal(table[:, 0], np.arange(CLI_COUNT)):
        raise CheckFailed("CSV index column is not 0..count-1")
    return _finite_vector(table[:, 1], CLI_COUNT), blob


def _joint_check(_, out):
    values, attempts = out
    if values.shape != (JOINT_COUNT, N_JOINT) or attempts.shape != (JOINT_COUNT,):
        raise CheckFailed(f"expected {JOINT_COUNT} spectra of size {N_JOINT}")
    if not np.all(np.isfinite(values)):
        raise CheckFailed("non-finite eigenvalue")
    if not np.all(np.diff(values, axis=1) > 0.0):
        raise CheckFailed("spectrum not strictly increasing")
    if not np.all(attempts >= 1):
        raise CheckFailed("attempt count below 1")
    return values, values.tobytes() + attempts.tobytes()


_LIBRARY_SETUP = (
    "from guegen import {module}; from guegen.rng import RandomStream; "
    "{module}.{call}"
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fixed-k1e4",
            draws=FIXED_COUNT,
            prepare=lambda seed, i, _: RandomStream(seed, (i,)),
            call=lambda s: samplers.sample_phi_sq_many(K_FIXED, FIXED_COUNT, s, "squeeze"),
            check=_array_check(FIXED_COUNT),
            # E[x^2] = 2k+1, Var(x^2) = 2k^2+2k+2 under phi_k^2
            moment=(2 * K_FIXED + 1, 2 * K_FIXED**2 + 2 * K_FIXED + 2),
            setup=_LIBRARY_SETUP.format(
                module="samplers",
                call=f"sample_phi_sq_many({K_FIXED}, 1, RandomStream({{seed}}, (0,)), 'squeeze')",
            ),
        ),
        Workload(
            name="mixture-n1e4",
            draws=MIX_COUNT,
            prepare=lambda seed, i, _: RandomStream(seed, (i,)),
            call=lambda s: samplers.sample_gue_eigenvalues(N_MIX, MIX_COUNT, s),
            check=_array_check(MIX_COUNT),
            # uniform mixture of phi_k^2, k < n: E[x^2] = n, Var(x^2) = n^2+1
            moment=(N_MIX, N_MIX**2 + 1),
            setup=_LIBRARY_SETUP.format(
                module="samplers",
                call=f"sample_gue_eigenvalues({N_MIX}, 1, RandomStream({{seed}}, (0,)))",
            ),
        ),
        Workload(
            name="cli-k1e2",
            draws=CLI_COUNT,
            prepare=lambda seed, i, out: _cli_argv(call_seed(seed, i), CLI_COUNT, out),
            call=lambda argv: cli.main(argv),  # looked up per call so tracing sees it
            check=_cli_check,
            moment=(2 * K_CLI + 1, 2 * K_CLI**2 + 2 * K_CLI + 2),
            setup=(
                "from guegen import cli; "
                f"cli.main({_cli_argv('{call0}', 1, '{out}')!r})"
            ),
            ks_degree=K_CLI,
        ),
        Workload(
            name="joint-n6",
            draws=JOINT_COUNT,
            prepare=lambda seed, i, _: RandomStream(seed, (i,)),
            call=lambda s: joint.sample_joint_many(N_JOINT, JOINT_COUNT, BETA, s),
            check=_joint_check,
            # GUE(n), weight e^{-x^2/2}: E[sum x^2] = n^2, Var = 2 n^2
            moment=(N_JOINT**2, 2 * N_JOINT**2),
            setup=_LIBRARY_SETUP.format(
                module="joint",
                call=f"sample_joint_many({N_JOINT}, 1, {BETA}, RandomStream({{seed}}, (0,)))",
            ),
        ),
    )
}
