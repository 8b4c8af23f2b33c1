import math

import numpy as np
import pytest

from guegen import dominator, hermite, joint, oracle, samplers, vanveen
from guegen.errors import ParameterError, whole
from guegen.rng import RandomStream


def _stream():
    return RandomStream(1)


# every whole-number parameter of the package, each given the value under test
ENTRY_POINTS = {
    "sample_phi_sq_many k": lambda v: samplers.sample_phi_sq_many(v, 3, _stream()),
    "sample_phi_sq_many count": lambda v: samplers.sample_phi_sq_many(3, v, _stream()),
    "sample_phi_sq_many max_proposals": lambda v: samplers.sample_phi_sq_many(
        3, 3, _stream(), max_proposals=v
    ),
    "sample_gue_eigenvalues n": lambda v: samplers.sample_gue_eigenvalues(v, 3, _stream()),
    "sample_gue_eigenvalues count": lambda v: samplers.sample_gue_eigenvalues(10, v, _stream()),
    "sample_gue_eigenvalues max_proposals": lambda v: samplers.sample_gue_eigenvalues(
        10, 3, _stream(), max_proposals=v
    ),
    "benchmark samples_per_n": lambda v: samplers.benchmark("squeeze", [10], v),
    "benchmark n_list": lambda v: samplers.benchmark("squeeze", [10, v], 5),
    "phi_squared_many k": lambda v: hermite.phi_squared_many(v, [0.5]),
    "mixture_density_many n": lambda v: hermite.mixture_density_many(v, [0.5]),
    "phi_sq_cdf_many k": lambda v: hermite.phi_sq_cdf_many(v, [0.5]),
    "mixture_cdf_many n": lambda v: hermite.mixture_cdf_many(v, [0.5]),
    "phi_squared_degrees ks": lambda v: hermite.phi_squared_degrees([4, v], [0.5, 0.5]),
    "certify_decreasing ks": lambda v: hermite.certify_decreasing([4, v], [3.0, 3.0]),
    "psi_rows n": lambda v: hermite.psi_rows(v, [0.5]),
    "terms_many n": lambda v: vanveen.terms_many(v, [0.5]),
    "make_spec n": dominator.make_spec,
    "make_specs ns": lambda v: dominator.make_specs([4, v]),
    "grid_hat n": dominator.grid_hat,
    "sample_joint_many n": lambda v: joint.sample_joint_many(v, 3, 2.0, _stream()),
    "sample_joint_many count": lambda v: joint.sample_joint_many(3, v, 2.0, _stream()),
    "sample_joint_many max_attempts": lambda v: joint.sample_joint_many(
        3, 3, 2.0, _stream(), max_attempts=v
    ),
    "pair_exponents n": joint.pair_exponents,
    "vandermonde_max n": joint.vandermonde_max,
    "sample_gue_matrices n": lambda v: oracle.sample_gue_matrices(v, 3, _stream()),
    "sample_gue_matrices count": lambda v: oracle.sample_gue_matrices(3, v, _stream()),
    "RandomStream seed": RandomStream,
    "RandomStream spawn_key": lambda v: RandomStream(1, (v,)),
    "RandomStream.spawn count": lambda v: _stream().spawn(v),
    "RandomStream.indices n": lambda v: _stream().indices(v, 3),
    "RandomStream.indices size": lambda v: _stream().indices(3, v),
    "RandomStream.uniforms size": lambda v: _stream().uniforms(v),
    "RandomStream.standard_normals size": lambda v: _stream().standard_normals(v),
    "RandomStream.gammas size": lambda v: _stream().gammas(2.5, v),
    "RandomStream.rademachers size": lambda v: _stream().rademachers(v),
    "sample_envelope_many size": lambda v: dominator.sample_envelope_many(
        dominator.make_spec(4), np.empty(0), v
    ),
}


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, "3"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_whole_numbers_are_parameter_errors(entry, value):
    # not truncated, not a bare TypeError or ValueError from deeper down
    with pytest.raises(ParameterError):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", [True, False, np.True_])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_flags_are_parameter_errors(entry, value):
    # a flag is not a count: True is not n = 1, nor degree 1 in a list,
    # where numpy would turn [4, True] into the int64 degrees [4, 1]
    with pytest.raises(ParameterError):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", [1e2, np.float64(100.0), np.int64(100)])
def test_whole_values_of_any_type_draw_the_same(value):
    same = [
        lambda v: samplers.sample_phi_sq_many(v, v, RandomStream(5)),
        lambda v: samplers.sample_gue_eigenvalues(v, v, RandomStream(5)),
        lambda v: np.concatenate(joint.sample_joint_many(6, v, 2.0, RandomStream(5)), axis=None),
    ]
    for draw in same:
        assert draw(value).tobytes() == draw(100).tobytes()


def test_whole_array_form():
    assert whole("d", [], 0).dtype == np.int64
    got = whole("d", np.array([3.0, 1e4]), 1)
    assert got.dtype == np.int64 and got.tolist() == [3, 10_000]
    assert whole("d", np.array([7], dtype=np.uint64), 0).tolist() == [7]
    assert whole("d", np.array(7.0), 0) == 7
    for bad in ([0], [-np.inf], [2**64], np.array([2**63], dtype=np.uint64), [True], [4, True],
                (True, 3), [[4, np.True_]], np.array(True)):
        with pytest.raises(ParameterError):
            whole("d", bad, 1)
    # scalar flags are no counts either: True is not n = 1
    for bad in (True, False, np.True_, np.bool_(False)):
        with pytest.raises(ParameterError):
            whole("d", bad, 0)


@pytest.mark.parametrize(
    "degrees",
    [np.array([], dtype=np.int64), [], [10, -1], 10, [[10, 100]]],
    ids=["empty-array", "empty-list", "negative", "scalar", "nested"],
)
def test_benchmark_degrees_must_be_a_nonempty_list(degrees):
    # an array is checked as a list, never asked for its ambiguous truth value
    with pytest.raises(ParameterError, match="degrees"):
        samplers.benchmark("squeeze", degrees, 5)


def test_sizes_below_zero_are_parameter_errors_and_zero_draws_nothing():
    sized = [k for k in ENTRY_POINTS if k.endswith(" size")]
    assert len(sized) == 6
    for name in sized:
        with pytest.raises(ParameterError):
            ENTRY_POINTS[name](-1)
        assert ENTRY_POINTS[name](0).size == 0
