import argparse
import json
import math

import numpy as np
import pytest

from guegen import cli
from guegen.cli import main
from guegen.errors import (
    BudgetError,
    CertificateError,
    ConvergenceError,
    OracleError,
    ParameterError,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_reproducible(capsys):
    code, out1, _ = run(capsys, "sample", "--n", "1", "--count", "3", "--seed", "7")
    assert code == 0
    code, out2, _ = run(capsys, "sample", "--n", "1", "--count", "3", "--seed", "7")
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 4


def test_sample_json_format(capsys):
    code, out, _ = run(
        capsys, "sample", "--k", "3", "--count", "5", "--seed", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 3 and len(doc["values"]) == 5
    assert doc["proposals"] >= 5


def test_sample_hex_seed(capsys):
    code, out1, _ = run(capsys, "sample", "--k", "2", "--count", "2", "--seed", "0x10")
    code2, out2, _ = run(capsys, "sample", "--k", "2", "--count", "2", "--seed", "16")
    assert code == code2 == 0
    assert out1 == out2


def test_sample_intro_convention_scales(capsys):
    _, raw, _ = run(capsys, "sample", "--n", "4", "--count", "3", "--seed", "9")
    _, scaled, _ = run(
        capsys, "sample", "--n", "4", "--count", "3", "--seed", "9",
        "--convention", "intro",
    )
    a = [float(l.split(",")[1]) for l in raw.strip().splitlines()[1:]]
    b = [float(l.split(",")[1]) for l in scaled.strip().splitlines()[1:]]
    assert np.allclose(np.array(a) / 2.0, np.array(b))


def test_sample_parameter_errors(capsys):
    assert run(capsys, "sample", "--count", "2")[0] == 1
    assert run(capsys, "sample", "--n", "0", "--count", "2")[0] == 1
    assert run(capsys, "sample", "--n", "3", "--k", "3", "--count", "2")[0] == 1
    assert run(capsys, "sample", "--k", "2", "--count", "1", "--convention", "intro")[0] == 1
    assert run(capsys, "sample", "--n", "2", "--count", "0")[0] == 1
    assert run(capsys, "sample", "--k", "5", "--count", "3", "--max-proposals", "-4")[0] == 1
    assert run(capsys, "sample", "--n", "5", "--count", "3", "--max-proposals", "0")[0] == 1
    assert run(capsys, "sample-joint", "--n", "3", "--count", "1", "--max-attempts", "0")[0] == 1
    # a non-finite beta is a parameter error, not an exhausted budget
    for beta in ("inf", "nan"):
        assert run(capsys, "sample-joint", "--n", "3", "--beta", beta, "--count", "1")[0] == 1
    assert run(capsys, "bogus-command")[0] == 1


def test_sample_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "sample", "--k", "5", "--count", "4", "--seed", "0",
        "--mode", "plain", "--max-proposals", "1",
    )
    assert code == 2


def test_sample_joint_pair_case(capsys):
    code, out, _ = run(capsys, "sample-joint", "--n", "2", "--count", "1", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,attempts,x1,x2"
    idx, attempts, x1, x2 = lines[1].split(",")
    assert attempts == "1"
    assert float(x2) > float(x1)


def test_sample_joint_json(capsys):
    code, out, _ = run(
        capsys, "sample-joint", "--n", "3", "--count", "4", "--seed", "2",
        "--format", "json",
    )
    doc = json.loads(out)
    assert len(doc["values"]) == 4 and len(doc["values"][0]) == 3
    assert all(a >= 1 for a in doc["attempts"])


def test_bench_csv(capsys):
    code, out, _ = run(
        capsys, "bench", "--mode", "squeeze", "--n-list", "10,100",
        "--samples-per-n", "50", "--seed", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,mode,accepted")
    assert len(lines) == 3
    assert run(capsys, "bench", "--n-list", "10,abc")[0] == 1
    # no samples: an error, not a row with a time per sample
    code, out, _ = run(capsys, "bench", "--n-list", "10", "--samples-per-n", "0")
    assert code == 1 and out == ""


def test_tabulate_envelope_dominates(capsys):
    code, out, _ = run(capsys, "tabulate-envelope", "--n", "12", "--points", "101")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    for _, h, phi in rows:
        assert float(phi) <= float(h) * (1.0 + 1e-9) + 1e-306


def test_tabulate_squeeze_sandwich(capsys):
    code, out, _ = run(capsys, "tabulate-squeeze", "--n", "12", "--points", "101")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,phi_sq,f,lower,upper,h"
    for line in lines[1:]:
        x, phi, f, lower, upper, h = map(float, line.split(","))
        assert lower <= phi + 1e-10 * h
        assert phi <= upper + 1e-10 * h
        assert upper <= h * (1.0 + 1e-12)


def test_oracle_csv_sorted(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "3", "--count", "4", "--seed", "5")
    assert code == 0
    rows = [list(map(float, l.split(","))) for l in out.strip().splitlines()[1:]]
    for row in rows:
        assert row[1] <= row[2] <= row[3]


def _rows(out):
    return np.array([list(map(float, l.split(","))) for l in out.strip().splitlines()[1:]])


def test_oracle_intro_convention_scales(capsys):
    # the intro convention divides the unscaled spectra by sqrt(n); at
    # n = 4 that is a power of two, so the rows agree exactly
    for n in (4, 3):
        args = ("oracle", "--n", str(n), "--count", "6", "--seed", "11")
        code, raw, _ = run(capsys, *args)
        code2, intro, _ = run(capsys, *args, "--convention", "intro")
        assert code == code2 == 0
        raw, intro = _rows(raw), _rows(intro)
        assert np.array_equal(raw[:, 0], intro[:, 0])
        expected = raw[:, 1:] / math.sqrt(n)
        if n == 4:
            assert np.array_equal(intro[:, 1:], expected)
        else:
            assert np.allclose(intro[:, 1:], expected, rtol=1e-14, atol=1e-14)


def test_oracle_large_n_and_bad_n(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "80", "--count", "2")
    assert code == 0
    rows = _rows(out)
    assert rows.shape == (2, 81)
    assert np.all(np.diff(rows[:, 1:], axis=1) >= 0.0)
    assert run(capsys, "oracle", "--n", "0", "--count", "2")[0] == 1


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "vandermonde-max")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert "vandermonde-max" in doc["suites"]
    assert run(capsys, "verify", "--suite", "nope")[0] == 1


def test_verify_with_no_suite_fails(capsys):
    # a report that checked nothing must not pass
    for suite in ("", ","):
        code, out, err = run(capsys, "verify", "--suite", suite)
        assert code == 1 and out == "" and "suite" in err


def test_out_file(tmp_path, capsys):
    path = tmp_path / "vals.csv"
    code, out, _ = run(
        capsys, "sample", "--k", "1", "--count", "2", "--seed", "6", "--out", str(path)
    )
    assert code == 0 and out == ""
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,value" and len(lines) == 3


@pytest.mark.parametrize(
    "error, code",
    [
        (ParameterError, 1),
        (OracleError, 1),
        (BudgetError, 2),
        (ConvergenceError, 2),
        (CertificateError, 2),
    ],
)
def test_each_error_type_brings_its_exit_code(monkeypatch, capsys, error, code):
    def fail(args):
        raise error(f"{error.__name__} raised")

    monkeypatch.setitem(cli._COMMANDS, "oracle", fail)
    got, out, err = run(capsys, "oracle", "--n", "3", "--count", "2")
    assert got == code and out == ""
    assert err == f"error: {error.__name__} raised\n"


def test_unwritable_out_is_a_parameter_error(tmp_path, capsys):
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run(capsys, "sample", "--k", "5", "--count", "3", "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(path) in err


_COUNT = (None, None, True, int, None)
_SEED = (0, None, False, cli._seed, None)
_OUT = (None, None, False, None, None)
_MODE = ("squeeze", ["plain", "squeeze"], False, None, None)
_FORMAT = ("csv", ["csv", "json"], False, None, None)
_CONVENTION = ("unscaled", ["unscaled", "intro"], False, None, None)
_N = (None, None, True, int, None)
_POINTS = (2001, None, False, int, None)

# every option of each subcommand: default, choices, required, type, help
_SURFACE = {
    "sample": {
        "--n": (None, None, False, int, "ensemble size for mixture sampling"),
        "--k": (None, None, False, int, "fixed degree instead of the mixture"),
        "--count": _COUNT,
        "--mode": _MODE,
        "--seed": _SEED,
        "--format": _FORMAT,
        "--convention": _CONVENTION,
        "--max-proposals": (
            10**6,
            None,
            False,
            int,
            "budget: each degree may spend this many proposals per draw of"
            " that degree, pooled over its draws (exit 2 when exhausted)",
        ),
        "--out": _OUT,
    },
    "sample-joint": {
        "--n": _N,
        "--beta": (2.0, None, False, float, None),
        "--count": _COUNT,
        "--seed": _SEED,
        "--max-attempts": (
            10**7,
            None,
            False,
            int,
            "budget: attempts allowed for each spectrum (exit 2 when exhausted)",
        ),
        "--format": _FORMAT,
        "--out": _OUT,
    },
    "bench": {
        "--mode": _MODE,
        "--n-list": (None, None, True, None, "comma-separated degrees"),
        "--samples-per-n": (1000, None, False, int, None),
        "--seed": _SEED,
        "--out": _OUT,
    },
    "verify": {
        "--suite": ("all", None, False, None, "comma-separated suite names or 'all'"),
        "--quick": (False, None, False, None, "reduced sample counts"),
        "--out": _OUT,
    },
    "tabulate-envelope": {"--n": _N, "--points": _POINTS, "--out": _OUT},
    "tabulate-squeeze": {"--n": _N, "--points": _POINTS, "--out": _OUT},
    "oracle": {
        "--n": _N,
        "--count": _COUNT,
        "--seed": _SEED,
        "--convention": _CONVENTION,
        "--out": _OUT,
    },
}


def test_each_subcommand_keeps_its_options():
    # the option strings, defaults, choices, required flags, types and help
    # texts of every subcommand; the order of the options is not pinned
    actions = cli.build_parser()._actions
    subparsers = next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices
    assert list(subparsers) == list(_SURFACE) == list(cli._COMMANDS)
    for name, expected in _SURFACE.items():
        got = {
            " ".join(a.option_strings): (a.default, a.choices, a.required, a.type, a.help)
            for a in subparsers[name]._actions
            if a.dest != "help"
        }
        assert got == expected, name


_SAMPLE_KEYS = [
    "n", "k", "mode", "seed", "convention", "count", "proposals", "exact_evals", "values"
]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (("sample", "--n", "5", "--count", "3"), _SAMPLE_KEYS),
        (("sample", "--k", "5", "--count", "3"), _SAMPLE_KEYS),
        (
            ("sample-joint", "--n", "3", "--count", "2"),
            ["n", "beta", "seed", "attempts", "values"],
        ),
    ],
    ids=["sample-n", "sample-k", "sample-joint"],
)
def test_json_output_keeps_its_key_order(capsys, argv, keys):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and out.count("\n") == 1 and out.endswith("}\n")
    assert list(json.loads(out)) == keys


def _csv_line_by_line(header, rows):
    # the CSV writer as it was before it formatted rows in chunks: one
    # %-format per row, built from the types of the first row
    rows = iter(rows)
    first = next(rows)
    fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
    yield ",".join(header) + "\n"
    yield fmt % first
    for row in rows:
        yield fmt % row


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "1", "--count", "9000", "--seed", "3"],  # three chunks, the last short
        ["sample", "--k", "100", "--count", "2000", "--seed", "5"],
        ["sample", "--n", "6", "--count", str(cli._CSV_ROWS), "--seed", "6"],  # one full chunk
        ["sample", "--n", "4", "--count", "1", "--seed", "7", "--convention", "intro"],
        ["sample-joint", "--n", "3", "--count", "50", "--seed", "2"],
        ["oracle", "--n", "4", "--count", "30", "--seed", "1"],
        ["bench", "--n-list", "3,10", "--samples-per-n", "20", "--seed", "4"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_chunked_csv_keeps_the_bytes(tmp_path, monkeypatch, argv):
    outputs = []
    for writer in (cli._csv, _csv_line_by_line):
        monkeypatch.setattr(cli, "_csv", writer)
        path = tmp_path / f"{len(outputs)}.csv"
        assert main([*argv, "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    if argv[0] == "bench":  # its last column is a wall time per sample
        outputs = [b"\n".join(line.rsplit(b",", 1)[0] for line in o.split(b"\n")) for o in outputs]
    assert outputs[0] == outputs[1]
    rows = 2 if argv[0] == "bench" else int(argv[argv.index("--count") + 1])
    assert outputs[0].count(b"\n") == 1 + rows
