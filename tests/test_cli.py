import json

import numpy as np

from guegen.cli import main


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


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "vandermonde-max")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert "vandermonde-max" in doc["suites"]
    assert run(capsys, "verify", "--suite", "nope")[0] == 1


def test_out_file(tmp_path, capsys):
    path = tmp_path / "vals.csv"
    code, out, _ = run(
        capsys, "sample", "--k", "1", "--count", "2", "--seed", "6", "--out", str(path)
    )
    assert code == 0 and out == ""
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,value" and len(lines) == 3
