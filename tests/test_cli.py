import json
import os
import subprocess
import sys

import pytest

import contactpath
from contactpath.cli import main

SPEC_TORSION = '{"n": 3, "f0": "u1^3", "f": ["0", "0"]}'
SPEC_FLAT = '{"n": 3, "f0": "0", "f": ["0", "0"]}'
SPEC_POLE = '{"n": 3, "f0": "u1*u2", "f": ["1/u1", "0"]}'


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_json_schema(capsys):
    code, out, _ = run_cli(["homology", "--n", "4", "--cross", "1,2", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert [c["homogeneity"] for c in data] == [[-2, 0], [2, -1], [1, 2]]
    for comp in data:
        assert set(comp) == {"labels", "homogeneity", "housing"}
        assert set(comp["housing"]) == {"I", "J", "K"}
        assert len(comp["labels"]) == 4


def test_homology_table_layout(capsys):
    code, out, _ = run_cli(["homology", "--n", "5", "--cross", "1"], capsys)
    assert code == 0
    assert "(-1,2,1,0,0)" in out
    assert "L2(g(-1)*) (x) g(0)" in out


def test_homology_bad_cross(capsys):
    code, _, err = run_cli(["homology", "--n", "4", "--cross", "3"], capsys)
    assert code == 2
    assert "unsupported" in err


def test_brackets_report(capsys):
    code, out, _ = run_cli(["brackets", "--n", "3"], capsys)
    assert code == 0
    assert "9/9 relations verified" in out
    code, out, _ = run_cli(["brackets", "--n", "4", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data) == 9 and all(row["ok"] for row in data)


def test_homology_rejects_n2(capsys):
    code, _, err = run_cli(["homology", "--n", "2", "--cross", "1,2"], capsys)
    assert code == 2


def test_dims_output(capsys):
    code, out, _ = run_cli(["dims", "--n", "3", "--k", "2", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dim_qk"] == 7
    assert data["orbit_dims"] == {"2": 7, "0": 8}


def test_quat_multiplication(capsys):
    code, out, _ = run_cli(["quat", "e*f"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "j"
    code, out, _ = run_cli(["quat", "norm2(1 + 2*j)"], capsys)
    assert out.splitlines()[0] == "5"
    code, out, _ = run_cli(["quat", "conj(j)*j"], capsys)
    assert out.splitlines()[0] == "1"


def test_quat_error_exit(capsys):
    code, _, err = run_cli(["quat", "q + 1"], capsys)
    assert code == 2


@pytest.mark.parametrize("n", [3, 5])
def test_flat_check(capsys, n):
    code, out, _ = run_cli(["flat-check", "--n", str(n)], capsys)
    assert code == 0
    *checks, last = out.splitlines()
    assert all(line.startswith("  ok   ") for line in checks)
    assert "  ok   Psi power nonvanishing on the multicontact bundle" in checks
    assert last == f"all checks passed (n={n})"


def test_torsion_with_a_pole(tmp_path, capsys):
    # evaluation errors at sample points are skipped, not raised
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_POLE)
    code, out, _ = run_cli(["torsion", str(spec)], capsys)
    assert code == 0
    assert "contact torsion: proved-nonzero" in out


def test_torsion_and_torsion_free(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_TORSION)
    code, out, _ = run_cli(["torsion", str(spec), "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["is_zero"] == "proved-nonzero"
    assert data["tau"][0] == "3 * u1^2"
    out_path = tmp_path / "fixed.json"
    code, out, _ = run_cli(["torsion-free", str(spec), "-o", str(out_path)], capsys)
    assert code == 0
    fixed = json.loads(out_path.read_text())
    assert fixed["n"] == 3
    code, out, _ = run_cli(["torsion", str(out_path)], capsys)
    assert code == 0
    assert "proved-zero" in out


def test_ranks_subcommand(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_FLAT)
    code, out, _ = run_cli(
        ["ranks", str(spec), "--point", "0,0,0,0,0,0,0,0"], capsys
    )
    assert code == 0
    assert "ok:" in out
    code, out, _ = run_cli(["ranks", str(spec), "--count", "3", "--seed", "7"], capsys)
    assert code == 0
    assert out.count("ok:") == 3


def test_integrate_subcommand(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_FLAT)
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        [
            "integrate", str(spec),
            "--init", "0,0.3,0.1,-0.2,0.5,0.7,0.4,-0.3",
            "--t0", "0", "--t1", "0.1", "--step", "0.001",
            "-o", str(out_csv),
        ],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("t,x_inf,x0")
    assert len(lines) == 102


def test_missing_spec_file(capsys):
    code, _, err = run_cli(["torsion", "/nonexistent/spec.json"], capsys)
    assert code == 2


def test_integrate_singular_arc_exit_code(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 3, "C": "1 - 2*u1", "f0": "0", "f": ["1", "0"]}')
    code, _, err = run_cli(
        [
            "integrate", str(spec),
            "--init", "0,0.3,0.1,-0.2,0.5,0.7,0.4,-0.3",
            "--t1", "1", "--step", "0.001",
            "-o", str(tmp_path / "out.csv"),
        ],
        capsys,
    )
    assert code == 1
    assert "singular" in err


def test_unknown_subcommand_usage_error(capsys):
    code = main(["not-a-command"])
    capsys.readouterr()
    assert code == 2


def test_byte_identical_output_across_runs(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_TORSION)
    cmds = [
        [sys.executable, "-m", "contactpath.cli", "homology", "--n", "4", "--cross", "1,2", "--format", "json"],
        [sys.executable, "-m", "contactpath.cli", "torsion", str(spec), "--json", "--seed", "42"],
    ]
    # the child processes import the package from where this process found it
    src = os.path.dirname(os.path.dirname(contactpath.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for cmd in cmds:
        a = subprocess.run(cmd, capture_output=True, env=env)
        b = subprocess.run(cmd, capture_output=True, env=env)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
