import hashlib
import json

import pytest

from contactpath import engine
from contactpath.cli import INTERNAL_ERROR, main
from contactpath.errors import DegeneratePointError

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


@pytest.mark.parametrize("count", ["0", "-1"])
def test_ranks_count_below_one_is_a_usage_error(tmp_path, capsys, count):
    # it checked no point, printed only the expected line and exited 0
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_FLAT)
    code, out, err = run_cli(["ranks", str(spec), "--count", count], capsys)
    assert (code, out, err) == (2, "", "--count must be at least 1\n")


def test_ranks_at_a_pole_of_c_is_a_degenerate_point(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 3, "C": "1/u1", "f0": "0", "f": ["0", "0"]}')
    code, out, err = run_cli(["ranks", str(spec), "--point", "0,0,0,0,0,0,0,0"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: C vanishes or is undefined at the requested point\n"


@pytest.mark.parametrize(("spec_text", "point", "code", "err"), [
    # exp(900) overflows: C is undefined there
    ('{"n": 3, "C": "exp(u1^2)", "f0": "0", "f": ["0", "0"]}', "0,0,0,0,0,0,30,0",
     1, "error: C vanishes or is undefined at the requested point\n"),
    # 1000^200 overflows in the monomial table and in the tree walk
    ('{"n": 3, "f0": "u1^200", "f": ["0", "0"]}', "0,0,0,0,0,0,1000,0",
     2, "a field value overflows at the requested point\n"),
    ('{"n": 3, "f0": "sin(x1)*u1^200", "f": ["0", "0"]}', "0,0,0,0,0,0,1000,0",
     2, "a field value overflows at the requested point\n"),
], ids=["C", "polynomial", "tree"])
def test_ranks_at_an_overflowing_point_is_refused(spec_text, point, code, err, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    assert run_cli(["ranks", str(spec), "--point", point], capsys) == (code, "", err)


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


def test_integrate_writes_golden_csv_file(tmp_path, capsys):
    # the flat path of test_integrate's GOLDEN_CSV, written through the file
    # path of write_csv: CRLF line ends under newline=""
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_FLAT)
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        ["integrate", str(spec), "--init", "0,0.3,0.1,-0.2,0.5,0.7,0.4,-0.3",
         "--t1", "1", "--step", "0.001", "-o", str(out_csv)],
        capsys,
    )
    assert code == 0
    assert out.startswith(f"wrote {out_csv}: 1001 samples, ")
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
        "a9d02d9eb7aace0b772365eec0d3d079a38367ed1d8c160da3ce456ff16377b4")


def test_integrate_fixed_step_reaches_the_end_of_the_interval(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_FLAT)
    out_csv = tmp_path / "traj.csv"
    code, out, err = run_cli(
        ["integrate", str(spec), "--init", "0,0.3,0.1,-0.2,0.5,0.7,0.4,-0.3",
         "--t1", "10", "--step", "0.1", "-o", str(out_csv)],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out.startswith(f"wrote {out_csv}: 101 samples, ")
    assert len(out_csv.read_text().splitlines()) == 102


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


def test_package_runs_as_a_module(run_python):
    as_package = run_python("-m", "contactpath", "dims", "--n", "4", "--k", "2")
    as_cli = run_python("-m", "contactpath.cli", "dims", "--n", "4", "--k", "2")
    assert as_package.returncode == as_cli.returncode == 0
    assert as_package.stdout == as_cli.stdout != b""


def test_byte_identical_output_across_runs(tmp_path, run_python):
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_TORSION)
    cmds = [
        ["-m", "contactpath.cli", "homology", "--n", "4", "--cross", "1,2", "--format", "json"],
        ["-m", "contactpath.cli", "torsion", str(spec), "--json", "--seed", "42"],
    ]
    for cmd in cmds:
        a = run_python(*cmd)
        b = run_python(*cmd)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


# sha256 of the exit codes, stdout, stderr and written file of `torsion`,
# `torsion --json` and `torsion-free` for specs that live on expression trees
# (transcendental terms, a non-constant C, poles); recorded from the version
# that built its trees without simplifying, so building them simplified must
# reproduce every printed string.
GOLDEN_NONPOLYNOMIAL = [
    ({"n": 3, "f0": "u1*u2 + sin(x1)", "f": ["u2^2", "0"]},
     "0fc2b2d2d336834c1f96d455b3d9aa80d638c1f36b933e8a8e003b5b90a7ded5"),
    ({"n": 3, "f0": "u1^3", "f": ["cos(u2)", "x1*u1"]},
     "fd1c3d50de0a5aa9c8de395800d020bc76f14b184592b5d8505b774471b8cbe2"),
    ({"n": 3, "f0": "exp(u1/2)", "f": ["0", "u1*u2"]},
     "fcef919999d95a1e5dc791c0229a9f88281b1fb254fa20621786095a5d75ff97"),
    ({"n": 3, "f0": "u2*x1", "f": ["log(1 + u1^2)", "u2"]},
     "38817043944bc3ddad10ceb518b58449fdf7b2cf62f50cecc04908f50c81eab0"),
    ({"n": 3, "C": "1 + u1^2", "f0": "u2*x1 - 1/3", "f": ["u2 + x2^2", "(2/3)*u1*z"]},
     "4c9a9d83259637460c86183db27885bf419f3d48e953e2f553afd25437442dbd"),
    ({"n": 3, "f0": "u1*u2", "f": ["1/u1", "0"]},
     "66dfc44420072510635020719a2b5a7bbf376d5cbfc0d7b7af44a6aaa3c5f6b9"),
    ({"n": 3, "f0": "log(u1)", "f": ["u2", "0"]},
     "ac09db1061963d2ed52a13e52fe8b5f6590aa53ee45654835f48de9adcd03017"),
]


@pytest.mark.parametrize(
    "spec, digest", GOLDEN_NONPOLYNOMIAL,
    ids=["sin", "cos", "exp", "log", "poly-c", "pole", "log-pole"],
)
def test_nonpolynomial_output_unchanged(spec, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    h = hashlib.sha256()
    for argv in (
        ["torsion", "spec.json"],
        ["torsion", "spec.json", "--json"],
        ["torsion-free", "spec.json", "-o", "fixed.json"],
    ):
        code, out, err = run_cli(argv, capsys)
        written = tmp_path / "fixed.json"
        text = written.read_text() if written.exists() else ""
        if written.exists():
            written.unlink()
        h.update(f"{code}\n{out}\n{err}\n{text}\n".encode())
    assert h.hexdigest() == digest


# The same digests for specs with a constant C other than 1 or a
# non-standard omega, where the normalized data is f / C; recorded before
# each Geometry settled its ring once, so that settling it once must
# reproduce every printed string.
GOLDEN_CONSTANT_C = [
    ({"C": "2", "n": 3, "f0": "u1^3 + x1*u2", "f": ["u1*u2", "x2 - u2^2"]},
     "96ecb469c9779785c55206443359ed454266d51a76e41d47cb6fe34dfe01f346"),
    ({"n": 3, "C": "3", "f0": "sin(x1) + 2*u1", "f": ["6*u1^2", "exp(u2/2)"]},
     "5a3f2528c2d25a035be386cd28803d21b049fa52bd4c0ea61bb219999d1025b2"),
    ({"n": 4, "C": "-1/2", "f0": "log(1 + u1^2) + u3*x2", "f": ["u2", "x1*u4", "3*u1^2", "0"]},
     "ef0de93d5b4e91db7490564842784e9da59fb3af8473e6dfaaf189f186b3fb0e"),
    ({"n": 4, "C": "5", "omega": [[0, "1/2", 0, 1], ["-1/2", 0, 3, 0], [0, -3, 0, -1], [-1, 0, 1, 0]],
      "f0": "u1*u2 + cos(x3)", "f": ["u3^2", "exp(u1) - x2", "2*u4*u2", "1/3*x1"]},
     "044e743cc4d220fdff4d1cbbc450a5d53d88f727cf2ae1fe7d4ccda5dee4fa55"),
    ({"n": 4, "C": "5", "omega": [[0, "1/2", 0, 1], ["-1/2", 0, 3, 0], [0, -3, 0, -1], [-1, 0, 1, 0]],
      "f0": "u1*u2 + x3^2", "f": ["u3^2", "x2 - u1", "2*u4*u2", "1/3*x1"]},
     "08608a19a6b56f1624504c7583cbcd2a845b74dc694707cb612ea6c4b83ef2fe"),
]


@pytest.mark.parametrize(
    "spec, digest", GOLDEN_CONSTANT_C,
    ids=["c2-poly", "c3-mixed", "c-half-log", "omega-c5-mixed", "omega-c5-poly"],
)
def test_constant_c_output_unchanged(spec, digest, tmp_path, monkeypatch, capsys):
    test_nonpolynomial_output_unchanged(spec, digest, tmp_path, monkeypatch, capsys)


# The same digests for C = 1 polynomial specs at n = 3..6; recorded while
# contact_torsion still paired the whole double bracket and sampled all 40
# points before looking for a witness.  The first spec's torsion vanishes at
# the first sampled point (x1 = -2), so its witness is a later point; the
# fifth is torsion-free.
GOLDEN_POLYNOMIAL = [
    ({"n": 3, "f0": "(x1 + 2)*u1^2", "f": ["0", "0"]},
     "4d2abc4686f5470210b6638216a78bf1c803f27d2e0aebf3b8659cce18a3cfcb"),
    ({"n": 3, "f0": "u1^3 + x1*u2", "f": ["u1*u2", "x2 - u2^2"]},
     "4112d7c30631345497522da5899221455ec98d802eb31c074ec2cf9987501086"),
    ({"n": 4, "f0": "u1*u2*u3 - 1/2*x4^2", "f": ["u2^2", "x1*u4", "3*u1^2 + z", "0"]},
     "6520bb1d0564a1e276b92e7b3e2c9fe71edee3bf161eedd6381976cdc07a9466"),
    ({"n": 4, "f0": "u1*u2", "f": ["0", "0", "0", "0"]},
     "1deafc6a03c18b6ff80ca2626a2f2a9535dd8fe890b4933c30c37ff1f1a8f6f6"),
    ({"n": 4, "f0": "u1*u2 + x1*u3^2", "f": ["-(2/3)*u3*x1", "0", "(1/3)*u2", "(1/3)*u1"]},
     "f5748672bfaabea2136190a023cfbd13e792a03107a48c8edff045e1cb4b55f4"),
    ({"n": 5, "f0": "u1^2*u6 + (2/3)*x5*u3",
      "f": ["u4*u5", "t*u1", "0", "x2^2", "u6 - u1^3", "1/2*x3*z"]},
     "cf054e6a8ca91e70c7370091934a1a73e8637bc40a51dc31f903c5bb658d1d2b"),
    ({"n": 6, "f0": "u8*u1^2 - x7*u2 + u0",
      "f": ["u3", "0", "x4*u5", "u6^2", "0", "t", "u1*u2*u3", "-x8"]},
     "946704a891b2d1bdb1ba5ac21e9620dc95767a910a568a818f18e500a404c7d4"),
]


@pytest.mark.parametrize(
    "spec, digest", GOLDEN_POLYNOMIAL,
    ids=["n3-late-witness", "n3", "n4", "n4-f0-only", "n4-torsion-free", "n5", "n6"],
)
def test_polynomial_output_unchanged(spec, digest, tmp_path, monkeypatch, capsys):
    test_nonpolynomial_output_unchanged(spec, digest, tmp_path, monkeypatch, capsys)


def test_library_bug_exits_internal_error(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_TORSION)

    def broken(*args, **kwargs):
        raise AttributeError("module has no attribute 'ExprError'")

    monkeypatch.setattr(engine, "contact_torsion", broken)
    code, out, err = run_cli(["torsion", str(spec)], capsys)
    assert code == INTERNAL_ERROR == 3
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.rstrip().endswith("AttributeError: module has no attribute 'ExprError'")


def test_verification_error_still_exits_one(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_TORSION)

    def degenerate(*args, **kwargs):
        raise DegeneratePointError("C vanishes at the point")

    monkeypatch.setattr(engine, "contact_torsion", degenerate)
    code, _, err = run_cli(["torsion", str(spec)], capsys)
    assert code == 1
    assert err == "error: C vanishes at the point\n"


def test_integrate_reversed_interval_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_FLAT)
    code, _, err = run_cli(
        ["integrate", str(spec), "--init", "0,0.3,0.1,-0.2,0.5,0.7,0.4,-0.3",
         "--t0", "1", "--t1", "0", "-o", str(tmp_path / "out.csv")],
        capsys,
    )
    assert code == 2
    assert err == "--t1 must exceed --t0\n"


def test_integrate_interval_within_the_end_tolerance_is_a_usage_error(tmp_path, capsys):
    # it wrote a one-sample CSV with zero residuals and exited 0
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 3, "f0": "u1^2", "f": ["u2*x1", "u1"]}')
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(
        ["integrate", str(spec), "--init", "0,0.3,0.1,-0.2,0.5,0.7,0.4,-0.3", "--t1", "1e-15",
         "-o", str(out_csv)],
        capsys,
    )
    assert (code, out, err) == (2, "", "--t1 must exceed --t0 by more than 1e-14\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("bounds", [["--t1", "nan"], ["--t0", "nan"], ["--t1", "inf"], ["--t0=-inf"]])
def test_integrate_non_finite_interval_is_a_usage_error(tmp_path, capsys, bounds):
    # --t1 nan wrote a one-row CSV and exited 0; --t1 inf exited 1 with a
    # step size underflow
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_FLAT)
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(
        ["integrate", str(spec), "--init", "0,0.3,0.1,-0.2,0.5,0.7,0.4,-0.3", *bounds, "-o", str(out_csv)],
        capsys,
    )
    assert (code, out, err) == (2, "", "--t0 and --t1 must be finite\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("step", ["-0.1", "nan", "inf", "-inf"])
def test_integrate_negative_or_non_finite_step_is_a_usage_error(tmp_path, capsys, step):
    # -0.1 and nan exited 1 as if verification failed, and inf exited 0
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_FLAT)
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(
        ["integrate", str(spec), "--init", "0,0.3,0.1,-0.2,0.5,0.7,0.4,-0.3", f"--step={step}",
         "-o", str(out_csv)],
        capsys,
    )
    assert (code, out, err) == (2, "", "--step must be finite and non-negative\n")
    assert not out_csv.exists()


def test_integrate_blow_up_is_a_verification_failure(tmp_path, run_python):
    # u1' = u1^3 from u1 = 0.4 blows up at t = 3.125; no CSV of inf and nan
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 3, "f0": "0", "f": ["u1^3", "0"]}')
    out_csv = tmp_path / "out.csv"
    done = run_python(
        "-m", "contactpath.cli", "integrate", str(spec),
        "--init", "0,0.3,0.1,-0.2,0.5,0.7,0.4,-0.3", "--t1", "5", "--step", "0.1", "-o", str(out_csv),
    )
    assert (done.returncode, done.stdout) == (1, b"")
    # only the error line: numpy's overflow warnings from the fallback
    # evaluation stay off stderr
    assert done.stderr == b"error: the state is not finite at t = 3.3000000000000016\n"
    assert not out_csv.exists()


def test_integrate_step_underflow_is_a_verification_failure(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_FLAT)
    code, _, err = run_cli(
        ["integrate", str(spec), "--init", "0,0.3,0.1,-0.2,0.5,0.7,0.4,-0.3",
         "--step", "0", "-o", str(tmp_path / "out.csv")],
        capsys,
    )
    assert code == 1
    assert err == "error: step size underflow near t = 0.0\n"


@pytest.mark.parametrize("spec", [
    '{"n": 3, "f0": "u1", "f": 5}',
    '{"n": 3, "omega": 1, "f0": "u1", "f": ["0", "0"]}',
    '{"n": 3, "omega": [1, 2], "f0": "u1", "f": ["0", "0"]}',
    # a divisor or negative-power base without variables that is zero
    '{"n": 3, "f0": "sin(x1) + u1/(1 - 1)", "f": ["0", "0"]}',
    '{"n": 3, "f0": "u1*(2 - 2)^-1", "f": ["0", "0"]}',
    # a divisor with variables that is the zero polynomial
    '{"n": 3, "f0": "u1/(x1 - x1)", "f": ["0", "0"]}',
    # a non-integral n, which was truncated to 3
    '{"n": 3.9, "f0": "0", "f": ["0", "0"]}',
])
def test_malformed_spec_is_a_usage_error(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    code, out, err = run_cli(["torsion", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("cannot load spec: ")


# sha256 of the exit code and stdout of the exact half's commands at
# n = 3..7: `flat-check`, `brackets` in both formats, and `homology` for
# every crossed set in both formats; recorded while brackets still expanded
# a dense commutator against every basis element, so the sparse expansion
# must reproduce every printed byte.  `homology` at n = 8 was recorded while
# its housing weights were still read off the sp(n) basis matrices, and
# `flat-check` at n = 8 while the Psi power was still expanded into every
# ordered product of Grams and the Grams summed densely.
EXACT_HALF_ARGV = {
    "flat-check": lambda n: [["flat-check", "--n", str(n)]],
    "brackets": lambda n: [
        ["brackets", "--n", str(n)] + fmt for fmt in ([], ["--format", "json"])
    ],
    "homology": lambda n: [
        ["homology", "--n", str(n), "--cross", cross] + fmt
        for cross in ("1", "2", "1,2")
        for fmt in ([], ["--format", "json"])
    ],
}
GOLDEN_EXACT_HALF = {
    ("flat-check", 3): "2200799450b08323039bd3225f0cddf925b3466194a8628f04d04f51caabf091",
    ("flat-check", 4): "7b7c72f5eeef2878f25283dc12c3aa182c6eaf5f77c63fa48d9a37c8ac9e10e2",
    ("flat-check", 5): "c4a0e9fa913067ea6737923848ac9e5ccb3292b642bcb45869058aa1e6e2fcd9",
    ("flat-check", 6): "5c5ff75fcd56407153ba0f49c7a75ceee03182975274744d1324239779c82271",
    ("flat-check", 7): "f958b318b23e926cda2e52121e4dc49ccfe92b072f67050f24380203755bfbff",
    ("flat-check", 8): "07b21d54d5930098d1f53cbf3f712d72c63cdb3b42add150e778cd59e79f8afb",
    ("brackets", 3): "e6cfc17bda6f212e1d8b7aa5a8406900977020faf9e710b417bbd26502075ac9",
    ("brackets", 4): "e6cfc17bda6f212e1d8b7aa5a8406900977020faf9e710b417bbd26502075ac9",
    ("brackets", 5): "e6cfc17bda6f212e1d8b7aa5a8406900977020faf9e710b417bbd26502075ac9",
    ("brackets", 6): "e6cfc17bda6f212e1d8b7aa5a8406900977020faf9e710b417bbd26502075ac9",
    ("brackets", 7): "e6cfc17bda6f212e1d8b7aa5a8406900977020faf9e710b417bbd26502075ac9",
    ("homology", 3): "6608af4db3e997dea34b0ffa2a3e749a089d3a93efc0e3feaae163c605367749",
    ("homology", 4): "c84fbc148bae3fed46c42450b62588d337f48e3329430fbbae14a663ca45d41f",
    ("homology", 5): "f95386f314f30a8b72ff67b74d00f7688e46869b11a4f284cc36f20be92281c0",
    ("homology", 6): "47f78f61e0ad1dad92cbd8224701143e798ac4315d7f83ed95967be84efc2660",
    ("homology", 7): "3819be85a12b6f845debacca67f27130d3c78e305fb208ab4f0b1ac0ff22e7d2",
    ("homology", 8): "6f81ce654bce70d88e5f60e321b330ccec120a588bfbd29db9a6699e7899747b",
}


@pytest.mark.parametrize(
    "command, n", list(GOLDEN_EXACT_HALF), ids=[f"{c}-{n}" for c, n in GOLDEN_EXACT_HALF],
)
def test_exact_half_output_unchanged(command, n, capsys):
    h = hashlib.sha256()
    for argv in EXACT_HALF_ARGV[command](n):
        code, out, _ = run_cli(argv, capsys)
        h.update(f"{code}\n{out}\n".encode())
    assert h.hexdigest() == GOLDEN_EXACT_HALF[command, n]
