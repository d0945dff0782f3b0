import json
import subprocess
import sys

import pytest

from barthslice.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_table(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n-min", "1", "--n-max", "12")
    assert code == 0
    records = json.loads(out)
    assert [r["n"] for r in records] == list(range(1, 13))
    assert records[7]["slice_component_dim"] == 92
    assert records[7]["canonical_component_dim"] == 92


def test_census_small_run(capsys):
    code, out, err = run_cli(
        capsys, "census", "--n-min", "4", "--n-max", "5", "--trials", "10", "--seed", "1"
    )
    assert code == 0
    certs = json.loads(out)
    assert [c["n"] for c in certs] == [4, 5]
    assert certs[0]["fiber_dims"] == {"10": 10}
    assert "pass" in err


def test_stdout_is_exactly_json_plus_newline(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "4", "--trials", "5", "--seed", "2")
    assert code == 0
    assert out.endswith("\n") and not out.endswith("\n\n")
    json.loads(out)  # the full stream parses
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_census_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "census", "--n", "6", "--trials", "20", "--seed", "9")
    _, out2, _ = run_cli(capsys, "census", "--n", "6", "--trials", "20", "--seed", "9")
    assert out1 == out2


def test_witness_rational(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--n", "4", "--prime", "rational", "--seed", "7"
    )
    assert code == 0
    (cert,) = json.loads(out)
    assert cert["field"] == "QQ(window=100)"
    w = cert["witness"]
    assert w["residual_zero"] and w["monad_ok"] and w["jacobian_full"]


def test_witness_off_the_canonical_solutions_passes(capsys):
    # this seed's first kernel point lies in the canonical span; drawn
    # again, the witness passes
    code, out, _ = run_cli(capsys, "witness", "--n", "7", "--prime", "rational",
                           "--window", "5", "--seed", "501")
    assert code == 0
    (cert,) = json.loads(out)
    assert cert["witness"]["pencil_finite_ok"] and cert["witness"]["pencil_infinity_ok"]


def test_witness_unsampleable_window_exits_2(capsys):
    # window 0 draws only zero coefficients, so no nonzero kernel point exists
    code, out, err = run_cli(
        capsys, "witness", "--n", "4", "--prime", "rational", "--window", "0", "--seed", "1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: could not sample a nonzero kernel point in 64 attempts\n"


def test_family_ok(capsys):
    code, out, _ = run_cli(
        capsys, "family", "--n", "8", "--trials", "5", "--seed", "3"
    )
    assert code == 0
    (cert,) = json.loads(out)
    assert cert["family_check"] is True


def test_family_small_n_usage_error(capsys):
    code, out, err = run_cli(capsys, "family", "--n", "5", "--seed", "3")
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    "census --n 4 --trials 0 --seed 1",
    "witness --n 4 --points 0 --seed 1",
    "dims --n 0",
    "census --n-min 0 --n-max 2 --seed 1",
    "family --n 5 --seed 1",
])
def test_library_argument_checks_are_one_line_usage_errors(capsys, argv):
    # the library rejects these before anything is written
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_nonprime_modulus_usage_error(capsys):
    code, _, err = run_cli(capsys, "census", "--n", "4", "--seed", "1", "--prime", "91")
    assert code == 2
    assert "not prime" in err


def test_small_prime_is_a_one_line_usage_error(capsys):
    code, out, err = run_cli(capsys, "census", "--n", "4", "--trials", "1", "--prime", "7", "--seed", "1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "2**20" in err and "allow_small" not in err


def test_range_flags_validation(capsys):
    code, _, err = run_cli(capsys, "census", "--n-min", "5", "--n-max", "4", "--seed", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "census", "--seed", "1")
    assert code == 2
    code, _, err = run_cli(
        capsys, "census", "--n", "4", "--n-min", "4", "--seed", "1"
    )
    assert code == 2


@pytest.mark.parametrize("modulus", ["318665857834031151167461", "3317044064679887385961981"],
                         ids=["psi12", "psi13"])
def test_uncertified_modulus_exits_2(capsys, modulus):
    # strong pseudoprimes to the first 12 and 13 prime bases are no fields
    code, out, err = run_cli(capsys, "census", "--n-min", "4", "--n-max", "4", "--trials", "5",
                             "--seed", "1", "--prime", modulus)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: modulus {modulus} ") and err.count("\n") == 1


def test_missing_seed_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "4"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "4", "--seed", "1", "--bogus"])
    assert exc.value.code == 2


def test_selftest_passes_and_logs(capsys):
    code, out, err = run_cli(capsys, "selftest")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "fiber-system-conventions" in names
    assert "monad-residual-equivalence" in names
    assert err.count("selftest:") == len(names)


def test_selftest_log_deterministic(capsys):
    _, out1, err1 = run_cli(capsys, "selftest")
    _, out2, err2 = run_cli(capsys, "selftest")
    assert out1 == out2 and err1 == err2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "census", "--n", "4", "--trials", "5", "--seed", "4", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    on_disk = target.read_text(encoding="utf-8")
    assert on_disk.endswith("\n")
    assert json.loads(on_disk)[0]["n"] == 4


def test_out_flag_unwritable_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "cert.json"
    code, out, err = run_cli(capsys, "dims", "--n", "1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_uncalibrated_witness_warns_in_one_stderr_line():
    # a library warning reaches the user as one log line, not as a
    # file:line header plus a quoted line of package source
    result = subprocess.run(
        [sys.executable, "-m", "barthslice.cli", "witness", "--n", "9", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1  # n = 9 is past the calibrated range
    lines = result.stderr.splitlines()
    assert len(lines) == 2 and lines[1].endswith(" FAIL")
    assert lines[0] == (
        "witness n=9: warning: witness certification is calibrated for 4 <= n <= 7, "
        "got n=9; the pencil and rank conditions may fail generically"
    )
    assert "census.py" not in result.stderr
    assert json.loads(result.stdout)[0]["n"] == 9


def test_console_script_subprocess():
    # end-to-end through the installed entry point
    result = subprocess.run(
        [sys.executable, "-m", "barthslice.cli", "census", "--n", "4",
         "--trials", "5", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    certs = json.loads(result.stdout)
    assert certs[0]["fiber_dims"] == {"10": 5}
    assert result.stdout.endswith("}\n]\n")


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_benchmark_commands_never_import_numpy_ma():
    # np.unique, behind np.setdiff1d and np.union1d among others, imports
    # numpy.ma, which adds about 1 MB to a CLI process's peak RSS; the
    # census, family and witness commands of the benchmark's three workloads
    # and dims run here in one process, which must not load it
    commands = [
        "census --n-min 4 --n-max 8 --seed 1 --prime 2147483647 --trials 100",
        "family --n-min 20 --n-max 24 --seed 1 --prime 2147483647 --trials 1",
        "witness --n-min 4 --n-max 7 --seed 1 --prime rational --window 5 --points 32",
        "dims --n 1",
    ]
    script = (
        "import contextlib, io, sys\n"
        "from barthslice.cli import main\n"
        f"for command in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert main(command.split()) == 0, command\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert result.stdout == "False\n", result.stderr
