import json
import os
import pathlib
import subprocess
import sys

import gsi
from gsi.cli import main
from gsi.gsi_format import parse_gsi


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gorenstein_true(capsys, data_dir):
    code, out, _ = run(capsys, "gorenstein", str(data_dir / "n2.gsi"))
    assert code == 0
    assert "gorenstein: true" in out


def test_gorenstein_false(capsys, data_dir):
    code, out, _ = run(capsys, "gorenstein", str(data_dir / "n1.gsi"))
    assert code == 1
    assert "gorenstein: false" in out


def test_check_rho_exit_zero_equality_false(capsys, data_dir):
    ex2 = str(data_dir / "ex2.gsi")
    code, out, _ = run(capsys, "check", "rho", ex2, ex2, "--semigroup", ex2)
    assert code == 0
    assert "equality_everywhere: False" in out


def test_validate_broken_exit_one(capsys, data_dir):
    code, out, _ = run(capsys, "validate", str(data_dir / "broken.gsi"))
    assert code == 1
    assert "E1" in out


def test_validate_good(capsys, data_dir):
    code, out, _ = run(capsys, "validate", str(data_dir / "ex2.gsi"))
    assert code == 0
    assert "valid" in out


def test_usage_errors(capsys, data_dir, tmp_path):
    assert run(capsys, "validate", str(tmp_path / "missing.gsi"))[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "check", "all", str(data_dir / "ex2.gsi"),
               str(data_dir / "ex2.gsi"))[0] == 2  # missing --semigroup
    bad = tmp_path / "bad.gsi"
    bad.write_text("gsi 1\nr 1\nmin 0\n")
    assert run(capsys, "info", str(bad))[0] == 2


def test_info_output(capsys, data_dir):
    code, out, _ = run(capsys, "info", str(data_dir / "ex2.gsi"))
    assert code == 0
    assert "frobenius: 4 4" in out
    assert "maximals: 3" in out
    assert "(3 4)  type (1,2)" in out


def test_info_plot(capsys, data_dir):
    code, out, _ = run(capsys, "info", str(data_dir / "ex2.gsi"), "--plot")
    assert code == 0
    assert "legend" in out


def test_canonical_and_is_canonical(capsys, data_dir, tmp_path):
    ex2 = str(data_dir / "ex2.gsi")
    out_path = tmp_path / "k.gsi"
    assert run(capsys, "canonical", ex2, "-o", str(out_path))[0] == 0
    assert run(capsys, "is-canonical", str(out_path), ex2)[0] == 0
    code, out, _ = run(capsys, "is-canonical", ex2, ex2)
    assert code == 1 and "canonical: false" in out


def test_dual_methods_agree(capsys, data_dir, tmp_path):
    ex2 = str(data_dir / "ex2.gsi")
    k = tmp_path / "k.gsi"
    run(capsys, "canonical", ex2, "-o", str(k))
    cd_out = tmp_path / "cd.gsi"
    fd_out = tmp_path / "fd.gsi"
    assert run(capsys, "dual", str(k), ex2, "-o", str(cd_out))[0] == 0
    assert run(capsys, "dual", str(k), ex2, "-o", str(fd_out),
               "--method", "fiber")[0] == 0
    assert cd_out.read_text() == fd_out.read_text()


def test_check_json_document(capsys, data_dir):
    ex2 = str(data_dir / "ex2.gsi")
    code, out, _ = run(capsys, "check", "all", ex2, ex2,
                       "--semigroup", ex2, "--json", "--seed", "1")
    doc = json.loads(out)
    assert (code == 0) == doc["passed"]
    assert {r["check_name"] for r in doc["reports"]} == {
        "sum", "fibra", "duality", "length", "rho", "maxsym", "consistency"}


def test_check_json_single(capsys, data_dir):
    ex2 = str(data_dir / "ex2.gsi")
    code, out, _ = run(capsys, "check", "length", ex2, ex2, "--json")
    doc = json.loads(out)
    assert doc["passed"] == (code == 0) == True  # noqa: E712
    assert doc["flags"]["equality_everywhere"] is False


def test_check_deterministic_with_seed(capsys, data_dir):
    ex2 = str(data_dir / "ex2.gsi")
    _, out1, _ = run(capsys, "check", "all", ex2, ex2, "--semigroup", ex2,
                     "--json", "--seed", "7")
    _, out2, _ = run(capsys, "check", "all", ex2, ex2, "--semigroup", ex2,
                     "--json", "--seed", "7")
    assert out1 == out2


def test_gen_commands(capsys, data_dir, tmp_path):
    code, out, _ = run(capsys, "gen", "numerical", "3", "4", "5")
    assert code == 0 and "conductor 3" in out
    assert run(capsys, "gen", "numerical", "2", "4")[0] == 2  # gcd 2
    code, out, _ = run(capsys, "gen", "node", "2")
    assert code == 0
    prod_out = tmp_path / "p.gsi"
    assert run(capsys, "gen", "product", str(data_dir / "n2.gsi"),
               str(data_dir / "n2.gsi"), "-o", str(prod_out))[0] == 0
    assert parse_gsi(prod_out.read_text()).c == (2, 2)
    code, out, _ = run(capsys, "gen", "random",
                       "--semigroup", str(data_dir / "node2.gsi"), "--seed", "4")
    assert code == 0
    parse_gsi(out)  # generated ideal parses and validates


def test_module_entrypoint_smoke(data_dir):
    # the child imports the same gsi as this process, installed or not
    root = str(pathlib.Path(gsi.__file__).parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "gsi", "gorenstein", str(data_dir / "n2.gsi")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "gorenstein: true" in proc.stdout
