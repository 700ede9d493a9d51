import argparse
import json
import os
import pathlib
import subprocess
import sys

import gsi
from gsi import cli
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


def test_validate_output_pinned(capsys, data_dir, tmp_path):
    ex2, broken = str(data_dir / "ex2.gsi"), str(data_dir / "broken.gsi")
    missing, bad = str(tmp_path / "missing.gsi"), tmp_path / "bad.gsi"
    bad.write_text("gsi 1\nr 1\nmin 0\nconductor x\n")
    ce = ("{'axiom': 'E1', 'pair': [[3, 4], [4, 3]], 'missing_meet': [3, 3], "
          "'line': 6}")
    assert run(capsys, "validate", ex2) == (0, f"{ex2}: valid\n", "")
    assert run(capsys, "validate", broken) == (
        1, f"{broken}: invalid\nvalidate: FAIL (first counterexample: {ce})\n"
           f"  counterexample: {ce}\n", "")
    assert run(capsys, "validate", missing) == (
        2, "", f"cannot read {missing}: no such file\n")
    assert run(capsys, "validate", str(bad)) == (
        2, "", f"{bad}: line 4: expected integer, got 'x'\n")


def test_usage_errors(capsys, data_dir, tmp_path):
    assert run(capsys, "validate", str(tmp_path / "missing.gsi"))[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "check", "all", str(data_dir / "ex2.gsi"),
               str(data_dir / "ex2.gsi"))[0] == 2  # missing --semigroup
    bad = tmp_path / "bad.gsi"
    bad.write_text("gsi 1\nr 1\nmin 0\n")
    assert run(capsys, "info", str(bad))[0] == 2


def test_check_rejects_ideal_of_another_semigroup(capsys, data_dir, tmp_path):
    ex2, node2 = str(data_dir / "ex2.gsi"), str(data_dir / "node2.gsi")
    # node2 + ex2 is not inside ex2: the conductor of ex2 exceeds min + c(node2)
    for J in (ex2, node2):
        code, out, err = run(capsys, "check", "all", J, ex2, "--semigroup", node2)
        assert code == 2 and out == ""
        assert err == (f"{ex2} is not an ideal of the semigroup {node2}: "
                       f"(4, 5) + (0, 0) = (4, 5) is not in {ex2}\n")
    # N(3,4,5) is not an N(2,5)-ideal: 2 + 0 = 2 is missing
    s25 = str(tmp_path / "s25.gsi")
    assert run(capsys, "gen", "numerical", "2", "5", "-o", s25)[0] == 0
    n1 = str(data_dir / "n1.gsi")
    code, _, err = run(capsys, "check", "rho", n1, n1, "--semigroup", s25)
    assert code == 2
    assert err == f"{n1} is not an ideal of the semigroup {s25}: (2) + (0) = (2) is not in {n1}\n"
    code, _, err = run(capsys, "check", "rho", ex2, ex2, "--semigroup", n1)
    assert code == 2 and "dimension" in err


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


def _child(*args):
    """A Python child run with args; it imports the same gsi as this
    process, installed or not."""
    root = str(pathlib.Path(gsi.__file__).parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_entrypoint_smoke(data_dir):
    proc = _child("-m", "gsi", "gorenstein", str(data_dir / "n2.gsi"))
    assert proc.returncode == 0
    assert "gorenstein: true" in proc.stdout


def _reuse_sequence(data_dir):
    ex2, broken = str(data_dir / "ex2.gsi"), str(data_dir / "broken.gsi")
    return [
        ["check", "bogus"],
        ["--help"],
        ["validate", ex2],
        ["validate", broken],
        ["info", ex2, "--plot"],
        ["check", "all", ex2, ex2, "--semigroup", ex2, "--json", "--seed", "3"],
        ["gen", "random", "--semigroup", str(data_dir / "node2.gsi"), "--seed", "4"],
    ]


def test_in_process_reuse_changes_nothing(capsys, data_dir):
    # one parser serves the whole sequence; each command then runs again on
    # a parser of its own, and the outputs must not differ by a byte
    seq = _reuse_sequence(data_dir)
    cli._parser.cache_clear()
    shared = [run(capsys, *argv) for argv in seq]
    assert [code for code, _, _ in shared] == [2, 0, 0, 1, 0, 0, 0]
    for argv, want in zip(seq, shared):
        cli._parser.cache_clear()
        assert run(capsys, *argv) == want, argv


def test_main_builds_one_parser_tree(capsys, data_dir, monkeypatch):
    # counts, not times: twenty calls construct the root parser and its
    # eight subcommand parsers once
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli._parser.cache_clear()
    seq = _reuse_sequence(data_dir)
    for i in range(20):
        run(capsys, *seq[i % len(seq)])
    assert len(built) == 9 and built.count("gsi") == 1, built
    cli._parser.cache_clear()  # drop the parser built through the wrapper


def test_import_builds_no_parser():
    proc = _child("-c", "import gsi, gsi.cli; print(gsi.cli._parser.cache_info().currsize)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
