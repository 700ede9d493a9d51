import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

import gsi
from gsi import cli, constructors, ideal
from gsi.cli import main
from gsi.gsi_format import emit_gsi, parse_gsi
from gsi.ideal import translate


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


def test_validate_sparse_shrinking_document(capsys, tmp_path):
    # five elements whose top 2 x 2 block shrinks the declared conductor
    # (2000, 2000) to (1999, 1999)
    doc = tmp_path / "sparse.gsi"
    doc.write_text("gsi 1\nr 2\nmin 0 0\nconductor 2000 2000\nelem 0 0\n"
                   + "".join(f"elem {x} {y}\n" for x in (1999, 2000) for y in (1999, 2000)))
    assert run(capsys, "validate", str(doc)) == (0, f"{doc}: valid\n", "")


def test_usage_errors(capsys, data_dir, tmp_path):
    assert run(capsys, "validate", str(tmp_path / "missing.gsi"))[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "check", "all", str(data_dir / "ex2.gsi"),
               str(data_dir / "ex2.gsi"))[0] == 2  # missing --semigroup
    bad = tmp_path / "bad.gsi"
    bad.write_text("gsi 1\nr 1\nmin 0\n")
    assert run(capsys, "info", str(bad))[0] == 2


def test_memory_error_exits_two(capsys, data_dir, monkeypatch):
    # a computation that runs out of memory says so on one line and exits as
    # an input error, not as a failed claim (1) with a traceback
    def out_of_memory(S):
        raise MemoryError

    monkeypatch.setattr(cli.duality, "canonical_ideal", out_of_memory)
    code, out, err = run(capsys, "canonical", str(data_dir / "ex2.gsi"))
    assert (code, out) == (2, "")
    assert err == "error: out of memory: the input is too large\n"


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


def _child(*args, **env):
    """A Python child run with args and the environment variables env on
    top of this process's; it imports the same gsi as this process,
    installed or not."""
    root = str(pathlib.Path(gsi.__file__).parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env})


def test_module_entrypoint_smoke(data_dir):
    proc = _child("-m", "gsi", "gorenstein", str(data_dir / "n2.gsi"))
    assert proc.returncode == 0
    assert "gorenstein: true" in proc.stdout


def test_module_entrypoint_validate(data_dir):
    ex2 = str(data_dir / "ex2.gsi")
    proc = _child("-m", "gsi", "validate", ex2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{ex2}: valid\n", "")


def test_check_all_json_independent_of_hash_seed(data_dir):
    # the check context is keyed by reps, which hash as their small sets,
    # and by kind strings, whose hashes the seed changes: the report bytes
    # (as text, decoded one way) must not depend on either.  The triples
    # (S, S, S) sample random ideals for the consistency sweep
    for name in ("ex2", "node2"):
        S = str(data_dir / f"{name}.gsi")
        argv = ["-m", "gsi", "check", "all", S, S, "--semigroup", S, "--json", "--seed", "3"]
        runs = [_child(*argv, PYTHONHASHSEED=seed) for seed in ("0", "1")]
        assert [proc.returncode for proc in runs] == [0, 0], [proc.stderr for proc in runs]
        assert runs[0].stdout == runs[1].stdout and runs[0].stderr == runs[1].stderr, name
        assert json.loads(runs[0].stdout), name


def test_semigroup_arguments_rejected_unless_good(capsys, data_dir, tmp_path):
    # ex2 moved up by e is a good ideal but not a semigroup: 0 is no member
    ex2, shifted = data_dir / "ex2.gsi", tmp_path / "shifted.gsi"
    shifted.write_text(emit_gsi(translate(parse_gsi(ex2.read_text()), (1, 1))))
    ex2, S = str(ex2), str(shifted)
    err = (f"{S} is not a good semigroup: validate: FAIL (first counterexample: "
           "{'axiom': 'semigroup', 'reason': '0 not a member'})\n")
    for argv in (["canonical", S], ["gorenstein", S],
                 ["check", "all", ex2, ex2, "--semigroup", S]):
        assert run(capsys, *argv) == (2, "", err), argv


@pytest.fixture
def axiom_runs(monkeypatch):
    """The reps, one entry per run, on which the ideal axiom kernel runs,
    whether through a constructor's certificate or through ``validate``;
    and the semigroups ``_load_semigroup`` returns.  Count with ``is``."""
    runs, loaded = [], []

    def counted(E, *args, original=ideal._axiom_failure, **kwargs):
        runs.append(E)
        return original(E, *args, **kwargs)

    def load_semigroup(path, load, original=cli._load_semigroup):
        loaded.append(original(path, load))
        return loaded[-1]

    monkeypatch.setattr(ideal, "_axiom_failure", counted)
    monkeypatch.setattr(constructors, "_axiom_failure", counted)
    monkeypatch.setattr(cli, "_load_semigroup", load_semigroup)
    return runs, loaded


@pytest.mark.parametrize("argv", [
    ["gen", "random", "--semigroup", "S", "--seed", "3"],
    ["check", "all", "J", "I", "--semigroup", "S"],
], ids=["gen-random", "check-all"])
def test_semigroup_ideal_axioms_run_once(capsys, data_dir, tmp_path, axiom_runs, argv):
    # the parse certifies S's ideal axioms; loading S as a semigroup adds
    # 0 in S and S + S <= S alone, so the kernel runs on S once
    ex2 = (data_dir / "ex2.gsi").read_text()
    for name in ("S", "J", "I"):  # distinct paths, so distinct parsed objects
        (tmp_path / f"{name}.gsi").write_text(ex2)
    runs, loaded = axiom_runs
    code, _, err = run(capsys, *(str(tmp_path / f"{a}.gsi") if a in ("S", "J", "I") else a
                                 for a in argv))
    assert (code, err) == (0, "")
    [S] = loaded
    assert sum(E is S for E in runs) == 1


@pytest.mark.parametrize("doc, record", [
    ("gsi 1\nr 1\nmin 1\nconductor 1\nelem 1\n",
     "{'axiom': 'semigroup', 'reason': '0 not a member'}"),
    ("gsi 1\nr 1\nmin 0\nconductor 5\nelem 0\nelem 2\nelem 3\nelem 5\n",
     "{'axiom': 'semigroup', 'pair': [[2], [2]], 'sum': [4]}"),
], ids=["no-zero", "not-closed"])
def test_good_ideal_that_is_no_semigroup_rejected(capsys, data_dir, tmp_path, doc, record):
    # a --semigroup file that parses as a good ideal fails its semigroup
    # check with validate's report, as when every axiom ran on it again
    S = tmp_path / "S.gsi"
    S.write_text(doc)
    n1 = str(data_dir / "n1.gsi")
    err = f"{S} is not a good semigroup: validate: FAIL (first counterexample: {record})\n"
    for argv in (["gen", "random", "--semigroup", str(S)],
                 ["check", "all", n1, n1, "--semigroup", str(S)]):
        assert run(capsys, *argv) == (2, "", err), argv


_NOT_A_SEMIGROUP = ("{} is not a good semigroup: validate: FAIL (first counterexample: "
                    "{{'axiom': 'semigroup', 'reason': '0 not a member'}})\n")


@pytest.mark.parametrize("source, argv, code, err", [
    pytest.param("ex2", ["validate", "{}"], 0, "", id="validate"),
    pytest.param("ex2", ["info", "{}", "--plot"], 0, "", id="info"),
    pytest.param("ex2", ["canonical", "{}"], 0, "", id="canonical"),
    pytest.param("ex2", ["gorenstein", "{}"], 1, "", id="gorenstein"),
    pytest.param("ex2", ["dual", "{}", "{}"], 0, "", id="dual-cd"),
    pytest.param("ex2", ["dual", "{}", "{}", "--method", "fiber"], 0, "", id="dual-fiber"),
    pytest.param("ex2", ["is-canonical", "{}", "{}"], 1, "", id="is-canonical"),
    pytest.param("ex2", ["check", "all", "{}", "{}", "--semigroup", "{}"], 0, "",
                 id="check-all"),
    pytest.param("ex2", ["check", "rho", "{}", "{}", "--semigroup", "{}"], 0, "",
                 id="check-rho"),
    pytest.param("ex2", ["check", "sum", "{}", "{}", "--semigroup", "{}"], 0, "",
                 id="check-sum"),
    pytest.param("shifted", ["check", "all", "{}", "{}", "--semigroup", "{}"], 2,
                 _NOT_A_SEMIGROUP, id="check-rejected-semigroup"),
    pytest.param("ex2", ["gen", "product", "{}", "{}"], 0, "", id="gen-product"),
    pytest.param("ex2", ["gen", "random", "--semigroup", "{}"], 0, "", id="gen-random"),
])
def test_each_distinct_path_parsed_once(capsys, data_dir, tmp_path, monkeypatch,
                                        source, argv, code, err):
    # one path in every path slot is parsed once, and the output is that of
    # a copy of the file in each slot, each parsed on its own, with the
    # copies' names read as the original's
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_gsi(text)

    ex2 = data_dir / "ex2.gsi"
    path = tmp_path / "shifted.gsi" if source == "shifted" else ex2
    if source == "shifted":  # a good ideal, not a semigroup: 0 is no member
        path.write_text(emit_gsi(translate(parse_gsi(ex2.read_text()), (1, 1))))
    copies = [str(path)]
    for i in range(1, argv.count("{}")):
        copies.append(str(tmp_path / f"copy{i}.gsi"))
        pathlib.Path(copies[-1]).write_text(path.read_text())
    monkeypatch.setattr(cli, "parse_gsi", counted)
    same = run(capsys, *(str(path) if a == "{}" else a for a in argv))
    assert len(parsed) == 1
    # a usage error prints to stderr alone
    assert (same[0], same[1] == "", same[2]) == (code, code == 2, err.format(path))
    parsed.clear()
    slots = iter(copies)
    apart = run(capsys, *(next(slots) if a == "{}" else a for a in argv))
    assert len(parsed) == len(copies)
    for copy in copies[1:]:
        apart = (apart[0], apart[1].replace(copy, str(path)), apart[2].replace(copy, str(path)))
    assert same == apart


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


def test_info_invalid_file_output_pinned(capsys, data_dir):
    broken = str(data_dir / "broken.gsi")
    ce = ("{'axiom': 'E1', 'pair': [[3, 4], [4, 3]], 'missing_meet': [3, 3], "
          "'line': 6}")
    assert run(capsys, "info", broken) == (
        2, "", f"invalid input: validate: FAIL (first counterexample: {ce})\n")


def test_info_plot_one_dimension_pinned(capsys, data_dir):
    # the legend lists C, but the r = 1 row never marks the conductor
    assert run(capsys, "info", str(data_dir / "n1.gsi"), "--plot") == (
        0, "r: 1\nmin: 0\nconductor: 3\nfrobenius: 2\nmaximals: 0\n"
           "x in [-1, 4]: .o..oo\nlegend: o member, * maximal, C conductor, . gap\n", "")


def test_info_plot_rejects_three_dimensions(capsys, tmp_path):
    node3 = str(tmp_path / "node3.gsi")
    assert run(capsys, "gen", "node", "3", "-o", node3)[0] == 0
    assert run(capsys, "info", node3, "--plot") == (
        2, "r: 3\nmin: 0 0 0\nconductor: 1 1 1\nfrobenius: 0 0 0\nmaximals: 1\n"
           "  (0 0 0)  type (2,3)  absolute\n", "--plot supports r <= 2 only\n")


def test_single_checks_output_pinned(capsys, data_dir):
    ex2 = str(data_dir / "ex2.gsi")
    assert run(capsys, "check", "sum", ex2, ex2) == (0, "sum: pass\n", "")
    assert run(capsys, "check", "fibra", ex2, ex2) == (
        0, "fibra: pass\n  strict: True\n"
           "  witness: {'beta': [0, 1], 'note': 'strict inclusion witness'}\n", "")
    assert run(capsys, "check", "maxsym", ex2, ex2) == (
        0, "maxsym: pass\n  canonical_mode: None\n  pairs_checked: 0\n"
           "  skipped: [[0, 0], [0, 1], [1, 0], [3, 4], [4, 3], [4, 4]]\n"
           "  triple_dual_stable: True\n", "")


def test_gen_argument_errors(capsys, data_dir):
    n1 = str(data_dir / "n1.gsi")
    for argv, err in ((["numerical"], "gen numerical needs generators"),
                      (["node"], "gen node needs a dimension"),
                      (["product", n1], "gen product needs two input files"),
                      (["random"], "gen random requires --semigroup")):
        assert run(capsys, "gen", *argv) == (2, "", err + "\n"), argv


def test_dual_fiber_failure_output(capsys, data_dir, monkeypatch):
    # the fiber dual of a valid pair is always good (fiber_dual proves it),
    # so only a fault reaches its promotion failure: a SoundnessError, exit 2
    ex2 = str(data_dir / "ex2.gsi")
    monkeypatch.setattr(cli.duality, "_fiber_region",
                        lambda EJ, EI: ((0, 0), (1, 1), 0))
    assert run(capsys, "dual", ex2, ex2, "--method", "fiber") == (
        2, "", "error: fiber dual is not a good ideal: empty region\n")
