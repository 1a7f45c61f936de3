"""Command-line interface: exit codes, output shapes, JSON round trips."""
import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

import qba
from qba import cli
from qba.cli import CommandResult, run
from test_cli_fuzz import argv as fuzz_argv
from test_quotients import nine_atom_pair

FIXDIR = Path(__file__).resolve().parent.parent / "src" / "qba" / "data"


def fpath(name):
    return str(FIXDIR / f"{name}.alg")


class TestExitCodes:
    def test_validate_good(self):
        result = run(["validate", fpath("6")])
        assert result.exit_code == 0
        assert result.output == "VALID QB-algebra (non-flat, 6 elements)"

    def test_validate_flat_wording(self):
        result = run(["validate", fpath("F3")])
        assert result.exit_code == 0
        assert result.output == "VALID QB-algebra (flat, 3 elements)"

    def test_validate_bad_algebra_exits_1(self, tmp_path):
        text = qba.dump_algebra(qba.fixture("4")).replace("star\n1 b a 0",
                                                          "star\n1 b a 1")
        bad = tmp_path / "bad.alg"
        bad.write_text(text)
        result = run(["validate", str(bad)])
        assert result.exit_code == 1
        assert result.output.startswith("INVALID")

    def test_decide_invalid_exits_1(self):
        result = run(["decide", "--variety", "qb", "x \\/ x = x"])
        assert result.exit_code == 1
        assert "INVALID" in result.output and "x=a" in result.output

    def test_decide_valid_exits_0(self):
        result = run(["decide", "--variety", "qb", "x \\/ 1 = 1"])
        assert result.exit_code == 0 and result.output == "VALID"

    def test_missing_file_exits_2(self):
        assert run(["validate", "no-such-file.alg"]).exit_code == 2

    def test_bad_equation_exits_2(self):
        assert run(["check", fpath("4"), "x \\/ = y"]).exit_code == 2

    def test_deep_nesting_exits_2(self):
        for term in ("(" * 1200 + "x" + ")" * 1200, "x" + "'" * 1200,
                     " \\/ ".join(["x"] * 1200)):
            for argv in (["decide", "--variety", "qb"], ["check", fpath("4")]):
                result = run(argv + [f"{term} = x"])
                assert result.exit_code == 2
                assert result.output.startswith("error: ") and "nested deeper" in result.output

    def test_usage_error_exits_2(self):
        assert run(["quotient", fpath("4")]).exit_code == 2

    def test_too_large_exits_2(self):
        assert run(["enumerate", "--size", "12"]).exit_code == 2
        assert run(["enumerate", "--size", "15"]).exit_code == 2
        assert run(["enumerate", "--size", "17", "--up-to-iso"]).exit_code == 2

    def test_general_classes_past_the_labeled_guard(self):
        result = run(["enumerate", "--size", "12", "--up-to-iso"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0].endswith(
            "labeled=66896336 emitted=16 violations=0")

    def test_size_below_one_exits_2(self):
        for argv in (["enumerate", "--size", "0"], ["enumerate", "--size", "-1", "--flat"]):
            assert run(argv) == CommandResult(2, "error: --size must be positive")

    def test_link_outside_its_part_exits_2(self):
        base = ["compose", fpath("6"), "--theta-r", "0", "--theta-ir", "a"]
        for link, name in (("a>e", "a"), ("0>1", "1")):
            result = run(base + ["--link", link])
            assert result == CommandResult(2, f"error: element {name!r} is outside this part")

    def test_malformed_pairs_and_links_exit_2(self):
        compose6 = ["compose", fpath("6"), "--theta-r", "0;1", "--theta-ir", "a,e;b,f"]
        for argv, message in (
                (["generate", fpath("4"), "--pairs", "a=b; ab"],
                 "pair 'ab' is not of the form name=name"),
                (compose6 + ["--link", "0>a;1b"], "link '1b' is not of the form reg>irr"),
                (["compose", fpath("F3")], "flat composition needs --theta-ir"),
                (["compose", fpath("6"), "--theta-ir", "a,e;b,f"],
                 "non-flat composition needs --theta-r and --theta-ir"),
                (compose6 + ["--link", "0>a"], "(C2) linked set is not star-closed"),
                # Two links from the class {1} to different classes.
                (compose6 + ["--link", "0>a;1>b;1>a"],
                 "regular class '1' is linked to two irregular classes"),
                (["compose", fpath("6"), "--theta-r", "0,1", "--theta-ir", "a,e;b,f",
                  "--link", "0>a;1>b"],
                 "regular class '0,1' is linked to two irregular classes")):
            assert run(argv) == CommandResult(2, f"error: {message}")

    def test_name_with_a_separator_exits_2(self, tmp_path):
        # Such a name could not be read back from partition, pair or link
        # text, so the file is refused before any command reads it.
        for name, argv in (("a=x", ["generate", "--pairs", "a=x=b"]),
                           ("a;x", ["generate", "--seed", "a;x,b"]),
                           ("a>x", ["validate"])):
            text = qba.dump_algebra(qba.fixture("4")).replace(" a ", f" {name} ")
            path = tmp_path / "renamed.alg"
            path.write_text(text)
            assert run(argv[:1] + [str(path)] + argv[1:]) == CommandResult(
                2, "error: names must not contain ';', '=' or '>'")

    def test_partition_text_rules(self):
        # An empty name is refused wherever partition text is read, and a
        # name in two blocks gets one message.
        six = fpath("6")
        for argv in (["split", six, "--cong"], ["decompose", six, "--cong"],
                     ["generate", six, "--seed"],
                     ["extend", six, "--sub", "0,a,b,1", "--cong"],
                     ["compose", six, "--theta-r", "0;1", "--theta-ir"]):
            for text in ("a,,b", "a,", ",a", "a, ;b"):
                assert run(argv + [text]) == CommandResult(2, "error: unknown element name ''")
            assert run(argv + ["a;a,b"]) == CommandResult(
                2, "error: element 'a' appears in two blocks")

    def test_name_twice_in_one_block_exits_2(self):
        assert run(["extend", fpath("6"), "--sub", "0,a,b,1", "--cong", "0,0"]) == \
            CommandResult(2, "error: element '0' appears twice in one block")
        six = fpath("6")
        for argv in (["split", six, "--cong"], ["decompose", six, "--cong"],
                     ["generate", six, "--seed"],
                     ["compose", six, "--theta-r", "0;1", "--theta-ir"]):
            assert run(argv + ["b;a,e,a"]) == CommandResult(
                2, "error: element 'a' appears twice in one block")

    def test_unwritable_output_exits_2(self, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("not a directory", "utf-8")
        result = run(["product", fpath("2"), fpath("F3"), "-o", str(afile / "p.alg")])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: cannot write {afile / 'p.alg'}: ")
        result = run(["product", fpath("2"), fpath("F3"),
                      "-o", str(tmp_path / "missing" / "p.alg")])
        assert result.exit_code == 2
        assert result.output.startswith("error: cannot write ")
        assert not (tmp_path / "missing").exists()

    def test_unwritable_emit_exits_2(self, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("not a directory", "utf-8")
        for out in (afile / "sub", afile):
            result = run(["enumerate", "--size", "3", "--emit", str(out)])
            assert result.exit_code == 2
            assert result.output.startswith(f"error: cannot write {out / 'qba_n3_0.alg'}: ")
        assert afile.read_text("utf-8") == "not a directory"

    def test_emit_makes_its_directory(self, tmp_path):
        out = tmp_path / "new" / "sub"
        result = run(["enumerate", "--size", "3", "--emit", str(out)])
        assert result.exit_code == 0
        assert result.output.endswith(f"wrote 2 files to {out}")
        assert sorted(p.name for p in out.iterdir()) == ["qba_n3_0.alg", "qba_n3_1.alg"]

    def test_labeled_flat_guard_exits_2(self):
        start = time.perf_counter()
        result = run(["enumerate", "--size", "15", "--flat"])
        assert time.perf_counter() - start < 0.5
        assert result == CommandResult(
            2, "error: labeled flat enumeration of size 15 would build "
               "2390480 algebras; it is guarded at 1000000")

    def test_repeated_link_to_one_class_is_accepted(self):
        compose6 = ["compose", fpath("6"), "--theta-r", "0;1", "--theta-ir", "a,e;b,f"]
        want = run(compose6 + ["--link", "0>a;1>b"])
        assert want == CommandResult(0, "0,a,e;f,b,1")
        assert run(compose6 + ["--link", "0>a;1>b;1>f"]) == want

    def test_empty_name_in_sub_exits_2(self):
        for sub in ("0,,a,b,1,", "0,a,b,1,", ",0,a,b,1", "0,a, ,b,1"):
            result = run(["extend", fpath("6"), "--sub", sub, "--cong", "0,a,b,1"])
            assert result == CommandResult(2, "error: unknown element name ''")
        assert run(["extend", fpath("6"), "--sub", "0, a,b ,1", "--cong", "0,a,b,1"]) == \
            CommandResult(0, "0,a,b,1;e;f")

    def test_too_many_assignments_exits_2(self):
        twelve = " \\/ ".join(f"x{i}" for i in range(12))
        for argv in (["check", fpath("6")], ["decide", "--variety", "qb"]):
            start = time.perf_counter()
            result = run(argv + [f"{twelve} = x0"])
            assert time.perf_counter() - start < 0.5
            assert result.exit_code == 2
            assert result.output.startswith("error: 12 variables over ")

    def test_iso_absent_exits_1(self, tmp_path):
        b4 = tmp_path / "b4.alg"
        b4.write_text(qba.dump_algebra(qba.boolean_algebra(2)))
        result = run(["iso", fpath("4"), str(b4)])
        assert result.exit_code == 1
        assert result.output == "NOT ISOMORPHIC"

    def test_iso_past_eight_atoms_exits_2(self, tmp_path):
        b512 = tmp_path / "b512.alg"
        b512.write_text(qba.dump_algebra(qba.boolean_algebra(9)))
        start = time.perf_counter()
        result = run(["iso", str(b512), str(b512)])
        assert time.perf_counter() - start < 5
        assert result == CommandResult(
            2, "error: 9 atoms exceed the guard of 8 (9! permutations)")

    def test_iso_past_eight_atoms_with_different_clouds_exits_1(self, tmp_path):
        paths = []
        for i, a in enumerate(nine_atom_pair()):
            paths.append(tmp_path / f"p{i}.alg")
            paths[-1].write_text(qba.dump_algebra(a))
        assert run(["iso", *map(str, paths)]) == CommandResult(1, "NOT ISOMORPHIC")

    def test_iso_found_exits_0(self):
        result = run(["iso", fpath("4"), fpath("4bar")])
        assert result.exit_code == 0
        assert result.output.startswith("isomorphic:")


class TestGate:
    """The subcommands whose results rest on the paper's theorems refuse an
    algebra that fails the axioms: exit 1 and exactly what validate prints."""

    GATED = (["quotient", "--rel", "chi"], ["quotient", "--rel", "tau"],
             ["split", "--cong", "0,a,e;f,b,1"],
             ["decompose", "--cong", "0,a,e;f,b,1"],
             ["compose", "--theta-r", "0;1", "--theta-ir", "a,e;b,f", "--link", "0>a;1>b"],
             ["extend", "--sub", "0,a,b,1", "--cong", "0,a,b,1"],
             ["congruences"], ["generate", "--pairs", "a=e"])

    def mutant(self, tmp_path):
        # 6 with a v 1 set to 0.
        a = qba.fixture("6")
        ia, i1 = a.index_of("a"), a.index_of("1")
        row = a.join[ia][:i1] + (0,) + a.join[ia][i1 + 1:]
        m = qba.FiniteAlgebra(a.names, a.join[:ia] + (row,) + a.join[ia + 1:],
                              a.meet, a.star, a.zero, a.one)
        path = tmp_path / "6m.alg"
        path.write_text(qba.dump_algebra(m))
        return str(path)

    def test_refused_with_the_axiom_witnesses(self, tmp_path):
        path = self.mutant(tmp_path)
        expected = run(["validate", path])
        assert expected.exit_code == 1
        lines = expected.output.splitlines()
        assert lines[0] == "INVALID: 5 axiom violation(s)" and len(lines) == 6
        for argv in self.GATED:
            assert run(argv[:1] + [path] + argv[1:]) == expected, argv

    def test_refused_with_the_json_report(self, tmp_path):
        path = self.mutant(tmp_path)
        expected = run(["validate", path, "--json"])
        payload = json.loads(expected.output)
        assert payload["passed"] is False and len(payload["violations"]) == 5
        for argv in self.GATED:
            assert run(argv[:1] + [path, "--json"] + argv[1:]) == expected, argv

    def test_iso_refuses_either_file(self, tmp_path):
        # 4 with 0 v 0 set to a: a single-cell mutant.
        a = qba.fixture("4")
        row = (a.index_of("a"),) + a.join[0][1:]
        m = qba.FiniteAlgebra(a.names, (row,) + a.join[1:], a.meet, a.star,
                              a.zero, a.one)
        path = tmp_path / "4m.alg"
        path.write_text(qba.dump_algebra(m))
        for flags in ([], ["--json"]):
            expected = run(["validate", str(path)] + flags)
            assert expected.exit_code == 1
            for pair in ([str(path), fpath("4")], [fpath("4"), str(path)]):
                assert run(["iso"] + pair + flags) == expected, pair

    def test_same_arguments_on_6_succeed(self):
        for argv in self.GATED:
            assert run(argv[:1] + [fpath("6")] + argv[1:]).exit_code == 0, argv

    def qb3_mutant(self, tmp_path):
        # 4 with 1* set to 1: fails QB3, QB4 and QB5.
        text = qba.dump_algebra(qba.fixture("4")).replace("star\n1 b a 0", "star\n1 b a 1")
        path = tmp_path / "4qb3.alg"
        path.write_text(text)
        return str(path)

    def test_each_file_is_gated_before_the_next_is_read(self, tmp_path):
        bad, missing = self.qb3_mutant(tmp_path), str(tmp_path / "missing.alg")
        for flags in ([], ["--json"]):
            expected = run(["validate", bad] + flags)
            assert expected.exit_code == 1
            assert run(["iso", bad, missing] + flags) == expected
            result = run(["iso", missing, bad] + flags)
            assert result.exit_code == 2
            assert result.output.startswith(f"error: cannot read {missing}: ")

    def test_ungated_commands_read_a_failing_file(self, tmp_path):
        bad = self.qb3_mutant(tmp_path)
        for argv, code in ((["validate", bad], 1), (["info", bad], 0),
                           (["check", bad, "x = x"], 0),
                           (["product", bad, fpath("2")], 0)):
            assert run(argv).exit_code == code, argv


class TestDocumentedExamples:
    def test_extend(self):
        result = run(["extend", fpath("6"), "--sub", "0,a,b,1",
                      "--cong", "0,a,b,1"])
        assert result.exit_code == 0
        assert result.output == "0,a,b,1;e;f"

    def test_congruences_list(self):
        result = run(["congruences", fpath("4")])
        assert result.output.splitlines() == [
            "0;a;b;1", "0,a;b,1", "0,a,b,1", "0,1;a;b", "0,1;a,b"]

    def test_generate_seed(self):
        result = run(["generate", fpath("4"), "--seed", "a,b"])
        assert result.output == "0,1;a,b"

    def test_generate_pairs_reports_closure_gaps(self):
        result = run(["generate", fpath("6"), "--pairs",
                      "0=1;0=a;a=e;1=f;f=b"])
        lines = result.output.splitlines()
        assert lines[0] == "0,a,e,f,b,1"
        assert lines[1].startswith("note:") and "0=f" in lines[1]

    def test_generate_needs_exactly_one_input(self):
        assert run(["generate", fpath("4")]).exit_code == 2
        assert run(["generate", fpath("4"), "--seed", "a,b",
                    "--pairs", "a=b"]).exit_code == 2

    def test_split(self):
        result = run(["split", fpath("4"), "--cong", "0,a,b,1"])
        assert result.output.splitlines() == [
            "theta1 on 4/chi: [0],[b]",
            "theta2 on 4/tau: [0],[a],[b]"]

    def test_decompose(self):
        result = run(["decompose", fpath("6"), "--cong", "0,a,e;f,b,1"])
        assert "theta_r (regular part): 0;1" in result.output
        assert "theta_ir (irregular part): a,e;f,b" in result.output
        assert "f: 0 -> a,e; 1 -> f,b" in result.output

    def test_compose_nonflat(self):
        result = run(["compose", fpath("6"), "--theta-r", "0;1",
                      "--theta-ir", "a,e;b,f", "--link", "0>a;1>b"])
        assert result.output == "0,a,e;f,b,1"

    def test_compose_flat(self):
        result = run(["compose", fpath("F3"), "--theta-ir", "c,d"])
        assert result.output == "0;c,d"

    def test_check(self):
        assert run(["check", fpath("F3"), "x \\/ y = 0"]).exit_code == 0
        assert run(["check", fpath("4"), "x \\/ y = 0"]).exit_code == 1

    def test_info_flags_trivial(self, tmp_path):
        p = tmp_path / "one.alg"
        p.write_text(qba.dump_algebra(qba.make_flat(1, 1)))
        result = run(["info", str(p)])
        assert "trivial one-element algebra" in result.output

    def test_info_fixture(self):
        result = run(["info", fpath("A")])
        assert "regular elements: {0, a, f, 1}" in result.output
        assert "irreducible: no" in result.output


class TestJson:
    def test_validate_json(self):
        result = run(["validate", fpath("6"), "--json"])
        payload = json.loads(result.output)
        assert payload["passed"] is True
        assert payload["flat"] is False and payload["size"] == 6

    def test_product_json_roundtrip(self):
        result = run(["product", fpath("2"), fpath("F3"), "--json"])
        payload = json.loads(result.output)
        rebuilt = qba.algebra_from_dict(payload["algebra"])
        assert rebuilt == qba.direct_product(qba.fixture("2"), qba.fixture("F3"))

    def test_quotient_json_roundtrip(self):
        result = run(["quotient", fpath("4"), "--rel", "tau", "--json"])
        payload = json.loads(result.output)
        rebuilt = qba.algebra_from_dict(payload["algebra"])
        expected, _ = qba.quotient(qba.fixture("4"), qba.tau(qba.fixture("4")))
        assert rebuilt == expected
        assert payload["projection"]["1"] == "[0]"

    def test_decide_json(self):
        result = run(["decide", "--variety", "qb", "x \\/ x = x", "--json"])
        payload = json.loads(result.output)
        assert payload["valid"] is False
        assert payload["witness"]["assignment"] == {"x": "a"}
        assert payload["witness"]["algebra"] == "4"

    def test_congruences_json_matches_library(self):
        result = run(["congruences", fpath("F3"), "--json"])
        payload = json.loads(result.output)
        a = qba.fixture("F3")
        assert payload["congruences"] == [
            qba.format_partition(a, p) for p in qba.all_congruences(a)]

    def test_enumerate_json(self):
        result = run(["enumerate", "--size", "3", "--flat", "--up-to-iso",
                      "--json"])
        payload = json.loads(result.output)
        assert payload["emitted"] == 2 and payload["violations"] == []


class TestSplitNames:
    """split names the blocks of theta1 and theta2 as the elements of the
    canonical quotients are named, without building the quotients."""

    ALGEBRAS = {**qba.all_fixtures(),
                "2xF3": qba.direct_product(qba.fixture("2"), qba.fixture("F3")),
                "4x2": qba.direct_product(qba.fixture("4"), qba.fixture("2"))}

    @pytest.mark.parametrize("name", list(ALGEBRAS))
    def test_names_agree_with_quotient(self, tmp_path, name):
        a = self.ALGEBRAS[name].relabel(name)
        path = tmp_path / f"{name}.alg"
        path.write_text(qba.dump_algebra(a), "utf-8")
        qc = qba.quotient(a, qba.chi(a))[0]
        qt = qba.quotient(a, qba.tau(a))[0]
        for theta in qba.all_congruences(a):
            t1, t2 = qba.split_congruence(a, theta)
            s1, s2 = qba.format_partition(qc, t1), qba.format_partition(qt, t2)
            argv = ["split", str(path), "--cong", qba.format_partition(a, theta)]
            assert run(argv).output == (f"theta1 on {name}/chi: {s1}\n"
                                        f"theta2 on {name}/tau: {s2}")
            assert json.loads(run(argv + ["--json"]).output) == {
                "theta1": s1, "theta2": s2}


class TestEverySubcommandEmitsJson:
    COMMANDS = (
        ["validate", fpath("4")],
        ["info", fpath("4")],
        ["quotient", fpath("4"), "--rel", "chi"],
        ["product", fpath("2"), fpath("F3")],
        ["iso", fpath("4"), fpath("4bar")],
        ["check", fpath("4"), "x'' = x"],
        ["decide", "--variety", "b", "x = x"],
        ["congruences", fpath("4")],
        ["generate", fpath("4"), "--seed", "a,b"],
        ["extend", fpath("6"), "--sub", "0,a,b,1", "--cong", "0,a,b,1"],
        ["split", fpath("4"), "--cong", "0,1"],
        ["decompose", fpath("4"), "--cong", "0,1"],
        ["compose", fpath("F3"), "--theta-ir", "c,d"],
        ["enumerate", "--size", "3", "--flat"],
    )

    def test_json_parses_for_all(self):
        for argv in self.COMMANDS:
            result = run(argv + ["--json"])
            assert result.exit_code == 0, argv
            json.loads(result.output)


class TestCommandTable:
    # The usage lines at 80 columns; they fix the order of every argument.
    # The top-level one is wrapped in one of two ways: Python 3.11 and 3.12
    # put the ' ...' after the subcommand choices on a line of its own,
    # 3.13 puts it on the choices' line.
    CHOICES = ("usage: qba [-h] [--version]\n"
               "           {validate,info,quotient,product,iso,check,decide,"
               "congruences,generate,extend,split,decompose,compose,enumerate}")
    TOP = (CHOICES + "\n           ...\n", CHOICES + " ...\n")
    USAGE = {
        "validate": "usage: qba validate [-h] [--json] algebra\n",
        "info": "usage: qba info [-h] [--json] algebra\n",
        "quotient": "usage: qba quotient [-h] [--json] --rel {chi,tau} algebra\n",
        "product": "usage: qba product [-h] [--json] [-o OUT] left right\n",
        "iso": "usage: qba iso [-h] [--json] left right\n",
        "check": "usage: qba check [-h] [--json] algebra equation\n",
        "decide": "usage: qba decide [-h] [--json] --variety {qb,fqb,b} equation\n",
        "congruences": "usage: qba congruences [-h] [--json] algebra\n",
        "generate": "usage: qba generate [-h] [--json] [--seed SEED] [--pairs PAIRS] "
                    "algebra\n",
        "extend": "usage: qba extend [-h] [--json] --sub SUB --cong CONG algebra\n",
        "split": "usage: qba split [-h] [--json] --cong CONG algebra\n",
        "decompose": "usage: qba decompose [-h] [--json] --cong CONG algebra\n",
        "compose": "usage: qba compose [-h] [--json] [--theta-r THETA_R] "
                   "[--theta-ir THETA_IR]\n"
                   "                   [--link LINK]\n"
                   "                   algebra\n",
        "enumerate": "usage: qba enumerate [-h] [--json] --size SIZE [--flat] "
                     "[--up-to-iso]\n"
                     "                     [--emit EMIT]\n",
    }

    def test_usage_lines(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        parser = cli.build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert parser.format_usage() in self.TOP
        usage = {name: p.format_usage() for name, p in sub.choices.items()}
        assert usage == self.USAGE

    def test_readme_lists_the_gated_rows(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = " ".join(readme.read_text("utf-8").split())
        listed = text.split("hold only by the paper's theorems, ", 1)[1]
        listed = listed.split(" first check the axioms", 1)[0]
        gated = [row[0] for row in cli._COMMANDS if row[4]]
        assert re.findall(r"`(\w+)`", listed) == gated


class TestSharedParser:
    def test_results_match_a_fresh_parser(self, monkeypatch, capsys):
        # Every subcommand, each followed by a usage error, its --json form
        # and --version, so any state a parse left behind would show.
        argvs = []
        for argv in TestEverySubcommandEmitsJson.COMMANDS:
            argvs += [argv, ["quotient", fpath("4")], argv + ["--json"], ["--version"]]
        assert cli._shared_parser() is cli._shared_parser()
        shared = [run(argv) for argv in argvs]
        shared_streams = capsys.readouterr()
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = [run(argv) for argv in argvs]
        assert shared == fresh
        assert shared_streams == capsys.readouterr()


def full_parse(argv):
    """The reference parse: the main parser, on every argv."""
    return cli._shared_parser().parse_args(argv)


def outcome(argv):
    """run(argv) with what argparse wrote to stdout and stderr, at 80
    columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = run(list(argv))
    return result, out.getvalue(), err.getvalue()


def full_outcome(argv):
    with mock.patch.object(cli, "_parse", full_parse):
        return outcome(argv)


class TestSubcommandParse:
    """run() parses an argv that starts with a known subcommand with that
    subcommand's parser alone; every result, usage and error text is what
    the main parser gives."""

    ARGS = {name: argv[1:] for argv in TestEverySubcommandEmitsJson.COMMANDS
            for name in argv[:1]}

    def corpus(self):
        argvs = [[], ["frobnicate"], ["frobnicate", fpath("4")], ["valid", fpath("4")],
                 ["-h"], ["--help"], ["--version"], ["--vers"], ["--ver", "validate"],
                 ["-h", "validate"], ["--version", "validate", fpath("4")],
                 ["--json", "validate", fpath("4")], ["--js", "validate", fpath("4")],
                 ["--", "validate", fpath("4")], ["--=x"], ["--bogus"]]
        for name, args in self.ARGS.items():
            full = [name] + args
            argvs += [[name], [name, "-h"], [name, "--help"], [name, "--json"],
                      full, full + ["--json"], [name, "--json"] + args,
                      full + ["--js"], full + ["--version"], full + ["--vers"],
                      [name, "--version"], full + ["extra"], full + ["extra", "more"],
                      full + ["--bogus"], full + ["--bogus=1", "-x"], full + ["--"],
                      [name, "--"] + args, full + ["--", "--json"], full + ["--=x"],
                      full + ["--json=1"], full + ["-h"]]
        argvs += [["compose", fpath("6"), "--theta", "0;1"],
                  ["enumerate", "--si", "3"], ["quotient", fpath("4"), "--r", "chi"],
                  ["generate", fpath("4"), "--se", "a,b"],
                  ["check", fpath("4"), "--", "x = x"],
                  ["decide", "--variety", "qb", "-x = x"],
                  ["validate", "--", "--json"], ["iso", fpath("4")]]
        return argvs

    def test_corpus_matches_the_main_parser(self):
        corpus = self.corpus()
        assert len(corpus) == 16 + 21 * 14 + 8
        for argv in corpus:
            assert outcome(argv) == full_outcome(argv), argv

    @settings(max_examples=100, deadline=None)
    @given(fuzz_argv())
    def test_fuzzed_argv_matches_the_main_parser(self, argv):
        assert outcome(argv) == full_outcome(argv)

    def test_a_known_subcommand_skips_the_main_parse(self, monkeypatch):
        parser, calls = cli._shared_parser(), []

        def counted(method):
            parse = getattr(parser, method)

            def counting(*args, **kwargs):
                calls.append(method)
                return parse(*args, **kwargs)
            return counting

        for method in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(parser, method, counted(method))
        for argv in self.corpus():
            if argv and argv[0] in self.ARGS and not any(
                    arg.startswith("--=") for arg in argv):
                run(argv)
        assert calls == []
        for argv in ([], ["--version"], ["frobnicate"], ["validate", fpath("4"), "--=x"]):
            run(argv)
        assert len(calls) == 8  # parse_args and the parse_known_args it calls


class TestFileReading:
    def latin1(self, tmp_path):
        """Fixture 4 with a saved in Latin-1, which is not UTF-8."""
        a = qba.fixture("4")
        path = tmp_path / "latin1.alg"
        path.write_bytes(qba.dump_algebra(qba.FiniteAlgebra(
            ("0", "\xe9", "b", "1"), a.join, a.meet, a.star, a.zero, a.one)).encode("latin-1"))
        return str(path)

    def test_undecodable_file_exits_2(self, tmp_path):
        bad = self.latin1(tmp_path)
        message = (f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xe9 "
                   "in position 15: invalid continuation byte")
        for argv in (["validate", bad], ["info", bad, "--json"], ["congruences", bad],
                     ["iso", fpath("4"), bad], ["product", bad, fpath("2")],
                     ["check", bad, "x = x"]):
            assert run(argv) == CommandResult(2, message), argv

    def test_undecodable_file_through_main(self, tmp_path, capsys):
        bad = self.latin1(tmp_path)
        assert cli.main(["validate", bad]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xe9 "
                       "in position 15: invalid continuation byte\n")

    def test_path_spellings(self, tmp_path, monkeypatch):
        # Path normalises the spelling: it picks the file that opens and
        # the name an error gives.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        text = qba.dump_algebra(qba.fixture("4"))
        (tmp_path / "x.alg").write_text(text, "utf-8")
        (tmp_path / "d" / "x.alg").write_text(text, "utf-8")
        for spelling in ("./x.alg", "d//x.alg", "x.alg/", "d/./x.alg", "./d/x.alg"):
            a = cli._load(spelling)
            assert a == qba.fixture("4") and a.label == "x", spelling
        for spelling, message in (
                ("./missing.alg", "[Errno 2] No such file or directory: 'missing.alg'"),
                ("d//missing.alg", "[Errno 2] No such file or directory: 'd/missing.alg'"),
                ("missing.alg/", "[Errno 2] No such file or directory: 'missing.alg'"),
                ("d", "[Errno 21] Is a directory: 'd'"),
                ("d/", "[Errno 21] Is a directory: 'd'"),
                ("", "[Errno 21] Is a directory: '.'")):
            with pytest.raises(qba.errors.QbaError) as info:
                cli._load(spelling)
            assert str(info.value) == f"cannot read {spelling}: {message}"

    def test_line_endings_and_a_bom_through_a_file(self, tmp_path):
        text = qba.dump_algebra(qba.fixture("6"))
        for name, data in (("crlf", text.replace("\n", "\r\n")),
                           ("cr", text.replace("\n", "\r"))):
            path = tmp_path / f"{name}.alg"
            path.write_bytes(data.encode("utf-8"))
            assert run(["validate", str(path)]) == CommandResult(
                0, "VALID QB-algebra (non-flat, 6 elements)")
        path = tmp_path / "bom.alg"
        path.write_bytes("\ufeff".encode("utf-8") + text.encode("utf-8"))
        assert run(["validate", str(path)]) == CommandResult(
            2, "error: line 1: byte-order mark (U+FEFF) before 'size N'")


class TestFileOutputs:
    def test_product_out_file(self, tmp_path):
        out = tmp_path / "p.alg"
        run(["product", fpath("2"), fpath("F5"), "-o", str(out)])
        loaded = qba.load_algebra(out.read_text())
        assert loaded.size == 10
        assert qba.validate(loaded).passed

    def test_congruences_of_a_product_file_read_back(self, tmp_path):
        # The names (x,y) of a product hold ','; every congruence printed
        # reads back through --seed and --cong.
        out = tmp_path / "p.alg"
        assert run(["product", fpath("2"), fpath("F3"), "-o", str(out)]).exit_code == 0
        result = run(["congruences", str(out)])
        assert result.exit_code == 0
        cons = result.output.splitlines()
        assert len(cons) == 17
        for text in cons:
            assert run(["generate", str(out), "--seed", text]) == CommandResult(0, text)
            assert run(["split", str(out), "--cong", text]).exit_code == 0

    def test_enumerate_emit(self, tmp_path):
        out = tmp_path / "emitted"
        result = run(["enumerate", "--size", "4", "--up-to-iso",
                      "--emit", str(out)])
        assert result.exit_code == 0
        files = sorted(p.name for p in out.glob("*.alg"))
        assert files == [f"qba_n4_{i}.alg" for i in range(4)]
        for p in out.glob("*.alg"):
            assert qba.validate(qba.load_algebra(p.read_text())).passed


class TestMainEntry:
    def test_main_prints_and_exits(self, capsys):
        from qba.cli import main
        code = main(["validate", fpath("4")])
        assert code == 0
        assert "VALID" in capsys.readouterr().out

    def test_main_errors_to_stderr(self, capsys):
        from qba.cli import main
        code = main(["validate", "missing.alg"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_version(self):
        assert run(["--version"]).exit_code == 0

    def test_reader_closing_early_is_not_an_error(self, tmp_path):
        # 21,147 congruences: more text than a pipe buffer holds.
        path = tmp_path / "F9.alg"
        path.write_text(qba.dump_algebra(qba.make_flat(9, 9)))
        env = dict(os.environ, PYTHONPATH=str(FIXDIR.parent.parent))
        with subprocess.Popen([sys.executable, "-m", "qba.cli", "congruences", str(path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"0;x1;x2;x3;x4;x5;x6;x7;x8\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""
