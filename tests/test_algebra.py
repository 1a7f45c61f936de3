"""Tables, axiom validation and the basic structure queries."""
import json
from itertools import product

import pytest

import qba
from qba.algebra import AXIOM_LABELS, axiom_holds_at, induced_fields, regular_split
from qba.errors import (AlgebraParseError, AlgebraSemanticError,
                        PreconditionViolated, QbaError)
from qba.partitions import Partition
from test_check_oracles import single_cell_mutants

TRIVIAL = """
size 1
names 0
zero 0
one 0
join
0
meet
0
star
0
"""


def names_of(a, elements):
    return sorted(a.names[x] for x in elements)


class TestLoading:
    def test_fixture_4_shape(self, fx):
        a = fx["4"]
        assert a.size == 4
        assert a.names == ("0", "a", "b", "1")
        assert a.zero == 0 and a.one == 3

    def test_flat_fixture_has_equal_constants(self, fx):
        a = fx["F3"]
        assert a.zero == a.one == 0

    def test_wrong_row_count_is_semantic_error(self):
        text = "\n".join([
            "size 4", "names 0 a b 1", "zero 0", "one 1", "join",
            "0 0 1 1", "0 0 1 1", "1 1 1 1",  # one row short
            "meet"] + ["0 0 0 0"] * 4 + ["star", "1 b a 0"])
        with pytest.raises(AlgebraSemanticError, match="dimensions"):
            qba.load_algebra(text)

    def test_wrong_row_width_is_semantic_error(self):
        text = "\n".join([
            "size 4", "names 0 a b 1", "zero 0", "one 1", "join",
            "0 0 1", "0 0 1 1", "1 1 1 1", "1 1 1 1",
            "meet"] + ["0 0 0 0"] * 4 + ["star", "1 b a 0"])
        with pytest.raises(AlgebraSemanticError, match="dimensions"):
            qba.load_algebra(text)

    def test_unknown_name_is_semantic_error(self):
        text = TRIVIAL.replace("zero 0", "zero q")
        with pytest.raises(AlgebraSemanticError, match="unknown name"):
            qba.load_algebra(text)

    def test_duplicate_names_rejected(self):
        text = "size 2\nnames 0 0\nzero 0\none 0\njoin\n0 0\n0 0\nmeet\n0 0\n0 0\nstar\n0 0"
        with pytest.raises(AlgebraSemanticError, match="duplicate"):
            qba.load_algebra(text)

    def test_missing_section_is_parse_error(self):
        with pytest.raises(AlgebraParseError):
            qba.load_algebra("size 1\nnames 0\nzero 0\n")

    def test_bad_keyword_is_parse_error(self):
        with pytest.raises(AlgebraParseError):
            qba.load_algebra(TRIVIAL.replace("join", "vee"))

    def test_trailing_content_is_parse_error(self):
        with pytest.raises(AlgebraParseError, match="trailing"):
            qba.load_algebra(TRIVIAL + "\nstar\n0\n")

    @pytest.mark.parametrize("old, new, error, message", [
        ("size 1", "sizes 1", AlgebraParseError, "line 2: expected 'size N'"),
        ("size 1", "size one", AlgebraParseError, "line 2: size is not an integer"),
        ("size 1", "size 0", AlgebraSemanticError, "size must be positive"),
        # int() would read each of these as 1.
        ("size 1", "size +1", AlgebraParseError, "line 2: size is not an integer"),
        ("size 1", "size 0_1", AlgebraParseError, "line 2: size is not an integer"),
        ("size 1", "size \u0661", AlgebraParseError, "line 2: size is not an integer"),
        ("names 0", "name 0", AlgebraParseError, "line 3: expected 'names ...'"),
        ("names 0", "names 0 1", AlgebraSemanticError, "line 3: expected 1 names, got 2"),
        ("zero 0", "zero", AlgebraParseError, "line 4: expected 'zero NAME'"),
    ])
    def test_header_errors(self, old, new, error, message):
        with pytest.raises(error) as info:
            qba.load_algebra(TRIVIAL.replace(old, new))
        assert str(info.value) == message

    # Sections of dump_algebra(fixture("4")) after the header: the line of
    # the keyword and the line of the section's last name.
    SECTION_LINES = {"zero": (3, 3), "one": (4, 4), "join": (5, 9),
                     "meet": (10, 14), "star": (15, 16)}

    @pytest.mark.parametrize("section, case, error, message", [
        ("zero", "keyword", AlgebraParseError, "line 3: expected 'zero NAME'"),
        ("zero", "eof before", AlgebraParseError,
         "unexpected end of file, expected 'zero NAME'"),
        ("zero", "eof inside", AlgebraParseError, "line 3: expected 'zero NAME'"),
        ("zero", "short", AlgebraParseError, "line 3: expected 'zero NAME'"),
        ("zero", "unknown", AlgebraSemanticError, "line 3: unknown name 'q'"),
        ("one", "keyword", AlgebraParseError, "line 4: expected 'one NAME'"),
        ("one", "eof before", AlgebraParseError,
         "unexpected end of file, expected 'one NAME'"),
        ("one", "eof inside", AlgebraParseError, "line 4: expected 'one NAME'"),
        ("one", "short", AlgebraParseError, "line 4: expected 'one NAME'"),
        ("one", "unknown", AlgebraSemanticError, "line 4: unknown name 'q'"),
        ("join", "keyword", AlgebraParseError, "line 5: expected 'join'"),
        ("join", "eof before", AlgebraParseError,
         "unexpected end of file, expected 'join'"),
        ("join", "eof inside", AlgebraParseError,
         "unexpected end of file, expected a join row"),
        ("join", "short", AlgebraSemanticError,
         "line 9: wrong table dimensions for join: expected 4 entries, got 3"),
        ("join", "unknown", AlgebraSemanticError, "line 9: unknown name 'q'"),
        ("meet", "keyword", AlgebraParseError, "line 10: expected 'meet'"),
        ("meet", "eof before", AlgebraParseError,
         "unexpected end of file, expected 'meet'"),
        ("meet", "eof inside", AlgebraParseError,
         "unexpected end of file, expected a meet row"),
        ("meet", "short", AlgebraSemanticError,
         "line 14: wrong table dimensions for meet: expected 4 entries, got 3"),
        ("meet", "unknown", AlgebraSemanticError, "line 14: unknown name 'q'"),
        ("star", "keyword", AlgebraParseError, "line 15: expected 'star'"),
        ("star", "eof before", AlgebraParseError,
         "unexpected end of file, expected 'star'"),
        ("star", "eof inside", AlgebraParseError,
         "unexpected end of file, expected a star row"),
        ("star", "short", AlgebraSemanticError,
         "line 16: wrong table dimensions for star: expected 4 entries, got 3"),
        ("star", "unknown", AlgebraSemanticError, "line 16: unknown name 'q'"),
    ])
    def test_section_errors(self, fx, section, case, error, message):
        lines = qba.dump_algebra(fx["4"]).splitlines()
        first, last = self.SECTION_LINES[section]
        if case == "keyword":
            lines[first - 1] = " ".join(["bogus", *lines[first - 1].split()[1:]])
        elif case == "eof before":
            del lines[first - 1:]
        elif case == "eof inside":  # a constant's keyword alone, a table short a row
            lines[last - 1:] = [section] if first == last else []
        else:  # the last name dropped, or replaced by one the algebra lacks
            kept = lines[last - 1].rsplit(" ", 1)[0]
            lines[last - 1] = kept if case == "short" else kept + " q"
        with pytest.raises(error) as info:
            qba.load_algebra("\n".join(lines))
        assert str(info.value) == message

    def test_trailing_content_names_its_line(self, fx):
        text = qba.dump_algebra(fx["4"]) + "\n# more\nstar\n1 b a 0\n"
        with pytest.raises(AlgebraParseError) as info:
            qba.load_algebra(text)
        assert str(info.value) == "line 19: trailing content"

    def test_line_endings_tabs_and_form_feeds(self, fx):
        # splitlines() ends a line at "\r\n", a lone "\r" and "\f" alike,
        # and split() cuts at tabs.
        text = qba.dump_algebra(fx["6"])
        for variant in (text.replace("\n", "\r\n"), text.replace("\n", "\r"),
                        text.replace("\n", "\f"), text.replace("\n", "\r\n\r"),
                        text.replace(" ", "\t"), text.replace(" ", " \t ")):
            assert qba.load_algebra(variant) == fx["6"]

    @pytest.mark.parametrize("text, message", [
        ("size\f4", "line 1: expected 'size N'"),
        ("\ufeffsize 4", "line 1: byte-order mark (U+FEFF) before 'size N'"),
        ("\ufeff\nsize 4", "line 1: byte-order mark (U+FEFF) before 'size N'"),
        ("size 4\r\nnames 0 a b\r1", "line 2: expected 4 names, got 3"),
        ("size 4\r\n\r\n# c\rnames 0 a\fb 1", "line 4: expected 4 names, got 2"),
    ])
    def test_breaks_and_a_bom_in_the_header(self, text, message):
        # A leading byte-order mark is refused by name, on a line of its own
        # or not.
        with pytest.raises(QbaError) as info:
            qba.load_algebra(text)
        assert str(info.value) == message

    def test_comments_and_blank_lines_between_rows(self, fx):
        lines = qba.dump_algebra(fx["4"]).splitlines()
        spaced = "\r\n".join(line + "\r\n# note\r\n\r\n" for line in lines)
        assert qba.load_algebra(spaced) == fx["4"]

    @pytest.mark.parametrize("section, line", [
        ("zero", 7), ("one", 10), ("join", 25), ("meet", 40), ("star", 46)])
    def test_unknown_name_counts_every_line(self, fx, section, line):
        # Each line of dump_algebra(4) is followed by a comment and a blank
        # line, so its k-th line is line 3k - 2; the name replaced is the
        # section's last.
        lines = qba.dump_algebra(fx["4"]).splitlines()
        last = self.SECTION_LINES[section][1]
        lines[last - 1] = lines[last - 1].rsplit(" ", 1)[0] + " q"
        text = "".join(f"{line}\n# note\n\n" for line in lines)
        with pytest.raises(AlgebraSemanticError) as info:
            qba.load_algebra(text)
        assert str(info.value) == f"line {line}: unknown name 'q'"

    @pytest.mark.parametrize("rows, message", [
        # An unknown name in a row wins over a later short row and over
        # the end of the file; a short row wins over its own unknown name.
        (["0 a b q", "a a 1"], "line 6: unknown name 'q'"),
        (["0 a b q"], "line 6: unknown name 'q'"),
        (["0 a q"], "line 6: wrong table dimensions for join: expected 4 entries, got 3"),
        (["0 a b 1", "q a"], "line 7: wrong table dimensions for join: expected 4 entries, got 2"),
        (["0 a b 1", "0 a b 1", "0 a b 1", "0 a b 1", "0 a b"],
         "line 10: expected 'meet'"),
    ])
    def test_the_first_fault_in_a_table_wins(self, rows, message):
        head = "size 4\nnames 0 a b 1\nzero 0\none 1\njoin\n"
        with pytest.raises(QbaError) as info:
            qba.load_algebra(head + "\n".join(rows))
        assert str(info.value) == message

    def test_dict_names_the_first_missing_table(self, fx):
        # Tables are read before constants, so join is named, not zero.
        d = qba.algebra_to_dict(fx["4"])
        del d["join"], d["zero"]
        with pytest.raises(AlgebraSemanticError) as info:
            qba.algebra_from_dict(d)
        assert str(info.value) == "missing key 'join'"

    def test_dict_with_unknown_name(self, fx):
        d = qba.algebra_to_dict(fx["4"])
        d["star"] = ["1", "b", "q", "0"]
        with pytest.raises(AlgebraSemanticError) as info:
            qba.algebra_from_dict(d)
        assert str(info.value) == "unknown name 'q'"

    def test_dict_without_a_key(self, fx):
        d = qba.algebra_to_dict(fx["4"])
        del d["join"]
        with pytest.raises(AlgebraSemanticError) as info:
            qba.algebra_from_dict(d)
        assert str(info.value) == "missing key 'join'"

    @pytest.mark.parametrize("star", [5, None, [["0"], "b", "a", "1"]])
    def test_dict_with_a_star_not_made_of_names(self, fx, star):
        d = qba.algebra_to_dict(fx["4"])
        d["star"] = star
        with pytest.raises(AlgebraSemanticError) as info:
            qba.algebra_from_dict(d)
        assert str(info.value) == "malformed star"

    @pytest.mark.parametrize("key, row", [("names", None), ("join", 2),
                                          ("star", None)])
    def test_dict_refuses_a_string_for_a_list_of_names(self, fx, key, row):
        # Each name of fixture 4 is one character, so a string of them
        # would read as the list.
        d = qba.algebra_to_dict(fx["4"])
        if row is None:
            d[key] = "".join(d[key])
        else:
            d[key][row] = "".join(d[key][row])
        with pytest.raises(AlgebraSemanticError) as info:
            qba.algebra_from_dict(d)
        assert str(info.value) == f"malformed {key}"

    SEPARATOR_ERROR = "^names must not contain ';', '=' or '>'$"

    @pytest.mark.parametrize("name", ["a;x", "a=x", "a>x", ";", "x="])
    def test_separator_in_a_name_is_refused(self, fx, name):
        # Partition texts split at ';', pairs at '=' and links at '>', so
        # a name holding one would not read back.
        a = fx["4"]
        names = ("0", name, "b", "1")
        with pytest.raises(AlgebraSemanticError, match=self.SEPARATOR_ERROR):
            qba.FiniteAlgebra(names, a.join, a.meet, a.star, a.zero, a.one)
        text = qba.dump_algebra(a).replace(" a ", f" {name} ")
        assert f"names 0 {name} b 1" in text
        with pytest.raises(AlgebraSemanticError, match=self.SEPARATOR_ERROR):
            qba.load_algebra(text)
        d = json.loads(json.dumps(qba.algebra_to_dict(a))
                       .replace('"a"', json.dumps(name)))
        assert d["names"] == list(names)
        with pytest.raises(AlgebraSemanticError, match=self.SEPARATOR_ERROR):
            qba.algebra_from_dict(d)

    @pytest.mark.parametrize("names,refused", [
        (("0", "a", "b", "a,b"), "a,b"),
        (("0", "a", "b", "b,a,b"), "b,a,b"),
        (("0", "a", "a,b,0", "b,0"), "a,b,0"),
        (("0", "a", "b", "a,c"), None),
        (("0", "a", "a,", "b"), None),
        (("0", "a,b", "b", "1"), None),
    ])
    def test_a_name_joined_from_others_is_refused(self, fx, names, refused):
        # parse_names reads a text by its splits into names, so a name
        # joined from other names would make every text of it ambiguous.
        a = fx["4"]
        new = dict(zip(a.names, names))

        def renamed(v):
            return list(map(renamed, v)) if isinstance(v, list) else new.get(v, v)
        text = "\n".join(" ".join(map(renamed, line.split()))
                         for line in qba.dump_algebra(a).splitlines())
        d = {key: renamed(v) for key, v in qba.algebra_to_dict(a).items()}
        assert f"names {' '.join(names)}" in text and d["names"] == list(names)
        if refused is None:
            assert qba.load_algebra(text).names == names
            assert qba.algebra_from_dict(d).names == names
            return
        message = f"^name '{refused}' is other names joined by ','$"
        for build, arg in ((qba.load_algebra, text), (qba.algebra_from_dict, d)):
            with pytest.raises(AlgebraSemanticError, match=message):
                build(arg)

    def test_comments_and_blank_lines_ignored(self, fx):
        text = "# header\n\n" + qba.dump_algebra(fx["4"]) + "\n# trailing comment\n"
        assert qba.load_algebra(text) == fx["4"]

    def test_roundtrip_exact(self, fx):
        for a in fx.values():
            assert qba.load_algebra(qba.dump_algebra(a)) == a

    def test_dict_roundtrip(self, fx):
        for a in fx.values():
            assert qba.algebra_from_dict(qba.algebra_to_dict(a)) == a

    def test_fields_given_as_lists_are_kept_as_tuples(self, fx):
        for a in fx.values():
            listed = qba.FiniteAlgebra(
                list(a.names), [list(row) for row in a.join], list(map(list, a.meet)),
                list(a.star), a.zero, a.one)
            assert hash(listed) == hash(a) and listed == a
            assert qba.load_algebra(qba.dump_algebra(listed)) == listed
            assert qba.algebra_from_dict(qba.algebra_to_dict(listed)) == listed
            assert all(type(row) is tuple for row in listed.join + listed.meet)
            # Tuple input is kept as the very object.
            keys = ("names", "join", "meet", "star")
            again = qba.FiniteAlgebra(*(getattr(listed, key) for key in keys), a.zero, a.one)
            assert all(getattr(again, key) is getattr(listed, key) for key in keys)

    def test_trivial_algebra_accepted(self):
        a = qba.load_algebra(TRIVIAL)
        assert a.size == 1
        assert qba.validate(a).passed
        assert qba.is_flat(a)


class TestEntryTypes:
    @pytest.mark.parametrize("bad", [0.5, 1.0, "1", None, [1]])
    @pytest.mark.parametrize("where", ["join", "meet", "star", "zero", "one"])
    def test_non_integer_is_semantic_error(self, fx, where, bad):
        a = fx["4"]
        args = {"names": a.names, "join": a.join, "meet": a.meet,
                "star": a.star, "zero": a.zero, "one": a.one}
        if where in ("join", "meet"):
            row = args[where][1]
            args[where] = ((args[where][0], row[:2] + (bad,) + row[3:])
                           + args[where][2:])
        elif where == "star":
            args["star"] = a.star[:2] + (bad,) + a.star[3:]
        else:
            args[where] = bad
        with pytest.raises(AlgebraSemanticError,
                           match=f"^{where}( entry)? is not an integer$"):
            qba.FiniteAlgebra(**args)


class TestMalformedShapes:
    """Inputs only the Python API can pass; each was a bare TypeError or
    AttributeError."""

    ONE = {"names": ("0",), "join": ((0,),), "meet": ((0,),), "star": (0,),
           "zero": 0, "one": 0}

    def test_row_without_length(self):
        with pytest.raises(AlgebraSemanticError, match="^wrong table dimensions for join$"):
            qba.FiniteAlgebra(**{**self.ONE, "join": (0,)})

    def test_star_without_length(self):
        with pytest.raises(AlgebraSemanticError, match="^wrong table dimensions for star$"):
            qba.FiniteAlgebra(**{**self.ONE, "star": 5})

    def test_name_not_a_string(self, fx):
        a = fx["2"]
        with pytest.raises(AlgebraSemanticError, match="^names must be strings$"):
            qba.FiniteAlgebra((0, "1"), a.join, a.meet, a.star, a.zero, a.one)

    @pytest.mark.parametrize("names", [5, (["0"],)])
    def test_names_not_a_sequence_of_hashables(self, names):
        with pytest.raises(AlgebraSemanticError, match="^names must be strings$"):
            qba.FiniteAlgebra(**{**self.ONE, "names": names})


class TestInducedFields:
    def test_identity_rebuilds_every_fixture(self, fx):
        for a in fx.values():
            fields = induced_fields(a, a.elements(), a.elements())
            assert qba.FiniteAlgebra(a.names, **fields) == a

    @staticmethod
    def by_hand(a, elements, image):
        """The induced fields written out one by one."""
        return {"join": tuple(tuple(image[a.join[x][y]] for y in elements)
                              for x in elements),
                "meet": tuple(tuple(image[a.meet[x][y]] for y in elements)
                              for x in elements),
                "star": tuple(image[a.star[x]] for x in elements),
                "zero": image[a.zero], "one": image[a.one]}

    def test_subset_gives_the_subalgebra(self, fx):
        for a in fx.values():
            for s in qba.subalgebras(a):
                local = {g: i for i, g in enumerate(s)}
                fields = induced_fields(a, s, local)
                assert fields == self.by_hand(a, s, local)
                sub = qba.subalgebra(a, s)
                assert fields == {key: getattr(sub, key) for key in fields}

    def test_class_map_gives_the_quotient(self, fx):
        for a in fx.values():
            for theta in qba.all_congruences(a):
                q, f = qba.quotient(a, theta)
                reps = [block[0] for block in theta.blocks]
                fields = induced_fields(a, reps, f.mapping)
                assert fields == self.by_hand(a, reps, f.mapping)
                assert fields == {key: getattr(q, key) for key in fields}


class TestValidate:
    def test_all_fixtures_pass(self, fx):
        for name, a in fx.items():
            report = qba.validate(a)
            assert report.passed, (name, report.violations)

    def test_mutated_join_cell_fails(self, fx):
        a = fx["4"]
        join = [list(row) for row in a.join]
        join[1][2] = 1  # a v b becomes a
        mutant = qba.FiniteAlgebra(a.names, tuple(map(tuple, join)), a.meet,
                                   a.star, a.zero, a.one)
        report = qba.validate(mutant)
        assert not report.passed
        for label, witness in report.violations:
            assert not axiom_holds_at(mutant, label, witness)

    def test_witnesses_reevaluate_false(self, fx):
        a = fx["4"]
        # scramble the star table so several axioms fail at once
        mutant = qba.FiniteAlgebra(a.names, a.join, a.meet, (1, 0, 2, 3),
                                   a.zero, a.one)
        report = qba.validate(mutant)
        assert not report.passed
        assert len(report.violations) >= 2
        for label, witness in report.violations:
            assert label in AXIOM_LABELS
            assert not axiom_holds_at(mutant, label, witness)

    def test_one_witness_per_axiom(self, fx):
        a = fx["4"]
        mutant = qba.FiniteAlgebra(a.names, a.meet, a.join, a.star,
                                   a.zero, a.one)  # swap join and meet
        report = qba.validate(mutant)
        labels = [label for label, _ in report.violations]
        assert len(labels) == len(set(labels))

    def test_axiom_holds_at_rejects_bad_input(self, fx):
        with pytest.raises(ValueError):
            axiom_holds_at(fx["4"], "QL9", (0,))
        with pytest.raises(ValueError):
            axiom_holds_at(fx["4"], "QL5", (0, 1))
        # Entries outside the carrier: -1 would read the last element.
        for witness in ((-1,), (9,), ("x",)):
            with pytest.raises(ValueError):
                axiom_holds_at(fx["4"], "QL5", witness)


class TestQueries:
    def test_regular_elements(self, fx):
        assert names_of(fx["4"], qba.regular_elements(fx["4"])) == ["0", "1"]
        assert names_of(fx["A"], qba.regular_elements(fx["A"])) == ["0", "1", "a", "f"]
        assert names_of(fx["F3"], qba.regular_elements(fx["F3"])) == ["0"]

    def test_is_flat(self, fx):
        assert qba.is_flat(fx["F3"])
        assert not qba.is_flat(fx["4"])
        assert not qba.is_flat(fx["6"])

    def test_quasi_leq_examples(self, fx):
        a = fx["4"]
        ia, ib = a.index_of("a"), a.index_of("b")
        assert qba.quasi_leq(a, ia, ib)
        # not antisymmetric: a <= 0 and 0 <= a although a != 0
        assert qba.quasi_leq(a, ia, a.zero)
        assert qba.quasi_leq(a, a.zero, ia)

    def test_quasi_leq_reflexive_and_transitive(self, fx):
        for a in fx.values():
            leq = {(x, y) for x in a.elements() for y in a.elements()
                   if qba.quasi_leq(a, x, y)}
            assert all((x, x) in leq for x in a.elements())
            assert all((x, z) in leq
                       for (x, y) in leq for (y2, z) in leq if y == y2)

    def test_quasi_leq_disagreement_is_typed_error(self, fx):
        a = fx["4"]
        ia = a.index_of("a")
        meet = [list(row) for row in a.meet]
        meet[a.zero][ia] = a.one  # 0 ^ a no longer equals 0 ^ 0
        mutant = qba.FiniteAlgebra(a.names, a.join, tuple(map(tuple, meet)),
                                   a.star, a.zero, a.one)
        with pytest.raises(PreconditionViolated):
            qba.quasi_leq(mutant, a.zero, ia)

    def test_quasi_leq_bounds(self, fx):
        for a in fx.values():
            for x in a.elements():
                assert qba.quasi_leq(a, a.zero, x)
                assert qba.quasi_leq(a, x, a.one)

    def test_cloud_examples(self, fx):
        a4, a6, f3 = fx["4"], fx["6"], fx["F3"]
        assert names_of(a4, qba.cloud_of(a4, a4.index_of("a"))) == ["0", "a"]
        assert names_of(a6, qba.cloud_of(a6, a6.index_of("e"))) == ["0", "a", "e"]
        for x in f3.elements():
            assert qba.cloud_of(f3, x) == frozenset(f3.elements())

    def test_diagonal_helpers_on_tables_that_fail_the_axioms(self, fx):
        # These helpers read only the diagonal x v x, so they keep their
        # meaning on any table; each is written out here by its definition.
        for a in (m for f in fx.values() for m in single_cell_mutants(f)):
            n, diag = a.size, [a.join[x][x] for x in a.elements()]
            regs = frozenset(x for x in range(n) if diag[x] == x)
            clouds = {diag[x]: frozenset(y for y in range(n) if diag[y] == diag[x])
                      for x in range(n)}
            assert qba.regular_elements(a) == regs
            assert regular_split(a) == (sorted(regs), [x for x in range(n) if diag[x] != x])
            assert [qba.cloud_of(a, x) for x in range(n)] == [clouds[d] for d in diag]
            assert list(qba.cloud_map(a).items()) == list(clouds.items())
            assert qba.chi(a) == Partition.from_pairs(n, [
                (x, y) for x, y in product(range(n), repeat=2) if diag[x] == diag[y]])
            assert qba.tau(a) == Partition.from_pairs(n, [
                (x, y) for x, y in product(regs, repeat=2)])


class TestStructuralInvariants:
    def test_star_is_involution(self, fx):
        for a in fx.values():
            assert all(a.star[a.star[x]] == x for x in a.elements())

    def test_star_swaps_bounds(self, fx):
        for a in fx.values():
            if qba.is_flat(a):
                assert a.star[a.zero] == a.zero
            else:
                assert a.star[a.one] == a.zero
                assert a.star[a.zero] == a.one

    def test_monotonicity(self, fx):
        for a in fx.values():
            pairs = [(x, y) for x in a.elements() for y in a.elements()
                     if qba.quasi_leq(a, x, y)]
            for x, y in pairs:
                for u, v in pairs:
                    assert qba.quasi_leq(a, a.meet[x][u], a.meet[y][v])
                    assert qba.quasi_leq(a, a.join[x][u], a.join[y][v])

    def test_antitonicity(self, fx):
        for a in fx.values():
            for x in a.elements():
                for y in a.elements():
                    if qba.quasi_leq(a, x, y):
                        assert qba.quasi_leq(a, a.star[y], a.star[x])

    def test_clouds_partition_with_unique_regular(self, fx):
        for a in fx.values():
            regs = qba.regular_elements(a)
            clouds = {qba.cloud_of(a, x) for x in a.elements()}
            assert sum(len(c) for c in clouds) == a.size
            for c in clouds:
                assert len(c & regs) == 1

    def test_star_maps_clouds_to_clouds(self, fx):
        for a in fx.values():
            for x in a.elements():
                r = a.join[x][x]
                image = frozenset(a.star[y] for y in qba.cloud_of(a, x))
                assert image == qba.cloud_of(a, a.star[r])
                assert len(image) == len(qba.cloud_of(a, x))

    def test_nonflat_star_has_no_fixed_point(self, fx):
        for a in fx.values():
            if not qba.is_flat(a):
                assert all(a.star[x] != x for x in a.elements())
                for r in qba.regular_elements(a):
                    assert not (qba.cloud_of(a, r)
                                & qba.cloud_of(a, a.star[r]))

    def test_flat_operations_collapse(self, fx):
        for name in ("F3", "F5"):
            a = fx[name]
            assert all(v == a.zero for row in a.join for v in row)
            assert all(v == a.zero for row in a.meet for v in row)
