"""Fuzzing qba.cli.run: any argv drawn from the subcommands, the bundled
fixtures (six elements or fewer), single-cell mutants of them, a file that
is not UTF-8, odd spellings of a path and random equation and partition
text ends in exit code 0, 1 or 2, never in an exception.

The options that write files (-o/--out, --emit) are never drawn, and no
drawn text contains '-', so argparse cannot expand a prefix into one.
"""
import os
import random
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import qba
from qba.cli import run
from qba.terms import Const, Equation, Join, Meet, Star, Var, format_equation

FIXDIR = Path(__file__).resolve().parent.parent / "src" / "qba" / "data"
FIXTURES = {str(FIXDIR / f"{name}.alg"): a.names for name, a in qba.all_fixtures().items()}
MISSING = str(FIXDIR / "missing.alg")
MUTANTS_PER_FIXTURE = 6
MUTANT_DIR = tempfile.TemporaryDirectory(prefix="qba-fuzz-")  # removed at exit


def single_cell_mutant(a, rng):
    """a with one join, meet or star entry set to another element."""
    n = a.size
    x, y = rng.randrange(n), rng.randrange(n)
    fields = {"join": a.join, "meet": a.meet, "star": a.star}
    what = rng.choice(sorted(fields))
    old = a.star[x] if what == "star" else fields[what][x][y]
    v = rng.choice([v for v in range(n) if v != old])
    if what == "star":
        fields["star"] = a.star[:x] + (v,) + a.star[x + 1:]
    else:
        row = fields[what][x]
        fields[what] = fields[what][:x] + (row[:y] + (v,) + row[y + 1:],) + fields[what][x + 1:]
    return qba.FiniteAlgebra(a.names, fields["join"], fields["meet"], fields["star"],
                             a.zero, a.one)


def write_mutants() -> dict[str, tuple[str, ...]]:
    """A seeded sample of single-cell mutants of each fixture, written once
    as algebra files; their paths mapped to their element names."""
    rng = random.Random(0)
    out = {}
    for name, a in qba.all_fixtures().items():
        for i in range(MUTANTS_PER_FIXTURE):
            p = Path(MUTANT_DIR.name) / f"{name}_m{i}.alg"
            p.write_text(qba.dump_algebra(single_cell_mutant(a, rng)), "utf-8")
            out[str(p)] = a.names
    return out


def write_undecodable() -> str:
    """Fixture 4 with a saved in Latin-1: the bytes are not UTF-8."""
    a = qba.fixture("4")
    p = Path(MUTANT_DIR.name) / "latin1.alg"
    p.write_bytes(qba.dump_algebra(qba.FiniteAlgebra(
        ("0", "\xe9", "b", "1"), a.join, a.meet, a.star, a.zero, a.one)).encode("latin-1"))
    return str(p)


MUTANTS = write_mutants()
UNDECODABLE = write_undecodable()
# Spellings that Path normalises: a '.' part, a doubled or trailing '/',
# a path relative to the working directory, and a directory.
FOUR = str(FIXDIR / "4.alg")
SPELLINGS = {f"{FIXDIR}/./4.alg": FIXTURES[FOUR], f"{FIXDIR}//4.alg": FIXTURES[FOUR],
             FOUR + "/": FIXTURES[FOUR], "./" + os.path.relpath(FOUR): FIXTURES[FOUR],
             str(FIXDIR): ()}
NAMES = {**FIXTURES, **MUTANTS, **SPELLINGS}

path = st.sampled_from(sorted(FIXTURES) + sorted(MUTANTS) + [MISSING, UNDECODABLE]
                       + sorted(SPELLINGS))
term = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("z"), Const(0), Const(1)]),
    lambda inner: st.one_of(st.builds(Join, inner, inner), st.builds(Meet, inner, inner),
                            st.builds(Star, inner)),
    max_leaves=8,
)
equation = st.one_of(
    st.builds(Equation, term, term).map(format_equation),
    st.text(alphabet="xy01()'=\\/ ", max_size=20),
    st.lists(st.sampled_from(["x", "y", "z", "0", "1", "'", "(", ")", " \\/ ",
                              " /\\ ", " = "]), max_size=12).map("".join),
)
size = st.integers(-1, 6).map(str)
# Sizes past the labeled guards come only with --up-to-iso: a labeled flat
# size 14 takes seconds.
iso_size = st.sampled_from(["7", "16", "17"]).map(
    lambda n: ("--size", n, "--up-to-iso"))


def partition(names):
    """Element names joined by the separators of partitions, pairs and
    links: distinct names, so that some of them parse, or any names with
    any separators."""
    def joined(parts):  # no separator after the last name
        return "".join(nm + sep for nm, sep in parts[:-1]) + "".join(nm for nm, _ in parts[-1:])

    return st.one_of(
        st.lists(st.sampled_from(names), unique=True, max_size=4).flatmap(
            lambda picked: st.tuples(*(st.tuples(st.just(nm), st.sampled_from(",;=>"))
                                       for nm in picked))).map(joined),
        st.lists(st.tuples(st.sampled_from(names),
                           st.sampled_from([",", ";", "=", ">", " ", ""])),
                 max_size=6).map(joined),
    )


def pairs(names, sep):
    """The form of --pairs (sep '=') and --link (sep '>'): name pairs
    joined by ';'."""
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names)).map(sep.join)
    return st.lists(pair, min_size=1, max_size=3).map(";".join)


def malformed(names):
    """Partition and link text with an empty name, a name in two blocks,
    or two links from one class."""
    name = st.sampled_from(names)
    return st.one_of(
        st.tuples(name, name).map(",,".join),
        name.map(lambda nm: nm + ","),
        st.tuples(name, name).map(lambda t: f"{t[0]};{t[1]},{t[0]}"),
        st.tuples(name, name, name).map(lambda t: f"{t[0]}>{t[1]};{t[0]}>{t[2]}"),
    )


def one_in(k, value):
    """value with probability 1/k, else its negation."""
    return st.sampled_from([not value] * (k - 1) + [value])


def opt(flag, value):
    return st.tuples(st.just(flag), value)


def shapes(main, names):
    """Each subcommand with the arguments it takes, on the algebra file
    main whose element names are names."""
    part = partition(names)
    part_or_bad = st.one_of(part, malformed(names))
    return {
        "validate": [main],
        "info": [main],
        "quotient": [main, opt("--rel", st.sampled_from(["chi", "tau", "rho"]))],
        "product": [main, path],
        "iso": [main, path],
        "check": [main, equation],
        "decide": [opt("--variety", st.sampled_from(["qb", "fqb", "b", "mv"])), equation],
        "congruences": [main],
        "generate": [main, st.one_of(opt("--seed", part),
                                     opt("--pairs", st.one_of(pairs(names, "="), part)))],
        "extend": [main, opt("--sub", part), opt("--cong", part)],
        "split": [main, opt("--cong", part)],
        "decompose": [main, opt("--cong", part)],
        "compose": [main, opt("--theta-r", part_or_bad), opt("--theta-ir", part_or_bad),
                    opt("--link", st.one_of(pairs(names, ">"), part_or_bad))],
        "enumerate": [st.one_of(opt("--size", size), iso_size), st.just("--flat"),
                      st.just("--up-to-iso")],
        "frobnicate": [],
    }


@st.composite
def argv(draw):
    main = draw(path)
    names = list(NAMES.get(main, ())) + ["zz"]
    table = shapes(st.just(main), names)
    command = draw(st.sampled_from(sorted(table)))
    # Each argument is dropped with probability 1/10, a stray one joins
    # them with probability 1/4, and one draw in four is shuffled, so usage
    # errors are drawn as well as commands that run. Each choice shrinks
    # towards the well-formed command.
    parts = [draw(part) for part in table[command] if draw(one_in(10, False))]
    if draw(one_in(4, True)):
        parts.append(draw(st.one_of(path, equation, partition(names), size,
                                    st.sampled_from(["--json", "--version"]))))
    if draw(one_in(4, True)):
        parts = draw(st.permutations(parts))
    return [command] + [tok for part in parts
                        for tok in (part if isinstance(part, tuple) else (part,))]


@settings(max_examples=200, deadline=None)
@given(argv())
@example(["validate", UNDECODABLE])
@example(["iso", FOUR, UNDECODABLE])
def test_run_never_raises(args):
    assert run(args).exit_code in (0, 1, 2)


def test_every_mutant_fails_the_axioms():
    assert len(MUTANTS) == 42
    assert all(run(["validate", p]).exit_code == 1 for p in MUTANTS)


def test_gated_subcommands_refuse_every_mutant():
    # The gate runs before any other argument is read, so empty partitions
    # (all singletons) and a subalgebra of the constants do.
    gated = (["quotient", "--rel", "chi"], ["quotient", "--rel", "tau"],
             ["split", "--cong", ""], ["decompose", "--cong", ""],
             ["compose", "--theta-r", "", "--theta-ir", ""], ["extend", "--sub", "", "--cong", ""],
             ["congruences"], ["generate", "--seed", ""],
             ["iso", str(FIXDIR / "4.alg")])
    for p in MUTANTS:
        for as_json in ([], ["--json"]):
            expected = run(["validate", p] + as_json)
            for argv in gated:
                assert run(argv[:1] + [p] + as_json + argv[1:]) == expected, (p, argv)
