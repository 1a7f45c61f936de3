"""The three workloads: enumerate, congruences and desk.

Each workload builds its inputs from the seed in ``__init__`` (part of
set-up), warms up in ``warm_up`` and runs one pass of jobs per
``run_pass``. A full pass is the same multiset of jobs every time; only
the order is drawn from the seed. A light pass leaves out the few jobs
that take 0.1 s or more at the seed, so that the short jobs are sampled
more often (see metrics.Runner). Checks use ``oracle`` and never the code
under test, and run after each job's timer has stopped.
"""
from __future__ import annotations

import contextlib
import io
import random
import re
from functools import partial
from pathlib import Path

import oracle as o
from metrics import BUILDING, INTERPRETING, Failed

DATA = Path(__file__).resolve().parent / "data"
FIXTURES = ("2", "4", "4bar", "6", "A", "F3", "F5")

# Labeled and class counts of enumerate_all(n), recorded from the seed
# program. test_perfbench checks the classes against the flat class count
# plus hand counts of non-flat classes (2, 0 and 3 at n = 4, 5, 6), and
# the labeled counts by orbit-stabilizer.
RECORDED_ALL = {1: (1, 1), 2: (2, 2), 3: (2, 2), 4: (13, 4), 5: (10, 3), 6: (206, 6)}

# Congruence counts of the non-flat, non-Boolean congruence inputs, which
# no relabeling changes; test_perfbench recounts them by brute force.
RECORDED_CONGRUENCES = {"4": 5, "4bar": 5, "6": 17, "A": 9, "2xF3": 17,
                        "2xF5": 391, "4x2": 26}


def own(name: str) -> o.Table:
    return o.parse((DATA / f"{name}.alg").read_text("utf-8"))


def table_of(a) -> o.Table:
    return o.Table(a.names, a.join, a.meet, a.star, a.zero, a.one)


def shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Failed(what)


def partitions_digest(cons) -> int:
    return hash(tuple(p.blocks for p in cons))


# ---------------------------------------------------------------------------

class Enumerate:
    """Labeled and up-to-isomorphism enumeration, general and flat."""

    LIGHT_PASSES = 2
    REFERENCE = BUILDING

    def __init__(self, qba, rng: random.Random, workdir: Path):
        self.qba, self.rng = qba, rng
        # Labeled flat enumeration stops at n = 11. At n = 12 one call takes
        # 2.4-4.6 s, and on a shared machine its speed swings by a quarter from
        # run to run; that single job set the throughput of the workload.
        self.jobs = ([("all", n, iso) for n in range(1, 7) for iso in (False, True)]
                     + [("flat", n, False) for n in range(1, 12)]
                     + [("flat", n, True) for n in range(1, 17)])

    def warm_up(self) -> None:
        self.qba.enumerate_all(4, True)
        self.qba.enumerate_flat(6, False)

    def run_pass(self, runner, light: bool = False) -> None:
        jobs = [j for j in self.jobs if not (light and is_heavy_enumeration(*j))]
        self.rng.shuffle(jobs)
        for kind, n, iso in jobs:
            fn = self.qba.enumerate_all if kind == "all" else self.qba.enumerate_flat
            runner.job(f"enumerate_{kind}({n}, up_to_iso={iso})", fn, n, iso,
                       items=lambda r: len(r.iso_classes),
                       check=partial(check_enumeration, kind, n, iso))


def is_heavy_enumeration(kind: str, n: int, iso: bool) -> bool:
    return n == 6 if kind == "all" else n >= 10 and not iso


def check_enumeration(kind: str, n: int, iso: bool, r) -> None:
    algs = r.iso_classes
    expect(not r.violations, f"{len(r.violations)} structure violations")
    expect(r.size == n and r.up_to_iso == iso, "report header does not match the call")
    if kind == "flat":
        labeled = o.involution_count(n - 1)
        zeros = ((0,) * n,) * n
        for a in algs:
            s = a.star
            expect(a.size == n and a.zero == a.one == 0 and s[0] == 0
                   and a.join == zeros and a.meet == zeros
                   and all(s[s[x]] == x for x in range(n)), "not a flat algebra")
        if iso:
            fixed = sorted(sum(1 for x in range(n) if a.star[x] == x) for a in algs)
            expect(fixed == list(range(2 - n % 2, n + 1, 2)),
                   f"fixed-point counts {fixed} are not one per class")
            want = (n - 1) // 2 + 1
        else:
            expect(len({a.star for a in algs}) == len(algs), "repeated labeled algebra")
            want = labeled
    else:
        labeled, classes = RECORDED_ALL[n]
        for a in algs:
            expect(a.zero == 0 and o.axioms_hold(table_of(a)), "emitted algebra fails the axioms")
        if not iso:
            expect(len({table_of(a) for a in algs}) == len(algs), "repeated labeled algebra")
        want = classes if iso else labeled
    expect(r.total_labeled == labeled, f"total_labeled {r.total_labeled}, expected {labeled}")
    expect(len(algs) == want, f"emitted {len(algs)}, expected {want}")


# ---------------------------------------------------------------------------

def congruence_inputs() -> dict[str, o.Table]:
    f = {name: own(name) for name in FIXTURES}
    ins = {name: f[name] for name in ("4", "4bar", "6", "A", "F3", "F5")}
    ins["2xF3"] = o.product_of(f["2"], f["F3"])
    ins["2xF5"] = o.product_of(f["2"], f["F5"])
    ins["4x2"] = o.product_of(f["4"], f["2"])
    ins["B8"] = o.boolean(3)
    for k in (2, 4, 6, 8, 10):
        ins[f"F10k{k}"] = o.flat(10, k)
    return ins


MAX_EVERY_SUB = 16   # proper subalgebras up to which every sub-congruence is extended
SAMPLED_SUBS = 16    # above it: subalgebras drawn, of the sizes sampled_sizes gives
SAMPLED_THETAS = 4   # and congruences drawn in each


def sampled_sizes(t: o.Table, count: int) -> range:
    """Where every partition is a congruence, the searches on 7-element
    subalgebras all cost the same whatever the draw. They cost more than
    those on the subalgebras of 2xF5, and the tail percentile falls inside
    their cluster. Elsewhere the cost of a 6-element search depends on the
    draw, so the draw is among subalgebras of at most 5 elements."""
    return range(7, 8) if count == o.bell(t.size) else range(1, 6)


class Congruences:
    """Congruence search, subalgebras, extension, split and decomposition."""

    LIGHT_PASSES = 1
    REFERENCE = BUILDING

    def __init__(self, qba, rng: random.Random, workdir: Path):
        self.qba, self.rng = qba, rng
        self.seed = rng.random()
        self.inputs = []
        for name, t in congruence_inputs().items():
            t = o.permute(t, shuffled(rng, t.size))
            a = qba.load_algebra(o.dump(t), label=name)
            self.inputs.append({"name": name, "t": t, "a": a, "chosen": None, "cons": None,
                                "count": o.congruence_count(t, RECORDED_CONGRUENCES.get(name))})

    def warm_up(self) -> None:
        self.qba.all_congruences(self.inputs[0]["a"])

    def run_pass(self, runner, light: bool = False) -> None:
        order = list(self.inputs)
        self.rng.shuffle(order)
        for inp in order:
            self._jobs_on(runner, inp, light)

    def _jobs_on(self, runner, inp, light: bool) -> None:
        q = self.qba
        name, t, a = inp["name"], inp["t"], inp["a"]
        if light and t.size == 10:  # a search over Bell(10) partitions
            cons = inp["cons"]
        else:
            cons = runner.job(f"all_congruences {name}", q.all_congruences, a, items=len,
                              check=partial(check_congruences, t, inp["count"]),
                              digest=partitions_digest)
        if cons is not None and not o.is_flat(t):
            inp["cons"] = cons  # the jobs below need it in light passes too
            for i, theta in enumerate(cons):
                runner.job(f"round_trip {name} #{i}", round_trip, q, a, theta,
                           items=lambda r: 1, digest=lambda r: r.blocks,
                           check=partial(check_blocks, theta.blocks))
                runner.job(f"split {name} #{i}", q.split_congruence, a, theta,
                           items=lambda r: 2, digest=lambda r: (r[0].blocks, r[1].blocks),
                           check=partial(check_split, t, theta.blocks))
        del cons  # a large result left alive would slow the collector in later jobs
        subs = runner.job(f"subalgebras {name}", q.subalgebras, a,
                          digest=lambda r: tuple(r), check=partial(check_subalgebras, t))
        if subs is None:
            return
        if inp["chosen"] is None:
            inp["chosen"] = self.choose(name, t, subs, sampled_sizes(t, inp["count"]))
        for s, picks in inp["chosen"].items():
            sub = q.subalgebra(a, s)
            scons = runner.job(f"all_congruences {name}|{s}", q.all_congruences, sub,
                               items=len, digest=partitions_digest,
                               check=partial(check_sub_congruences, o.induced(t, s)))
            if scons is None:
                continue
            if picks is None:
                picks = range(len(scons))
            elif not picks:
                picks = inp["chosen"][s] = sorted(random.Random(f"{self.seed}{name}{s}").sample(
                    range(len(scons)), min(SAMPLED_THETAS, len(scons))))
            for i in picks:
                runner.job(f"extend {name}|{s}|#{i}", q.extend_from_subalgebra, a, s,
                           scons[i], items=lambda r: 1, digest=lambda r: r.blocks,
                           check=partial(check_extend, t, s, scons[i].blocks))

    def choose(self, name: str, t: o.Table, subs, sizes: range) -> dict:
        """Subalgebras whose congruences get extended, and which congruences:
        None for all of them, [] for a seeded sample drawn on first use."""
        proper = [tuple(s) for s in subs if len(s) < t.size]
        if len(proper) <= MAX_EVERY_SUB:
            return {s: None for s in proper}
        rng = random.Random(f"{self.seed}{name}")
        small = [s for s in proper if len(s) in sizes]
        return {s: [] for s in rng.sample(small, min(SAMPLED_SUBS, len(small)))}


def round_trip(q, a, theta):
    return q.compose_nonflat(a, q.decompose(a, theta))


def check_congruences(t: o.Table, want: int, cons) -> None:
    blocks = [p.blocks for p in cons]
    expect(len(blocks) == want, f"{len(blocks)} congruences, expected {want}")
    expect(blocks == sorted(set(blocks)), "congruences repeated or out of order")
    expect(all(p.size == t.size for p in cons), "partition of the wrong carrier")
    star_only = o.constant_ops(t)
    expect(all(o.is_congruence(t, b, star_only) for b in blocks),
           "a returned partition is not a congruence")


def check_sub_congruences(t: o.Table, cons) -> None:
    star_only = o.constant_ops(t)
    want = [b for b in o.set_partitions(t.size) if o.is_congruence(t, b, star_only)]
    expect([p.blocks for p in cons] == sorted(want), "congruences of a subalgebra differ")


def check_blocks(want, p) -> None:
    expect(p.blocks == want, "round trip changed the congruence")


def check_split(t: o.Table, blocks, result) -> None:
    _, _, w1, w2 = o.split(t, blocks)
    expect(result[0].blocks == w1 and result[1].blocks == w2, "split projections differ")


def check_subalgebras(t: o.Table, subs) -> None:
    expect([tuple(s) for s in subs] == o.subalgebras(t), "subalgebra list differs")


def check_extend(t: o.Table, s, theta0, ext) -> None:
    want = o.generated(t, [(s[x], s[y]) for b in theta0 for x in b for y in b])
    expect(ext.blocks == want, "extension is not the generated congruence")


# ---------------------------------------------------------------------------

def exact(code: int, text: str, result) -> None:
    expect(result.exit_code == code, f"exit {result.exit_code}, expected {code}")
    expect(result.output == text, f"output {result.output[:120]!r}, expected {text[:120]!r}")


def lazy_exact(make, result) -> None:
    code, text = make()
    exact(code, text, result)


def usage_error(result) -> None:
    expect(result.exit_code == 2, f"exit {result.exit_code}, expected 2")
    expect(result.output == "" or result.output.startswith("error: "),
           f"unexpected output {result.output[:120]!r}")


def first_line(text: str, result) -> None:
    expect(result.exit_code == 0, f"exit {result.exit_code}")
    expect(result.output.split("\n", 1)[0] == text, f"first line is not {text!r}")


def verdict_text(t: o.Table, label: str, lhs, rhs) -> tuple[int, str]:
    w = o.first_witness(t, lhs, rhs)
    if w is None:
        return 0, "VALID"
    _, names, values, lv, rv = w
    assign = ", ".join(f"{n}={t.names[v]}" for n, v in zip(names, values)) or "(no variables)"
    return 1, (f"INVALID in {label}: {assign} gives {t.names[lv]} on the left, "
               f"{t.names[rv]} on the right")


def chain(op: str, names) -> tuple:
    term = ("var", names[0])
    for nm in names[1:]:
        term = (op, term, ("var", nm))
    return term


DEEP_NESTING = 1200
DECIDE_PER_VARIETY = 12


class Desk:
    """One CLI command after another, each parsing its algebra file cold."""

    LIGHT_PASSES = 2
    # argparse, the term parser and the recursive evaluator allocate little.
    REFERENCE = INTERPRETING

    def __init__(self, qba, rng: random.Random, workdir: Path):
        self.cli = qba.cli
        self.rng = rng
        workdir.mkdir(parents=True, exist_ok=True)
        self.tables = {name: own(name) for name in FIXTURES}
        path = {}
        for name, t in self.tables.items():
            path[name] = str(workdir / f"{name}.alg")
            Path(path[name]).write_text(o.dump(t), "utf-8")
            twin = o.permute(t, shuffled(rng, t.size))
            Path(workdir / f"{name}_p.alg").write_text(o.dump(twin), "utf-8")
        bad_header = workdir / "bad_header.alg"
        bad_header.write_text(o.dump(self.tables["4"]).replace("size", "sise"), "utf-8")
        bad_name = workdir / "bad_name.alg"
        bad_name.write_text(o.dump(self.tables["4"]).replace("star\n1", "star\nq"), "utf-8")

        jobs = []

        def add(key, argv, check, known_defect=None, heavy=False):
            jobs.append((key, argv, check, known_defect, heavy))

        for name, t in self.tables.items():
            self._file_jobs(add, name, t, path[name], str(workdir / f"{name}_p.alg"),
                            path["2"], random.Random(f"{rng.random()}{name}"))
        add("enumerate 6", ["enumerate", "--size", "6"], partial(
            first_line, "size 6 flat_only=False up_to_iso=False labeled=206 emitted=206 violations=0"),
            heavy=True)
        add("enumerate 8 flat", ["enumerate", "--size", "8", "--flat"], partial(
            first_line, f"size 8 flat_only=True up_to_iso=False labeled={o.involution_count(7)} "
                        f"emitted={o.involution_count(7)} violations=0"))
        add("enumerate 9 flat iso", ["enumerate", "--size", "9", "--flat", "--up-to-iso"], partial(
            first_line, f"size 9 flat_only=True up_to_iso=True labeled={o.involution_count(8)} "
                        "emitted=5 violations=0"))
        for variety, gen in (("qb", "4"), ("fqb", "F3"), ("b", "2")):
            for i in range(DECIDE_PER_VARIETY):
                lhs, rhs = o.random_term(rng, 3), o.random_term(rng, 3)
                add(f"decide {variety} #{i}",
                    ["decide", "--variety", variety, f"{o.render(lhs)} = {o.render(rhs)}"],
                    partial(lazy_exact, partial(verdict_text, self.tables[gen], gen, lhs, rhs)))
        x1 = ("var", "x1")
        for name in ("6", "A"):
            for k in range(1, 7):
                xs = [f"x{i}" for i in range(1, k + 1)]
                for op in ("join", "meet"):
                    if k > 1:    # QL1 and QL2
                        lhs, rhs = chain(op, xs), chain(op, xs[::-1])
                    elif op == "join":  # QL5
                        lhs, rhs = ("join", x1, x1), ("meet", x1, x1)
                    else:        # QB5
                        lhs, rhs = ("star", ("star", x1)), x1
                    add(f"check {name} valid {op} k={k}",
                        ["check", path[name], f"{o.render(lhs)} = {o.render(rhs)}"],
                        partial(exact, 0, "VALID"), heavy=k == 6)
        # On 6 the meet of k variables is 0 unless all of them lie in the
        # top cloud, which comes last in element order: the first witness
        # sits about 60% of the way into the n^k scan.
        for k in range(2, 7):
            meet = chain("meet", [f"x{i}" for i in range(1, k + 1)])
            for lhs, rhs in ((meet, ("const", 0)), (("star", meet), ("const", 1))):
                add(f"check 6 late witness {o.render(rhs)} k={k}",
                    ["check", path["6"], f"{o.render(lhs)} = {o.render(rhs)}"],
                    partial(lazy_exact, partial(verdict_text, self.tables["6"], "6", lhs, rhs)),
                    heavy=k == 6)
        add("malformed missing file", ["validate", str(workdir / "missing.alg")], usage_error)
        add("malformed header", ["validate", str(bad_header)], usage_error)
        add("malformed unknown name", ["info", str(bad_name)], usage_error)
        add("malformed equation", ["check", path["6"], "x \\/ = y"], usage_error)
        add("malformed partition", ["split", path["6"], "--cong", "0,zz"], usage_error)
        add("malformed subcommand", ["frobnicate"], usage_error)
        add("malformed size", ["enumerate", "--size", "17", "--flat"], usage_error)
        add("malformed seed and pairs", ["generate", path["6"], "--seed", "0,a", "--pairs", "0=a"],
            usage_error)
        add(f"deep_nesting_{DEEP_NESTING}",
            ["decide", "--variety", "qb", "(" * DEEP_NESTING + "x" + ")" * DEEP_NESTING + " = x"],
            usage_error, known_defect="RecursionError")
        self.jobs = jobs

    def _file_jobs(self, add, name: str, t: o.Table, path: str, twin: str, two: str,
                   rng: random.Random) -> None:
        n, names = t.size, t.names
        flat = o.is_flat(t)
        add(f"validate {name}", ["validate", path], partial(
            exact, 0, f"VALID QB-algebra ({'flat' if flat else 'non-flat'}, {n} elements)"))
        add(f"info {name}", ["info", path], partial(check_info, t))
        regs = o.regulars(t)
        irs = [x for x in range(n) if x not in regs]
        clouds = len({t.join[x][x] for x in range(n)})
        add(f"quotient {name} chi", ["quotient", path, "--rel", "chi"],
            partial(first_line, f"size {clouds}"))
        add(f"quotient {name} tau", ["quotient", path, "--rel", "tau"],
            partial(first_line, f"size {1 + len(irs)}"))
        add(f"product {name} 2", ["product", path, two], partial(first_line, f"size {2 * n}"))
        add(f"iso {name}", ["iso", path, twin], partial(check_iso, t, o.parse(Path(twin).read_text())))
        add(f"check {name}", ["check", path, "x \\/ y = y \\/ x"], partial(exact, 0, "VALID"))
        add(f"congruences {name}", ["congruences", path], partial(check_congruence_list, t))
        p, q = rng.sample(range(n), 2)
        add(f"generate {name}", ["generate", path, "--pairs", f"{names[p]}={names[q]}"],
            partial(exact, 0, o.fmt(names, o.generated(t, [(p, q)]))))
        s = o.closure_set(t, [rng.choice([x for x in range(n) if x != t.zero])])
        sub = o.induced(t, s)
        theta0 = o.generated(sub, [tuple(rng.sample(range(len(s)), 2))])
        add(f"extend {name}", ["extend", path, "--sub", ",".join(names[g] for g in s),
                               "--cong", o.fmt(sub.names, theta0)],
            partial(exact, 0, o.fmt(names, o.generated(
                t, [(s[x], s[y]) for b in theta0 for x in b for y in b]))))
        pool = [x for x in range(n) if x != t.zero] if flat else list(range(n))
        theta = o.generated(t, [tuple(rng.sample(pool, 2))])
        cong = o.fmt(names, theta)
        chi, tau, w1, w2 = o.split(t, theta)
        add(f"split {name}", ["split", path, "--cong", cong], partial(
            exact, 0, f"theta1 on {name}/chi: {o.fmt([f'[{names[b[0]]}]' for b in chi], w1)}\n"
                      f"theta2 on {name}/tau: {o.fmt([f'[{names[b[0]]}]' for b in tau], w2)}"))
        ir_names = [names[x] for x in irs]
        theta_ir = o.restrict(theta, irs)
        if flat:
            add(f"decompose {name}", ["decompose", path, "--cong", cong], usage_error)
            add(f"compose {name}", ["compose", path, "--theta-ir", o.fmt(ir_names, theta_ir)],
                partial(exact, 0, cong))
            return
        reg_names = [names[x] for x in regs]
        theta_r = o.restrict(theta, regs)
        m = o.member_of(theta)
        local_ir = o.member_of(theta_ir)
        linked, fmap, links = [], {}, []
        for block in theta_r:
            members = {regs[i] for i in block}
            witnesses = [w for w in irs if t.join[w][w] in members and m[t.join[w][w]] == m[w]]
            if witnesses:
                w = min(witnesses)
                key = ",".join(reg_names[i] for i in block)
                linked.append(key)
                fmap[key] = ",".join(ir_names[i] for i in theta_ir[local_ir[irs.index(w)]])
                links.append(f"{reg_names[block[0]]}>{names[w]}")
        rset = set(regs)
        cross = sorted(f"{names[a]}={names[b]}" for blk in theta for a in blk for b in blk
                       if a < b and (a in rset) != (b in rset))
        add(f"decompose {name}", ["decompose", path, "--cong", cong], partial(exact, 0, "\n".join([
            f"theta_r (regular part): {o.fmt(reg_names, theta_r)}",
            f"theta_ir (irregular part): {o.fmt(ir_names, theta_ir)}",
            f"linked blocks: {'; '.join(sorted(linked)) if linked else '(none)'}",
            "f: " + ("; ".join(f"{k} -> {v}" for k, v in sorted(fmap.items())) if fmap else "(empty)"),
            f"cross pairs: {'; '.join(cross) if cross else '(none)'}"])))
        argv = ["compose", path, "--theta-r", o.fmt(reg_names, theta_r),
                "--theta-ir", o.fmt(ir_names, theta_ir)]
        if links:
            argv += ["--link", ";".join(links)]
        add(f"compose {name}", argv, partial(exact, 0, cong))

    def _call(self, argv):
        # argparse prints usage errors to stderr itself; keep them out of the report.
        with contextlib.redirect_stderr(io.StringIO()):
            return self.cli.run(argv)

    def warm_up(self) -> None:
        self._call(["validate", self.jobs[0][1][1]])

    def run_pass(self, runner, light: bool = False) -> None:
        jobs = [j for j in self.jobs if not (light and j[4])]
        self.rng.shuffle(jobs)
        for key, argv, check, known_defect, _ in jobs:
            runner.job(key, self._call, argv, items=lambda r: 1, check=check,
                       known_defect=known_defect)


def check_info(t: o.Table, result) -> None:
    expect(result.exit_code == 0, f"exit {result.exit_code}")
    lines = result.output.split("\n")
    expect("axioms: pass" in lines, "axioms not reported as passing")
    expect(f"flat: {'yes' if o.is_flat(t) else 'no'}" in lines, "flatness misreported")
    want = "regular elements: {" + ", ".join(t.names[x] for x in o.regulars(t)) + "}"
    expect(want in lines, "regular elements misreported")


def check_iso(a: o.Table, b: o.Table, result) -> None:
    expect(result.exit_code == 0, f"exit {result.exit_code}")
    m = re.fullmatch(r"isomorphic: (.*)", result.output)
    expect(m is not None, "no isomorphism reported")
    pairs = dict(tok.split("->") for tok in m.group(1).split())
    f = [b.names.index(pairs[a.names[x]]) for x in range(a.size)]
    r = range(a.size)
    expect(sorted(f) == list(r) and f[a.zero] == b.zero and f[a.one] == b.one
           and all(f[a.star[x]] == b.star[f[x]] for x in r)
           and all(f[a.join[x][y]] == b.join[f[x]][f[y]] and f[a.meet[x][y]] == b.meet[f[x]][f[y]]
                   for x in r for y in r), "reported map is not an isomorphism")


def check_congruence_list(t: o.Table, result) -> None:
    want = sorted(b for b in o.set_partitions(t.size) if o.is_congruence(t, b))
    exact(0, "\n".join(o.fmt(t.names, b) for b in want), result)


WORKLOADS = {"enumerate": Enumerate, "congruences": Congruences, "desk": Desk}
