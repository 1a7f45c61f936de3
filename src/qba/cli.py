"""Command-line front end.

Exit codes: 0 success, 1 negative-but-valid result (an INVALID equation, a
failed validation, no isomorphism), 2 usage or input errors. The
subcommands whose results rest on the paper's theorems, the gated rows of
_COMMANDS, refuse an algebra that fails the axioms with exit 1 and the
output of validate. Every subcommand takes --json for a machine-readable
form of the same result.
All element references on the command line use names, never indices.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from operator import eq
from pathlib import Path

from . import __version__
from .algebra import (FiniteAlgebra, ValidationReport, algebra_to_dict,
                      dump_algebra, is_flat, load_algebra, regular_elements,
                      regular_split, require_valid)
from .congruences import (CongruenceDecomposition, all_congruences,
                          compose_flat, compose_nonflat, cross_pairs,
                          decompose, extend_from_subalgebra,
                          generated_congruence, split_congruence, subalgebra)
from .enumeration import enumerate_all, enumerate_flat
from .errors import NotAQBAlgebra, QbaError
from .partitions import (format_blocks, format_partition, pair_closure_gaps,
                         parse_names, parse_part, parse_partition,
                         position_in_part)
from .quotients import (chi, class_names, direct_product, find_isomorphism,
                        is_irreducible, quotient, tau)
from .terms import VARIETIES, Verdict, decide, holds_in, parse_equation


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    output: str


def _load(path: str) -> FiniteAlgebra:
    """The algebra in a file. Path normalises the spelling, so an error
    names 'x.alg' for './x.alg', and 'x.alg/' reads the file. A file that
    cannot be read or is not UTF-8 is an input error (exit 2)."""
    p = Path(path)
    try:
        with open(p, "rb", buffering=0) as f:
            text = f.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise QbaError(f"cannot read {path}: {exc}") from None
    return load_algebra(text, label=p.stem)


def _write(path: Path, text: str, *, make_parent: bool = False) -> None:
    """Write text to path, first making its directory when asked. An
    unwritable path is an input error (exit 2), like an unreadable one."""
    try:
        if make_parent:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, "utf-8")
    except OSError as exc:
        raise QbaError(f"cannot write {path}: {exc}") from None


def _verdict_lines(v: Verdict) -> tuple[dict, str]:
    if v.valid:
        return {"valid": True}, "VALID"
    w = v.witness
    assign = ", ".join(f"{k}={val}" for k, val in w.assignment) or "(no variables)"
    human = (f"INVALID in {w.algebra}: {assign} gives "
             f"{w.lhs_value} on the left, {w.rhs_value} on the right")
    payload = {"valid": False, "witness": {
        "assignment": dict(w.assignment), "lhs": w.lhs_value,
        "rhs": w.rhs_value, "algebra": w.algebra}}
    return payload, human


def _validation_lines(a: FiniteAlgebra,
                      report: ValidationReport) -> tuple[dict, str]:
    """What validate prints, also for a refused algebra."""
    kind = "flat" if is_flat(a) else "non-flat"
    if report.passed:
        human = f"VALID QB-algebra ({kind}, {a.size} elements)"
    else:
        lines = [f"INVALID: {len(report.violations)} axiom violation(s)"]
        lines += [f"  {label} at ({', '.join(a.names[i] for i in w)})"
                  for label, w in report.violations]
        human = "\n".join(lines)
    payload = {"algebra": a.label, "size": a.size, "flat": is_flat(a),
               "passed": report.passed,
               "violations": [{"axiom": label,
                               "witness": [a.names[i] for i in w]}
                              for label, w in report.violations]}
    return payload, human


def _cmd_validate(args, a):
    report = a.validation
    return (0 if report.passed else 1, *_validation_lines(a, report))


def _cmd_info(args, a):
    report = a.validation
    regs, _ = regular_split(a)
    clouds = chi(a).blocks
    irreducible = None if is_flat(a) else is_irreducible(a)
    lines = [
        f"algebra {a.label or '(unnamed)'}: {a.size} elements",
        f"names: {' '.join(a.names)}",
        f"zero: {a.names[a.zero]}  one: {a.names[a.one]}",
        f"axioms: {'pass' if report.passed else 'FAIL'}",
        f"flat: {'yes' if is_flat(a) else 'no'}",
        f"regular elements: {{{', '.join(a.names[x] for x in regs)}}}",
        "clouds: " + " ".join("{" + ",".join(a.names[x] for x in c) + "}"
                              for c in clouds),
    ]
    if not is_flat(a):
        lines.append(f"irreducible: {'yes' if irreducible else 'no'}")
    if a.size == 1:
        lines.append("note: trivial one-element algebra")
    payload = {"algebra": a.label, "size": a.size,
               "names": list(a.names),
               "zero": a.names[a.zero], "one": a.names[a.one],
               "passed": report.passed, "flat": is_flat(a),
               "regular": [a.names[x] for x in regs],
               "clouds": [[a.names[x] for x in c] for c in clouds],
               "irreducible": irreducible,
               "trivial": a.size == 1}
    return 0, payload, "\n".join(lines)


def _cmd_quotient(args, a):
    rel = chi(a) if args.rel == "chi" else tau(a)
    q, proj = quotient(a, rel)
    q = q.relabel(f"{a.label}/{args.rel}")
    human = dump_algebra(q) + "map: " + " ".join(
        f"{a.names[x]}->{q.names[proj(x)]}" for x in a.elements())
    payload = {"relation": args.rel, "algebra": algebra_to_dict(q),
               "projection": {a.names[x]: q.names[proj(x)]
                              for x in a.elements()}}
    return 0, payload, human


def _cmd_product(args, a, b):
    p = direct_product(a, b)
    if args.out:
        _write(Path(args.out), dump_algebra(p))
    payload = {"algebra": algebra_to_dict(p)}
    return 0, payload, dump_algebra(p).rstrip("\n")


def _cmd_iso(args, a, b):
    f = find_isomorphism(a, b)
    if f is None:
        return 1, {"isomorphic": False}, "NOT ISOMORPHIC"
    human = "isomorphic: " + " ".join(
        f"{a.names[x]}->{b.names[f(x)]}" for x in a.elements())
    payload = {"isomorphic": True,
               "map": {a.names[x]: b.names[f(x)] for x in a.elements()}}
    return 0, payload, human


def _cmd_check(args, a):
    v = holds_in(a, parse_equation(args.equation))
    return (0 if v.valid else 1, *_verdict_lines(v))


def _cmd_decide(args):
    v = decide(args.variety, parse_equation(args.equation))
    payload, human = _verdict_lines(v)
    payload["variety"] = args.variety
    return 0 if v.valid else 1, payload, human


def _cmd_congruences(args, a):
    cons = all_congruences(a)
    strings = [format_partition(a, p) for p in cons]
    return 0, {"congruences": strings}, "\n".join(strings)


def _name_pairs(text: str, sep: str, kind: str, form: str):
    """The two names of each non-empty ';'-chunk 'left<sep>right', one
    chunk at a time, so the caller resolves them in text order."""
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, found, right = chunk.partition(sep)
        if not found:
            raise QbaError(f"{kind} {chunk!r} is not of the form {form}")
        yield left.strip(), right.strip()


def _cmd_generate(args, a):
    if (args.seed is None) == (args.pairs is None):
        raise QbaError("exactly one of --seed and --pairs is required")
    note = None
    if args.seed is not None:
        seed = [(b[0], x) for b in parse_partition(a, args.seed).blocks
                for x in b[1:]]
    else:
        seed = [(a.index_of(x), a.index_of(y))
                for x, y in _name_pairs(args.pairs, "=", "pair", "name=name")]
        gaps = pair_closure_gaps(a.size, seed)
        if gaps:
            note = ("input pairs are not transitively closed; closure added: "
                    + "; ".join(f"{a.names[p]}={a.names[q]}"
                                for p, q in gaps if p < q))
    result = generated_congruence(a, seed)
    text = format_partition(a, result)
    human = text if note is None else f"{text}\nnote: {note}"
    return 0, {"congruence": text, "note": note}, human


def _cmd_extend(args, a):
    subset = sorted(parse_names(a, args.sub, a.elements()))
    sub_alg = subalgebra(a, subset)
    theta0 = parse_partition(sub_alg, args.cong)
    ext = extend_from_subalgebra(a, subset, theta0)
    text = format_partition(a, ext)
    return 0, {"congruence": text}, text


def _cmd_split(args, a):
    theta = parse_partition(a, args.cong)
    t1, t2 = split_congruence(a, theta)
    s1 = format_blocks(class_names(a, chi(a)), t1.blocks)
    s2 = format_blocks(class_names(a, tau(a)), t2.blocks)
    human = f"theta1 on {a.label}/chi: {s1}\ntheta2 on {a.label}/tau: {s2}"
    return 0, {"theta1": s1, "theta2": s2}, human


def _cmd_decompose(args, a):
    theta = parse_partition(a, args.cong)
    d = decompose(a, theta)
    regs, irs = regular_split(a)
    r_names, ir_names = [a.names[x] for x in regs], [a.names[x] for x in irs]
    r_blocks, ir_blocks = d.theta_r.blocks, d.theta_ir.blocks
    fmt_r = format_blocks(r_names, r_blocks)
    fmt_ir = format_blocks(ir_names, ir_blocks)
    linked = sorted(format_blocks(r_names, r_blocks[b:b + 1]) for b in d.linked)
    fmap = {format_blocks(r_names, r_blocks[b:b + 1]):
            format_blocks(ir_names, ir_blocks[img:img + 1]) for b, img in d.f}
    cross = sorted(f"{a.names[p]}={a.names[q]}" for p, q in d.cross if p < q)
    human = "\n".join([
        f"theta_r (regular part): {fmt_r}",
        f"theta_ir (irregular part): {fmt_ir}",
        f"linked blocks: {'; '.join(linked) if linked else '(none)'}",
        "f: " + ("; ".join(f"{k} -> {v}" for k, v in sorted(fmap.items()))
                 if fmap else "(empty)"),
        f"cross pairs: {'; '.join(cross) if cross else '(none)'}",
    ])
    payload = {"theta_r": fmt_r, "theta_ir": fmt_ir, "linked": linked,
               "f": fmap, "cross": cross}
    return 0, payload, human


def _cmd_compose(args, a):
    regs, irs = regular_split(a)
    if is_flat(a):
        if args.theta_ir is None:
            raise QbaError("flat composition needs --theta-ir")
        result = compose_flat(a, parse_part(a, args.theta_ir, irs))
    else:
        if args.theta_r is None or args.theta_ir is None:
            raise QbaError("non-flat composition needs --theta-r and --theta-ir")
        theta_r = parse_part(a, args.theta_r, regs)
        theta_ir = parse_part(a, args.theta_ir, irs)
        f: dict[int, int] = {}
        for x, y in _name_pairs(args.link or "", ">", "link", "reg>irr"):
            rb = theta_r.block_index(position_in_part(a, x, regs))
            ib = theta_ir.block_index(position_in_part(a, y, irs))
            if f.setdefault(rb, ib) != ib:
                cls = format_blocks([a.names[x] for x in regs], [theta_r.blocks[rb]])
                raise QbaError(f"regular class {cls!r} is linked to two irregular classes")
        d = CongruenceDecomposition(
            theta_r=theta_r, theta_ir=theta_ir,
            linked=frozenset(f), f=tuple(sorted(f.items())),
            cross=cross_pairs(a, theta_r, theta_ir, f.items()))
        result = compose_nonflat(a, d)
    text = format_partition(a, result)
    return 0, {"congruence": text}, text


def _cmd_enumerate(args):
    if args.size < 1:
        raise QbaError("--size must be positive")
    report = (enumerate_flat(args.size, args.up_to_iso) if args.flat
              else enumerate_all(args.size, args.up_to_iso))
    lines = [f"size {report.size} flat_only={report.flat_only} "
             f"up_to_iso={report.up_to_iso} labeled={report.total_labeled} "
             f"emitted={len(report.iso_classes)} "
             f"violations={len(report.violations)}"]
    join = regs = None
    for i, a in enumerate(report.iso_classes):
        if a.join is not join:  # a family of star-only copies shares it
            join, regs = a.join, len(regular_elements(a))
        lines.append(f"  [{i}] {'flat' if is_flat(a) else 'non-flat'} "
                     f"regulars={regs} "
                     f"star_fixed={sum(map(eq, a.star, a.elements()))}")
    if args.emit:
        out = Path(args.emit)
        for i, a in enumerate(report.iso_classes):
            _write(out / f"qba_n{report.size}_{i}.alg", dump_algebra(a),
                   make_parent=True)
        lines.append(f"wrote {len(report.iso_classes)} files to {out}")
    payload = {"size": report.size, "flat_only": report.flat_only,
               "up_to_iso": report.up_to_iso,
               "total_labeled": report.total_labeled,
               "emitted": len(report.iso_classes),
               "violations": [lbl for lbl, _ in report.violations]}
    return 0, payload, "\n".join(lines)


_ALGEBRA, _PAIR = ("algebra",), ("left", "right")
_CONG = ((("--cong",), {"required": True}),)

# One row per subcommand, in the order of `qba --help`: name, help,
# handler, the algebra files it reads, whether it refuses a file that
# fails the axioms, and its other arguments as (flags, options) for
# add_argument. run() reads the files and renders the result; a handler
# takes the parsed arguments and the algebras, in file order, and returns
# (exit code, JSON payload, human text).
_COMMANDS = (
    ("validate", "check every axiom of an algebra file", _cmd_validate,
     _ALGEBRA, False, ()),
    ("info", "summarize an algebra", _cmd_info, _ALGEBRA, False, ()),
    ("quotient", "quotient by a canonical congruence", _cmd_quotient,
     _ALGEBRA, True, ((("--rel",), {"choices": ("chi", "tau"), "required": True}),)),
    ("product", "direct product of two algebras", _cmd_product, _PAIR, False,
     ((("-o", "--out"), {"help": "also write the result to a file"}),)),
    ("iso", "search for an isomorphism", _cmd_iso, _PAIR, True, ()),
    ("check", "check an equation in one algebra", _cmd_check, _ALGEBRA, False,
     ((("equation",), {}),)),
    ("decide", "decide an equation in a variety", _cmd_decide, (), False,
     ((("--variety",), {"choices": VARIETIES, "required": True}),
      (("equation",), {}))),
    ("congruences", "list all congruences", _cmd_congruences, _ALGEBRA, True, ()),
    ("generate", "least congruence containing the seed", _cmd_generate,
     _ALGEBRA, True,
     ((("--seed",), {"help": "partition whose blocks are pre-merged"}),
      (("--pairs",), {"help": "explicit pairs, e.g. 'a=b;c=d'"}))),
    ("extend", "extend a subalgebra congruence", _cmd_extend, _ALGEBRA, True,
     ((("--sub",), {"required": True, "help": "subalgebra elements, e.g. 0,a,b,1"}),
      (("--cong",), {"required": True, "help": "congruence on the subalgebra"}))),
    ("split", "project a congruence through chi and tau", _cmd_split,
     _ALGEBRA, True, _CONG),
    ("decompose", "split a congruence into regular/irregular/cross parts",
     _cmd_decompose, _ALGEBRA, True, _CONG),
    ("compose", "reassemble a congruence from its parts", _cmd_compose,
     _ALGEBRA, True,
     ((("--theta-r",), {"help": "partition of the regular elements"}),
      (("--theta-ir",), {"help": "partition of the irregular elements"}),
      (("--link",), {"help": "block map, e.g. '0>a;1>b'"}))),
    ("enumerate", "enumerate small algebras", _cmd_enumerate, (), False,
     ((("--size",), {"type": int, "required": True}),
      (("--flat",), {"action": "store_true"}),
      (("--up-to-iso",), {"action": "store_true"}),
      (("--emit",), {"help": "write each emitted algebra to this directory"}))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qba", description="finite quasi-Boolean algebra workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, fn, files, gated, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn, files=files, gated=gated)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        for dest in files:
            p.add_argument(dest, help="algebra file" if dest == "algebra" else None)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process for run(); parsing leaves it unchanged."""
    return build_parser()


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """The parsed argv. When it starts with a known subcommand, that
    subcommand's parser reads the rest alone, as the main parser would
    hand it every later argument anyway. Any other argv goes through the
    main parser, and so does one holding '--=...', which the main parser
    refuses as an ambiguous option before the subcommand sees it."""
    parser = _shared_parser()
    if argv is None:
        argv = sys.argv[1:]
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    if (not argv or argv[0] not in sub.choices
            or any(arg.startswith("--=") for arg in argv)):
        return parser.parse_args(argv)
    args, extras = sub.choices[argv[0]].parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def run(argv: list[str] | None = None) -> CommandResult:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return CommandResult(int(exc.code or 0), "")
    try:
        algebras = []
        for dest in args.files:
            # Each file is gated as soon as it is read, so a refused first
            # file wins over an unreadable second one.
            algebras.append(_load(getattr(args, dest)))
            if args.gated:
                require_valid(algebras[-1])
        code, payload, human = args.fn(args, *algebras)
    except NotAQBAlgebra as exc:
        code, (payload, human) = 1, _validation_lines(exc.algebra, exc.report)
    except QbaError as exc:
        return CommandResult(2, f"error: {exc}")
    return CommandResult(code, json.dumps(payload, indent=2, sort_keys=True)
                         if args.json else human)


def main(argv: list[str] | None = None) -> int:
    result = run(argv)
    if result.output:
        stream = sys.stderr if result.exit_code == 2 else sys.stdout
        try:
            print(result.output, file=stream, flush=True)
        except BrokenPipeError:
            # The reader left early; the flush at exit goes to devnull.
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
