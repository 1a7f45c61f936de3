"""Command-line front end.

Exit codes: 0 success, 1 negative-but-valid result (an INVALID equation, a
failed validation, no isomorphism), 2 usage or input errors. The
subcommands whose results rest on the paper's theorems (quotient, iso,
congruences, generate, extend, split, decompose, compose) refuse an
algebra that fails the axioms with exit 1 and the output of validate.
Every subcommand takes --json for a machine-readable form of the same
result.
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
                      require_valid, validate)
from .congruences import (CongruenceDecomposition, all_congruences,
                          compose_flat, compose_nonflat, cross_pairs,
                          decompose, extend_from_subalgebra,
                          generated_congruence, regular_split,
                          split_congruence, subalgebra)
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
    p = Path(path)
    try:
        text = p.read_text("utf-8")
    except OSError as exc:
        raise QbaError(f"cannot read {path}: {exc}") from None
    return load_algebra(text, label=p.stem)


def _load_valid(path: str) -> FiniteAlgebra:
    """_load, then refuse an algebra that fails the axioms (exit 1)."""
    a = _load(path)
    require_valid(a)
    return a


def _write(path: Path, text: str, *, make_parent: bool = False) -> None:
    """Write text to path, first making its directory when asked. An
    unwritable path is an input error (exit 2), like an unreadable one."""
    try:
        if make_parent:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, "utf-8")
    except OSError as exc:
        raise QbaError(f"cannot write {path}: {exc}") from None


def _emit(payload: dict, human: str, as_json: bool) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) if as_json else human


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


def _validation_output(a: FiniteAlgebra, report: ValidationReport,
                       as_json: bool) -> str:
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
    return _emit(payload, human, as_json)


def _cmd_validate(args) -> CommandResult:
    a = _load(args.algebra)
    report = validate(a)
    return CommandResult(0 if report.passed else 1,
                         _validation_output(a, report, args.json))


def _cmd_info(args) -> CommandResult:
    a = _load(args.algebra)
    report = validate(a)
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
    return CommandResult(0, _emit(payload, "\n".join(lines), args.json))


def _cmd_quotient(args) -> CommandResult:
    a = _load_valid(args.algebra)
    rel = chi(a) if args.rel == "chi" else tau(a)
    q, proj = quotient(a, rel)
    q = q.relabel(f"{a.label}/{args.rel}")
    human = dump_algebra(q) + "map: " + " ".join(
        f"{a.names[x]}->{q.names[proj(x)]}" for x in a.elements())
    payload = {"relation": args.rel, "algebra": algebra_to_dict(q),
               "projection": {a.names[x]: q.names[proj(x)]
                              for x in a.elements()}}
    return CommandResult(0, _emit(payload, human, args.json))


def _cmd_product(args) -> CommandResult:
    a, b = _load(args.left), _load(args.right)
    p = direct_product(a, b)
    if args.out:
        _write(Path(args.out), dump_algebra(p))
    payload = {"algebra": algebra_to_dict(p)}
    return CommandResult(0, _emit(payload, dump_algebra(p).rstrip("\n"), args.json))


def _cmd_iso(args) -> CommandResult:
    a, b = _load_valid(args.left), _load_valid(args.right)
    f = find_isomorphism(a, b)
    if f is None:
        return CommandResult(1, _emit({"isomorphic": False}, "NOT ISOMORPHIC",
                                      args.json))
    human = "isomorphic: " + " ".join(
        f"{a.names[x]}->{b.names[f(x)]}" for x in a.elements())
    payload = {"isomorphic": True,
               "map": {a.names[x]: b.names[f(x)] for x in a.elements()}}
    return CommandResult(0, _emit(payload, human, args.json))


def _cmd_check(args) -> CommandResult:
    a = _load(args.algebra)
    v = holds_in(a, parse_equation(args.equation))
    payload, human = _verdict_lines(v)
    return CommandResult(0 if v.valid else 1, _emit(payload, human, args.json))


def _cmd_decide(args) -> CommandResult:
    v = decide(args.variety, parse_equation(args.equation))
    payload, human = _verdict_lines(v)
    payload["variety"] = args.variety
    return CommandResult(0 if v.valid else 1, _emit(payload, human, args.json))


def _cmd_congruences(args) -> CommandResult:
    a = _load_valid(args.algebra)
    cons = all_congruences(a)
    strings = [format_partition(a, p) for p in cons]
    return CommandResult(0, _emit({"congruences": strings},
                                  "\n".join(strings), args.json))


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


def _cmd_generate(args) -> CommandResult:
    a = _load_valid(args.algebra)
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
    payload = {"congruence": text, "note": note}
    return CommandResult(0, _emit(payload, human, args.json))


def _cmd_extend(args) -> CommandResult:
    a = _load_valid(args.algebra)
    subset = sorted(parse_names(a, args.sub, a.elements()))
    sub_alg = subalgebra(a, subset)
    theta0 = parse_partition(sub_alg, args.cong)
    ext = extend_from_subalgebra(a, subset, theta0)
    text = format_partition(a, ext)
    return CommandResult(0, _emit({"congruence": text}, text, args.json))


def _cmd_split(args) -> CommandResult:
    a = _load_valid(args.algebra)
    theta = parse_partition(a, args.cong)
    t1, t2 = split_congruence(a, theta)
    s1 = format_blocks(class_names(a, chi(a)), t1.blocks)
    s2 = format_blocks(class_names(a, tau(a)), t2.blocks)
    human = f"theta1 on {a.label}/chi: {s1}\ntheta2 on {a.label}/tau: {s2}"
    return CommandResult(0, _emit({"theta1": s1, "theta2": s2}, human,
                                  args.json))


def _cmd_decompose(args) -> CommandResult:
    a = _load_valid(args.algebra)
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
    return CommandResult(0, _emit(payload, human, args.json))


def _cmd_compose(args) -> CommandResult:
    a = _load_valid(args.algebra)
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
    return CommandResult(0, _emit({"congruence": text}, text, args.json))


def _cmd_enumerate(args) -> CommandResult:
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
    return CommandResult(0, _emit(payload, "\n".join(lines), args.json))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qba", description="finite quasi-Boolean algebra workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *, algebra=True):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        if algebra:
            p.add_argument("algebra", help="algebra file")
        return p

    add("validate", _cmd_validate, "check every axiom of an algebra file")
    add("info", _cmd_info, "summarize an algebra")
    p = add("quotient", _cmd_quotient, "quotient by a canonical congruence")
    p.add_argument("--rel", choices=("chi", "tau"), required=True)
    p = add("product", _cmd_product, "direct product of two algebras",
            algebra=False)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--out", help="also write the result to a file")
    p = add("iso", _cmd_iso, "search for an isomorphism", algebra=False)
    p.add_argument("left")
    p.add_argument("right")
    p = add("check", _cmd_check, "check an equation in one algebra")
    p.add_argument("equation")
    p = add("decide", _cmd_decide, "decide an equation in a variety",
            algebra=False)
    p.add_argument("--variety", choices=VARIETIES, required=True)
    p.add_argument("equation")
    add("congruences", _cmd_congruences, "list all congruences")
    p = add("generate", _cmd_generate, "least congruence containing the seed")
    p.add_argument("--seed", help="partition whose blocks are pre-merged")
    p.add_argument("--pairs", help="explicit pairs, e.g. 'a=b;c=d'")
    p = add("extend", _cmd_extend, "extend a subalgebra congruence")
    p.add_argument("--sub", required=True, help="subalgebra elements, e.g. 0,a,b,1")
    p.add_argument("--cong", required=True, help="congruence on the subalgebra")
    p = add("split", _cmd_split, "project a congruence through chi and tau")
    p.add_argument("--cong", required=True)
    p = add("decompose", _cmd_decompose,
            "split a congruence into regular/irregular/cross parts")
    p.add_argument("--cong", required=True)
    p = add("compose", _cmd_compose,
            "reassemble a congruence from its parts")
    p.add_argument("--theta-r", help="partition of the regular elements")
    p.add_argument("--theta-ir", help="partition of the irregular elements")
    p.add_argument("--link", help="block map, e.g. '0>a;1>b'")
    p = add("enumerate", _cmd_enumerate, "enumerate small algebras",
            algebra=False)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--flat", action="store_true")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--emit", help="write each emitted algebra to this directory")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process for run(); parsing leaves it unchanged."""
    return build_parser()


def run(argv: list[str] | None = None) -> CommandResult:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return CommandResult(int(exc.code or 0), "")
    try:
        return args.fn(args)
    except NotAQBAlgebra as exc:
        return CommandResult(1, _validation_output(exc.algebra, exc.report,
                                                   args.json))
    except QbaError as exc:
        return CommandResult(2, f"error: {exc}")


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
