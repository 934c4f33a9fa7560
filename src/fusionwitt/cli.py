"""Command-line interface and the text file formats.

Verbs: validate, analyze, witt-class, witt-order, witt-subgroup,
classify, scan.  Each verb returns one Report, and --format selects how
main renders it: human-readable labeled text, or machine key=value lines
that parse back with parse_machine.  Identical inputs and options
produce byte-identical output.  Exit status: 0 success, 1 validation or
computation failure, 2 usage errors including malformed input files.

A process builds its argument parser once (build_parser is cached) and
parses each call's words once: with the named verb's own parser, whose
leftover words get the top-level parser's error, or, when the first word
names no verb (no words, -h, an unknown verb), with the top-level parser.
main looks each verb's _cmd_ handler up in the module's globals when it
runs, so a handler rebound after the parser exists is the one called.
A call leaves no reference cycle behind for the garbage collector.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import classifier, fpdim, fusion_ring, metric_group, witt
from .caps import CLOSURE_CAP, ELEMENT_CAP, ORDER_CAP, positive_int
from .errors import ConsistencyError, FusionWittError, ValidationError


class FileFormatError(FusionWittError):
    """Malformed input file; message carries the line number."""


# ------------------------------------------------------------ file formats


def _read_lines(path: str) -> list[tuple[int, str]]:
    """The (line number, text) pairs of a file that carry content; '#'
    starts a comment, and blank lines are dropped."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise FileFormatError(f"{path}: {err.strerror or err}") from err
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [(lineno, line) for lineno, line in enumerate(stripped, start=1) if line]


def _convert(kind, words, error: str) -> list:
    """Each word converted by kind; a FileFormatError with the given
    message when one does not convert."""
    try:
        return [kind(w) for w in words]
    except (ValueError, ZeroDivisionError):
        raise FileFormatError(error) from None


def parse_ring_file(path: str) -> fusion_ring.FusionRing:
    """Read a fusion ring file; structural validation is separate.

    Format: 'rank r', 'labels l0 ... l{r-1}', 'dual p0 ... p{r-1}'
    (a 0-based permutation), then one 'N i j k m' line per nonzero
    coefficient; omitted triples are zero, '#' starts a comment.
    """
    lines = _read_lines(path)
    if len(lines) < 3:
        raise FileFormatError(f"{path}: expected rank, labels and dual lines")
    (ln_rank, rank_line), (ln_lab, label_line), (ln_dual, dual_line) = lines[:3]
    parts = rank_line.split()
    if len(parts) != 2 or parts[0] != "rank" or not parts[1].isdigit():
        raise FileFormatError(f"{path}:{ln_rank}: expected 'rank <r>'")
    rank = int(parts[1])
    if rank < 1:
        raise FileFormatError(f"{path}:{ln_rank}: rank must be at least 1")
    parts = label_line.split()
    if parts[:1] != ["labels"] or len(parts) != rank + 1:
        raise FileFormatError(f"{path}:{ln_lab}: expected 'labels' with {rank} names")
    labels = parts[1:]
    parts = dual_line.split()
    if parts[:1] != ["dual"] or len(parts) != rank + 1:
        raise FileFormatError(f"{path}:{ln_dual}: expected 'dual' with {rank} indices")
    dual = _convert(int, parts[1:], f"{path}:{ln_dual}: dual indices must be integers")
    if any(not 0 <= d < rank for d in dual):
        raise FileFormatError(f"{path}:{ln_dual}: dual index out of range")
    coeff = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    seen: set[tuple[int, int, int]] = set()
    for lineno, line in lines[3:]:
        parts = line.split()
        if parts[:1] != ["N"] or len(parts) != 5:
            raise FileFormatError(f"{path}:{lineno}: expected 'N i j k m'")
        i, j, k, m = _convert(int, parts[1:], f"{path}:{lineno}: indices and multiplicity must be integers")
        if not all(0 <= t < rank for t in (i, j, k)):
            raise FileFormatError(f"{path}:{lineno}: index out of range for rank {rank}")
        if (i, j, k) in seen:
            raise FileFormatError(f"{path}:{lineno}: duplicate coefficient for ({i}, {j}, {k})")
        seen.add((i, j, k))
        coeff[i][j][k] = m
    return fusion_ring.FusionRing(
        labels=tuple(labels),
        dual=tuple(dual),
        coeff=tuple(tuple(tuple(row) for row in plane) for plane in coeff),
    )


def parse_metric_file(path: str) -> tuple[tuple[int, ...], list[Fraction], dict]:
    """Read a metric group file into raw (orders, diag, cross) data.

    Format: 'orders d1 ... dk', 'q v1 ... vk' with exact fractions, and
    optional 'b i j v' cross terms with 1-based i < j.
    """
    lines = _read_lines(path)
    if len(lines) < 2:
        raise FileFormatError(f"{path}: expected orders and q lines")
    (ln_ord, order_line), (ln_q, q_line) = lines[:2]
    parts = order_line.split()
    if parts[:1] != ["orders"]:
        raise FileFormatError(f"{path}:{ln_ord}: expected 'orders d1 ... dk'")
    orders = tuple(_convert(int, parts[1:], f"{path}:{ln_ord}: orders must be integers"))
    k = len(orders)
    parts = q_line.split()
    if parts[:1] != ["q"] or len(parts) != k + 1:
        raise FileFormatError(f"{path}:{ln_q}: expected 'q' with {k} values")
    diag = _convert(Fraction, parts[1:], f"{path}:{ln_q}: q values must be exact fractions")
    cross: dict[tuple[int, int], Fraction] = {}
    for lineno, line in lines[2:]:
        parts = line.split()
        if parts[:1] != ["b"] or len(parts) != 4:
            raise FileFormatError(f"{path}:{lineno}: expected 'b i j value'")
        error = f"{path}:{lineno}: expected integer indices and a fraction"
        i, j = _convert(int, parts[1:3], error)
        (v,) = _convert(Fraction, parts[3:], error)
        if not 1 <= i < j <= k:
            raise FileFormatError(f"{path}:{lineno}: cross indices must satisfy 1 <= i < j <= {k}")
        if (i - 1, j - 1) in cross:
            raise FileFormatError(f"{path}:{lineno}: duplicate cross term for ({i}, {j})")
        cross[(i - 1, j - 1)] = v
    return orders, diag, cross


# ----------------------------------------------------------- report object


def fmt_value(v) -> str:
    # the common facts first; a bool is an int, but not exactly one
    if type(v) is int or type(v) is str:
        return str(v)
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ",".join(fmt_value(x) for x in v)
    return str(v)


def parse_machine_value(s: str):
    """A typed value that fmt_value renders back to exactly s: a tuple
    for a comma list, then true, false or none, then an int, Fraction or
    float, else s itself."""
    if s == "":
        return ()
    if "," in s:
        return tuple(parse_machine_value(p) for p in s.split(","))
    for word in (True, False, None):
        if s == fmt_value(word):
            return word
    for kind in (int, Fraction, float):
        try:
            value = kind(s)
        except (ValueError, ZeroDivisionError):
            continue
        if fmt_value(value) == s:
            return value
    return s


def parse_machine(text: str) -> dict[str, object]:
    """Parse machine-format report lines back into typed values."""
    out: dict[str, object] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        out[key] = parse_machine_value(value)
    return out


class Report:
    """The record of one run, from which both formats render.

    facts are the machine key=value pairs in output order; sections are
    the text report's (heading, lines).  Each fact is given once, with
    the title, the section or the line that shows it.  status is the
    exit status, and error a message main prints to stderr.
    """

    def __init__(self, title: str, **facts):
        self.title = title
        self.facts: dict[str, object] = facts
        self.sections: list[tuple[str, list[str]]] = []
        self.status = 0
        self.error: str | None = None

    def section(self, heading: str, lines=(), **facts) -> None:
        self.sections.append((heading, list(lines)))
        self.facts.update(facts)

    def line(self, text: str, **facts) -> None:
        """Add a line to the last section."""
        self.sections[-1][1].append(text)
        self.facts.update(facts)

    def render(self, fmt: str) -> str:
        if fmt == "machine":
            return "".join([f"{k}={fmt_value(v)}\n" for k, v in self.facts.items()])
        out = [self.title, "=" * len(self.title)]
        for heading, lines in self.sections:
            out += ["", heading, *("  " + line for line in lines)]
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------- helpers


def _sniff_kind(path: str) -> str:
    lines = _read_lines(path)
    first = lines[0][1] if lines else ""
    if first.startswith("rank"):
        return "ring"
    if first.startswith("orders"):
        return "metric"
    raise FileFormatError(f"{path}: cannot tell a ring file from a metric group file")


def _load_metric(path: str) -> metric_group.MetricGroup:
    """A nondegenerate metric group from a file; the Witt verbs refuse
    degenerate forms."""
    orders, diag, cross = parse_metric_file(path)
    mg = metric_group.metric_group(orders, diag, cross)
    if not mg.nondegenerate:
        raise FusionWittError(f"{path}: degenerate form; Witt classes need nondegenerate forms")
    return mg


def _form_text(mg: metric_group.MetricGroup) -> str:
    return f"orders ({fmt_value(mg.orders)}) q ({' '.join(str(v) for v in mg.form.diag)})"


def _describe_class(c: witt.PointedWittClass) -> str:
    if c.is_identity():
        return "identity"
    return "; ".join(f"p={p} {_form_text(rep)}" for p, rep in c.parts)


def _violations(report: Report, violations, heading: str, listed: bool = False) -> None:
    """The validity facts, and a section of the violations if there are
    any.  listed (validate) also gives a zero count and each violation as
    a violation_<i> fact; analyze gives the count only when nonzero."""
    lines = [str(v) for v in violations]
    report.facts["valid"] = not lines
    if lines or listed:
        report.facts["violation_count"] = len(lines)
    if listed:
        report.facts.update((f"violation_{i}", line) for i, line in enumerate(lines))
    if lines:
        report.section(heading, lines)


def _verdict(report: Report, verdict: classifier.DimensionVerdict, head=(), witness_last=False, **facts) -> None:
    """The verdict section analyze and classify share: the caller's head
    lines and facts, then kind, witness and notes; analyze lists the
    witness after the notes."""
    kind, w, notes = verdict.kind.value, verdict.witness, verdict.notes
    lines = [*head, f"kind: {kind}", f"notes: {notes}"]
    if w is None:
        p = a = q = b = c = None
    else:
        _, p, a, q, b, c = w
        lines.insert(len(lines) if witness_last else -1, f"witness: {w}")
    report.section("verdict", lines, **facts, verdict=kind, witness_p=p, witness_a=a, witness_q=q, witness_b=b,
                   witness_c=c, verdict_notes=notes)


def _class_section(report: Report, cls: witt.PointedWittClass) -> None:
    report.section("class", [_describe_class(cls)], class_identity=cls.is_identity())


# ------------------------------------------------------------------ verbs


def _cmd_validate(args) -> Report:
    kind = _sniff_kind(args.file)
    report = Report(f"validate {args.file}", kind=kind)
    if kind == "ring":
        violations = fusion_ring.validate_ring(parse_ring_file(args.file))
    else:
        orders, diag, cross = parse_metric_file(args.file)
        violations = metric_group.validate_metric(orders, diag, cross)
    _violations(report, violations, "violations", listed=True)
    if violations:
        report.status = 1
        return report
    report.section("result", ["valid"])
    if kind == "metric":
        mg = metric_group.metric_group(orders, diag, cross)
        degeneracy = "nondegenerate" if mg.nondegenerate else "degenerate"
        report.section("degeneracy", [degeneracy], nondegenerate=mg.nondegenerate)
    return report


def _cmd_analyze(args) -> Report:
    ring = parse_ring_file(args.file)
    violations = fusion_ring.validate_ring(ring)
    report = Report(f"analyze {args.file}", rank=ring.rank)
    _violations(report, violations, "violations (forced past)" if args.force else "violations")
    if violations and not args.force:
        report.status, report.error = 1, "invalid ring; rerun with --force to analyze anyway"
        return report
    try:
        _analysis(report, ring, args.tolerance)
    except FusionWittError as err:
        if not violations:
            raise
        # a layer broke on a ring forced past its violations: the report
        # keeps them, and what was computed before the break
        report.status, report.error = 1, str(err)
    return report


def _analysis(report: Report, ring: fusion_ring.FusionRing, tolerance: float) -> None:
    """The sections of analyze after validation, added to report."""

    def braced(members) -> str:
        return "{" + ", ".join(ring.labels[i] for i in members) + "}"

    data = fpdim.fp_dim_data(ring, tolerance=tolerance)
    report.section("dimensions")
    for i, label in enumerate(ring.labels):
        cert = data.exact_square[i]
        tag = f"dim^2 = {cert} exactly" if cert is not None else "no integrality certificate"
        facts = {f"label_{i}": label, f"dim_{i}": data.dims[i], f"exact_square_{i}": cert}
        report.line(f"{label}: dim = {data.dims[i]!r} ({tag})", **facts)
    exact = f" = {data.total_exact} exactly" if data.total_exact is not None else ""
    report.line(f"total = {data.total!r}{exact}", total=data.total, total_exact=data.total_exact)
    report.line(f"integral: {fmt_value(data.integral)}   weakly integral: {fmt_value(data.weakly_integral)}",
                integral=data.integral, weakly_integral=data.weakly_integral)

    inv = fusion_ring.invertibles(ring)
    group = inv.name()
    members = ", ".join(inv.labels)
    report.section("invertibles and stabilizers", [f"members: {members}", f"group: {group} (order {inv.order})"],
                   invertible_count=inv.order, invertible_members=inv.members, invertible_group=group)
    for x in range(ring.rank):
        # once the check passes, its invertible part is the stabilizer, ascending
        stab = tuple(g for g, _ in fusion_ring.tensor_square_check(ring, x, inv).invertible_part)
        report.line(f"stabilizer of {ring.labels[x]}: {braced(stab)}", **{f"stabilizer_{x}": stab})

    grading = fusion_ring.universal_grading(ring)
    if data.weakly_integral:
        # Y R_g = d_Y R_hg for Y in component h, where R_g is the sum of d_X X
        # over component g; applying FPdim shows all components have one dimension
        sums = [sum(data.exact_square[x] for x in comp) for comp in grading.components]
        if len(set(sums)) > 1:
            raise ConsistencyError(f"grading components have certified dimensions {', '.join(map(str, sums))};"
                                   " those of a weakly integral ring are equal")
    nil = fusion_ring.nilpotency(ring)
    report.section(
        "grading and nilpotency",
        [
            "components: " + " | ".join(braced(comp) for comp in grading.components),
            f"group: {grading.group_name} (order {len(grading.components)})",
            "adjoint subring: " + braced(grading.components[grading.neutral]),
            "tower: " + " > ".join(braced(level) for level in nil.tower),
            f"nilpotent: {fmt_value(nil.nilpotent)} (depth {nil.depth})",
        ],
        grading_order=len(grading.components), grading_group=grading.group_name,
        **{f"component_{i}": comp for i, comp in enumerate(grading.components)}, neutral_component=grading.neutral,
        nilpotent=nil.nilpotent, nilpotency_depth=nil.depth,
        **{f"tower_{i}": level for i, level in enumerate(nil.tower)},
    )

    pp = fpdim.simple_dims_prime_power(data) if data.weakly_integral else None
    prime_desc = "none" if pp is None else "pointed" if pp.pointed else str(pp.prime)
    verdict = classifier.verdict_ring(data, pp)
    _verdict(report, verdict, [f"simple dims prime power: {prime_desc}"], witness_last=True, prime_power=prime_desc)


def _cmd_witt_class(args) -> Report:
    mg = _load_metric(args.file)
    gs = metric_group.gauss_sum(mg)
    parts = sorted(metric_group.sylow_decompose(mg).items())
    report = Report(f"witt-class {args.file}", order=mg.size, gauss_magnitude_squared=gs.magnitude_squared,
                    gauss_argument=gs.argument, primes=tuple(p for p, _ in parts))
    report.section("input", [f"orders: ({fmt_value(mg.orders)})  |A| = {mg.size}",
                             f"gauss sum: |G|^2 = {gs.magnitude_squared}, argument = {gs.argument} of a turn"])
    final_parts = []
    for p, part in parts:
        rep, steps = witt.reduce_sylow_part(p, part)
        argument = metric_group.gauss_sum(part).argument
        # each step records the argument of the group it produced, so the last is rep's
        rep_argument = steps[-1].argument if steps else argument
        report.section(f"prime {p}", [f"part orders ({fmt_value(part.orders)}), argument {argument}"],
                       **{f"part_{p}_orders": part.orders, f"part_{p}_steps": len(steps)})
        for s in steps:
            report.line(f"reduce by {s.chosen}: ({fmt_value(s.orders_before)})"
                        f" -> ({fmt_value(s.orders_after)}), argument {s.argument}")
        if rep.size > 1:
            final_parts.append((p, rep))
        report.line(f"anisotropic: {_form_text(rep) if rep.size > 1 else 'trivial'}",
                    **{f"part_{p}_anisotropic_orders": rep.orders, f"part_{p}_anisotropic_q": tuple(rep.form.diag)})
        report.line(f"gauss argument preserved: {fmt_value(argument == rep_argument)}",
                    **{f"part_{p}_argument": rep_argument})
    _class_section(report, witt.PointedWittClass(parts=tuple(final_parts)))
    return report


def _cmd_witt_order(args) -> Report:
    cls = witt.pointed_witt_class(_load_metric(args.file))
    order = witt.class_order(cls)
    report = Report(f"witt-order {args.file}")
    _class_section(report, cls)
    report.section("order", [str(order)], witt_order=order)
    return report


def _cmd_witt_subgroup(args) -> Report:
    classes = [witt.pointed_witt_class(_load_metric(path)) for path in args.files]
    sub = witt.generated_subgroup(classes)
    report = Report("witt-subgroup " + " ".join(args.files), generator_count=len(classes))
    summary = f"order {sub.order}, invariant factors ({fmt_value(sub.invariant_factors)}), group {sub.name()}"
    report.section("subgroup", [summary], subgroup_order=sub.order, invariant_factors=sub.invariant_factors,
                   group=sub.name())
    for i, desc in enumerate(map(_describe_class, sub.elements)):
        report.line(f"[{i}] {desc}", **{f"element_{i}": desc})
    report.section("table")
    for i, row in enumerate(sub.table):
        report.line(" ".join(str(x) for x in row), **{f"table_{i}": row})
    return report


def _cmd_classify(args) -> Report:
    report = Report(f"classify {args.n}", n=args.n)
    _verdict(report, classifier.verdict_dimension(args.n))
    return report


def _cmd_scan(args) -> Report:
    result = classifier.scan_exceptions(args.limit, odd_only=args.odd)

    def listed(ns) -> str:
        return ", ".join(str(n) for n in ns) if ns else "none"

    report = Report(f"scan {args.limit}" + (" odd" if args.odd else ""))
    agreement = (f"DIVERGENCE: enumeration also finds {listed(result.divergent)}, not covered by the acknowledged"
                 " case analysis" if result.divergent else "enumeration agrees with the acknowledged case analysis")
    report.section(
        "scan",
        [f"dimensions below {result.limit} with no p^a q^b c factorization: {listed(result.exceptions)}",
         f"acknowledged special cases in range: {listed(result.acknowledged)}", agreement],
        limit=result.limit, odd_only=result.odd_only, exception_count=len(result.exceptions),
        exceptions=result.exceptions, acknowledged=result.acknowledged, divergent=result.divergent,
    )
    return report


# ------------------------------------------------------------------- main


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call.  It holds no
    handler: main looks up each verb's _cmd_ function when it runs."""
    parser = argparse.ArgumentParser(prog="fusionwitt", description="exact fusion ring invariants, Witt classes"
                                     " of metric groups, and dimension classifiers")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.verbs = sub.choices  # each verb's own parser, by name

    def verb(name, help, *caps):
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("text", "machine"), default="text")
        for cap in caps:
            p.add_argument(cap.flag, type=positive_int, default=None, help=f"the {cap.name} (default {cap.default})")
        return p

    p = verb("validate", "check a ring or metric group file against the axioms", ELEMENT_CAP)
    p.add_argument("file")
    p = verb("analyze", "full invariant report for a fusion ring")
    p.add_argument("file")
    p.add_argument("--force", action="store_true", help="analyze even when validation fails")
    p.add_argument("--tolerance", type=float, default=1e-12)
    p = verb("witt-class", "anisotropic reduction trace and Witt class of a metric group", ELEMENT_CAP)
    p.add_argument("file")
    p = verb("witt-order", "order of the Witt class of a metric group", ORDER_CAP, ELEMENT_CAP)
    p.add_argument("file")
    p = verb("witt-subgroup", "subgroup generated by the Witt classes of metric groups",
             CLOSURE_CAP, ELEMENT_CAP)
    p.add_argument("files", nargs="+")
    p = verb("classify", "dimension verdict from the arithmetic criteria")
    p.add_argument("n", type=int)
    p = verb("scan", "exhaustive exception scan below a limit")
    p.add_argument("limit", type=int)
    p.add_argument("--odd", action="store_true", help="odd dimensions only")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    verb = parser.verbs.get(argv[0]) if argv else None
    if verb is None:
        args = parser.parse_args(argv)
    else:
        args, extra = verb.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error("unrecognized arguments: " + " ".join(extra))
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    # a verb without a cap's flag leaves that cap to its variable and default
    element, order, closure = (getattr(args, dest, None) for dest in ("element_cap", "order_cap", "closure_cap"))
    try:
        with ELEMENT_CAP.limit(element), ORDER_CAP.limit(order), CLOSURE_CAP.limit(closure):
            report = command(args)
    except ValidationError as err:
        for v in err.violations:
            print(str(v), file=sys.stderr)
        return 1
    except (FusionWittError, ValueError) as err:
        print(str(err), file=sys.stderr)
        return 2 if isinstance(err, FileFormatError) else 1
    print(report.render(args.format), end="")
    if report.error:
        print(report.error, file=sys.stderr)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
