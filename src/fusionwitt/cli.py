"""Command-line interface and the text file formats.

Verbs: validate, analyze, witt-class, witt-order, witt-subgroup,
classify, scan.  Reports come in two flavors selected by --format:
human-readable labeled text, or machine key=value lines that parse back
with parse_machine.  Identical inputs and options produce byte-identical
output.  Exit status: 0 success, 1 validation or computation failure,
2 usage errors including malformed input files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import classifier, fpdim, fusion_ring, metric_group, witt
from .caps import CLOSURE_CAP, ELEMENT_CAP, ORDER_CAP
from .errors import CertificationError, FusionWittError, ValidationError


class FileFormatError(FusionWittError):
    """Malformed input file; message carries the line number."""


# ------------------------------------------------------------ file formats


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_ring_file(path: str) -> fusion_ring.FusionRing:
    """Read a fusion ring file; structural validation is separate.

    Format: 'rank r', 'labels l0 ... l{r-1}', 'dual p0 ... p{r-1}'
    (a 0-based permutation), then one 'N i j k m' line per nonzero
    coefficient; omitted triples are zero, '#' starts a comment.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise FileFormatError(f"{path}: {err.strerror or err}") from err
    lines = list(_meaningful_lines(text))
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
    try:
        dual = [int(x) for x in parts[1:]]
    except ValueError:
        raise FileFormatError(f"{path}:{ln_dual}: dual indices must be integers") from None
    if any(not 0 <= d < rank for d in dual):
        raise FileFormatError(f"{path}:{ln_dual}: dual index out of range")
    coeff = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    seen: set[tuple[int, int, int]] = set()
    for lineno, line in lines[3:]:
        parts = line.split()
        if parts[:1] != ["N"] or len(parts) != 5:
            raise FileFormatError(f"{path}:{lineno}: expected 'N i j k m'")
        try:
            i, j, k, m = (int(x) for x in parts[1:])
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: indices and multiplicity must be integers") from None
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


def format_ring_file(ring: fusion_ring.FusionRing, comment: str | None = None) -> str:
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    out.append(f"rank {ring.rank}")
    out.append("labels " + " ".join(ring.labels))
    out.append("dual " + " ".join(str(d) for d in ring.dual))
    for i in range(ring.rank):
        for j in range(ring.rank):
            for k in range(ring.rank):
                if ring.coeff[i][j][k]:
                    out.append(f"N {i} {j} {k} {ring.coeff[i][j][k]}")
    return "\n".join(out) + "\n"


def parse_metric_file(path: str) -> tuple[tuple[int, ...], list[Fraction], dict]:
    """Read a metric group file into raw (orders, diag, cross) data.

    Format: 'orders d1 ... dk', 'q v1 ... vk' with exact fractions, and
    optional 'b i j v' cross terms with 1-based i < j.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise FileFormatError(f"{path}: {err.strerror or err}") from err
    lines = list(_meaningful_lines(text))
    if len(lines) < 2:
        raise FileFormatError(f"{path}: expected orders and q lines")
    (ln_ord, order_line), (ln_q, q_line) = lines[:2]
    parts = order_line.split()
    if parts[:1] != ["orders"]:
        raise FileFormatError(f"{path}:{ln_ord}: expected 'orders d1 ... dk'")
    try:
        orders = tuple(int(x) for x in parts[1:])
    except ValueError:
        raise FileFormatError(f"{path}:{ln_ord}: orders must be integers") from None
    k = len(orders)
    parts = q_line.split()
    if parts[:1] != ["q"] or len(parts) != k + 1:
        raise FileFormatError(f"{path}:{ln_q}: expected 'q' with {k} values")
    try:
        diag = [Fraction(x) for x in parts[1:]]
    except (ValueError, ZeroDivisionError):
        raise FileFormatError(f"{path}:{ln_q}: q values must be exact fractions") from None
    cross: dict[tuple[int, int], Fraction] = {}
    for lineno, line in lines[2:]:
        parts = line.split()
        if parts[:1] != ["b"] or len(parts) != 4:
            raise FileFormatError(f"{path}:{lineno}: expected 'b i j value'")
        try:
            i, j = int(parts[1]), int(parts[2])
            v = Fraction(parts[3])
        except (ValueError, ZeroDivisionError):
            raise FileFormatError(f"{path}:{lineno}: expected integer indices and a fraction") from None
        if not 1 <= i < j <= k:
            raise FileFormatError(f"{path}:{lineno}: cross indices must satisfy 1 <= i < j <= {k}")
        if (i - 1, j - 1) in cross:
            raise FileFormatError(f"{path}:{lineno}: duplicate cross term for ({i}, {j})")
        cross[(i - 1, j - 1)] = v
    return orders, diag, cross


def format_metric_file(orders, diag, cross=(), comment: str | None = None) -> str:
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    out.append("orders " + " ".join(str(d) for d in orders))
    out.append("q " + " ".join(str(Fraction(v)) for v in diag))
    for (i, j), v in sorted(dict(cross).items()):
        if Fraction(v) % 1 != 0:
            out.append(f"b {i + 1} {j + 1} {Fraction(v)}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------- report object


def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ",".join(fmt_value(x) for x in v)
    return str(v)


def parse_machine_value(s: str):
    if s == "":
        return ()
    if "," in s:
        return tuple(parse_machine_value(p) for p in s.split(","))
    if s == "true":
        return True
    if s == "false":
        return False
    if s == "none":
        return None
    try:
        return int(s)
    except ValueError:
        pass
    if "/" in s:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    try:
        return float(s)
    except ValueError:
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


@dataclass
class Report:
    title: str
    sections: list[tuple[str, list[str]]] = field(default_factory=list)
    machine: dict[str, object] = field(default_factory=dict)

    def add(self, heading: str, lines: list[str]) -> None:
        self.sections.append((heading, lines))

    def put(self, key: str, value) -> None:
        self.machine[key] = value

    def render(self, fmt: str) -> str:
        if fmt == "machine":
            return "".join(f"{k}={fmt_value(v)}\n" for k, v in self.machine.items())
        out = [self.title, "=" * len(self.title)]
        for heading, lines in self.sections:
            out.append("")
            out.append(heading)
            out.extend("  " + line for line in lines)
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------- helpers


def _sniff_kind(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise FileFormatError(f"{path}: {err.strerror or err}") from err
    for _, line in _meaningful_lines(text):
        if line.startswith("rank"):
            return "ring"
        if line.startswith("orders"):
            return "metric"
        break
    raise FileFormatError(f"{path}: cannot tell a ring file from a metric group file")


def _load_metric(path: str, cap: int | None) -> metric_group.MetricGroup:
    """A nondegenerate metric group from a file; the Witt verbs refuse
    degenerate forms."""
    orders, diag, cross = parse_metric_file(path)
    mg = metric_group.metric_group(orders, diag, cross, cap=cap)
    if not mg.nondegenerate:
        raise FusionWittError(f"{path}: degenerate form; Witt classes need nondegenerate forms")
    return mg


def describe_class(c: witt.PointedWittClass) -> str:
    if c.is_identity():
        return "identity"
    bits = []
    for p, rep in c.parts:
        qs = " ".join(str(v) for v in rep.form.diag)
        bits.append(f"p={p} orders ({','.join(str(d) for d in rep.orders)}) q ({qs})")
    return "; ".join(bits)


# ------------------------------------------------------------------ verbs


def _cmd_validate(args) -> int:
    kind = _sniff_kind(args.file)
    report = Report(title=f"validate {args.file}")
    report.put("kind", kind)
    if kind == "ring":
        ring = parse_ring_file(args.file)
        violations = fusion_ring.validate_ring(ring)
    else:
        orders, diag, cross = parse_metric_file(args.file)
        violations = metric_group.validate_metric(orders, diag, cross)
    report.put("valid", not violations)
    report.put("violation_count", len(violations))
    for i, v in enumerate(violations):
        report.put(f"violation_{i}", str(v))
    if violations:
        report.add("violations", [str(v) for v in violations])
    else:
        report.add("result", ["valid"])
        if kind == "metric":
            mg = metric_group.metric_group(orders, diag, cross, cap=args.element_cap)
            report.add("degeneracy", ["nondegenerate" if mg.nondegenerate else "degenerate"])
            report.put("nondegenerate", mg.nondegenerate)
    print(report.render(args.format), end="")
    return 0 if not violations else 1


def _cmd_analyze(args) -> int:
    ring = parse_ring_file(args.file)
    violations = fusion_ring.validate_ring(ring)
    report = Report(title=f"analyze {args.file}")
    report.put("rank", ring.rank)
    report.put("valid", not violations)
    if violations and not args.force:
        report.add("violations", [str(v) for v in violations])
        report.put("violation_count", len(violations))
        print(report.render(args.format), end="")
        print("invalid ring; rerun with --force to analyze anyway", file=sys.stderr)
        return 1
    if violations:
        report.add("violations (forced past)", [str(v) for v in violations])
        report.put("violation_count", len(violations))

    data = fpdim.fp_dim_data(ring, tolerance=args.tolerance)
    dim_lines = []
    for i, label in enumerate(ring.labels):
        cert = data.exact_square[i]
        tag = f"dim^2 = {cert} exactly" if cert is not None else "no integrality certificate"
        dim_lines.append(f"{label}: dim = {data.dims[i]!r} ({tag})")
        report.put(f"label_{i}", label)
        report.put(f"dim_{i}", data.dims[i])
        report.put(f"exact_square_{i}", cert)
    dim_lines.append(f"total = {data.total!r}" + (f" = {data.total_exact} exactly" if data.total_exact is not None else ""))
    dim_lines.append(f"integral: {fmt_value(data.integral)}   weakly integral: {fmt_value(data.weakly_integral)}")
    report.add("dimensions", dim_lines)
    report.put("total", data.total)
    report.put("total_exact", data.total_exact)
    report.put("integral", data.integral)
    report.put("weakly_integral", data.weakly_integral)

    inv = fusion_ring.invertibles(ring)
    inv_lines = [
        f"members: {', '.join(ring.labels[g] for g in inv.members)}",
        f"group: {inv.name()} (order {inv.order})",
    ]
    report.put("invertible_count", inv.order)
    report.put("invertible_members", inv.members)
    report.put("invertible_group", inv.name())
    for x in range(ring.rank):
        stab = fusion_ring.stabilizer(ring, x, inv)
        fusion_ring.tensor_square_check(ring, x)
        inv_lines.append(f"stabilizer of {ring.labels[x]}: {{{', '.join(ring.labels[g] for g in stab)}}}")
        report.put(f"stabilizer_{x}", stab)
    report.add("invertibles and stabilizers", inv_lines)

    grading = fusion_ring.universal_grading(ring)
    nil = fusion_ring.nilpotency(ring)
    grade_lines = [
        "components: " + " | ".join("{" + ", ".join(ring.labels[i] for i in comp) + "}" for comp in grading.components),
        f"group: {grading.group_name} (order {len(grading.components)})",
        "adjoint subring: {" + ", ".join(ring.labels[i] for i in grading.components[grading.neutral]) + "}",
        "tower: " + " > ".join("{" + ", ".join(ring.labels[i] for i in level) + "}" for level in nil.tower),
        f"nilpotent: {fmt_value(nil.nilpotent)} (depth {nil.depth})",
    ]
    report.add("grading and nilpotency", grade_lines)
    report.put("grading_order", len(grading.components))
    report.put("grading_group", grading.group_name)
    for i, comp in enumerate(grading.components):
        report.put(f"component_{i}", comp)
    report.put("neutral_component", grading.neutral)
    report.put("nilpotent", nil.nilpotent)
    report.put("nilpotency_depth", nil.depth)
    for i, level in enumerate(nil.tower):
        report.put(f"tower_{i}", level)

    verdict = classifier.verdict_ring(ring, data)
    if data.weakly_integral:
        try:
            pp = fpdim.simple_dims_prime_power(data)
        except (CertificationError, ValueError):  # ValueError: a square above arith.FACTOR_LIMIT
            pp = None
    else:
        pp = None
    if pp is None:
        prime_desc = "none"
    elif pp.pointed:
        prime_desc = "pointed"
    else:
        prime_desc = str(pp.prime)
    verdict_lines = [
        f"simple dims prime power: {prime_desc}",
        f"kind: {verdict.kind.value}",
        f"notes: {verdict.notes}",
    ]
    report.put("prime_power", prime_desc)
    report.put("verdict", verdict.kind.value)
    _put_witness(report, verdict)
    report.put("verdict_notes", verdict.notes)
    if verdict.witness is not None:
        verdict_lines.append(f"witness: {_describe_witness(verdict.witness)}")
    report.add("verdict", verdict_lines)
    print(report.render(args.format), end="")
    return 0


def _describe_witness(w: classifier.Factorization) -> str:
    bits = []
    if w.p is not None:
        bits.append(f"{w.p}^{w.a}")
    if w.q is not None:
        bits.append(f"{w.q}^{w.b}")
    bits.append(str(w.c))
    return f"{w.n} = " + " * ".join(bits)


def _put_witness(report: Report, verdict: classifier.DimensionVerdict) -> None:
    w = verdict.witness
    report.put("witness_p", None if w is None else w.p)
    report.put("witness_a", None if w is None else w.a)
    report.put("witness_q", None if w is None else w.q)
    report.put("witness_b", None if w is None else w.b)
    report.put("witness_c", None if w is None else w.c)


def _cmd_witt_class(args) -> int:
    mg = _load_metric(args.file, args.element_cap)
    report = Report(title=f"witt-class {args.file}")
    report.put("order", mg.size)
    gs = metric_group.gauss_sum(mg, cap=args.element_cap)
    report.put("gauss_magnitude_squared", gs.magnitude_squared)
    report.put("gauss_argument", gs.argument)
    report.add(
        "input",
        [
            f"orders: ({','.join(str(d) for d in mg.orders)})  |A| = {mg.size}",
            f"gauss sum: |G|^2 = {gs.magnitude_squared}, argument = {gs.argument} of a turn",
        ],
    )
    parts = sorted(metric_group.sylow_decompose(mg, cap=args.element_cap).items())
    report.put("primes", tuple(p for p, _ in parts))
    final_parts = []
    for p, part in parts:
        rep, steps = witt.anisotropic_reduction(part, cap=args.element_cap)
        part_gs = metric_group.gauss_sum(part, cap=args.element_cap)
        rep_gs = metric_group.gauss_sum(rep, cap=args.element_cap)
        lines = [f"part orders ({','.join(str(d) for d in part.orders)}), argument {part_gs.argument}"]
        for s in steps:
            lines.append(
                f"reduce by {s.chosen}: ({','.join(str(d) for d in s.orders_before)})"
                f" -> ({','.join(str(d) for d in s.orders_after)}), argument {s.argument}"
            )
        if rep.size > 1:
            lines.append(
                f"anisotropic: orders ({','.join(str(d) for d in rep.orders)})"
                f" q ({' '.join(str(v) for v in rep.form.diag)})"
            )
            final_parts.append((p, rep))
        else:
            lines.append("anisotropic: trivial")
        lines.append(f"gauss argument preserved: {fmt_value(part_gs.argument == rep_gs.argument)}")
        report.add(f"prime {p}", lines)
        report.put(f"part_{p}_orders", part.orders)
        report.put(f"part_{p}_steps", len(steps))
        report.put(f"part_{p}_anisotropic_orders", rep.orders)
        report.put(f"part_{p}_anisotropic_q", tuple(rep.form.diag))
        report.put(f"part_{p}_argument", rep_gs.argument)
    cls = witt.PointedWittClass(parts=tuple(final_parts))
    report.add("class", [describe_class(cls)])
    report.put("class_identity", cls.is_identity())
    print(report.render(args.format), end="")
    return 0


def _cmd_witt_order(args) -> int:
    mg = _load_metric(args.file, args.element_cap)
    cls = witt.pointed_witt_class(mg, cap=args.element_cap)
    order = witt.class_order(cls, cap=args.order_cap)
    report = Report(title=f"witt-order {args.file}")
    report.add("class", [describe_class(cls)])
    report.add("order", [str(order)])
    report.put("class_identity", cls.is_identity())
    report.put("witt_order", order)
    print(report.render(args.format), end="")
    return 0


def _cmd_witt_subgroup(args) -> int:
    classes = []
    for path in args.files:
        mg = _load_metric(path, args.element_cap)
        classes.append(witt.pointed_witt_class(mg, cap=args.element_cap))
    sub = witt.generated_subgroup(classes, cap=args.closure_cap, element_budget=args.element_cap)
    report = Report(title="witt-subgroup " + " ".join(args.files))
    report.put("generator_count", len(classes))
    report.put("subgroup_order", sub.order)
    report.put("invariant_factors", sub.invariant_factors)
    report.put("group", sub.name())
    lines = [f"order {sub.order}, invariant factors ({','.join(str(d) for d in sub.invariant_factors)}), group {sub.name()}"]
    for i, e in enumerate(sub.elements):
        lines.append(f"[{i}] {describe_class(e)}")
        report.put(f"element_{i}", describe_class(e))
    report.add("subgroup", lines)
    table_lines = [" ".join(str(x) for x in row) for row in sub.table]
    report.add("table", table_lines)
    for i, row in enumerate(sub.table):
        report.put(f"table_{i}", row)
    print(report.render(args.format), end="")
    return 0


def _cmd_classify(args) -> int:
    verdict = classifier.verdict_dimension(args.n)
    report = Report(title=f"classify {args.n}")
    report.put("n", args.n)
    report.put("verdict", verdict.kind.value)
    _put_witness(report, verdict)
    report.put("verdict_notes", verdict.notes)
    lines = [f"kind: {verdict.kind.value}"]
    if verdict.witness is not None:
        lines.append(f"witness: {_describe_witness(verdict.witness)}")
    lines.append(f"notes: {verdict.notes}")
    report.add("verdict", lines)
    print(report.render(args.format), end="")
    return 0


def _cmd_scan(args) -> int:
    result = classifier.scan_exceptions(args.limit, odd_only=args.odd)
    report = Report(title=f"scan {args.limit}" + (" odd" if args.odd else ""))
    report.put("limit", result.limit)
    report.put("odd_only", result.odd_only)
    report.put("exception_count", len(result.exceptions))
    report.put("exceptions", result.exceptions)
    report.put("acknowledged", result.acknowledged)
    report.put("divergent", result.divergent)
    lines = [
        f"dimensions below {result.limit} with no p^a q^b c factorization:"
        + (" " + ", ".join(str(n) for n in result.exceptions) if result.exceptions else " none"),
        "acknowledged special cases in range: "
        + (", ".join(str(n) for n in result.acknowledged) if result.acknowledged else "none"),
    ]
    if result.divergent:
        lines.append(
            "DIVERGENCE: enumeration also finds "
            + ", ".join(str(n) for n in result.divergent)
            + ", not covered by the acknowledged case analysis"
        )
    else:
        lines.append("enumeration agrees with the acknowledged case analysis")
    report.add("scan", lines)
    print(report.render(args.format), end="")
    return 0


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionwitt",
        description="exact fusion ring invariants, Witt classes of metric groups, and dimension classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tolerance=False):
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument(ELEMENT_CAP.flag, type=int, default=None, help="max group elements to enumerate")
        if tolerance:
            p.add_argument("--tolerance", type=float, default=1e-12)

    p = sub.add_parser("validate", help="check a ring or metric group file against the axioms")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="full invariant report for a fusion ring")
    p.add_argument("file")
    p.add_argument("--force", action="store_true", help="analyze even when validation fails")
    common(p, tolerance=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("witt-class", help="anisotropic reduction trace and Witt class of a metric group")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_witt_class)

    p = sub.add_parser("witt-order", help="order of the Witt class of a metric group")
    p.add_argument("file")
    p.add_argument(ORDER_CAP.flag, type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_witt_order)

    p = sub.add_parser("witt-subgroup", help="subgroup generated by the Witt classes of metric groups")
    p.add_argument("files", nargs="+")
    p.add_argument(CLOSURE_CAP.flag, type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_witt_subgroup)

    p = sub.add_parser("classify", help="dimension verdict from the arithmetic criteria")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scan", help="exhaustive exception scan below a limit")
    p.add_argument("limit", type=int)
    p.add_argument("--odd", action="store_true", help="odd dimensions only")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as err:
        print(str(err), file=sys.stderr)
        return 2
    except ValidationError as err:
        for v in err.violations:
            print(str(v), file=sys.stderr)
        return 1
    except (FusionWittError, ValueError) as err:
        print(str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
