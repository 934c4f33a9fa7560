"""Work counts as tier-1 checks: each row runs one CLI call and pins
exact, deterministic counts of the work it does.

Counts are taken by counting spies, so unlike wall times they compare
across machines.  A change that lowers a layer's work re-records that
row's counts in the same change and names the row in CHANGES.md; a
change that raises them fails here.
"""

from __future__ import annotations

import contextlib
import io
import sys

import pytest

from fusionwitt import cli, corpus, snf, witt
from fusionwitt.caps import CLOSURE_CAP, ELEMENT_CAP, ORDER_CAP
from fusionwitt.cyclotomic import CycInt
from fusionwitt.metric_group import MetricGroup


def spy(monkeypatch, owner, name, record):
    """Rebind owner.name to a wrapper that calls record(result, *args)
    after each call."""
    original = getattr(owner, name)

    def counting(*args):
        result = original(*args)
        record(result, *args)
        return result

    monkeypatch.setattr(owner, name, counting)


def tally(counts, key):
    """A spy record that adds one to counts[key]."""
    return lambda *_: counts.__setitem__(key, counts[key] + 1)


def witt_subgroup_work(monkeypatch, names) -> dict[str, int]:
    """Run witt-subgroup on corpus forms and count its work:

    * direct_sum_gauss_enumerated: Gauss sums of class_multiply's direct
      sums that enumerated the direct sum's elements;
    * class_multiply, class_eq, metric_iso: calls;
    * cyclotomic_products: products in Z[zeta], one per enumerated sum.
    """
    for cap in (ELEMENT_CAP, CLOSURE_CAP):
        monkeypatch.delenv(cap.env, raising=False)
    counts = dict.fromkeys(("direct_sum_gauss_enumerated", "class_multiply", "class_eq", "metric_iso",
                            "cyclotomic_products"), 0)
    direct_sums, enumerated = [], []
    spy(monkeypatch, witt, "direct_sum", lambda out, *_: direct_sums.append(out))
    spy(monkeypatch, MetricGroup, "elements", lambda _, mg: enumerated.append(mg))
    gauss = MetricGroup.gauss.func

    def counting_gauss(mg):
        before = len(enumerated)
        result = gauss(mg)
        if any(e is mg for e in enumerated[before:]) and any(d is mg for d in direct_sums):
            counts["direct_sum_gauss_enumerated"] += 1
        return result

    monkeypatch.setattr(MetricGroup.gauss, "func", counting_gauss)
    for name in ("class_multiply", "class_eq", "metric_iso"):
        spy(monkeypatch, witt, name, tally(counts, name))
    spy(monkeypatch, CycInt, "__mul__", tally(counts, "cyclotomic_products"))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["witt-subgroup", "--format", "machine", *map(corpus.path, names)]) == 0
    assert "subgroup_order=" in out.getvalue()
    return counts


def witt_subgroup_smith_work(monkeypatch, names) -> dict[str, int]:
    """Run witt-subgroup on corpus forms and count its Smith forms:

    * smith_normal_form: calls;
    * smith_eliminations: calls that eliminate, each ending in one
      _verify; a diagonal input whose entries permute into a divisor
      chain takes none;
    * direct_sum_eliminations: those made inside class_multiply's
      direct sums.
    """
    for cap in (ELEMENT_CAP, CLOSURE_CAP):
        monkeypatch.delenv(cap.env, raising=False)
    counts = dict.fromkeys(("smith_normal_form", "smith_eliminations", "direct_sum_eliminations"), 0)
    depth = []
    direct_sum = witt.direct_sum

    def tracked(*args):
        depth.append(None)
        try:
            return direct_sum(*args)
        finally:
            depth.pop()

    def eliminated(*_):
        counts["smith_eliminations"] += 1
        counts["direct_sum_eliminations"] += bool(depth)

    monkeypatch.setattr(witt, "direct_sum", tracked)
    spy(monkeypatch, snf, "smith_normal_form", tally(counts, "smith_normal_form"))
    spy(monkeypatch, snf, "_verify", eliminated)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["witt-subgroup", "--format", "machine", *map(corpus.path, names)]) == 0
    assert "subgroup_order=" in out.getvalue()
    return counts


def witt_order_work(monkeypatch, names) -> dict[str, int]:
    """Run witt-order on one corpus form and count its work:

    * class_multiply: calls, one per power class_order takes;
    * isotropic_elements_visited: elements that isotropic_elements reads
      from its groups' enumerations, over all its calls.
    """
    for cap in (ELEMENT_CAP, ORDER_CAP):
        monkeypatch.delenv(cap.env, raising=False)
    counts = {"class_multiply": 0, "isotropic_elements_visited": 0}
    elements, scan = MetricGroup.elements, witt.isotropic_elements.__code__

    def visit(x):
        counts["isotropic_elements_visited"] += 1
        return x

    def counting_elements(mg):
        # isotropic_elements calls elements() itself and reads it lazily
        it = elements(mg)
        return map(visit, it) if sys._getframe(1).f_code is scan else it

    spy(monkeypatch, witt, "class_multiply", tally(counts, "class_multiply"))
    monkeypatch.setattr(MetricGroup, "elements", counting_elements)
    (name,) = names
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["witt-order", "--format", "machine", corpus.path(name)]) == 0
    assert "witt_order=" in out.getvalue()
    return counts


CORPUS_2_GROUPS = ("semion.mg", "semion_bar.mg", "z2z2_diag.mg", "z2z2_fermion.mg",
                   "z2z2_hyperbolic.mg", "z4_eighth.mg", "z8_sixteenth.mg")
CORPUS_3_GROUPS = ("z3_third.mg", "z3_two_thirds.mg", "hyperbolic3.mg")

# A closure of order n from g generators makes (n - 1) n / 2 products
# and admits g + (n - 1) n / 2 classes.  An admission runs class_eq only
# against earlier classes with its Gauss key, which separates classes, so
# class_eq runs once per admission that finds its class: 7 + 120 - 15 =
# 112 times on the 2-groups and 3 + 6 - 3 = 6 on the 3-groups, and
# metric_iso once per part of those, none on the identity.  No direct
# sum's Gauss sum is enumerated; the sums that are, one cyclotomic
# product each, are the generators' and those of reduce_once's quotients.
#
# Each direct sum takes one Smith form, of its diagonal relations: the
# summands' orders, powers of one prime, which permute into a divisor
# chain and so are not eliminated.  Each reduce_once takes three, two
# kernels and a rebase, and all of them are eliminated: 120 direct sums
# and 142 reductions on the 2-groups, 6 and 6 on the 3-groups.
#
# class_order multiplies c into its power until the power is the
# identity, so a class of order n takes n - 1 class_multiply calls.  The
# reductions of the input and of every product scan each group they pass
# up to its first isotropic element, and the anisotropic one they end on
# through to its last element.
ROWS = [
    ("witt-subgroup 2-groups", witt_subgroup_work, CORPUS_2_GROUPS,
     {"direct_sum_gauss_enumerated": 0, "class_multiply": 120, "class_eq": 112, "metric_iso": 102,
      "cyclotomic_products": 149}),
    ("witt-subgroup 3-groups", witt_subgroup_work, CORPUS_3_GROUPS,
     {"direct_sum_gauss_enumerated": 0, "class_multiply": 6, "class_eq": 6, "metric_iso": 3,
      "cyclotomic_products": 9}),
    ("witt-subgroup 2-groups smith", witt_subgroup_smith_work, CORPUS_2_GROUPS,
     {"smith_normal_form": 546, "smith_eliminations": 426, "direct_sum_eliminations": 0}),
    ("witt-subgroup 3-groups smith", witt_subgroup_smith_work, CORPUS_3_GROUPS,
     {"smith_normal_form": 24, "smith_eliminations": 18, "direct_sum_eliminations": 0}),
    ("witt-order semion", witt_order_work, ("semion.mg",), {"class_multiply": 7, "isotropic_elements_visited": 65}),
    ("witt-order z3_third", witt_order_work, ("z3_third.mg",), {"class_multiply": 3, "isotropic_elements_visited": 35}),
]


@pytest.mark.parametrize("work,names,expected", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_work_counts(monkeypatch, work, names, expected):
    assert work(monkeypatch, names) == expected
