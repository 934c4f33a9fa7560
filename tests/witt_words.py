"""Witt words, a pointed class times a power of the Ising generator: the
tests' model of 2[Ising] = [Z4, x^2/8], which no CLI verb runs."""

from dataclasses import dataclass
from fractions import Fraction

from fusionwitt.caps import ORDER_CAP
from fusionwitt.metric_group import inverse_form, metric_group
from fusionwitt.witt import IDENTITY_CLASS, PointedWittClass, class_multiply


def class_inverse(c: PointedWittClass) -> PointedWittClass:
    """Negate every representative form; anisotropy is preserved."""
    return PointedWittClass(parts=tuple((p, inverse_form(r)) for p, r in c.parts))


@dataclass(frozen=True)
class WittWord:
    """A pointed class times a power of the Ising generator.

    The exponent lives mod 16.  Two words with different fields can be
    the same class, since twice the Ising generator is pointed (see
    ising_square); compare words with word_eq.
    """

    pointed: PointedWittClass
    ising_exponent: int

    def __post_init__(self):
        object.__setattr__(self, "ising_exponent", self.ising_exponent % 16)


IDENTITY_WORD = WittWord(pointed=IDENTITY_CLASS, ising_exponent=0)
ISING_GENERATOR_WORD = WittWord(pointed=IDENTITY_CLASS, ising_exponent=1)


def from_ising_category(exponent: int) -> WittWord:
    """Word of an Ising braided category: its exponent is odd, 1..15."""
    if exponent % 2 == 0 or not 1 <= exponent <= 15:
        raise ValueError(f"Ising categories carry odd exponents in 1..15, got {exponent}")
    return WittWord(pointed=IDENTITY_CLASS, ising_exponent=exponent)


def word_compose(w1: WittWord, w2: WittWord) -> WittWord:
    return WittWord(class_multiply(w1.pointed, w2.pointed), (w1.ising_exponent + w2.ising_exponent) % 16)


def word_inverse(w: WittWord) -> WittWord:
    return WittWord(pointed=class_inverse(w.pointed), ising_exponent=(-w.ising_exponent) % 16)


def ising_square() -> PointedWittClass:
    """2[Ising] = [Z4, x^2/8]: condensing the boson ψ⊠ψ of
    Ising_a ⊠ Ising_b leaves the pointed class ((a + b)/2)·[Z4, x^2/8]
    (Davydov–Nikshych–Ostrik, arXiv:1109.5558).  The class has order 8,
    so the Ising generator has order 16."""
    return PointedWittClass(parts=((2, metric_group((4,), (Fraction(1, 8),))),))


def word_is_identity(w: WittWord) -> bool:
    """Whether w is the identity class: its exponent e is even and
    pointed · (e/2)·[Z4, x^2/8] is the identity."""
    if w.ising_exponent % 2:
        return False
    acc, square = w.pointed, ising_square()
    for _ in range(w.ising_exponent // 2):
        acc = class_multiply(acc, square)
    return acc.is_identity()


def word_eq(w1: WittWord, w2: WittWord) -> bool:
    """Equality of the classes: w1 · w2^-1 is the identity."""
    return word_is_identity(word_compose(w1, word_inverse(w2)))


def word_order(w: WittWord) -> int:
    """Smallest n >= 1 with w**n the identity class."""
    n, acc = 1, w
    while not word_is_identity(acc):
        n += 1
        ORDER_CAP.check(n, "word order")
        acc = word_compose(acc, w)
    return n
