"""Exact monomial and monomial-ideal arithmetic.

Monomials are exponent vectors over a fixed, ordered list of variables.
A MonomialIdeal stores a *minimal* generating set: no generator divides
another.  Everything here is immutable and hashable so values can be
shared freely.
"""

from __future__ import annotations

import itertools
import re

# Exponents are kept well below this bound; the input grammar rejects
# anything larger so downstream arithmetic can't silently wrap if a user
# ports this to fixed-width integers.
MAX_EXPONENT = 2**31 - 1


class IdealSyntaxError(ValueError):
    """Raised by parse_ideal with the offending position in the source."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Monomial(tuple):
    """An exponent vector.  Behaves like a tuple of non-negative ints.

    >>> m = Monomial((2, 0, 1))
    >>> m.lcm(Monomial((1, 1, 0)))
    Monomial((2, 1, 1))
    >>> Monomial((1, 0, 0)).divides(m)
    True
    """

    __slots__ = ()

    def __new__(cls, exponents):
        if isinstance(exponents, Monomial):  # valid already, and immutable
            return exponents
        exps = tuple(exponents)
        for e in exps:
            # bools are ints to Python, but no exponent
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError(f"exponent {e!r} in {exps} is not an int")
            if e < 0:
                raise ValueError(f"negative exponent in {exps}")
        return tuple.__new__(cls, exps)

    def __repr__(self):
        return f"Monomial({tuple(self)!r})"

    @property
    def is_unit(self):
        return not any(self)

    def lcm(self, *others):
        """The componentwise max of self and any number of Monomials,
        taken in one pass: self itself when there are none.  Each one's
        dimension is checked; the max of valid exponent vectors is
        valid, so no exponent is checked again.

        >>> Monomial((0, 0, 0)).lcm(Monomial((1, 0, 2)), Monomial((0, 3, 1)))
        Monomial((1, 3, 2))
        """
        if not others:
            return self
        for other in others:
            _check_dim(self, other)
        return tuple.__new__(Monomial, map(max, self, *others))

    def divides(self, other):
        _check_dim(self, other)
        return all(a <= b for a, b in zip(self, other))

    def ratio(self, other):
        """Componentwise self - other; requires other | self."""
        _check_dim(self, other)
        if not Monomial(other).divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(a - b for a, b in zip(self, other))

    def format(self, variables):
        """Render as the grammar used by parse_ideal.

        >>> Monomial((2, 1, 0)).format(("x", "y", "z"))
        'x^2*y'
        """
        parts = []
        for name, e in zip(variables, self):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def _check_dim(a, b):
    if len(a) != len(b):
        raise ValueError(f"ambient dimension mismatch: {len(a)} vs {len(b)}")


def minimalize(monomials):
    """Drop every monomial that some other (distinct) one divides.

    Idempotent; survivors keep their first-occurrence order, so the
    atom numbering of downstream lattices follows the input.
    """
    ms = [Monomial(m) for m in monomials]
    keep = []
    for m in ms:
        if m in keep:
            continue
        if any(n != m and n.divides(m) for n in ms):
            continue
        keep.append(m)
    return tuple(keep)


class MonomialIdeal:
    """A monomial ideal given by its minimal generating set.

    `variables` fixes the exponent order; `generators` must already be
    pairwise non-dividing and non-unit (use parse_ideal or minimalize).
    """

    def __init__(self, variables, generators):
        self.variables = tuple(str(v) for v in variables)
        gens = tuple(Monomial(g) for g in generators)
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        for g in gens:
            if len(g) != len(self.variables):
                raise ValueError("generator length does not match variable count")
            if g.is_unit:
                raise ValueError("the unit monomial cannot be a minimal generator")
        for g in gens:
            for h in gens:
                if g != h and g.divides(h):
                    raise ValueError(f"non-minimal generators: {g} divides {h}")
        self.generators = gens

    @property
    def ambient_dim(self):
        return len(self.variables)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return (self.variables == other.variables
                and sorted(self.generators) == sorted(other.generators))

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.generators))))

    def __repr__(self):
        return f"MonomialIdeal({self.to_text()!r})"

    def to_text(self):
        """Inverse of parse_ideal (up to whitespace); generator order kept."""
        return "; ".join(g.format(self.variables) for g in self.generators)


def parse_ideal(text):
    """Parse the ideal grammar into a MonomialIdeal.

    Generators are separated by ';' or newlines; each generator is a
    '*'-separated list of factors `var` or `var^k`; `#` starts a comment.
    Variables are collected and ordered lexicographically by name.

    >>> parse_ideal("x*y; y*z").generators
    (Monomial((1, 1, 0)), Monomial((0, 1, 1)))
    >>> parse_ideal("x; x*y").to_text()
    'x'
    """
    # blank comments out with spaces, so offsets stay those of the text
    source = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text)

    # first pass: tokenize each generator chunk into its exponent sums
    chunks = re.split(r"[;\n]", source)
    offsets = []
    pos = 0
    for c in chunks:
        offsets.append(pos)
        pos += len(c) + 1

    raw_gens = []
    names = set()
    for chunk, base in zip(chunks, offsets):
        if not chunk.strip():
            continue
        factors = {}  # name -> exponent summed over the factors so far
        pieces = chunk.split("*")
        starts = itertools.accumulate((len(p) + 1 for p in pieces), initial=base)
        for piece, at in zip(pieces, starts):
            piece = piece.strip()
            if not piece:
                raise IdealSyntaxError("empty factor", at)
            m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*([0-9]+))?", piece)
            if m is None:
                raise IdealSyntaxError(f"cannot read factor {piece!r}", at)
            name, digits = m.group(1), (m.group(2) or "1").lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)):  # too large unread
                raise IdealSyntaxError(f"exponent of {name} too large "
                                       f"({len(digits)} digits)", at)
            exp = int(digits) + factors.get(name, 0)
            if exp > MAX_EXPONENT:
                raise IdealSyntaxError(f"exponent {exp} of {name} too large", at)
            factors[name] = exp
            names.add(name)
        raw_gens.append((factors, base))

    if not raw_gens:
        raise IdealSyntaxError("no generators", 0)

    variables = tuple(sorted(names))
    index = {v: i for i, v in enumerate(variables)}
    gens = []
    for factors, base in raw_gens:
        exps = [0] * len(variables)
        for name, exp in factors.items():
            exps[index[name]] = exp
        g = Monomial(exps)
        if g.is_unit:
            raise IdealSyntaxError("generator equal to 1", base)
        gens.append(g)

    return MonomialIdeal(variables, minimalize(gens))
