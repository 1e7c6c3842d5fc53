"""Buchberger engine with elimination orders, dimension, membership and saturation.

The engine is a plain Buchberger loop with the normal selection strategy
and Gebauer-Moeller pair elimination; returned bases are reduced, monic
and sorted by decreasing leading monomial.  Computation budgets (pair
count, intermediate term count, optional wall-clock deadline) raise
``BudgetExceededError`` instead of ever returning a truncated basis.

Reduction runs over Z: every working polynomial is a primitive integer
term map and normal forms are fraction-free pseudo-remainders.  A
pseudo-remainder is a nonzero rational multiple of the remainder over Q,
with the same support at every step, so the path through pairs and
budgets is the one division over Q would take.  A basis is held as its
primitive integer reducers; ``Fraction``s appear only in returned
polynomials: the monic ``polys`` and ``normal_form``.

Bases of a scalar specialization are read from its root's basis, not
recomputed (Kalkbrener, J. Symbolic Comput. 24, 1997): let G be a
Groebner basis of I in Q[T, Y] under an order comparing the Y-part
first, and t a point at which no element's leading coefficient in Q[T]
vanishes.  Then G at T = t is a Groebner basis of I at T = t, and
interreduction makes it the reduced one (``specialize_basis``).  The
ideal at an integer point T = t records I as its root, and I caches G.
The leads on a part of the variables, under (part | rest), are read the
same way.  ``Ideal.lifted`` alone applies this rule: it returns the
root's basis and t where no leading coefficient vanishes at t (a
hypersurface of parameter values; finitely many t for one parameter),
and the ideal's own basis otherwise.  ``Ideal.groebner`` always runs
Buchberger on the ideal's own generators.

What a fiber reads from its root at every point is compiled once into
integer tables (``poly.dense_table``), cached where it is read from, and
evaluated at t by ``poly.horner``; no fiber walks the root's terms in
``Fraction``s for it.  A basis holds, per part, each element's
``part``-leading coefficient as one table in T per monomial in the other
variables (``GroebnerBasis.leading_coefficients``): ``lifted`` reads them at
t, and the positive-dimensional primality test reads h from them.  The
root's eliminants are rows of tables too (``Ideal.eliminant``).  A fiber
substitutes its generators only where ``lifted`` falls back to its own
basis: it is the zero ideal exactly when its dimension is its number of
variables, and that dimension is read from the root's leads.

Krull dimension is computed from the grevlex staircase: the dimension of
the quotient is the largest subset of variables meeting no leading-term
support, searched exhaustively (inputs here stay below ~8 variables).
The first largest subset in ``itertools.combinations`` order is the set
of independent variables that positive-dimensional primality
specializes; the basis it is read from caches it.  A fiber reads it from
the leads of its root's basis under (Y | T), which project onto its own
leads where no leading coefficient vanishes, so it builds no basis for
it; ``fiber_dimension`` of the root over T is the same set, cached once.
Saturation by a polynomial is an elimination (the Rabinowitsch trick).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import itemgetter, le

from .context import VariableContext
from .errors import BudgetExceededError, ContextMismatchError
from .orders import MonomialOrder, grevlex, target_first
from .poly import Exponent, Polynomial, dense_table, horner, integer_primitive, monomials_upto


@dataclass(frozen=True)
class GBLimits:
    max_pairs: int = 50_000
    max_term_count: int = 200_000
    deadline: float | None = None  # absolute time.monotonic() value

    def check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("wall-clock budget exceeded")


DEFAULT_LIMITS = GBLimits()

# Term budget of an eliminant build, below the sample's when that is larger.
# An eliminant only replaces Krylov runs, so stopping its build never moves a
# verdict.  The eliminants that pay off stay far below it (at most 94 terms in
# a reduction, for the sphere cut by a quadric); the cone over the twisted
# cubic cut by a quadric, with 15 coefficient parameters, passed 7000 terms
# and a 20 s deadline on the way to one it would evaluate at every fiber.
ELIMINANT_TERMS = 1_000


# -- exponent helpers -------------------------------------------------------


def _lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x if x > y else y for x, y in zip(a, b))


def _mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def _divides(a: Exponent, b: Exponent) -> bool:
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


def _quotient(b: Exponent, a: Exponent) -> Exponent:
    return tuple(y - x for x, y in zip(a, b))


# -- reduction ---------------------------------------------------------------

# A reducer is (lead_exponent, lead_coefficient, term_map): a primitive
# integer term map whose lead coefficient is a positive int.  Each lead is
# computed once, when its element becomes a reducer.


def _primitive(terms, order):
    """Primitive reducer (lead, lc, term_map) of a nonzero integer term map, lc > 0."""
    lead = max(terms, key=order.key)
    content = math.gcd(*terms.values())
    if terms[lead] < 0:
        content = -content
    if content != 1:
        terms = {e: c // content for e, c in terms.items()}
    return lead, terms[lead], terms


def _normal_form_terms(terms, reducers, order, limits):
    """Pseudo-remainder over Z of an integer term map, fully tail-reduced.

    Returns (remainder, scale) with remainder == scale * NF(terms).  A
    step on the term c*x^a with reducer lead lc*x^b multiplies the whole
    state by lc/g and subtracts (c/g)*x^(a-b)*body, g = gcd(c, lc); after
    a scaling step the common content of work and remainder is divided
    out.  The support of every intermediate equals that of division over
    Q, so reducer choice and the term budget follow the same path.

    Ties between applicable reducers break by lowest index, which keeps
    reduction deterministic.  Each exponent's order key is computed once,
    when the exponent first enters ``work``; keys of distinct exponents
    differ, so the largest key picks the leading term.
    """
    work = dict(terms)
    remainder = {}
    num = den = 1
    key = order.key
    keys = {e: key(e) for e in work}
    while work:
        limits.check_deadline()
        exp = max(work, key=keys.__getitem__)
        coeff = work[exp]
        for lead, lead_coeff, body in reducers:
            if _divides(lead, exp):
                shift = _quotient(exp, lead)
                g = math.gcd(coeff, lead_coeff)
                mult = lead_coeff // g
                coeff //= g
                if mult != 1:
                    work = {e: c * mult for e, c in work.items()}
                    remainder = {e: c * mult for e, c in remainder.items()}
                    num *= mult
                for e, c in body.items():
                    target = _mul(e, shift)
                    new = work.get(target, 0) - coeff * c
                    if new:
                        work[target] = new
                        if target not in keys:
                            keys[target] = key(target)
                    else:
                        work.pop(target, None)
                if len(work) + len(remainder) > limits.max_term_count:
                    raise BudgetExceededError("intermediate polynomial exceeds term budget")
                if mult != 1:
                    content = math.gcd(*work.values(), *remainder.values())
                    if content != 1:
                        work = {e: c // content for e, c in work.items()}
                        remainder = {e: c // content for e, c in remainder.items()}
                        den *= content
                break
        else:
            remainder[exp] = coeff
            del work[exp]
    return remainder, Fraction(num, den)


class GroebnerBasis:
    """A reduced Groebner basis frozen together with its monomial order.

    The basis is held as its primitive integer reducers, sorted by
    decreasing lead; reduction runs on them.  ``polys``, the monic
    polynomials over Q, are built from them on first use.
    """

    __slots__ = ("context", "order", "_reducers", "_polys", "_staircases", "_independent",
                 "_leading")

    def __init__(self, context, order, reducers):
        self.context = context
        self.order = order
        self._reducers = tuple(reducers)
        self._polys = None
        self._staircases = {}
        self._independent = {}
        self._leading = {}

    @property
    def polys(self) -> tuple[Polynomial, ...]:
        if self._polys is None:
            self._polys = tuple(
                Polynomial(self.context, {e: Fraction(c, lc) for e, c in terms.items()})
                for _, lc, terms in self._reducers)
        return self._polys

    def __iter__(self):
        return iter(self.polys)

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and self.context == other.context
                and self.order == other.order
                and self._reducers == other._reducers)

    def leading_exponents(self) -> list[Exponent]:
        return [lead for lead, _, _ in self._reducers]

    def staircase(self, part: VariableContext,
                  limits=DEFAULT_LIMITS) -> tuple[Exponent, ...] | None:
        """The monomials in ``part`` below the leads projected onto it; None if infinite.

        Grevlex-increasing (``_staircase``, which checks the deadline of
        ``limits``).  ``part`` is the context or, under (part | rest), the
        part compared first.  Cached per part, so the fibers that read a
        root's basis share one staircase; nothing is cached when it raises.
        """
        if part not in self._staircases:
            leads = map(_projection(self.context, part), self.leading_exponents())
            self._staircases[part] = _staircase(list(leads), len(part), limits)
        return self._staircases[part]

    def independent_set(self, part: VariableContext,
                        limits=DEFAULT_LIMITS) -> tuple[int, ...] | None:
        """``_max_independent_set`` of the leads projected onto ``part``; cached per part."""
        if part not in self._independent:
            leads = map(_projection(self.context, part), self.leading_exponents())
            self._independent[part] = _max_independent_set(list(leads), len(part), limits)
        return self._independent[part]

    def leading_coefficients(self, part: VariableContext, values) -> list | None:
        """Per element, its lead's coefficient lc and its ``part``-leading coefficient at ``values``.

        ``self.order`` must compare the ``part`` variables first
        (``target_first``): an element's ``part``-leading coefficient is then
        the polynomial in the other variables in front of the ``part`` of its
        lead.  ``values`` binds the first variables of the context (a root's
        parameters) to ints, or none.  The coefficient is an int term map over
        the other variables, with ``part`` exponents 0; divided by lc it is
        the monic element's.  None as soon as one coefficient vanishes at
        ``values``: the elements after it are not evaluated.  Compiled once
        per part and number of values (``_tables``, one table over the bound
        variables per monomial in the others) and read by ``horner``.
        """
        at = tuple(values.values())
        key = (part, len(at))
        if key not in self._leading:
            project = _projection(self.context, part)
            positions = self.context.indices_of(part.names)
            self._leading[key] = [
                (lc, tuple(_tables({tuple(0 if i in positions else x for i, x in enumerate(e)): c
                                    for e, c in terms.items() if project(e) == project(lead)},
                                   len(at)).items()))
                for lead, lc, terms in self._reducers]
        leading = []
        for lc, tables in self._leading[key]:
            leading.append((lc, {e: c for e, table in tables if (c := horner(table, at))}))
            if not leading[-1][1]:
                return None
        return leading

    def pseudo_normal_form(self, terms, limits=DEFAULT_LIMITS):
        """(remainder, scale) of an integer term map; remainder == scale * NF."""
        return _normal_form_terms(terms, self._reducers, self.order, limits)

    def normal_form(self, p: Polynomial, limits=DEFAULT_LIMITS) -> Polynomial:
        if p.context != self.context:
            raise ContextMismatchError("polynomial context differs from basis context")
        content, terms = integer_primitive(p.terms)
        remainder, scale = self.pseudo_normal_form(terms, limits)
        factor = content / scale
        return Polynomial(self.context, {e: factor * c for e, c in remainder.items()})

    def contains(self, p: Polynomial, limits=DEFAULT_LIMITS) -> bool:
        """True when p lies in the ideal: its integer pseudo-remainder is empty."""
        if p.context != self.context:
            raise ContextMismatchError("polynomial context differs from basis context")
        return not self.pseudo_normal_form(integer_primitive(p.terms)[1], limits)[0]


def _staircase(leads, width, limits=DEFAULT_LIMITS):
    """Monomials outside the monomial ideal of ``leads``, grevlex-increasing; None if infinite.

    Grown one variable at a time.  A partial monomial over the first i
    variables is dropped when a lead in those variables alone divides it,
    since then that lead divides every monomial it extends to; a kept one,
    padded with zeros, is itself a staircase monomial, so only staircase
    monomials are ever built, and one more per kept partial monomial,
    where the last variable's exponent reaches a lead.  The deadline is
    checked once per partial monomial.
    """
    bounds = {}
    for exp in leads:
        support = [i for i, e in enumerate(exp) if e]
        if len(support) == 1:
            bounds[support[0]] = min(exp[support[0]], bounds.get(support[0], exp[support[0]]))
    if len(bounds) < width:
        return None
    staircase = [()]
    for i in range(1, width + 1):
        inner = [lead[:i] for lead in leads if not any(lead[i:])]
        grown = []
        for exp in staircase:
            limits.check_deadline()
            for k in range(bounds[i - 1]):
                if any(_divides(lead, exp + (k,)) for lead in inner):
                    break  # the lead divides exp + (k',) for every k' > k too
                grown.append(exp + (k,))
        staircase = grown
    return tuple(sorted(staircase, key=grevlex.key))


# -- Buchberger ---------------------------------------------------------------


def _update(basis, pairs, new, order):
    """Add a reducer to the working basis and return the pruned pairs.

    Gebauer-Moeller criteria: discard old pairs whose lcm is a proper
    multiple of the new lead, keep one representative per minimal new
    lcm, and drop coprime-lead pairs (Buchberger's first criterion).
    """
    leads = [lead for lead, _, _ in basis]
    new_lead = new[0]
    m = len(basis)

    kept = set()
    for i, j in pairs:
        pair_lcm = _lcm(leads[i], leads[j])
        if (not _divides(new_lead, pair_lcm)
                or pair_lcm == _lcm(leads[i], new_lead)
                or pair_lcm == _lcm(leads[j], new_lead)):
            kept.add((i, j))

    by_lcm: dict[Exponent, list[int]] = {}
    for i in range(m):
        by_lcm.setdefault(_lcm(leads[i], new_lead), []).append(i)
    minimal = []
    for cand in sorted(by_lcm, key=order.key):
        if not any(_divides(kept_lcm, cand) for kept_lcm in minimal):
            minimal.append(cand)
    for cand in minimal:
        members = by_lcm[cand]
        if any(_lcm(leads[i], new_lead) == _mul(leads[i], new_lead) for i in members):
            continue  # coprime leads: S-polynomial reduces to zero
        kept.add((min(members), m))

    basis.append(new)
    return kept


def _s_polynomial(f, g) -> dict[Exponent, int]:
    """Integer term map of a nonzero multiple of the S-polynomial of two reducers."""
    lf, cf, f_terms = f
    lg, cg, g_terms = g
    lcm = _lcm(lf, lg)
    sf = _quotient(lcm, lf)
    sg = _quotient(lcm, lg)
    common = math.gcd(cf, cg)
    mf = cg // common
    mg = cf // common
    terms: dict[Exponent, int] = {}
    for e, c in f_terms.items():
        terms[_mul(e, sf)] = mf * c
    for e, c in g_terms.items():
        target = _mul(e, sg)
        new = terms.get(target, 0) - mg * c
        if new:
            terms[target] = new
        else:
            terms.pop(target, None)
    return terms


def buchberger(generators, order: MonomialOrder, limits=DEFAULT_LIMITS) -> list[tuple]:
    """Reduced Groebner basis of the given generators, as reducers.

    Returns primitive reducers (lead, lc, term_map) sorted by decreasing
    lead, the form ``GroebnerBasis`` is built from; the unit ideal yields
    the one reducer of 1 and the zero ideal ``[]``.
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return []
    context = gens[0].context
    for g in gens:
        if g.context != context:
            raise ContextMismatchError("generators live in different contexts")

    basis: list[tuple] = []
    pairs: set[tuple[int, int]] = set()
    for g in gens:
        reduced, _ = _normal_form_terms(integer_primitive(g.terms)[1], basis, order, limits)
        if reduced:
            pairs = _update(basis, pairs, _primitive(reduced, order), order)

    processed = 0
    key = order.key
    while pairs:
        limits.check_deadline()
        processed += 1
        if processed > limits.max_pairs:
            raise BudgetExceededError(f"pair budget {limits.max_pairs} exceeded")
        pair = min(pairs, key=lambda p: (key(_lcm(basis[p[0]][0], basis[p[1]][0])), p))
        pairs.remove(pair)
        i, j = pair
        remainder, _ = _normal_form_terms(_s_polynomial(basis[i], basis[j]), basis, order, limits)
        if remainder:
            pairs = _update(basis, pairs, _primitive(remainder, order), order)

    return _interreduce(basis, order, limits)


def _interreduce(basis, order, limits):
    # Already reduced when no lead divides a term other than its own element's lead.
    if not any(_divides(other, e) for i, (lead, _, terms) in enumerate(basis) for e in terms
               for j, (other, _, _) in enumerate(basis) if j != i or e != lead):
        return sorted(basis, key=lambda g: order.key(g[0]), reverse=True)
    # Minimal basis: drop elements whose lead is divisible by another lead.
    minimal = []
    for i, (lead, _, _) in enumerate(basis):
        if not any(j != i and _divides(other, lead) and (other != lead or j < i)
                   for j, (other, _, _) in enumerate(basis)):
            minimal.append(basis[i])
    reduced = []
    for i, (_, _, terms) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        rem, _ = _normal_form_terms(terms, others, order, limits)
        if rem:
            reduced.append(_primitive(rem, order))
    reduced.sort(key=lambda g: order.key(g[0]), reverse=True)
    return reduced


# -- specialization -------------------------------------------------------------


def _projection(context: VariableContext, target: VariableContext):
    """The map from an exponent over ``context`` to the tuple of its ``target`` entries."""
    positions = context.indices_of(target.names)
    if len(positions) == 1:
        i, = positions
        return lambda exp: (exp[i],)
    return itemgetter(*positions)


def _tables(terms, r: int) -> dict[Exponent, object]:
    """Each exponent after the first ``r`` entries -> the ``dense_table`` of its coefficient.

    ``terms`` is an integer term map; the coefficient of a monomial in the
    last variables is the term map in the first ``r`` variables in front
    of it, so ``horner`` at ints for those gives it at that point.
    """
    groups = {}
    for exp, c in terms.items():
        groups.setdefault(exp[r:], {})[exp[:r]] = c
    return {exp: dense_table(group, r) for exp, group in groups.items()}


def specialize_basis(basis: GroebnerBasis, values, target: VariableContext,
                     limits=DEFAULT_LIMITS) -> GroebnerBasis | None:
    """Reduced grevlex basis of the ideal at ``values`` from its basis; None if a lead vanishes.

    ``values`` binds every variable of ``basis.context`` outside ``target``
    to an int, and ``basis.order`` is ``target_first(target, basis.context)``.
    When no leading coefficient vanishes at ``values``, the images form a
    Groebner basis of the specialized ideal (Kalkbrener); interreduction
    makes it the reduced basis, which is unique, so it equals the one
    ``buchberger`` returns.  An image's coefficient at the ``target`` part
    of its lead is the leading coefficient at ``values``.  With no values
    ``basis`` is already that basis, and is returned.
    """
    if not values:
        return basis
    ctx = basis.context
    project = _projection(ctx, target)
    bound = [(ctx.index[name], value) for name, value in values.items()]
    reducers = []
    for lead, _, terms in basis._reducers:
        limits.check_deadline()
        image = {}
        for e, c in terms.items():
            for i, v in bound:
                c *= v ** e[i]
            projected = project(e)
            image[projected] = image.get(projected, 0) + c
        image = {e: c for e, c in image.items() if c}
        if project(lead) not in image:
            return None
        if len(image) > limits.max_term_count:
            raise BudgetExceededError("specialized polynomial exceeds term budget")
        reducers.append(_primitive(image, grevlex))
    return GroebnerBasis(target, grevlex, _interreduce(reducers, grevlex, limits))


# -- ideals -------------------------------------------------------------------


class Ideal:
    """Generator list plus cached Groebner bases.

    Zero generators are dropped when the generators are first read: at
    construction, or, when they are given as a function returning them, at
    the first read of ``generators`` or ``is_zero``.  The cache maps each
    monomial order to its reduced basis; it travels with the ideal when
    the ideal is pickled, so pool workers start from the parent's bases.

    ``origin`` = (base ideal, {parameter: int}) marks an ideal built by
    scalar specialization at integers; the base is its root, and every
    other ideal is its own root (``root``).  ``lifted`` reads the root's
    bases by the rule of the module docstring.  An ideal caches, per
    degrees and kind, the root whose scalar fibers are its samples at
    generic forms of those degrees: its cuts by them, or its parameters
    replaced by them (``sampling_root``).  A root also holds the
    memo of modular splits that ``primality`` passes to the factorizations
    of its fibers' eliminants and minimal polynomials: per prime and
    residues, the modular split, or None where the residues are not
    squarefree.
    """

    def __init__(self, context: VariableContext, generators=(), origin=None):
        self.context = context
        # a tuple, or the function that returns them on first read (``generators``)
        self._generators = generators if callable(generators) else self._accept(generators)
        self._cache: dict[MonomialOrder, GroebnerBasis] = {}
        # part -> ``lifted(part)``
        self._lifted: dict[VariableContext, tuple] = {}
        # part -> target_first(part, context)
        self._orders: dict[VariableContext, MonomialOrder] = {}
        # (coordinate, U) -> rows of its eliminant, or None (``eliminant``)
        self._chi: dict[tuple[str, tuple[str, ...]], list | None] = {}
        # (p, residues) -> the modular split of a fiber's chi or minimal polynomial,
        # or None where the residues are not squarefree (``factor.factor_primitive``)
        self._splits: dict[tuple[int, tuple[int, ...]], list | None] = {}
        # (degrees, cut) -> this ideal cut by, or specialized at, generic forms of
        # those degrees, or None (``sampling_root``)
        self._roots: dict[tuple[tuple[int, ...], bool], Ideal | None] = {}
        self._origin = origin

    def _accept(self, generators) -> tuple[Polynomial, ...]:
        gens = []
        for g in generators:
            if g.context != self.context:
                raise ContextMismatchError("generator context differs from ideal context")
            if not g.is_zero:
                gens.append(g)
        return tuple(gens)

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        if callable(self._generators):
            self._generators = self._accept(self._generators())
        return self._generators

    @property
    def is_zero(self) -> bool:
        """True when the ideal has no nonzero generator."""
        return not self.generators

    @property
    def root(self) -> tuple[Ideal, dict]:
        """(root ideal, the values of its variables outside this ideal's context)."""
        return self._origin or (self, {})

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal<{gens}>"

    def block_order(self, part: VariableContext) -> MonomialOrder:
        """``target_first(part, self.context)``, built once per ideal."""
        block = self._orders.get(part)
        if block is None:
            block = self._orders[part] = target_first(part, self.context)
        return block

    def groebner(self, order: MonomialOrder = grevlex, limits=DEFAULT_LIMITS) -> GroebnerBasis:
        """Buchberger's reduced basis of the generators under ``order``, cached per order."""
        basis = self._cache.get(order)
        if basis is None:
            reducers = buchberger(self.generators, order, limits)
            basis = self._cache[order] = GroebnerBasis(self.context, order, reducers)
        return basis

    def lifted(self, part: VariableContext, limits=DEFAULT_LIMITS):
        """(basis, values, leading) to read this ideal's leads on ``part`` from.

        The root's basis under (part | rest) and the root values when no
        element's ``part``-leading coefficient vanishes at them; otherwise
        this ideal's own basis under (part | rest) and no values (the rule
        of the module docstring).  ``leading`` holds each element's lc and
        those coefficients at ``values``, int term maps over this ideal's
        variables read from the basis' tables
        (``GroebnerBasis.leading_coefficients``).  At ``values`` and at values
        of the rest where none of them vanishes, ``specialize_basis`` of the
        basis is this ideal's reduced grevlex basis there.  Cached per part.
        """
        if part not in self._lifted:
            root, values = self.root
            basis = root.groebner(root.block_order(part), limits)
            leading = basis.leading_coefficients(part, values)
            if leading is None:
                values = {}
                basis = self.groebner(self.block_order(part), limits)
                leading = basis.leading_coefficients(part, values)
            self._lifted[part] = basis, values, leading
        return self._lifted[part]

    def independent_set(self, part: VariableContext | None = None,
                        limits=DEFAULT_LIMITS) -> tuple[int, ...] | None:
        """The first largest set of ``part``'s variables free of every lead; None for the unit ideal.

        ``part`` defaults to all variables, whose leads are the grevlex
        ones; otherwise they are the leads under (part | rest) projected
        onto ``part``, those of the ideal over the rational functions in the
        rest.  Indices are into ``part``.  Read from ``lifted``'s basis,
        which caches it: where that is the root's, every fiber shares one
        search, and no basis of this ideal is built.
        """
        if part is None:
            part = self.context
        basis, _, _ = self.lifted(part, limits)
        return basis.independent_set(part, limits)

    def dimension(self, limits=DEFAULT_LIMITS) -> int:
        return ideal_dimension(self, limits)

    def eliminant(self, name: str, free: tuple[str, ...], limits=DEFAULT_LIMITS):
        """The root's eliminant of the coordinate ``name`` over (T, U), as integer rows; or None.

        With P the root, U the variables ``free`` and W a fresh variable,
        the eliminant chi(T, U, W) is the one generator of
        (P + (W - name)) meet Q[T, U, W], so chi(T, U, name) lies in P.  Row
        k holds the coefficient of W^k, a primitive integer ``dense_table``
        over (T, U), W-degree ascending.  Built on first use and cached on
        the root for every fiber; None when the elimination ideal has no
        generator or more than one, or when a budget stops the build; its
        term budget is at most ``ELIMINANT_TERMS``.  A deadline that has
        passed is then raised, as the Krylov run would.
        """
        root = self.root[0]
        key = (name, free)
        if key not in root._chi:
            capped = replace(limits, max_term_count=min(limits.max_term_count, ELIMINANT_TERMS))
            try:
                root._chi[key] = _eliminant_rows(root, name, free, capped)
            except BudgetExceededError:
                root._chi[key] = None
                limits.check_deadline()
        return root._chi[key]

    def sampling_root(self, degrees, cut: bool, limits=DEFAULT_LIMITS) -> Ideal | None:
        """The root whose scalar fibers are this ideal's samples at generic forms; or None.

        Each degree d gives the generic form sum L_j * Y^e_j over the
        ``monomials_upto`` monomials of d, its coefficients parameters L0,
        L1, ... numbered across the forms in order, and named apart from
        this ideal's variables.  With ``cut`` the root is R = P + (forms) in
        Q[L, Y], for P this ideal in Q[Y]; otherwise the form of degree
        ``degrees[i]`` replaces the parameter T_i of P in Q[T, Y].  The
        scalar fiber of R at the coefficient blocks c, flattened, has the
        generators of P cut by, or specialized at, the forms with
        coefficients c, in the order ``intersect_generic`` or
        ``specialize_polynomial`` gives them.  Built on first use together
        with its (Y | L) block basis, which every fiber reads, and cached
        here by (degrees, cut); None when a pair or term budget stops that
        basis.  A deadline that has passed is raised and nothing is cached.
        """
        key = (tuple(degrees), cut)
        if key not in self._roots:
            ctx = self.context
            if cut and len(degrees) > self.dimension(limits):
                raise ValueError(f"cannot cut {len(degrees)} times: dimension is "
                                 f"{self.dimension(limits)}")
            supports = [monomials_upto(ctx.s, degree) for degree in degrees]
            width = sum(map(len, supports))
            stem = "L"
            while any(f"{stem}{j}" in ctx for j in range(width)):
                stem += "_"
            wide = VariableContext(tuple(f"{stem}{j}" for j in range(width)), ctx.var_names)
            # L_j * Y^e_j, with j counting on from one form to the next
            units = iter(tuple(int(i == j) for i in range(width)) for j in range(width))
            forms = [Polynomial(wide, {next(units) + exp: 1 for exp in support})
                     for support in supports]
            if cut:
                root = Ideal(wide, [g.embed(wide) for g in self.generators] + forms)
            else:
                bindings = dict(zip(ctx.param_names, forms, strict=True))
                root = Ideal(wide, [g.substitute(bindings, wide) for g in self.generators])
            try:
                root.groebner(root.block_order(ctx.without_params()), limits)
            except BudgetExceededError:
                limits.check_deadline()
                root = None
            self._roots[key] = root
        return self._roots[key]


def _max_independent_set(leads, width, limits=DEFAULT_LIMITS) -> tuple[int, ...] | None:
    """The first largest subset of variables containing no lead's support.

    First in ``itertools.combinations`` order, as a sorted index tuple;
    the empty set when no variable is free, None when a lead is 1.
    """
    supports = {frozenset(i for i, e in enumerate(exp) if e) for exp in leads}
    if frozenset() in supports:
        return None
    # a variable with a pure-power lead lies in no such subset
    free = [i for i in range(width) if frozenset((i,)) not in supports]
    for size in range(len(free), -1, -1):
        limits.check_deadline()
        for subset in itertools.combinations(free, size):
            chosen = set(subset)
            if not any(support <= chosen for support in supports):
                return subset


def ideal_dimension(ideal: Ideal, limits=DEFAULT_LIMITS) -> int:
    """Krull dimension of the quotient ring; -1 for the unit ideal."""
    free = ideal.independent_set(limits=limits)
    return -1 if free is None else len(free)


def eliminate(ideal: Ideal, keep_names, limits=DEFAULT_LIMITS) -> Ideal:
    """Intersection of the ideal with the subring on ``keep_names``.

    Computed from a block order whose leading group holds the eliminated
    variables; basis elements supported on the kept variables generate
    the elimination ideal.
    """
    ctx = ideal.context
    keep = tuple(keep_names)
    target = ctx.keep(keep)
    eliminated = [name for name in ctx.names if name not in keep]
    order = ideal.block_order(ctx.keep(eliminated)) if eliminated else grevlex
    basis = ideal.groebner(order, limits)
    keep_set = set(ctx.indices_of(keep))
    selected = []
    for p in basis:
        if all(all(e == 0 or i in keep_set for i, e in enumerate(exp)) for exp in p.terms):
            selected.append(p.embed(target))
    return Ideal(target, selected)


def _widened(ctx: VariableContext, fresh: str) -> VariableContext:
    """``ctx`` with one more variable after its own: ``fresh`` plus underscores (``apart``)."""
    return VariableContext(ctx.param_names, ctx.var_names + ctx.apart(fresh).names)


def _eliminant_rows(ideal: Ideal, name: str, free, limits) -> list | None:
    """``Ideal.eliminant`` of ``ideal``, computed by ``eliminate``."""
    ctx = ideal.context
    wide = _widened(ctx, "W")
    fresh = wide.var_names[-1]
    shift = Polynomial.variable(wide, fresh) - Polynomial.variable(wide, name)
    meet = eliminate(Ideal(wide, [g.embed(wide) for g in ideal.generators] + [shift]),
                     ctx.param_names + tuple(free) + (fresh,), limits)
    if len(meet.generators) != 1:
        return None
    _, ints = integer_primitive(meet.generators[0].terms)
    rows = _tables(ints, len(ctx.param_names) + len(free))  # keyed by (W-degree,)
    return [rows.get((k,), 0) for k in range(1 + max(rows)[0])]


def saturation(ideal: Ideal, h: Polynomial, limits=DEFAULT_LIMITS) -> Ideal:
    """The saturation I : h^oo, eliminating t from I + (1 - t*h) (Rabinowitsch)."""
    ctx = ideal.context
    wide = _widened(ctx, "_t")
    fresh = wide.var_names[-1]
    inverse = 1 - Polynomial.variable(wide, fresh) * h.embed(wide)
    return eliminate(Ideal(wide, [g.embed(wide) for g in ideal.generators] + [inverse]),
                     ctx.names, limits)


def fiber_dimension(ideal: Ideal, coefficient_names, limits=DEFAULT_LIMITS) -> int:
    """Dimension of the quotient after inverting the named variables.

    The leads under (rest | inverted), projected onto the rest, generate
    the leading-term ideal over the fraction field of the inverted
    variables, and ``Ideal.independent_set`` searches that staircase.  It
    caches the set on the ideal, where the fibers over the inverted
    parameters read it.  At least one variable must stay.
    """
    coeff = set(coefficient_names)
    main = ideal.context.keep(n for n in ideal.context.names if n not in coeff)
    free = ideal.independent_set(main, limits)
    return -1 if free is None else len(free)
