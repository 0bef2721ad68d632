"""The earlier (roles, flip) form of the family table, kept as a test oracle.

Each variant was written as the roles of its uncomplemented construction
plus a flip pair marking the coordinates complemented afterwards:
OL- was (X, 1 - Y) and OL* (1 - X, 1 - Y) of the OL+ roles.  Every consumer
applied the flips itself.  These functions redo that arithmetic from this
table alone, so tests can compare the package, whose table writes
complemented coordinates with n and d exchanged, against it.
"""

import operator
from functools import reduce

from bibeta.families import AN5, AN8, INDEPENDENT, OL_MINUS, OL_PLUS, OL_STAR, FamilySpec
from bibeta.special import BetaParams

_OL_ROLES = ("n-", "-n", "dd")
_NO_FLIP = (False, False)
FLIP_STRUCTURE = {
    OL_PLUS: (_OL_ROLES, _NO_FLIP),
    OL_MINUS: (_OL_ROLES, (False, True)),
    OL_STAR: (_OL_ROLES, (True, True)),
    AN5: (("n-", "-n", "nd", "dn", "dd"), _NO_FLIP),
    AN8: (("n-", "-n", "d-", "-d", "nn", "dd", "nd", "dn"), _NO_FLIP),
    INDEPENDENT: (("n-", "d-", "-n", "-d"), _NO_FLIP),
}
WHICH_FLIPS = {"x": (True, False), "y": (False, True), "both": (True, True)}
_SWAP_ND = str.maketrans("nd", "dn")


def flip_axes(variant):
    """Per coordinate: numerator indices, rest indices (zero shapes included), complemented."""
    roles, flip = FLIP_STRUCTURE[variant]
    return tuple(
        (
            tuple(i for i, r in enumerate(roles) if r[axis] == "n"),
            tuple(i for i, r in enumerate(roles) if r[axis] == "d"),
            flipped,
        )
        for axis, flipped in enumerate(flip)
    )


def flip_valid(variant, alphas):
    """Whether the old validation accepted these nonnegative finite shapes."""
    if variant in (OL_PLUS, OL_MINUS, OL_STAR) and min(alphas) <= 0.0:
        return False
    return all(any(alphas[i] > 0.0 for i in side) for num, rest, _ in flip_axes(variant) for side in (num, rest))


def flip_marginal_params(spec):
    """Shape sums in index order over every component; a complemented coordinate swaps (a, b)."""
    out = []
    for num, rest, flipped in flip_axes(spec.variant):
        a = reduce(operator.add, (spec.alphas[i] for i in num))
        b = reduce(operator.add, (spec.alphas[i] for i in rest))
        out.append(BetaParams(b, a) if flipped else BetaParams(a, b))
    return tuple(out)


def _an8_slots(roles, flip):
    an8_roles = FLIP_STRUCTURE[AN8][0]
    return tuple(
        an8_roles.index("".join(c.translate(_SWAP_ND) if f else c for c, f in zip(role, flip))) for role in roles
    )


def _an8_vector(alphas, slots):
    vec = [0.0] * 8
    for slot, value in zip(slots, alphas):
        vec[slot] = value
    return tuple(vec)


def flip_an8_embedding(spec):
    if spec.variant == AN8:
        return spec
    return FamilySpec(AN8, _an8_vector(spec.alphas, _an8_slots(*FLIP_STRUCTURE[spec.variant])))


def flip_complement(spec, which):
    """Toggle the flips, place the result in AN8 and lower it to OL or indep where the support matches."""
    roles, flip = FLIP_STRUCTURE[spec.variant]
    flip = tuple(f != w for f, w in zip(flip, WHICH_FLIPS[which]))
    vec = _an8_vector(spec.alphas, _an8_slots(roles, flip))
    support = {i for i, a in enumerate(vec) if a != 0.0}
    for variant in (OL_PLUS, OL_MINUS, OL_STAR, INDEPENDENT):
        slots = _an8_slots(*FLIP_STRUCTURE[variant])
        if support == set(slots):
            return FamilySpec(variant, tuple(vec[i] for i in slots))
    return FamilySpec(AN8, vec)
