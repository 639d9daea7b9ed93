"""Reference search for `siegelcy.symplectic._corrections`.

The search runs in rounds: round d gives every class that one generator
carries into a class of an earlier round the word of that first generator
followed by the target's word, rescanning all classes each round.  The
module's tables come from one reverse breadth-first pass over the same
step table instead, and the tests check that both give the same words.
It also keeps `mod2`, the reduction of an integer matrix mod 2 that the
tests compare classes by; the program reduces through the class lookup.
"""

from __future__ import annotations

from siegelcy.characteristics import Mat4, sp4f2_walk
from siegelcy.symplectic import _GENERATOR_INDICES, Subgroup


def mod2(x: Mat4) -> Mat4:
    """x with every entry reduced mod 2: the 0/1 matrix of its class."""
    return tuple(tuple(v % 2 for v in row) for row in x)


def corrections(tag: Subgroup) -> tuple[tuple[int, ...], ...]:
    """`_corrections(tag)`, searched round by round, for a subgroup of the
    full group or of level 2."""
    classes, _, step = sp4f2_walk()
    # the targets are written here, not read from the module's table: every
    # class, the identity (class 0), or the classes with C = 0 mod 2
    if tag.kind == "full":
        word = {c: () for c in range(len(classes))}
    elif tag.kind in ("principal", "chi_kernel"):
        word = {0: ()}
    else:
        word = {c: () for c, x in enumerate(classes) if (x[2] | x[3]) & 0b1100 == 0}
    while len(word) < len(classes):  # one more generator per round
        reached = dict(word)
        for c in range(len(classes)):
            if c not in reached:
                g = next((g for g in _GENERATOR_INDICES if step[c][g] in reached), None)
                if g is not None:
                    word[c] = (g, *reached[step[c][g]])
    return tuple(word[c] for c in range(len(classes)))
