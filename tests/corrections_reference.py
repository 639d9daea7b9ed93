"""Reference search for `siegelcy.symplectic._corrections`.

The search runs in rounds: round d gives every class that one generator
carries into a class of an earlier round the word of that first generator
followed by the target's word, rescanning all classes each round.  The
module's tables come from one reverse breadth-first pass over the same
step table instead, and the tests check that both give the same words.
"""

from __future__ import annotations

from siegelcy.characteristics import sp4f2_steps, sp4f2_walk
from siegelcy.symplectic import _GENERATOR_INDICES, _GENERATOR_ROWS, Subgroup


def corrections(tag: Subgroup) -> tuple[tuple[int, ...], ...]:
    """`_corrections(tag)`, searched round by round."""
    classes = sp4f2_walk()[0]
    if tag.kind == "full":
        word = {c: () for c in range(len(classes))}
    elif tag.level == 2 and tag.kind in ("principal", "chi_kernel"):
        word = {0: ()}
    elif tag.level == 2 and tag.kind in ("hecke", "hecke_chi_kernel"):
        word = {c: () for c, x in enumerate(classes) if (x[2] | x[3]) & 0b1100 == 0}
    else:
        raise ValueError(f"cannot sample {tag}: only the full group and level 2")
    step = sp4f2_steps(_GENERATOR_ROWS)
    while len(word) < len(classes):  # one more generator per round
        reached = dict(word)
        for c in range(len(classes)):
            if c not in reached:
                g = next((g for g in _GENERATOR_INDICES if step[c][g] in reached), None)
                if g is not None:
                    word[c] = (g, *reached[step[c][g]])
    return tuple(word[c] for c in range(len(classes)))
