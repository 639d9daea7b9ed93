"""The term-pair series product, kept as the reference for the packed kernel.

`mul` takes two series of one bound, walks every pair of terms whose
weights n0 + n2 sum to at most that bound, and adds each coefficient
product into a dict keyed by the exponent triple.  `product` folds it
from the left and `power` squares and multiplies, so each of the three
matches one entry point of `siegelcy.qseries` term for term.  The results
are built with the public constructor, which drops zero coefficients.
"""

from __future__ import annotations

from siegelcy.qseries import QSeries


def mul(a: QSeries, b: QSeries) -> QSeries:
    n = a.truncation
    terms: dict = {}
    # group the right factor by n0+n2 so hopeless pairs are skipped early
    by_weight: dict[int, list] = {}
    for k, v in b.terms.items():
        by_weight.setdefault(k[0] + k[2], []).append((k, v))
    weights = sorted(by_weight)
    for k1, v1 in a.terms.items():
        w1 = k1[0] + k1[2]
        for w2 in weights:
            if w1 + w2 > n:
                break
            for k2, v2 in by_weight[w2]:
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                s = terms.get(key)
                p = v1 * v2
                terms[key] = p if s is None else s + p
    return QSeries(terms, n)


def product(series) -> QSeries:
    items = list(series)
    result = items[0]
    for s in items[1:]:
        result = mul(result, s)
    return result


def power(s: QSeries, n: int) -> QSeries:
    if n == 0:
        return QSeries({(0, 0, 0): 1}, s.truncation)
    result = None
    base = s
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)
