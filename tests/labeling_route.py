"""Reference route for the class labelings of a six-class scheme: every
label set {0, c1} and {0, c1, c2} is tested on R itself, one
``_equivalence_classes`` scan each, with no use of p to rule any out.  The
tests compare ``sgdd.schemes._identify_labelings``, which scans R only for
label sets on which p is closed, against it; the groups and fibers each
scan finds go into the candidates as ``sgdd.schemes`` passes them on.
Its scan lists the classes by ``np.unique`` of the least points, where
``sgdd.designs.equivalence_classes`` takes the points that are their own
least relative."""

import numpy as np

from sgdd.schemes import CLASSES


def _equivalence_classes(relation, labels):
    arr = np.isin(relation, labels)
    least = arr.argmax(axis=1)
    if not np.array_equal(arr, least[:, None] == least):
        return None
    classes = [tuple(np.flatnonzero(least == x).tolist()) for x in np.unique(least)]
    return classes if len({len(c) for c in classes}) == 1 else None


def identify_labelings(relation, p) -> list[dict]:
    size = relation.shape[0]
    idx = range(CLASSES)
    c0 = 0
    valency = {i: p[i][i][0] for i in idx}
    out = []
    for c1 in idx[1:]:
        cls1 = _equivalence_classes(relation, (c0, c1))
        if cls1 is None:
            continue
        n = 1 + valency[c1]
        for c2 in idx:
            if c2 in (c0, c1):
                continue
            fib = _equivalence_classes(relation, (c0, c1, c2))
            if fib is None:
                continue
            mn = len(fib[0])
            if mn % n or mn // n < 2 or size % mn:
                continue
            m = mn // n
            f = size // mn
            if f < 2 or valency[c2] != (m - 1) * n:
                continue
            rest = [i for i in idx if i not in (c0, c1, c2)]
            for c5 in rest:
                if valency[c5] != (f - 1) * n:
                    continue
                expected = [0] * CLASSES
                expected[c5] = n - 1
                if p[c1][c5] != expected:
                    continue
                c3c4 = [i for i in rest if i != c5]
                for c3 in c3c4:
                    c4 = next(i for i in c3c4 if i != c3)
                    out.append({"labels": (c0, c1, c2, c3, c4, c5), "m": m, "n": n, "f": f, "groups": cls1, "fibers": fib})
    return out
