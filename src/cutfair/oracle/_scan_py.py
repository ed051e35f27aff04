"""Pure-Python enumeration kernel.

Walks assignment functions (free vertices -> bundles) in lexicographic order
with incremental cut-value maintenance, evaluating fairness predicates on
each state.  In canonical mode it visits only restricted growth strings
(Knuth, TAOCP 4A, 7.2.1.5): digit k rises to at most one more than the
largest digit before it, so each bundle partition is visited once, by its
lex-least labelling, and a match counts for every labelling of its
partition.  Semantically identical to the hand-written C kernel in _scan.c;
the compiled one is preferred at import time when available.
"""

from __future__ import annotations

from math import perm

NONEMPTY = 1
EF = 2
EF1 = 4
ALPHA_EF1 = 8
TS = 16
WTS = 32

BIG = 1 << 60


def _index(digits, n):
    """The labelled index of the state whose free-vertex labels are digits."""
    index = 0
    for d in digits:
        index = index * n + d
    return index


def scan(
    num_vertices,
    n,
    indptr,
    indices,
    degrees,
    fixed,
    require_mask,
    alpha_num,
    alpha_den,
    first_only,
    collect_vectors,
    list_matches,
    canonical,
    shift,
):
    """Scan global assignment indices from 0 to n**free - 1; in canonical
    mode (no fixed vertex) only the restricted growth strings.

    Returns a dict with:
      states          -- number of states visited
      matched         -- number of labelled states matching require_mask
      first_index     -- least matching index, or -1
      matches         -- index of every matching state visited, in scan order
                         (list_matches only)
      all_vectors     -- {packed sorted value vector: least index} (collect only)
      matched_first   -- same, restricted to matching states (collect only)
      matched_count   -- {packed vector: labelled matching-state count} (collect only)
    """
    free = [v for v in range(num_vertices) if fixed[v] < 0]
    f = len(free)
    if canonical and f < num_vertices:
        raise ValueError("a canonical scan fixes no vertex")
    assign = [max(b, 0) for b in fixed]  # every free vertex starts in bundle 0
    digits = [0] * f
    n1 = n - 1
    top = [min(n1, k, 1) if canonical else n1 for k in range(f)]  # the largest label of digit k
    # a canonical state with e empty bundles stands for n!/e! labellings
    weights = [perm(n, n - e) for e in range(n + 1)]

    cnt = [[0] * n for _ in range(num_vertices)]
    for v in range(num_vertices):
        row = cnt[v]
        for p in range(indptr[v], indptr[v + 1]):
            row[assign[indices[p]]] += 1
    values = [0] * n
    sizes = [0] * n
    for v in range(num_vertices):
        b = assign[v]
        values[b] += degrees[v] - cnt[v][b]
        sizes[b] += 1

    adj = [indices[indptr[v] : indptr[v + 1]] for v in range(num_vertices)]

    matches = [] if list_matches else None
    all_vectors: dict = {}
    matched_first: dict = {}
    matched_count: dict = {}
    states = 0
    matched = 0
    first_index = -1

    while True:
        states += 1
        ok = True
        if require_mask & NONEMPTY:
            ok = min(sizes) > 0
        if ok and require_mask & EF:
            ok = min(values) == max(values)
        minrem = None
        if ok and require_mask & (EF1 | ALPHA_EF1):
            minrem = [BIG] * n
            for v in range(num_vertices):
                b = assign[v]
                r = 2 * cnt[v][b] - degrees[v]
                if r < minrem[b]:
                    minrem[b] = r
            vmin = min(values)
            if require_mask & EF1:
                for b in range(n):
                    if values[b] > vmin and values[b] + minrem[b] > vmin:
                        ok = False
                        break
            if ok and require_mask & ALPHA_EF1:
                for b in range(n):
                    if values[b] > vmin and alpha_num * (values[b] + minrem[b]) > alpha_den * vmin:
                        ok = False
                        break
        if ok and require_mask & (TS | WTS):
            for v in range(num_vertices):
                b = assign[v]
                r = 2 * cnt[v][b] - degrees[v]
                if r < 0:
                    continue
                row = cnt[v]
                deg = degrees[v]
                if require_mask & TS:
                    for j in range(n):
                        if j == b:
                            continue
                        gain = deg - 2 * row[j]
                        if gain >= 0 and (r > 0 or gain > 0):
                            ok = False
                            break
                elif r > 0:
                    for j in range(n):
                        if j != b and deg - 2 * row[j] > 0:
                            ok = False
                            break
                if not ok:
                    break

        if ok:
            weight = weights[sizes.count(0)] if canonical else 1
            matched += weight
            if list_matches:
                matches.append(_index(digits, n))
            if first_index < 0:
                first_index = _index(digits, n)
                if first_only and not collect_vectors:
                    break
        if collect_vectors:
            key = 0
            for v in sorted(values):
                key = (key << shift) | v
            if key not in all_vectors:
                all_vectors[key] = _index(digits, n)
            if ok:
                if key not in matched_first:
                    matched_first[key] = _index(digits, n)
                    matched_count[key] = weight
                else:
                    matched_count[key] += weight

        k = f - 1
        while k >= 0:
            d = digits[k]
            v = free[k]
            t = top[k]
            nd = d + 1 if d < t else 0
            # incremental move of v from bundle d to nd
            values[d] += 2 * cnt[v][d] - degrees[v]
            sizes[d] -= 1
            for u in adj[v]:
                cnt[u][d] -= 1
                cnt[u][nd] += 1
            values[nd] += degrees[v] - 2 * cnt[v][nd]
            sizes[nd] += 1
            assign[v] = nd
            digits[k] = nd
            if nd:
                if t < n1:  # canonical, and the digits after k reset to 0
                    top[k + 1 :] = [t + 1 if nd == t else t] * (f - k - 1)
                break
            k -= 1
        if k < 0:  # carried out of the top digit
            break

    return {
        "states": states,
        "matched": matched,
        "first_index": first_index,
        "matches": matches,
        "all_vectors": all_vectors if collect_vectors else None,
        "matched_first": matched_first if collect_vectors else None,
        "matched_count": matched_count if collect_vectors else None,
    }
