"""Pure-Python enumeration kernel.

Walks assignment functions (free vertices -> bundles) in lexicographic order
with incremental cut-value maintenance, evaluating fairness predicates on
each state.  Semantically identical to the hand-written C kernel in _scan.c;
the compiled one is preferred at import time when available.
"""

from __future__ import annotations

NONEMPTY = 1
EF = 2
EF1 = 4
ALPHA_EF1 = 8
TS = 16
WTS = 32

BIG = 1 << 60


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
    start,
    stop,
    shift,
):
    """Scan global assignment indices [start, stop).

    Returns a dict with:
      states          -- number of states visited
      matched         -- number matching require_mask
      first_index     -- least matching index, or -1
      all_vectors     -- {packed sorted value vector: least index} (collect only)
      matched_first   -- same, restricted to matching states (collect only)
      matched_count   -- {packed vector: matching-state count} (collect only)
    """
    free = [v for v in range(num_vertices) if fixed[v] < 0]
    f = len(free)
    assign = list(fixed)
    digits = [0] * f
    rem = start
    for k in range(f - 1, -1, -1):
        digits[k] = rem % n
        rem //= n
    if rem:
        raise ValueError("start outside the enumeration range")
    for k, v in enumerate(free):
        assign[v] = digits[k]

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

    all_vectors: dict = {}
    matched_first: dict = {}
    matched_count: dict = {}
    states = 0
    matched = 0
    first_index = -1

    index = start
    while index < stop:
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

        if collect_vectors:
            key = 0
            for v in sorted(values):
                key = (key << shift) | v
            if key not in all_vectors:
                all_vectors[key] = index
            if ok:
                if key not in matched_first:
                    matched_first[key] = index
                    matched_count[key] = 1
                else:
                    matched_count[key] += 1
        if ok:
            matched += 1
            if first_index < 0:
                first_index = index
            if first_only and not collect_vectors:
                break

        index += 1
        if index >= stop:
            break
        k = f - 1
        while True:
            d = digits[k]
            v = free[k]
            nd = d + 1 if d + 1 < n else 0
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
            if nd != 0:
                break
            k -= 1

    return {
        "states": states,
        "matched": matched,
        "first_index": first_index,
        "all_vectors": all_vectors if collect_vectors else None,
        "matched_first": matched_first if collect_vectors else None,
        "matched_count": matched_count if collect_vectors else None,
    }
