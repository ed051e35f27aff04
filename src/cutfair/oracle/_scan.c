/* Compiled enumeration kernel; same contract as _scan_py.scan.
 *
 * Walks assignment functions (free vertices -> bundles) in lexicographic
 * order with incremental cut-value maintenance, evaluating the fairness
 * predicates of require_mask on each state.  A canonical scan, one that fixes
 * no vertex, visits only the restricted growth strings, one per partition,
 * and weights each match by the number of its labellings.  It keeps the welfare
 * (the sum of the bundle values, twice the number of cut edges) as it moves
 * vertices: moving v from bundle d to nd adds 2 * (cnt[v][d] - cnt[v][nd]).
 * So it returns top_welfare, the largest welfare visited, with no table, and
 * steps, its prefix placements under SO.  A collect_vectors scan also returns
 * vectors, a dict from the tuple of a state's ascending bundle values to
 * [least matching index or -1, labelled matching count], filled by
 * collect_state.  The EF1 bit tests alpha-EF1 at alpha_num / alpha_den, EF1 at
 * 1 / 1.  TS and wTS reduce to a per-vertex threshold on the neighbours a
 * vertex has in its own bundle, the crowded array (see _scan_py for the
 * argument).
 *
 * That count is final at the vertex's closing position, the largest
 * free-vertex position among itself and its neighbours.  A scan whose mask has
 * TS or WTS tests TS/wTS first, walking the vertices in closing order (the
 * order array), and at the first failing vertex, with closing position j, goes
 * straight to the step, which skips every completion of digits 0 to j: the
 * digits after j reset to 0 and digit j advances through the normal carry.
 * Only failing states are skipped, so every field but states is unchanged,
 * except top_welfare, which stays the largest welfare over the visited states,
 * and vectors, which holds the vectors of the states that pass the TS/wTS
 * test.  As every welfare maximum and every undominated value vector is TS and
 * wTS, top_welfare is still the global maximum when the scan is not first_only
 * and fixes no vertex other than a vertex-0 pin, and vectors still holds
 * every undominated vector.  With n = 1 no vertex fails.  A visited state
 * re-tests only order[tails[changed]:], the vertices that close at or after
 * the lowest digit moved since the last visited state; the others kept their
 * counts, and they passed.
 *
 * With NONEMPTY, a canonical scan that does not collect_vectors walks only
 * the strings that use all n labels (see _scan_py): none when f < n, and
 * otherwise from zeros followed by labels 1 to n - 1.  Digits jf to f - 1
 * are the forced suffix, digit j holding label n - f + j; the carry starts
 * at jf - 1, and after digit k advances to nd, with L labels before it (top[k],
 * or n when top[k] = n - 1 and peak, the first digit holding n - 1, is below
 * k), the suffix starts at nf = f - n + L + (nd == L).  The next pass first
 * moves the digits between jf and nf (shift, as the step does), which lowers
 * no changed, so the first state tests every vertex.  Collect scans and scans
 * that fix a vertex test NONEMPTY state by state.
 *
 * With the mask bit SO a state matches only at the scan's top welfare, and the
 * scan is pruned by the cut bound of _scan_py: ub[p] is twice the cut edges
 * among the placed vertices (the fixed ones and digits 0..p-1), plus the
 * edges among the unplaced ones, plus, for each unplaced u, its placed
 * neighbours outside its fewest bundle, less slack[p], twice the edges among
 * the unplaced ones that a packing of edge-disjoint (n + 1)-cliques shows no
 * completion cuts (all zeros without SO; read and checked to be f + 1
 * non-negative ints before the scan starts).  pcnt holds the per-bundle
 * counts for the first `placed` free vertices: placing a free vertex adds it
 * to its later neighbours' counts, and a step that moves digit k takes the
 * vertices at k and after out again.  At the first p >= k with
 * ub[p + 1] - slack[p + 1] < top_welfare the scan advances digit p (or
 * digit jf - 1 when p is in a walk's forced suffix) without visiting the
 * state, at the same positions as _scan_py, so both visit the
 * same states in the same steps, one per placement from k on.  The test is
 * strict, so every state at the top welfare is visited: top_welfare is as
 * without SO.  Every visited state is at least at the top so far, so when the
 * top rises the scan resets matched, first_index and the listed matches
 * (PyList_SetSlice), which are then exact at the top welfare.  With SO,
 * vectors is undefined, and a collect_vectors scan is refused with
 * ValueError.
 *
 * An SO scan that is first_only reads only top_welfare and first_index, and
 * does not stop at its first match.  Once a match sits at the top welfare, it
 * also skips every prefix whose bound equals the top and every state at the
 * top: bar, the least welfare the scan still visits, is then top_welfare + 1
 * instead of top_welfare.  Later ties have larger indices, so the two fields
 * stay exact.  top_welfare starts at floor (-1 for none), the welfare of an
 * allocation in range whose maximum the scan visits.
 *
 * Unlike the Python kernel's bitmasks, cnt[v][b] counts v's neighbours in
 * bundle b: with fixed vertices a scan may have more than 64 vertices.  The
 * argument lengths are checked; their contents (vertex ids, bundle ids,
 * degrees) are trusted, as the oracle builds them.  The oracle refuses a scan
 * whose n**free reaches 2**63, so every index, count, weight and welfare fits
 * a long long.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { NONEMPTY = 1, EF = 2, EF1 = 4, TS = 16, WTS = 32, SO = 64 };
enum { KNOWN = NONEMPTY | EF | EF1 | TS | WTS | SO }; /* any other require_mask bit is refused */

#define BIG (1LL << 60)

/* Copy the len ints of the sequence seq into out; ValueError when seq holds
 * a different number of items. */
static int
read_ints(PyObject *seq, Py_ssize_t len, int *out, const char *name)
{
    PyObject *fast = PySequence_Fast(seq, "kernel arrays must be sequences");
    if (fast == NULL)
        return -1;
    int rc = -1;
    if (PySequence_Fast_GET_SIZE(fast) != len) {
        PyErr_Format(PyExc_ValueError, "%s has %zd items, expected %zd",
                     name, PySequence_Fast_GET_SIZE(fast), len);
        goto done;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < len; i++) {
        long x = PyLong_AsLong(items[i]);
        if (x == -1 && PyErr_Occurred())
            goto done;
        if (x < INT_MIN || x > INT_MAX) {
            PyErr_Format(PyExc_OverflowError, "%s[%zd] does not fit a C int", name, i);
            goto done;
        }
        out[i] = (int)x;
    }
    rc = 0;
done:
    Py_DECREF(fast);
    return rc;
}

/* The labelled index of the state whose free-vertex labels are digits. */
static long long
labelled_index(const int *digits, int f, int n)
{
    long long index = 0;
    for (int k = 0; k < f; k++)
        index = index * n + digits[k];
    return index;
}

/* Set item i of list to the int x (PyList_SetItem steals the new int). */
static int
set_int(PyObject *list, Py_ssize_t i, long long x)
{
    PyObject *item = PyLong_FromLongLong(x);
    return item == NULL ? -1 : PyList_SetItem(list, i, item);
}

/* Record the n ascending values of the state labelled digits in vectors, keyed
 * by their tuple: the entry [least matching index or -1, labelled matching
 * count] is added at [-1, 0] and, for a matching state, updated. */
static int
collect_state(PyObject *vectors, const long long *sorted, const int *digits, int f, int n,
              int ok, long long weight)
{
    PyObject *key = PyTuple_New(n), *entry = NULL;
    int rc = -1;
    if (key == NULL)
        return -1;
    for (int b = 0; b < n; b++) {
        PyObject *x = PyLong_FromLongLong(sorted[b]);
        if (x == NULL)
            goto done;
        PyTuple_SET_ITEM(key, b, x);
    }
    entry = PyDict_GetItemWithError(vectors, key);
    Py_XINCREF(entry);
    if (entry == NULL
        && (PyErr_Occurred() || (entry = PyList_New(2)) == NULL || set_int(entry, 0, -1) < 0
            || set_int(entry, 1, 0) < 0 || PyDict_SetItem(vectors, key, entry) < 0))
        goto done;
    if (ok) {
        if (PyLong_AsLongLong(PyList_GET_ITEM(entry, 0)) < 0
            && set_int(entry, 0, labelled_index(digits, f, n)) < 0)
            goto done;
        if (set_int(entry, 1, PyLong_AsLongLong(PyList_GET_ITEM(entry, 1)) + weight) < 0)
            goto done;
    }
    rc = 0;
done:
    Py_DECREF(key);
    Py_XDECREF(entry);
    return rc;
}

/* Move vertex v from bundle d to bundle nd: update the neighbour counts cnt,
 * the bundle values and sizes and assign; return the change in welfare. */
static inline long long
shift(int v, int d, int nd, int n, const int *indptr, const int *indices, const int *degrees,
      long long *cnt, long long *values, long long *sizes, int *assign)
{
    long long gain = 2 * (cnt[v * n + d] - cnt[v * n + nd]);
    values[d] += 2 * cnt[v * n + d] - degrees[v];
    sizes[d] -= 1;
    for (int p = indptr[v]; p < indptr[v + 1]; p++) {
        cnt[indices[p] * n + d] -= 1;
        cnt[indices[p] * n + nd] += 1;
    }
    values[nd] += degrees[v] - 2 * cnt[v * n + nd];
    sizes[nd] += 1;
    assign[v] = nd;
    return gain;
}

static PyObject *
scan(PyObject *Py_UNUSED(module), PyObject *args)
{
    int m, n, require_mask, first_only, collect_vectors, list_matches;
    long long alpha_num, alpha_den, floor_welfare; /* the floor argument (floor() is math.h's) */
    PyObject *indptr_obj, *indices_obj, *degrees_obj, *fixed_obj, *slack_obj;
    if (!PyArg_ParseTuple(args, "iiOOOOiLLpppOL:scan", &m, &n, &indptr_obj,
                          &indices_obj, &degrees_obj, &fixed_obj, &require_mask,
                          &alpha_num, &alpha_den, &first_only, &collect_vectors,
                          &list_matches, &slack_obj, &floor_welfare))
        return NULL;
    if (m < 0 || n < 1) {
        PyErr_SetString(PyExc_ValueError, "num_vertices must be >= 0 and n >= 1");
        return NULL;
    }
    if (require_mask & ~KNOWN) {
        PyErr_Format(PyExc_ValueError, "unknown require_mask bits %d", require_mask & ~KNOWN);
        return NULL;
    }
    if ((require_mask & SO) && collect_vectors) {
        PyErr_SetString(PyExc_ValueError, "an SO scan collects no value vectors");
        return NULL;
    }
    Py_ssize_t num_arcs = PySequence_Size(indices_obj);
    if (num_arcs < 0)
        return NULL;

    PyObject *result = NULL, *matches = NULL, *vectors = NULL;
    int *ibuf = PyMem_Malloc(sizeof(int) * ((size_t)13 * m + 3 + (size_t)num_arcs));
    long long *lbuf = PyMem_Malloc(sizeof(long long) * ((size_t)2 * m * n + (size_t)4 * n + m + 1));
    if (ibuf == NULL || lbuf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int *indptr = ibuf, *indices = indptr + m + 1, *degrees = indices + num_arcs,
        *assign = degrees + m, *freev = assign + m, *digits = freev + m, *top = digits + m,
        *crowded = top + m, *position = crowded + m, *closing = position + m,
        *order = closing + m, *tails = order + m, *placedin = tails + m + 1,
        *slack = placedin + m;
    long long *cnt = lbuf, *values = cnt + (size_t)m * n, *sizes = values + n,
              *minrem = sizes + n, *sortbuf = minrem + n, *pcnt = sortbuf + n,
              *ub = pcnt + (size_t)m * n;

    if (read_ints(indptr_obj, (Py_ssize_t)m + 1, indptr, "indptr") < 0)
        goto done;
    if (indptr[m] != num_arcs) {
        PyErr_Format(PyExc_ValueError, "indices has %zd items, expected indptr[%d] = %d",
                     num_arcs, m, indptr[m]);
        goto done;
    }
    if (read_ints(indices_obj, num_arcs, indices, "indices") < 0
        || read_ints(degrees_obj, m, degrees, "degrees") < 0
        || read_ints(fixed_obj, m, assign, "fixed") < 0)
        goto done;
    if (list_matches && (matches = PyList_New(0)) == NULL)
        goto done;
    if (collect_vectors && (vectors = PyDict_New()) == NULL)
        goto done;

    int i, j, k, b, d, nd, v, u, p, deg, t, f = 0, ok, last, crowdable = 0, changed, placed = 0;
    int bound = (require_mask & SO) != 0;
    long long r, vmin, vmax, tmp, weight = 1, welfare = 0;
    long long states = 0, steps = 0, matched = 0, first_index = -1;
    /* bar: the least welfare an SO scan still visits */
    long long top_welfare = floor_welfare, bar = floor_welfare;

    for (i = 0; i < m; i++)
        if (assign[i] < 0)
            freev[f++] = i;
    int canonical = f == m; /* a scan that fixes no vertex */
    /* a canonical NONEMPTY scan that collects no table walks only the strings
     * that use all n labels */
    int walk = (require_mask & NONEMPTY) && canonical && !collect_vectors;
    if (read_ints(slack_obj, (Py_ssize_t)f + 1, slack, "slack") < 0)
        goto done;
    for (k = 0; k <= f; k++) {
        if (slack[k] < 0) {
            PyErr_Format(PyExc_ValueError, "slack[%d] is %d, not a non-negative int", k, slack[k]);
            goto done;
        }
    }
    if (walk && f < n) /* no string uses all n labels */
        goto finish;
    for (k = 0; k < f; k++) {
        digits[k] = assign[freev[k]] = 0;
        /* the largest label digit k may take */
        top[k] = !canonical ? n - 1 : k == 0 ? 0 : n > 1;
    }

    for (i = 0; i < m * n; i++)
        cnt[i] = 0;
    for (v = 0; v < m; v++)
        for (p = indptr[v]; p < indptr[v + 1]; p++)
            cnt[v * n + assign[indices[p]]] += 1;
    for (b = 0; b < n; b++) {
        values[b] = 0;
        sizes[b] = 0;
    }
    for (v = 0; v < m; v++) {
        b = assign[v];
        values[b] += degrees[v] - cnt[v * n + b];
        sizes[b] += 1;
        welfare += degrees[v] - cnt[v * n + b];
    }
    /* the least own-bundle neighbour count at which v breaks TS or wTS */
    for (v = 0; v < m; v++) {
        deg = degrees[v];
        if (n == 1)
            crowded[v] = deg + 1;
        else if ((require_mask & TS) && n > 2)
            crowded[v] = deg > 0 ? (deg + 1) / 2 : 1;
        else
            crowded[v] = deg / 2 + 1;
    }
    /* each vertex's closing position, and the vertices that can break TS or
     * wTS in closing order */
    for (v = 0; v < m; v++)
        position[v] = -1;
    for (k = 0; k < f; k++)
        position[freev[k]] = k;
    for (v = 0; v < m; v++) {
        closing[v] = position[v];
        for (p = indptr[v]; p < indptr[v + 1]; p++)
            if (position[indices[p]] > closing[v])
                closing[v] = position[indices[p]];
    }
    for (j = -1; j < f; j++) {
        if (j >= 0)
            tails[j] = crowdable; /* order[tails[j]:] close at j or later */
        for (v = 0; v < m; v++)
            if (closing[v] == j && crowded[v] <= degrees[v] && (require_mask & (TS | WTS)))
                order[crowdable++] = v;
    }
    tails[f] = 0; /* the first state tests every vertex */

    if (bound) {
        /* pcnt[u * n + b] counts u's neighbours in bundle b among the fixed
         * vertices and the first `placed` free ones, each free vertex at its
         * later neighbours only; placedin[k] is the bundle free vertex k was
         * counted in.  ub[0] is the bound with only the fixed vertices placed. */
        for (i = 0; i < m * n; i++)
            pcnt[i] = 0;
        for (v = 0; v < m; v++)
            if (position[v] < 0)
                for (p = indptr[v]; p < indptr[v + 1]; p++)
                    pcnt[indices[p] * n + assign[v]] += 1;
        r = 0;
        for (v = 0; v < m; v++) {
            r += degrees[v];
            if (position[v] < 0) {
                r -= pcnt[v * n + assign[v]];
            } else {
                for (b = 1, tmp = pcnt[v * n]; b < n; b++)
                    if (pcnt[v * n + b] < tmp)
                        tmp = pcnt[v * n + b];
                r -= 2 * tmp;
            }
        }
        ub[0] = r;
    }

    /* digits jf to f - 1 are forced, digit j holding label n - f + j; a
     * walk's first pass moves them from zeros to its first string, zeros up
     * to nf and then labels 1 to n - 1.  peak: the first digit that holds
     * label n - 1 (unread with n = 1) */
    int jf = f, nf = walk ? f - n + 1 : f, peak = f - 1;
    k = 0;       /* the lowest digit the last step moved: ub[k + 1..] are stale */
    changed = f; /* the lowest digit moved since the last visited state */
    for (;;) {
        for (j = nf < jf ? nf : jf; j < (nf < jf ? jf : nf); j++) { /* move the forced suffix to nf */
            d = digits[j];
            nd = n - f + j - d; /* 0 <-> the forced label */
            welfare += shift(freev[j], d, nd, n, indptr, indices, degrees, cnt, values, sizes, assign);
            digits[j] = nd;
        }
        jf = nf;
        last = f - 1; /* the step advances digit last; the digits after it reset to 0 */
        if (bound) {
            for (; placed > k; placed--) {
                v = freev[placed - 1];
                for (p = indptr[v]; p < indptr[v + 1]; p++)
                    if (position[indices[p]] >= placed)
                        pcnt[indices[p] * n + placedin[placed - 1]] -= 1;
            }
            for (; placed < f - 1; placed++) {
                v = freev[placed];
                b = digits[placed];
                for (d = 1, tmp = pcnt[v * n]; d < n; d++)
                    if (pcnt[v * n + d] < tmp)
                        tmp = pcnt[v * n + d];
                r = tmp - pcnt[v * n + b];
                for (p = indptr[v]; p < indptr[v + 1]; p++) {
                    u = indices[p];
                    if (position[u] <= placed)
                        continue;
                    for (d = 0; d < n; d++) /* is b the one bundle where u has fewest? */
                        if (d != b && pcnt[u * n + d] <= pcnt[u * n + b])
                            break;
                    r -= d == n;
                    pcnt[u * n + b] += 1;
                }
                placedin[placed] = b;
                ub[placed + 1] = ub[placed] + 2 * r;
                if (ub[placed + 1] - slack[placed + 1] < bar) {
                    last = placed++; /* every completion of digits 0..last is below the bar */
                    break;
                }
            }
            steps += placed - k;
            if (last < f - 1 || welfare < bar)
                goto step;
        }
        states += 1;
        if (welfare > top_welfare) {
            top_welfare = bar = welfare;
            if (bound) { /* the matches so far are below the new top */
                matched = 0;
                first_index = -1;
                if (list_matches && PyList_SetSlice(matches, 0, PyList_GET_SIZE(matches), NULL) < 0)
                    goto done;
            }
        }
        i = tails[changed];
        changed = f;
        for (; i < crowdable; i++) {
            v = order[i];
            if (cnt[v * n + assign[v]] >= crowded[v]) {
                last = closing[v]; /* every completion of digits 0..last fails */
                goto step;
            }
        }
        ok = 1;
        if (require_mask & NONEMPTY) {
            for (b = 0; b < n; b++) {
                if (sizes[b] == 0) {
                    ok = 0;
                    break;
                }
            }
        }
        if (ok && (require_mask & EF)) {
            vmin = vmax = values[0];
            for (b = 1; b < n; b++) {
                if (values[b] < vmin)
                    vmin = values[b];
                if (values[b] > vmax)
                    vmax = values[b];
            }
            ok = vmin == vmax;
        }
        if (ok && (require_mask & EF1)) {
            for (b = 0; b < n; b++)
                minrem[b] = BIG;
            for (v = 0; v < m; v++) {
                b = assign[v];
                r = 2 * cnt[v * n + b] - degrees[v];
                if (r < minrem[b])
                    minrem[b] = r;
            }
            vmin = values[0];
            for (b = 1; b < n; b++)
                if (values[b] < vmin)
                    vmin = values[b];
            for (b = 0; b < n; b++) {
                if (values[b] > vmin && alpha_num * (values[b] + minrem[b]) > alpha_den * vmin) {
                    ok = 0;
                    break;
                }
            }
        }

        if (ok) {
            /* a canonical state stands for the n!/(n - j)! labellings of its j
             * non-empty bundles, which are bundles 0 to j - 1 */
            for (j = 0, weight = 1; canonical && j < n && sizes[j] > 0; j++)
                weight *= n - j;
            matched += weight;
            if (list_matches) {
                PyObject *idx = PyLong_FromLongLong(labelled_index(digits, f, n));
                if (idx == NULL || PyList_Append(matches, idx) < 0) {
                    Py_XDECREF(idx);
                    goto done;
                }
                Py_DECREF(idx);
            }
            if (first_index < 0)
                first_index = labelled_index(digits, f, n);
        }
        if (collect_vectors) {
            for (b = 0; b < n; b++)
                sortbuf[b] = values[b];
            for (i = 1; i < n; i++) { /* insertion sort, n is tiny */
                tmp = sortbuf[i];
                for (j = i - 1; j >= 0 && sortbuf[j] > tmp; j--)
                    sortbuf[j + 1] = sortbuf[j];
                sortbuf[j + 1] = tmp;
            }
            if (collect_state(vectors, sortbuf, digits, f, n, ok, weight) < 0)
                goto done;
        }
        if (ok && first_only) {
            if (!bound)
                break;
            /* an SO scan visits only states at the top welfare, and every
             * later tie has a larger index */
            bar = welfare + 1;
        }

        /* Step to the next index: increment the digits of the free vertices
         * below the forced suffix, digit k up to top[k], moving each changed
         * vertex from bundle d to nd. */
step:
        for (k = jf - 1; k >= 0; k--) {
            d = digits[k];
            t = top[k];
            nd = d < t && k <= last ? d + 1 : 0;
            if (nd == d) /* a digit that stays at 0 */
                continue;
            welfare += shift(freev[k], d, nd, n, indptr, indices, degrees, cnt, values, sizes, assign);
            digits[k] = nd;
            if (nd != 0) {
                if (t < n - 1) { /* canonical, and the digits after k reset to 0 */
                    t += nd == t;
                    for (j = k + 1; j < f; j++)
                        top[j] = t;
                }
                break;
            }
        }
        if (k < 0) /* carried out of the top digit: past index n**f - 1 */
            break;
        if (k < changed)
            changed = k;
        if (walk) {
            int labels = top[k] + (top[k] == n - 1 && peak < k); /* the labels before digit k */
            if (peak > k)
                peak = nd == n - 1 ? k : f - 1;
            nf = f - n + labels + (nd == labels); /* the suffix after digit k's new label nd */
        }
    }
finish:

    result = Py_BuildValue("{s:L,s:L,s:L,s:L,s:L,s:O,s:O}", "states", states, "steps", steps,
                           "matched", matched, "first_index", first_index,
                           "top_welfare", top_welfare,
                           "matches", list_matches ? matches : Py_None,
                           "vectors", collect_vectors ? vectors : Py_None);
done:
    PyMem_Free(ibuf);
    PyMem_Free(lbuf);
    Py_XDECREF(matches);
    Py_XDECREF(vectors);
    return result;
}

PyDoc_STRVAR(scan_doc,
"scan(num_vertices, n, indptr, indices, degrees, fixed, require_mask,\n"
"     alpha_num, alpha_den, first_only, collect_vectors, list_matches, slack,\n"
"     floor, /)\n"
"--\n\n"
"Scan every global assignment index, or only the canonical ones when no\n"
"vertex is fixed; see _scan_py.scan.");

static PyMethodDef methods[] = {
    {"scan", scan, METH_VARARGS, scan_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "cutfair.oracle._scan",
    .m_doc = "Compiled enumeration kernel; same contract as _scan_py.scan.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__scan(void)
{
    return PyModule_Create(&module);
}
