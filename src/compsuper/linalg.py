"""Exact linear algebra over a Field: vectors are tuples of raw values.

Subspaces are identified by their reduced row echelon basis, which is
canonical, so subspace equality and deduplication reduce to tuple
comparison.

Row arithmetic runs on the field's row kernels (`Field.sub_scaled`,
`add_scaled` and `scaled`, see `fields`), one call per row instead of
two scalar calls per entry: the eliminations of `rref` and `reduce_mod`
(and so `in_span`), each term of `lincomb`, and `vec_scale`.  The
kernels return lists, which these functions turn into tuples wherever
they returned tuples, since vectors are compared and hashed as keys.
"""

from itertools import combinations, product


def vec_is_zero(field, v):
    """True when every entry of the sequence v (not an iterator) is zero."""
    return v.count(field.zero) == len(v)


def vec_add(field, u, v):
    add = field.add
    return tuple(add(a, b) for a, b in zip(u, v))


def vec_sub(field, u, v):
    sub = field.sub
    return tuple(sub(a, b) for a, b in zip(u, v))


def vec_scale(field, c, v):
    return tuple(field.scaled(c, v))


def lincomb(field, coeffs, vectors, n):
    """The length-n tuple sum(c * v) over zip(coeffs, vectors).

    Zero coefficients are skipped, so a vector paired with a zero
    coefficient is never read; every other vector is added by one
    `add_scaled` and must have length n.  `n` is the length of the
    result, which the vectors cannot supply when there are none.
    """
    z, add_scaled = field.zero, field.add_scaled
    acc = [z] * n
    for c, v in zip(coeffs, vectors):
        if c != z:
            acc = add_scaled(acc, c, v)
    return tuple(acc)


def mat_vec(field, rows, v):
    """rows is m x n, v length n; returns length-m tuple."""
    add, mul, z = field.add, field.mul, field.zero
    out = []
    for row in rows:
        acc = z
        for a, b in zip(row, v):
            if a != z and b != z:
                acc = add(acc, mul(a, b))
        out.append(acc)
    return tuple(out)


def identity_matrix(field, n):
    z, o = field.zero, field.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def rref(field, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    z, sub_scaled = field.zero, field.sub_scaled
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for col in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][col] != z:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][col])
        if inv != field.one:
            rows[r] = field.scaled(inv, rows[r])
        for i in range(m):
            if i != r and rows[i][col] != z:
                rows[i] = sub_scaled(rows[i], rows[i][col], rows[r])
        pivots.append(col)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in rows[:r]], pivots


def rank(field, rows):
    if not rows:
        return 0
    return len(rref(field, rows)[0])


def reduce_mod(field, rr, pivots, v):
    """Residue of the sequence v modulo the row space with RREF basis rr."""
    z, sub_scaled = field.zero, field.sub_scaled
    for row, p in zip(rr, pivots):
        c = v[p]
        if c != z:
            v = sub_scaled(v, c, row)
    return tuple(v)


def in_span(field, rr, pivots, v):
    return vec_is_zero(field, reduce_mod(field, rr, pivots, v))


def span_key(field, vectors):
    """Canonical hashable key for the span of the given vectors."""
    rr, _ = rref(field, vectors)
    return tuple(rr)


def coords_in_basis(field, basis, v):
    """Coefficients of v in the given (independent) basis, or None."""
    # Solve basis^T c = v by RREF of the augmented system.
    n = len(v)
    aug = [tuple(basis[j][i] for j in range(len(basis))) + (v[i],) for i in range(n)]
    rr, pivots = rref(field, aug)
    k = len(basis)
    sol = [field.zero] * k
    for row, p in zip(rr, pivots):
        if p == k:  # inconsistent
            return None
        sol[p] = row[k]
        for j in range(p + 1, k):
            if row[j] != field.zero:
                raise ValueError("basis vectors are dependent")
    return tuple(sol)


def basis_inverse(field, basis):
    """The inverse of the matrix whose columns are `basis`, as rows.

    `basis` must be n independent vectors of length n.  Row k of the
    result dotted with v is the k-th coordinate of v in `basis`, so
    `mat_vec(field, inverse, v)` writes v in the basis, and column i holds
    the coordinates of the i-th standard basis vector.  One rref of
    [basis as columns | identity]; raises ValueError when the vectors are
    not a basis of F^n.
    """
    n = len(basis)
    if any(len(v) != n for v in basis):
        raise ValueError(f"a basis of F^{n} needs {n} vectors of length {n}")
    z, o = field.zero, field.one
    aug = [tuple(v[i] for v in basis) + tuple(o if j == i else z for j in range(n))
           for i in range(n)]
    rr, pivots = rref(field, aug)
    if pivots != list(range(n)):
        raise ValueError("basis vectors are dependent")
    return tuple(row[n:] for row in rr)


def solve(field, A, b):
    """One solution x of A x = b (A given as rows), or None."""
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [tuple(A[i]) + (b[i],) for i in range(m)]
    rr, pivots = rref(field, aug)
    x = [field.zero] * n
    for row, p in zip(rr, pivots):
        if p == n:
            return None
        x[p] = row[n]
    # pivot variables only; free variables zero.  Verify (A may be overdetermined
    # with dependent rows already handled by RREF).
    if mat_vec(field, A, tuple(x)) != tuple(b):
        return None
    return tuple(x)


def nullspace(field, A):
    """Basis of {x : A x = 0}."""
    m = len(A)
    n = len(A[0]) if m else 0
    rr, pivots = rref(field, A) if m else ([], [])
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * n
        v[f] = field.one
        for row, p in zip(rr, pivots):
            v[p] = field.neg(row[f])
        basis.append(tuple(v))
    return basis


def all_vectors(field, n):
    """All of F^n in lexicographic order of raw element codes."""
    return product(field.elements(), repeat=n)


def nonzero_vectors(field, n):
    for v in all_vectors(field, n):
        if not vec_is_zero(field, v):
            yield v


def span_vectors(field, basis, n):
    """The nonzero combinations of `basis`, as length-n tuples, generated
    in the `nonzero_vectors` order of their coefficients."""
    for coeffs in nonzero_vectors(field, len(basis)):
        yield lincomb(field, coeffs, basis, n)


def eigenspace(field, images, lam, space=None):
    """Basis of the lam-eigenspace of the linear map that sends the i-th
    standard basis vector to images[i], inside the span of the independent
    vectors `space` (all of F^n when space is None): the combinations of
    `space` by a nullspace basis of (f - lam) on its vectors."""
    n = len(images)
    if space is None:
        space = identity_matrix(field, n)
    cols = [vec_sub(field, lincomb(field, v, images, n), vec_scale(field, lam, v)) for v in space]
    return [lincomb(field, k, space, n) for k in nullspace(field, list(zip(*cols)))]


def _element_tuples(field, m):
    """The m-tuples of field elements in the order of
    `product(field.elements(), repeat=m)`, drawn lazily: no list of the
    field is built, so the first tuple costs m elements."""
    if m == 0:
        yield ()
        return
    for head in field.elements():
        for tail in _element_tuples(field, m - 1):
            yield (head,) + tail


def rref_profiles(field, k, d):
    """All k x d matrices in reduced row echelon form with rank k.

    Each k-dimensional subspace of F^d has exactly one such matrix as a
    basis, so this enumerates subspaces canonically.  The free entries
    are drawn lazily from `field.elements()`, so over a large field the
    first matrices come without a list of the field.
    """
    z, o = field.zero, field.one
    for pivots in combinations(range(d), k):
        free_pos = []
        for i in range(k):
            for j in range(pivots[i] + 1, d):
                if j not in pivots:
                    free_pos.append((i, j))
        for vals in _element_tuples(field, len(free_pos)):
            M = [[z] * d for _ in range(k)]
            for i, p in enumerate(pivots):
                M[i][p] = o
            for (i, j), val in zip(free_pos, vals):
                M[i][j] = val
            yield tuple(tuple(row) for row in M)


def subspaces_of_span(field, basis, k):
    """Canonical bases of all k-dimensional subspaces of span(basis)."""
    d = len(basis)
    if k == 0:
        yield ()
        return
    for prof in rref_profiles(field, k, d):
        yield tuple(lincomb(field, row, basis, len(basis[0])) for row in prof)


def complementary_pairs(field, basis):
    """Unordered pairs (W1, W2) of nonzero subspaces with W1 + W2 = span(basis)
    and W1 ∩ W2 = 0, as bases in ambient coordinates.

    For each W1 in echelon form the complements are exactly the graphs of
    linear maps from the non-pivot coordinate space into W1, so they are
    constructed directly instead of filtered by rank.
    """
    d = len(basis)
    n = len(basis[0]) if basis else 0
    z = field.zero
    o = field.one
    for k in range(1, d // 2 + 1):
        for prof in rref_profiles(field, k, d):
            pivots = []
            for row in prof:
                pivots.append(next(j for j in range(d) if row[j] != z))
            nonpiv = [j for j in range(d) if j not in pivots]
            m = len(nonpiv)
            for graph in product(field.elements(), repeat=m * k):
                w2_prof = []
                for a, j in enumerate(nonpiv):
                    row = list(lincomb(field, graph[a * k:(a + 1) * k], prof, d))
                    row[j] = field.add(row[j], o)
                    w2_prof.append(tuple(row))
                if k == d - k:
                    rr, _ = rref(field, w2_prof)
                    if tuple(rr) < tuple(prof):
                        continue  # unordered: keep one of the two orders
                w1 = [lincomb(field, row, basis, n) for row in prof]
                w2 = [lincomb(field, row, basis, n) for row in w2_prof]
                yield w1, w2
