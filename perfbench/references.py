"""Reference values and independent arithmetic for the benchmark's checks.

Nothing here imports exactgf.  The closed forms are pinned constants (the
same ones the acceptance suite pins), and the helpers -- polynomial
products, power series, determinants, permanents, spanning-tree counts,
moments -- are written out directly, so a check never shares a code path
with the result it checks.  Polynomials are ascending coefficient lists;
a polynomial in t whose coefficients are polynomials in v is a list of
such lists.
"""
from decimal import Decimal, localcontext
from fractions import Fraction


def sparse(terms):
    out = [0] * (max(terms) + 1)
    for deg, coeff in terms.items():
        out[deg] = coeff
    return out


# -- pinned closed forms ------------------------------------------------------

#: Spanning-tree generating functions of the k-row grids, (num, den).
F = {
    1: ([0, 1], [1, -1]),
    2: ([0, 1], [1, -4, 1]),
    3: (sparse({1: 1, 3: -1}), [1, -15, 32, -15, 1]),
    4: (sparse({1: 1, 3: -49, 4: 112, 5: -49, 7: 1}),
        [1, -56, 672, -2632, 4094, -2632, 672, -56, 1]),
}

#: Denominator of the 5-row grid generating function.
D5 = [
    1, -209, 11936, -274208, 3112032, -19456019, 70651107, -152325888,
    196664896, -152325888, 70651107, -19456019, 3112032, -274208, 11936,
    -209, 1,
]

#: Two-forest cofactor polynomials C_k.
C = {
    2: [-1, 1],
    3: [1, -8, 17, -8, 1],
}

#: Bivariate vertical-edge generating functions of the k-row grids.
G = {
    2: ([[], [0, 1]], [[1], [-2, -2], [1]]),
    3: ([[], [0, 0, 1], [], [0, 0, -1]],
        [[1], [-4, -8, -3], [6, 16, 10], [-4, -8, -3], [1]]),
    4: ([[], [0, 0, 0, 1], [], [0, 0, 0, -9, -24, -16],
         [0, 0, 0, 16, 48, 40, 8], [0, 0, 0, -9, -24, -16], [], [0, 0, 0, 1]],
        [[1],
         [-8, -24, -20, -4],
         [28, 144, 256, 192, 52],
         [-56, -360, -844, -892, -416, -64],
         [70, 480, 1216, 1408, 744, 160, 16],
         [-56, -360, -844, -892, -416, -64],
         [28, 144, 256, 192, 52],
         [-8, -24, -20, -4],
         [1]]),
}


# -- polynomials and series -----------------------------------------------------

def trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def same_ratio(num1, den1, num2, den2) -> bool:
    """num1/den1 == num2/den2, by cross-multiplication."""
    return trim(den1) != [] and mul(num1, den2) == mul(num2, den1)


def series(num, den, count):
    """First count power-series coefficients of num/den (den[0] != 0)."""
    out = []
    for n in range(count):
        acc = Fraction(num[n]) if n < len(num) else Fraction(0)
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc / den[0])
    return out


def bi_mul(a, b):
    """Product of two polynomials in t with polynomial-in-v coefficients."""
    if not a or not b:
        return []
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod = mul(x, y)
            acc = out[i + j] + [0] * (len(prod) - len(out[i + j]))
            for d, c in enumerate(prod):
                acc[d] += c
            out[i + j] = trim(acc)
    return trim(out)


def bi_same_ratio(num1, den1, num2, den2) -> bool:
    return trim(den1) != [] and bi_mul(num1, den2) == bi_mul(num2, den1)


def at_v1(nested):
    """Specialise a polynomial in t with coefficients in Z[v] at v = 1."""
    return [sum(c) for c in nested]


def vertical_moments(num, den, n):
    """Exact mean and variance of the vertical-edge count over spanning
    trees of the n-layer graph, from the t^n coefficient P(v) of the
    bivariate generating function num/den.

    Works modulo e^3 with v = 1 + e, so each coefficient of P is carried
    as (P(1), P'(1), P''(1)/2) and no polynomial in v is ever expanded."""
    def jet(c):
        return (sum(c), sum(i * x for i, x in enumerate(c)),
                sum(i * (i - 1) // 2 * x for i, x in enumerate(c)))

    def jet_mul(x, y):
        return (x[0] * y[0], x[0] * y[1] + x[1] * y[0],
                x[0] * y[2] + x[1] * y[1] + x[2] * y[0])

    nj = [jet(c) for c in num]
    dj = [jet(c) for c in den]
    if dj[0] != (1, 0, 0):
        raise ValueError("denominator must have constant term 1")
    s = []
    for m in range(n + 1):
        acc = nj[m] if m < len(nj) else (0, 0, 0)
        for i in range(1, min(m, len(dj) - 1) + 1):
            p = jet_mul(dj[i], s[m - i])
            acc = (acc[0] - p[0], acc[1] - p[1], acc[2] - p[2])
        s.append(acc)
    p1, d1, half_d2 = s[n]
    mean = Fraction(d1, p1)
    return mean, Fraction(2 * half_d2, p1) + mean - mean * mean


def two_row_asymptotics(n, mean, var, skewness, kurtosis):
    """Problems found comparing 2-row moments with the known asymptotics."""
    problems = []
    with localcontext() as ctx:
        ctx.prec = 50
        b = 2 + Decimal(3).sqrt()
        mean_asym = Decimal(1) / 3 + (Decimal(1) / 3) * (2 * b - 1) * n / b
        var_asym = Decimal(-1) / 9 + (Decimal(1) / 9) * (7 * b - 2) * n / (4 * b - 1)
        got_mean = Decimal(mean.numerator) / mean.denominator
        got_var = Decimal(var.numerator) / var.denominator
        if abs(got_mean - mean_asym) / mean_asym >= Decimal("0.01"):
            problems.append(f"mean {got_mean} is not within 1% of {mean_asym}")
        if abs(got_var - var_asym) / var_asym >= Decimal("0.01"):
            problems.append(f"variance {got_var} is not within 1% of {var_asym}")
    if skewness is None or abs(skewness) >= Decimal("0.1"):
        problems.append(f"skewness {skewness} is not below 0.1")
    if kurtosis is None or abs(kurtosis - 3) >= Decimal("0.1"):
        problems.append(f"kurtosis {kurtosis} is not within 0.1 of 3")
    return problems


# -- matrices -------------------------------------------------------------------

def grid_tree_count(k, n):
    """Spanning trees of the k x n grid: the reduced Laplacian's determinant
    by banded elimination over Fractions.  The reduced Laplacian of a
    connected graph is positive definite, so no pivoting is needed and the
    fill stays inside the band of half-width k."""
    size = k * n
    lap = [[Fraction(0)] * size for _ in range(size)]
    for j in range(n):
        for i in range(k):
            v = j * k + i
            for w in ((v + 1,) if i + 1 < k else ()) + ((v + k,) if j + 1 < n else ()):
                lap[v][v] += 1
                lap[w][w] += 1
                lap[v][w] -= 1
                lap[w][v] -= 1
    m = size - 1
    det = Fraction(1)
    for r in range(m):
        pivot = lap[r][r]
        det *= pivot
        hi = min(m, r + k + 1)
        for i in range(r + 1, hi):
            f = lap[i][r] / pivot
            if f:
                for j in range(r, hi):
                    lap[i][j] -= f * lap[r][j]
    return int(det)


def toeplitz_rows(row, col, n):
    """The n x n banded Toeplitz matrix: row[o] on diagonal o >= 0 and
    col[-o] on diagonal o < 0, zero outside the prefixes."""
    def entry(o):
        if 0 <= o < len(row):
            return row[o]
        if 0 < -o < len(col):
            return col[-o]
        return 0
    return [[entry(j - i) for j in range(n)] for i in range(n)]


def det(rows):
    """Determinant by Gaussian elimination over Fractions, with row swaps."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                for j in range(c, n):
                    a[i][j] -= f * a[c][j]
    return out


def permanent(rows):
    """Ryser's formula, visiting column subsets in Gray-code order."""
    n = len(rows)
    if n == 0:
        return 1
    row_sums = [0] * n
    total = 0
    subset = 0
    for step in range(1, 1 << n):
        col = (step & -step).bit_length() - 1
        subset ^= 1 << col
        sign = 1 if subset >> col & 1 else -1
        for i in range(n):
            row_sums[i] += sign * rows[i][col]
        prod = 1
        for x in row_sums:
            prod *= x
        total += prod if (n - bin(subset).count("1")) % 2 == 0 else -prod
    return total
