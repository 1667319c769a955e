"""Kernel families with the analytic derivatives the identification needs.

Four families are supported:

    gaussian_rbf  K(x, y) = exp(-||x - y||^2 / mu)
    exp_dot       K(x, y) = exp(mu * x.y)
    polynomial    K(x, y) = (1 + x.y / mu)^degree
    linear        K(x, y) = x.y

Each family is a scalar profile K(x, y) = f(z) of one scalar z: z = x.y for
the dot-product families and z = ||x - y||^2 for gaussian_rbf. With

    dz/dx = beta (y - rho x),  dz/dy = beta (x - rho y),  d2z/dxdy = beta I,

where (rho, beta) = (0, 1) for the dot-product families and (1, -2) for
gaussian_rbf, every derivative the identification needs follows from f, f'
and f'':

    grad1(x, y)      = beta f' (y - rho x)
    grad1grad2(x, y) = beta f' I + beta^2 f'' (y - rho x)(x - rho y)^T

and the two integrands of the Gram-style inner-product systems are

    pre_inner_integrand(x, y, a, b) = a^T grad1grad2(x, y) b
        (a contracts the x-derivative index, b the y-derivative index)
    rhs_integrand(x, (start, end), v) = (grad1(x, end) - grad1(x, start)) . v

Only the profile is written per family; every Kernel operation is written
once over it. Each profile is exp, a power or the identity of one affine
argument s = a z + b: exp(-z / mu), exp(mu z), (1 + z / mu)^degree, z.
Kernel._z gives s from one matrix product: the scale a multiplies its small
left operand, and the shift b and, for gaussian_rbf, the squared norms ride
along as augmented columns, so the profile is one in-place pass over each
(samples, centers) block. The
gaussian_rbf points are measured from the mean of the second argument's
points first: z depends on x - y only, and the smaller squared norms cancel
with less rounding than about the origin.

The second argument's side of that product depends on its points alone, so
a fixed point set is prepared once: Kernel._prepare(Y) keeps Y and the right
operand [Y - m, 1, -|Y - m|^2 / 2] with m the mean of Y (gaussian_rbf), or
[Y, 1, b] (the dot-product families). matrix, grad1_contract and
assemble_block_multi take a prepared set wherever they take their second
point set, and prepare raw points on the fly, with the same bits either way.
A prepared set reads as its points (np.asarray, shape), and a kernel of
another family, or another feature map, rejects it with a ValueError.
StreamState prepares its centers once per stream, at construction;
sysid.assemble_multi its centers once per call, for every trajectory;
FeatureMapKernel its centers once, at construction (its own prepared set of
Y holds the features of Y); quadrature.occupation_eval the estimate's
samples once per call, for every block. The Gram route prepares nothing.

Kernel and FeatureMapKernel share one pointwise API (eval, grad2,
pre_inner_integrand, rhs_integrand, assemble_block): each is one entry of
the vectorized method it wraps (matrix, grad1, pre_inner_pairwise,
grad1_contract, assemble_block_multi). Each kernel type writes only grad1,
grad1grad2 and the vectorized methods.

pre_inner_pairwise takes one field per side, A (P, n) and B (Q, n), for the
(P, Q) matrix of integrands, or stacks of fields, A (k, P, n) and B
(l, Q, n), for all k l blocks at once as a (k, P, l, Q) array built from one
kernel profile pass over the (P, Q) sample pairs; one field is the stack of
one. The Gram assembly asks for the n^2 mixed-derivative blocks of a row
block this way, with the unit fields e_d on both sides.

Every basis field is a sum of scalar terms g_j(x) e_{k_j}: term j puts the
scalar g_j on coordinate k_j of field f_j, and g_j is row r_j of a table of
scalar functions. assemble_block_multi takes the fields in this term form
(G, maps): G (T, P) holds the table at the samples, and maps (a _Terms,
built once per basis by _term_maps) holds r_j, f_j, k_j, the number of
fields M', and where each term's rows sit in the stack below. A dense
(M, P, n) array is the term form with one table row per (field, coordinate).
With F[p, s] = f'(z_ps) and weights w, grad1 above gives the entry (s, i) of
the rows as one formula:

    A[s, i] = beta sum_{j: f_j = i} (C[s, k_j] acc[g_j, s] - rho acc[x_{k_j} g_j, s]),
    acc[h, s] = (F^T (w h))[s]

Each acc row is one distinct function, stacked once per block of samples:
the table rows that some term uses and, when rho != 0, each product
x_k g_j. A product is a table row when the table's product map says so
(monomial_basis: x_k x^alpha = x^(alpha + e_k), read backwards to build the
table), and is made from X_k and row r_j otherwise, once per distinct
product. The degree-3 monomial library in 3-D stacks 35 rows (20 monomials
and 15 of degree 4) for its 60 terms, where one row per term and product
took 120. After the last block each term gathers its two rows.

FeatureMapKernel composes a base family with a finite center set to give the
separable kernel K(x, y) = sum_s k(x, c_s) k(y, c_s), whose Gram systems
factor exactly through the center-constraint matrix.

One entry budget, ENTRIES, sizes every kernel block: a loop over blocks of
samples builds at most ENTRIES kernel entries at once, unless a block's own
output or a single sample's row is larger. assemble_block_multi takes
max(R, ENTRIES // S) samples against S centers for R terms, so its
(samples, S) block is no larger than the budget or its (R, S) term sums;
quadrature.occupation_eval takes max(1, ENTRIES // P) points against P
samples, and gramsysid._gram_blocks max(1, ENTRIES // (n^2 P)) rows. Each
loop reads ENTRIES at call time and sums its blocks in time order, so
results are reproducible run to run. matrix, grad1_contract and
pre_inner_pairwise build their whole result at once. Overflow yields
non-finite entries without a warning; the assembly layers check for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedKernelError
from .trajectory import _finite, _freeze, _is_real

FAMILIES = ("gaussian_rbf", "exp_dot", "polynomial", "linear")

# Kernel entries one block builds at once (see the module docstring).
ENTRIES = 1 << 17

_QUIET = {"over": "ignore", "under": "ignore", "invalid": "ignore"}


def _as_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a single point, got shape {x.shape}")
    return x


def _rows(X) -> np.ndarray:
    return np.atleast_2d(np.asarray(X, dtype=float))


def _rowdot(U, W) -> np.ndarray:
    """U[p] . W[p], shape (P,)."""
    return np.einsum("pd,pd->p", U, W)


def _field_stacks(X, Y, A, B):
    """(X, Y, A, B, stacked) for pre_inner_pairwise: points as rows, each side's
    fields as a stack (k, P, n), one field (P, n) being a stack of one, and
    whether each side came as a stack."""
    stacked = (np.ndim(A) == 3, np.ndim(B) == 3)
    A, B = (np.asarray(F, dtype=float) if s else _rows(F)[None] for F, s in zip((A, B), stacked))
    return _rows(X), _rows(Y), A, B, stacked


def _unstack(out, stacked) -> np.ndarray:
    """A (k, P, l, Q) block result without the axis of each side that was not a stack."""
    return out[(slice(None) if stacked[0] else 0, slice(None), slice(None) if stacked[1] else 0)]


def _center_set(centers, dim: int | None = None) -> np.ndarray:
    """centers as a frozen (S, n) float array, the one check of every center set.

    A ValueError unless there is at least one center, n is dim (when given)
    and every entry is finite.
    """
    C = _freeze(np.atleast_2d(centers))
    if C.ndim != 2 or 0 in C.shape:
        raise ValueError(f"centers must be a non-empty (S, n) array, got shape {C.shape}")
    if dim is not None and C.shape[1] != dim:
        raise ValueError(f"centers have dimension {C.shape[1]}, expected {dim}")
    _finite("centers", C)
    return C


def _operand(W, w=0.0) -> np.ndarray:
    """[W, 1, w], the right operand of _pair for the points W and per-point terms w."""
    Q, n = W.shape
    Wa = np.empty((Q, n + 2))
    Wa[:, :n] = W
    Wa[:, n] = 1.0
    Wa[:, n + 1] = w
    return Wa


def _pair(U, Wa, u=0.0, c=1.0) -> np.ndarray:
    """c * (U[p] . W[q] + u[p] + w[q]) for Wa = _operand(W, w), shape (P, Q), from one
    matrix product.

    u and w ride along as extra columns, and a scalar c scales the small left
    operand, so none of them costs a pass over the (P, Q) result; an array c
    is multiplied in afterwards.
    """
    P, n = U.shape
    Ua = np.empty((P, n + 2))
    Ua[:, :n] = U
    Ua[:, n] = u
    Ua[:, n + 1] = 1.0
    if isinstance(c, np.ndarray):
        out = Ua @ Wa.T
        out *= c
        return out
    Ua *= c
    return Ua @ Wa.T


class _Prepared:
    """A fixed point set and its side of a kernel's pass, built by that kernel's _prepare.

    points is the raw (Q, n) set, whose shape the set has and which
    np.asarray gives. key is what made it, a Kernel's family or a
    FeatureMapKernel itself; any other kernel rejects the set. For a Kernel,
    shift is the point both arguments are measured from (gaussian_rbf: the
    mean of points; else None) and side is _pair's right operand (module
    docstring). For a FeatureMapKernel, side is the features of points.
    """

    __slots__ = ("points", "key", "shift", "side")

    def __init__(self, points, key, shift, side):
        self.points, self.key, self.shift, self.side = points, key, shift, side

    @property
    def shape(self) -> tuple:
        return self.points.shape

    def __array__(self, dtype=None, copy=None):
        return np.array(self.points, dtype=dtype, copy=copy)


class _Terms(NamedTuple):
    """The index maps of a term form over a table of scalar rows (module docstring)."""

    rows: np.ndarray    # (R,) table row of each term's g_j
    fields: np.ndarray  # (R,) its field f_j
    coords: np.ndarray  # (R,) its coordinate k_j
    M: int              # number of fields
    stack: np.ndarray   # table rows stacked per block: g rows, table products, made sources
    n_g: int            # stack[:n_g] are the g rows, all that rho = 0 needs
    made: np.ndarray    # coordinate k of each made product x_k g, the stack's last rows
    g_at: np.ndarray    # (R,) stack position of g_j
    x_at: np.ndarray    # (R,) stack position of x_{k_j} g_j
    into: np.ndarray    # (R, M) 0/1: term j -> field f_j


def _term_maps(rows, fields, coords, M: int, prod=None) -> _Terms:
    """_Terms of the terms (rows, fields, coords) over M fields, built once per basis.

    prod[r, k] names the row equal to x_k times table row r: a table row
    below len(prod), or a product the table lacks, numbered from len(prod)
    so that equal products share a number. Without prod, and for rows
    outside it (negative rows count from the table's end), each distinct
    (row, coord) pair is a product of its own.
    """
    rows, fields, coords = (np.asarray(a, dtype=int) for a in (rows, fields, coords))
    T = 0 if prod is None else len(prod)
    keys, first = [], {}  # x_k g_j of each term, ("row", r) or ("made", key); its first term
    for j, (r, k) in enumerate(zip(rows.tolist(), coords.tolist())):
        p = int(prod[r, k]) if 0 <= r < T else None
        keys.append(("row", p) if p is not None and p < T else ("made", (r, k) if p is None else p))
        first.setdefault(keys[-1], j)
    g_rows, g_at = np.unique(rows, return_inverse=True)
    at = {("row", r): i for i, r in enumerate(g_rows.tolist())}
    new = sorted((key for key in first if key not in at), key=lambda key: key[0] == "made")
    at.update({key: len(at) + i for i, key in enumerate(new)})  # table rows, then made ones
    sources = [first[key] for key in new if key[0] == "made"]  # made from their first term
    stack = [key[1] for key in new if key[0] == "row"] + rows[sources].tolist()
    return _Terms(rows, fields, coords, M, np.array(g_rows.tolist() + stack, dtype=int),
                  len(g_rows), coords[sources], g_at, np.array([at[key] for key in keys]),
                  (fields[:, None] == np.arange(M)).astype(float))


def _term_form(Vs, X):
    """(G, _Terms) of Vs at the samples X: Vs itself, or the one term per
    (field, coordinate) of a dense (M, P, n) array."""
    if isinstance(Vs, tuple):
        return Vs
    Vs = np.asarray(Vs, dtype=float)
    if Vs.shape[1:] != X.shape:
        raise ValueError(f"fields of shape {Vs.shape} do not match samples {X.shape}")
    terms = np.arange(Vs.shape[0] * X.shape[1])
    return (Vs.transpose(0, 2, 1).reshape(-1, len(X)),
            _term_maps(terms, *np.divmod(terms, X.shape[1]), len(Vs)))


class _PointwiseKernel:
    """The pointwise API shared by Kernel and FeatureMapKernel (see the module docstring)."""

    def _integrand_guard(self, name: str) -> None:
        """Raise when this kernel has no Gram integrands; Kernel overrides it for linear."""

    def eval(self, x, y) -> float:
        return float(self.matrix(_as_point(x)[None], _as_point(y)[None])[0, 0])

    def grad2(self, x, y) -> np.ndarray:
        """Gradient in the second argument; equals grad1(y, x) by symmetry."""
        return self.grad1(_as_point(y), _as_point(x))

    def pre_inner_integrand(self, x, y, a, b) -> float:
        """a^T grad1grad2(x, y) b.

        `a` is the field value contracted against the x-derivative index and
        `b` the one against the y-derivative index; in the occupation inner
        product a carries Y_m'(x) at x = gamma(t) and b carries Y_m(y) at
        y = gamma(tau).
        """
        self._integrand_guard("pre_inner_integrand")
        x, y, a, b = (_as_point(p)[None] for p in (x, y, a, b))
        return float(self.pre_inner_pairwise(x, y, a, b)[0, 0])

    def rhs_integrand(self, x, endpoints, v) -> float:
        """(grad1(x, end) - grad1(x, start)) . v."""
        self._integrand_guard("rhs_integrand")
        x, v = _as_point(x), _as_point(v)
        ends = np.stack([_as_point(p) for p in endpoints])
        g = self.grad1_contract(x[None], ends, v[None])[0]
        return float(g[1] - g[0])

    def assemble_block(self, X, C, Vs, w) -> np.ndarray:
        """One trajectory's constraint rows: sum_p w[p] grad1(X[p], C[s]) . Vs[i, p].

        X  : (P, n) trajectory samples,
        C  : (S, n) centers,
        Vs : (M, P, n) basis values along the trajectory, or their term form
             (G, maps) (see the module docstring),
        w  : (P,) quadrature weights.
        Returns (S, M).
        """
        return self.assemble_block_multi(X, C, Vs, [w])[0]


@dataclass(frozen=True)
class Kernel(_PointwiseKernel):
    """A positive-definite kernel from one of the supported FAMILIES.

    mu is the width/scale parameter, a real number (not a bool). Except for
    `linear`, which ignores it, it is positive and its square neither
    underflows to 0 nor overflows. degree applies to `polynomial` only and
    must be an integer >= 2 (not a bool).
    """

    family: str
    mu: float = 1.0
    degree: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        mu, d = self.mu, self.degree
        if not _is_real(mu):
            raise ValueError(f"mu must be a real number, got {mu!r}")
        if self.family != "linear" and not (mu > 0 and 0 < mu * mu < np.inf):
            raise ValueError(f"mu must be positive with a nonzero, finite square, got {mu}")
        if self.family == "polynomial":
            if not (_is_real(d) and 2 <= d < np.inf and int(d) == d):
                raise ValueError(f"polynomial degree must be an integer >= 2, got {d}")
        radial = self.family == "gaussian_rbf"
        object.__setattr__(self, "_rho", 1.0 if radial else 0.0)
        object.__setattr__(self, "_beta", -2.0 if radial else 1.0)
        # (a, b) of the argument s = a z + b; linear ignores mu, which may be 0 there
        arg = ((1.0, 0.0) if self.family == "linear" else
               {"gaussian_rbf": (-1.0 / mu, 0.0), "exp_dot": (mu, 0.0),
                "polynomial": (1.0 / mu, 1.0)}[self.family])
        object.__setattr__(self, "_arg", arg)

    def _profile(self, s):
        """(base, c0, c1, c2) with f^(k)(z) = base * c_k, from one transcendental pass.

        s is the argument from _z and is consumed: the result may reuse its
        memory. The factors are scalars except for polynomial, where they
        carry powers of u = 1 + z / mu, and linear, whose f(z) = z.
        """
        mu = self.mu
        if self.family == "gaussian_rbf":
            return np.exp(s, out=s), 1.0, -1.0 / mu, 1.0 / (mu * mu)
        if self.family == "exp_dot":
            return np.exp(s, out=s), 1.0, mu, mu * mu
        if self.family == "polynomial":
            d = self.degree
            return s ** (d - 2), s * s, (d / mu) * s, d * (d - 1) / (mu * mu)
        return np.ones_like(s), s, 1.0, 0.0

    def _prepare(self, Y) -> _Prepared:
        """Y's side of _z: the raw points Y prepared, or Y itself when it is a set
        prepared for this family (any other is a ValueError)."""
        if isinstance(Y, _Prepared):
            if Y.key != self.family:
                raise ValueError(f"points prepared for another kernel given to {self.family}")
            return Y
        Y = _rows(Y)
        if not self._rho:
            return _Prepared(Y, self.family, None, _operand(Y, self._arg[1]))
        m = np.add.reduce(Y) / len(Y)  # measured from Y's mean, |X|^2 and |Y|^2 stay
        Yc = Y - m                       # small and cancel less than about the origin
        return _Prepared(Y, self.family, m, _operand(Yc, -0.5 * _rowdot(Yc, Yc)))

    def _z(self, X, Y) -> np.ndarray:
        """The profile's argument s[p, q] = a z + b (module docstring), from one _pair
        product: z = X[p] . Y[q], or |X[p] - Y[q]|^2 for gaussian_rbf. Y is raw
        points or a set _prepare'd for this family."""
        Y = self._prepare(Y)
        a = self._arg[0]
        if not self._rho:
            return _pair(a * X, Y.side)
        X = X - Y.shift
        return _pair(X, Y.side, -0.5 * _rowdot(X, X), -2.0 * a)

    def _integrand_guard(self, name: str) -> None:
        if self.family == "linear":
            raise UnsupportedKernelError(
                f"{name} is available for gaussian_rbf, exp_dot and polynomial only"
            )

    # -- pointwise API (the rest is inherited) ------------------------------

    def grad1(self, x, y) -> np.ndarray:
        """Gradient in the first argument, shape (n,)."""
        x, y = _as_point(x), _as_point(y)
        base, _, c1, _ = self._profile(self._z(x[None], y[None]))
        return (self._beta * (base * c1).item()) * (y - self._rho * x)

    def grad1grad2(self, x, y) -> np.ndarray:
        """Mixed second derivatives: entry (i, j) is d^2 K / dx_i dy_j."""
        x, y = _as_point(x), _as_point(y)
        rho, beta = self._rho, self._beta
        base, _, c1, c2 = self._profile(self._z(x[None], y[None]))
        f1, f2 = (base * c1).item(), (base * c2).item()
        return beta * f1 * np.eye(x.shape[0]) + beta * beta * f2 * np.outer(y - rho * x, x - rho * y)

    # -- vectorized helpers -------------------------------------------------

    def matrix(self, X, Y) -> np.ndarray:
        """Kernel matrix [eval(X[p], Y[q])], shape (P, Q)."""
        with np.errstate(**_QUIET):
            base, c0, _, _ = self._profile(self._z(_rows(X), Y))
            base *= c0
            return base

    def grad1_contract(self, X, C, V) -> np.ndarray:
        """Matrix of grad1(X[p], C[s]) . V[p], shape (P, S)."""
        X, C, V = _rows(X), self._prepare(C), _rows(V)
        with np.errstate(**_QUIET):
            base, _, c1, _ = self._profile(self._z(X, C))
            base *= _pair(V, _operand(C.points), -self._rho * _rowdot(V, X), self._beta * c1)
            return base

    def assemble_block_multi(self, X, C, Vs, ws) -> list[np.ndarray]:
        """assemble_block for several weight vectors sharing one kernel pass.

        Vs is the term form or a dense array (module docstring). Each block of
        samples stacks the table rows that some term uses and, when rho != 0,
        the products x_k g that the table lacks, once each, and sums them
        against F in one (rows, P_c) @ (P_c, S) product per weight vector.
        The gather per term, C[s, k_j] and the sum over each field's terms
        enter once, after the last block.
        """
        X, C = _rows(X), self._prepare(C)
        G, t = _term_form(Vs, X)
        ws = [np.asarray(w, dtype=float) for w in ws]
        P, S = X.shape[0], C.points.shape[0]
        if G.shape[1] != P or any(w.shape != (P,) for w in ws):
            raise ValueError(f"terms of shape {G.shape} and weights of shapes "
                             f"{[w.shape for w in ws]} do not match {P} samples")
        rho = self._rho
        stack = t.stack if rho else t.stack[:t.n_g]
        acc = [np.zeros((len(stack), S)) for _ in ws]
        rows = max(len(t.rows), ENTRIES // max(1, S))  # no centers, no entries
        with np.errstate(**_QUIET):
            for lo in range(0, P, rows):
                hi = min(lo + rows, P)
                base, _, c1, _ = self._profile(self._z(X[lo:hi], C))
                F, scale = ((base * c1, self._beta) if isinstance(c1, np.ndarray)
                            else (base, self._beta * c1))
                Gc = G[stack, lo:hi]
                if rho:  # the products the table lacks: x_k times their source row
                    Gc[len(stack) - len(t.made):] *= X[lo:hi].T[t.made]
                for j, w in enumerate(ws):
                    acc[j] += (Gc * (scale * w[lo:hi])) @ F
            out = []
            for a in acc:  # C[s, k_j] (w g_j)^T F - rho (w x_{k_j} g_j)^T F, summed per field
                terms = a[t.g_at] * C.points.T[t.coords]
                if rho:
                    terms -= rho * a[t.x_at]
                out.append(terms.T @ t.into)
        return out

    def pre_inner_pairwise(self, X, Y, A, B) -> np.ndarray:
        """Blocks of pre_inner_integrand(X[p], Y[q], A_i[p], B_j[q]) from one kernel pass.

        A is one field (P, n) or a stack (k, P, n), B one field (Q, n) or a
        stack (l, Q, n). Entry [i, p, j, q] of the (k, P, l, Q) result is

            beta f' A_i[p] . B_j[q] + beta^2 f'' (A_i[p] . (y - rho x)) ((x - rho y) . B_j[q])

        at x = X[p], y = Y[q]; an unstacked A or B drops its axis, so two
        fields give the (P, Q) matrix.
        """
        self._integrand_guard("pre_inner_pairwise")
        X, Y, A, B, stacked = _field_stacks(X, Y, A, B)
        (k, P, n), (l, Q, _) = A.shape, B.shape
        rho, beta = self._rho, self._beta
        with np.errstate(**_QUIET):
            base, _, c1, c2 = self._profile(self._z(X, Y))
            # a[i, p, q] = beta^2 f'' A_i[p] . (y - rho x), b[p, j, q] = (x - rho y) . B_j[q]
            ax = np.einsum("kpd,pd->kp", A, X).reshape(-1)
            by = np.einsum("lqd,qd->lq", B, Y).reshape(-1)
            a = _pair(A.reshape(k * P, n), _operand(Y), -rho * ax, beta * beta * c2)
            a = a.reshape(k, P, Q)
            a *= base
            b = _pair(X, _operand(B.reshape(l * Q, n), -rho * by)).reshape(P, l, Q)
            out = np.multiply(a[:, :, None, :], b)
            del a, b  # freed before the f' term's (P, Q) products
            base *= beta * c1  # beta f'
            for i in range(k):
                for j in range(l):
                    ab = A[i] @ B[j].T
                    ab *= base
                    out[i, :, j, :] += ab
        return _unstack(out, stacked)


class FeatureMapKernel(_PointwiseKernel):
    """Separable kernel K(x, y) = sum_s k(x, c_s) k(y, c_s) over fixed centers.

    The feature map is psi(x) = (k(x, c_1), ..., k(x, c_S)); all derivative
    operations reduce to derivatives of the base family, and Gram systems
    built from this kernel factor exactly through the center-constraint
    matrix of the direct method. The base's side of the centers is prepared
    once, here, and every feature evaluation uses it.
    """

    def __init__(self, base: Kernel, centers):
        if not isinstance(base, Kernel):
            raise ValueError("base must be a Kernel")
        self.base = base
        self.centers = _center_set(centers)
        self._centers = base._prepare(self.centers)

    @property
    def family(self) -> str:
        return "feature_map"

    def __reduce__(self):  # rebuilt, so the centers come back frozen and prepared
        return FeatureMapKernel, (self.base, self.centers)

    def __eq__(self, other):
        return (
            isinstance(other, FeatureMapKernel)
            and self.base == other.base
            and np.array_equal(self.centers, other.centers)
        )

    def features(self, X) -> np.ndarray:
        return self.base.matrix(X, self._centers)

    def _prepare(self, Y) -> _Prepared:
        """Y with its features: the raw points Y prepared, or Y itself when this
        kernel prepared it (any other set is a ValueError)."""
        if isinstance(Y, _Prepared):
            if Y.key is not self:
                raise ValueError("points prepared for another kernel given to a feature map")
            return Y
        Y = _rows(Y)
        return _Prepared(Y, self, None, self.features(Y))

    def _grad_rows(self, x) -> np.ndarray:
        """Rows grad1_base(x, c_s), shape (S, n)."""
        x = _as_point(x)
        return np.array([self.base.grad1(x, c) for c in self.centers])

    def grad1(self, x, y) -> np.ndarray:
        phi_y = self.features(_as_point(y)[None])[0]
        return phi_y @ self._grad_rows(x)

    def grad1grad2(self, x, y) -> np.ndarray:
        return self._grad_rows(x).T @ self._grad_rows(y)

    def matrix(self, X, Y) -> np.ndarray:
        return self.features(X) @ self._prepare(Y).side.T

    def grad1_contract(self, X, C, V) -> np.ndarray:
        inner = self.base.grad1_contract(X, self._centers, V)  # (P, S)
        return inner @ self._prepare(C).side.T

    def assemble_block_multi(self, X, C, Vs, ws) -> list[np.ndarray]:
        blocks = self.base.assemble_block_multi(X, self._centers, Vs, ws)
        phi_c = self._prepare(C).side  # (|C|, S)
        return [phi_c @ blk for blk in blocks]

    def pre_inner_pairwise(self, X, Y, A, B) -> np.ndarray:
        """Kernel.pre_inner_pairwise's blocks as one (kP, S) @ (S, lQ) product."""
        X, Y, A, B, stacked = _field_stacks(X, Y, A, B)
        (k, P, n), (l, Q, _) = A.shape, B.shape
        ga = self.base.grad1_contract(np.tile(X, (k, 1)), self._centers, A.reshape(k * P, n))
        gb = self.base.grad1_contract(np.tile(Y, (l, 1)), self._centers, B.reshape(l * Q, n))
        return _unstack((ga @ gb.T).reshape(k, P, l, Q), stacked)


def gaussian_rbf(mu: float) -> Kernel:
    return Kernel("gaussian_rbf", mu=mu)


def exp_dot(mu: float) -> Kernel:
    return Kernel("exp_dot", mu=mu)


def polynomial(mu: float, degree: int) -> Kernel:
    return Kernel("polynomial", mu=mu, degree=degree)


def linear() -> Kernel:
    return Kernel("linear")


_CLI_NAMES = {
    "gaussian": "gaussian_rbf",
    "expdot": "exp_dot",
    "poly": "polynomial",
    "linear": "linear",
}


def from_name(name: str, mu: float = 1.0, degree: int = 2) -> Kernel:
    """Build a kernel from its short command-line name."""
    if name in FAMILIES:
        return Kernel(name, mu=mu, degree=degree)
    if name in _CLI_NAMES:
        return Kernel(_CLI_NAMES[name], mu=mu, degree=degree)
    raise ValueError(f"unknown kernel name {name!r}")
