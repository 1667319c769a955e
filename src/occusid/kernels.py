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
once over it.

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
scalar g_j on coordinate k_j of field f_j. assemble_block_multi takes the
fields in this term form (G, fields, coords, M'): G (R, P) holds g_j at the
samples, fields and coords (R,) hold f_j and k_j, and M' is the number of
fields. A dense (M, P, n) array is the term form with one term per (field,
coordinate). With F[p, s] = f'(z_ps) and weights w, grad1 above gives the
entry (s, i) of the rows as one formula:

    A[s, i] = beta sum_{j: f_j = i} (C[s, k_j] (F^T (w g_j))[s] - rho (F^T (w X_{k_j} g_j))[s])

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

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedKernelError
from .trajectory import _freeze

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
    if not np.isfinite(C).all():
        raise ValueError("centers must be finite")
    return C


def _pair(U, W, u=0.0, w=0.0, c=1.0) -> np.ndarray:
    """c * (U[p] . W[q] + u[p] + w[q]), shape (P, Q), from one matrix product.

    u and w ride along as extra columns, and a scalar c scales the small left
    operand, so none of them costs a pass over the (P, Q) result; an array c
    is multiplied in afterwards.
    """
    P, n = U.shape
    Ua = np.empty((P, n + 2))
    Ua[:, :n] = U
    Ua[:, n] = u
    Ua[:, n + 1] = 1.0
    Wa = np.empty((W.shape[0], n + 2))
    Wa[:, :n] = W
    Wa[:, n] = 1.0
    Wa[:, n + 1] = w
    if np.ndim(c):
        out = Ua @ Wa.T
        out *= c
        return out
    Ua *= c
    return Ua @ Wa.T


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
             (G, fields, coords, M) (see the module docstring),
        w  : (P,) quadrature weights.
        Returns (S, M).
        """
        return self.assemble_block_multi(X, C, Vs, [w])[0]


@dataclass(frozen=True)
class Kernel(_PointwiseKernel):
    """A positive-definite kernel from one of the supported FAMILIES.

    mu is the width/scale parameter (ignored by `linear`): positive, and its
    square must neither underflow to 0 nor overflow. degree applies to
    `polynomial` only and must be an integer >= 2.
    """

    family: str
    mu: float = 1.0
    degree: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family != "linear" and not (self.mu > 0 and 0 < self.mu * self.mu < np.inf):
            raise ValueError(f"mu must be positive with a nonzero, finite square, got {self.mu}")
        if self.family == "polynomial":
            d = self.degree
            if not (isinstance(d, numbers.Real) and 2 <= d < np.inf and int(d) == d):
                raise ValueError(f"polynomial degree must be an integer >= 2, got {self.degree}")
        radial = self.family == "gaussian_rbf"
        object.__setattr__(self, "_rho", 1.0 if radial else 0.0)
        object.__setattr__(self, "_beta", -2.0 if radial else 1.0)

    def _profile(self, z):
        """(base, c0, c1, c2) with f^(k)(z) = base * c_k, from one transcendental pass.

        z is consumed: the result may reuse its memory. The factors are
        scalars except for polynomial, where they carry powers of
        u = 1 + z / mu, and linear, whose f(z) = z.
        """
        mu = self.mu
        if self.family == "gaussian_rbf":
            return np.exp(np.divide(z, -mu, out=z), out=z), 1.0, -1.0 / mu, 1.0 / (mu * mu)
        if self.family == "exp_dot":
            return np.exp(np.multiply(z, mu, out=z), out=z), 1.0, mu, mu * mu
        if self.family == "polynomial":
            d = self.degree
            u = np.divide(z, mu, out=z)
            u += 1.0
            return u ** (d - 2), u * u, (d / mu) * u, d * (d - 1) / (mu * mu)
        return np.ones_like(z), z, 1.0, 0.0

    def _z(self, X, Y) -> np.ndarray:
        """z[p, q] = rho (|X[p]|^2 + |Y[q]|^2) + beta X[p] . Y[q]."""
        z = (self._beta * X) @ Y.T
        if self._rho:  # skipped by the dot-product families: two passes over (P, Q)
            z += self._rho * _rowdot(X, X)[:, None]
            z += self._rho * _rowdot(Y, Y)
        return z

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
            base, c0, _, _ = self._profile(self._z(_rows(X), _rows(Y)))
            base *= c0
            return base

    def grad1_contract(self, X, C, V) -> np.ndarray:
        """Matrix of grad1(X[p], C[s]) . V[p], shape (P, S)."""
        X, C, V = _rows(X), _rows(C), _rows(V)
        with np.errstate(**_QUIET):
            base, _, c1, _ = self._profile(self._z(X, C))
            base *= _pair(V, C, -self._rho * _rowdot(V, X), 0.0, self._beta * c1)
            return base

    def assemble_block_multi(self, X, C, Vs, ws) -> list[np.ndarray]:
        """assemble_block for several weight vectors sharing one kernel pass.

        Vs is the term form or a dense array (module docstring). Each block of
        samples stacks the terms g_j over, when rho != 0, their products with
        X_{k_j}, and sums them against F in one (2R, P_c) @ (P_c, S) product
        per weight vector. C[s, k_j] and the sum over each field's terms
        enter once, after the last block.
        """
        X, C = _rows(X), _rows(C)
        if not isinstance(Vs, tuple):  # dense (M, P, n): one term per (field, coordinate)
            Vs = np.asarray(Vs, dtype=float)
            if Vs.shape[1:] != X.shape:
                raise ValueError(f"fields of shape {Vs.shape} do not match samples {X.shape}")
            G = Vs.transpose(0, 2, 1).reshape(-1, len(X))
            Vs = (G, *np.divmod(np.arange(len(G)), X.shape[1]), len(Vs))
        G, fields, coords, M = Vs
        ws = [np.asarray(w, dtype=float) for w in ws]
        P, R, S = X.shape[0], G.shape[0], C.shape[0]
        if G.shape[1] != P or any(w.shape != (P,) for w in ws):
            raise ValueError(f"terms of shape {G.shape} and weights of shapes "
                             f"{[w.shape for w in ws]} do not match {P} samples")
        rho = self._rho
        acc = [np.zeros((2 * R if rho else R, S)) for _ in ws]
        rows = max(R, ENTRIES // max(1, S))  # no centers, no entries
        with np.errstate(**_QUIET):
            for lo in range(0, P, rows):
                hi = min(lo + rows, P)
                Xc, Gc = X[lo:hi], G[:, lo:hi]
                base, _, c1, _ = self._profile(self._z(Xc, C))
                F, scale = (base * c1, self._beta) if np.ndim(c1) else (base, self._beta * c1)
                if rho:
                    Gc = np.concatenate([Gc, Gc * Xc.T[coords]])
                for j, w in enumerate(ws):
                    acc[j] += (Gc * (scale * w[lo:hi])) @ F
            into = (fields[:, None] == np.arange(M)).astype(float)  # (R, M): term j -> field
            out = [(a[:R] * C.T[coords]).T @ into for a in acc]
            if rho:
                out = [blk - rho * (a[R:].T @ into) for blk, a in zip(out, acc)]
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
            a = _pair(A.reshape(k * P, n), Y, -rho * ax, 0.0, beta * beta * c2).reshape(k, P, Q)
            a *= base
            b = _pair(X, B.reshape(l * Q, n), 0.0, -rho * by).reshape(P, l, Q)
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
    matrix of the direct method.
    """

    def __init__(self, base: Kernel, centers):
        if not isinstance(base, Kernel):
            raise ValueError("base must be a Kernel")
        self.base = base
        self.centers = _center_set(centers)

    @property
    def family(self) -> str:
        return "feature_map"

    def __eq__(self, other):
        return (
            isinstance(other, FeatureMapKernel)
            and self.base == other.base
            and np.array_equal(self.centers, other.centers)
        )

    def features(self, X) -> np.ndarray:
        return self.base.matrix(X, self.centers)

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
        return self.features(X) @ self.features(Y).T

    def grad1_contract(self, X, C, V) -> np.ndarray:
        inner = self.base.grad1_contract(X, self.centers, V)  # (P, S)
        return inner @ self.features(np.atleast_2d(np.asarray(C, dtype=float))).T

    def assemble_block_multi(self, X, C, Vs, ws) -> list[np.ndarray]:
        blocks = self.base.assemble_block_multi(X, self.centers, Vs, ws)
        phi_c = self.features(np.atleast_2d(np.asarray(C, dtype=float)))  # (|C|, S)
        return [phi_c @ blk for blk in blocks]

    def pre_inner_pairwise(self, X, Y, A, B) -> np.ndarray:
        """Kernel.pre_inner_pairwise's blocks as one (kP, S) @ (S, lQ) product."""
        X, Y, A, B, stacked = _field_stacks(X, Y, A, B)
        (k, P, n), (l, Q, _) = A.shape, B.shape
        ga = self.base.grad1_contract(np.tile(X, (k, 1)), self.centers, A.reshape(k * P, n))
        gb = self.base.grad1_contract(np.tile(Y, (l, 1)), self.centers, B.reshape(l * Q, n))
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
