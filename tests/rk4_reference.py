"""The list-of-columns RK4 marcher that `numeric.rk4_march` replaced, kept as
a test-only reference: every stage combination is a fresh array per column,
and the derivative f(z) returns one value per component from the list of
columns z (a kernel of `numeric.compile_components` called without out is
one).  `numeric.rk4_march` and `numeric.variational_kernel` must give every
state and every `died` entry the bits these give it."""

import numpy as np


def rk4_march(f, z, h, steps, lo=None, hi=None, on_step=None):
    """March the columns z of dz/dt = f(z) by `steps` RK4 steps of size h
    (a float or one step per row).  With guard bounds, a row is masked at
    the first step whose state leaves [lo, hi] or turns non-finite, and the
    march stops once every row is masked.  Returns (columns, died)."""
    z = list(z)
    rows = np.broadcast_shapes(np.shape(z[0]), np.shape(h))
    half, sixth = 0.5 * h, h / 6.0
    died = np.zeros(rows, dtype=int)
    alive = died == 0
    with np.errstate(all="ignore"):
        for k in range(1, steps + 1):
            k1 = f(z)
            k2 = f([a + half * b for a, b in zip(z, k1)])
            s = [a + 2.0 * b for a, b in zip(k1, k2)]
            k3 = f([a + half * b for a, b in zip(z, k2)])
            s = [a + 2.0 * b for a, b in zip(s, k3)]
            k4 = f([a + h * b for a, b in zip(z, k3)])
            z = [a + sixth * (b + c) for a, b, c in zip(z, s, k4)]
            if lo is not None:
                ok = alive.copy()
                for col, low, high in zip(z, lo, hi):
                    ok &= (col >= low) & (col <= high)
                died[alive & ~ok] = k
                alive = ok
            if on_step is not None:
                on_step(k, z, alive)
            if not alive.any():
                break
    return z, died


def variational_kernel(f, jac, n):
    """Column kernel of z' = F(z), J' = J_F(z) J over the columns
    (z_1, ..., z_n, J_11, ..., J_nn), J row-major, from the kernels of F
    and of its n*n row-major Jacobian entries: each entry of J_F J is n
    column products summed left to right over the inner index."""

    def g(y):
        z, J = y[:n], y[n:]
        A = jac(z)
        out = list(f(z))
        for i in range(n):
            row = A[i * n : (i + 1) * n]
            for j in range(n):
                acc = row[0] * J[j]
                for k in range(1, n):
                    acc = acc + row[k] * J[k * n + j]
                out.append(acc)
        return out

    return g
