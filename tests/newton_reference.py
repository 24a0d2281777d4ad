"""Scalar references for the batched Newton layer: one seed at a time, one
point per kernel call.  `numeric.newton_batch` and `fields._polish_roots`
must give every row the bits these give it.  f and jac are kernels
(`numeric.compile_components`): at a point x of n coordinates they give the
n values of f and the n*n row-major entries of its Jacobian."""

import numpy as np


def damped_newton(f, jac, x0, tol=1e-10, max_iter=100):
    """Newton with step halving on the residual norm, for one seed.

    Returns (x, converged, residual_norm).  Singular Jacobians or stalled
    line searches end the iteration with converged=False.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = f(x)
    if not (np.all(np.isfinite(fx)) and np.all(np.isfinite(x))):
        return x, False, float("inf")
    for _ in range(max_iter):
        r = float(np.linalg.norm(fx))
        if r < tol:
            return x, True, r
        J = jac(x).reshape(len(x), len(x))
        if not np.all(np.isfinite(J)):
            return x, False, r
        try:
            step = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            return x, False, r
        lam = 1.0
        improved = False
        while lam >= 2.0**-12:
            xn = x + lam * step
            fn = f(xn)
            if np.all(np.isfinite(fn)) and np.all(np.isfinite(xn)) and np.linalg.norm(fn) < r:
                x, fx = xn, fn
                improved = True
                break
            lam *= 0.5
        if not improved:
            return x, r < tol, r
    r = float(np.linalg.norm(fx))
    return x, r < tol, r


def newton_rows(f, jac, seeds, target=None, tol=1e-10, max_iter=100):
    """newton_batch's contract, one row at a time through damped_newton."""
    seeds = np.asarray(seeds, dtype=float)
    xs, oks, rs = [], [], []
    for i, seed in enumerate(seeds):
        g = f if target is None else (lambda x, t=target[i]: f(x) - t)
        # a norm or step that overflows warns; newton_batch runs silenced
        with np.errstate(all="ignore"):
            x, ok, r = damped_newton(g, jac, seed, tol, max_iter)
        xs.append(x)
        oks.append(ok)
        rs.append(r)
    x = np.array(xs, dtype=float).reshape(seeds.shape)
    return x, np.array(oks, dtype=bool), np.array(rs, dtype=float)


def polish_root(f, jac_fn, x, max_iter=80, step_tol=1e-13):
    """Full Newton steps past the residual tolerance, for one root."""
    for _ in range(max_iter):
        # the kernels set no error state; the solve and the step are unguarded
        with np.errstate(all="ignore"):
            fx = f(x)
            J = jac_fn(x).reshape(len(x), len(x))
        if not (np.all(np.isfinite(fx)) and np.all(np.isfinite(J))):
            return x
        try:
            step = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            return x
        if not np.all(np.isfinite(step)):
            return x
        x = x + step
        if np.linalg.norm(step) < step_tol:
            break
    return x
