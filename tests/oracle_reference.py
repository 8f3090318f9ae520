"""Two-dimensional reference for the separable oracle: every (phi, sigma)
pair of the grid, one at a time, through the oracle's own window helpers."""

from mqsim.bounds.oracle import _resp_end, _send_end


def worst_2d(c_s, t_s, c_d, t_d, n, m):
    """Largest round trip over phi in range(t_d) and sigma in range(c_s), and
    the first (sigma, send end, response end) that reaches it."""
    best, arg = -1, (0, 0, 0)
    for phi in range(t_d):
        for sigma in range(c_s):
            te = _send_end(c_s, t_s, n, sigma)
            tr = _resp_end(c_d, t_d, phi, te, m)
            if tr - sigma > best:
                best, arg = tr - sigma, (sigma, te, tr)
    return (best, *arg)
