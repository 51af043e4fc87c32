"""Exact verification that unsigned samples pin down a real function.

On a node set of roughly double density (half-integer steps), a real
function built from real Gaussian coefficients should be recoverable from
the magnitudes of its samples up to one global sign.  The check below is an
exact pruned search with the same survivors as trying every sign pattern of
the sampled magnitudes against a least-squares reconstruction: patterns grow
one row at a time, and a prefix whose least-squares residual is already too
large is dropped with all its extensions.  The verdict passes when exactly
the two global-sign vectors survive.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import BadParameterError, ComplexInputError, WindowTooLargeError, array, real, whole
from ..gauss_space import CoefficientVector, _entries
from ..lattice import ExplicitWindow, GaussianParam, NodeSequence, avdonin_verdict

__all__ = ["SignRetrievalResult", "half_grid", "sign_retrieval_check"]

# a function with many consistent prefixes (the zero function has all of
# them) still makes the search visit 2^W patterns; beyond this the check is
# not desk scale
_MAX_WINDOW = 16

# a prefix is dropped only when its residual exceeds the survivor limit by
# this factor, so rounding never drops a pattern whose full residual passes
_PRUNE_SLACK = 1.0 + 1e-6


def half_grid(deltas, start_index: int = 0) -> ExplicitWindow:
    """Nodes lambda_m = m/2 + delta_m for m starting at ``start_index``, a
    whole number; ``deltas`` are read by ``errors.array``, as
    ``ExplicitWindow`` reads nodes."""
    deltas = array(deltas, "deltas")
    start_index = whole(start_index, "start_index")
    m = np.arange(start_index, start_index + len(deltas))
    return ExplicitWindow(m / 2.0 + deltas, start_index)


@dataclass(frozen=True)
class SignRetrievalResult:
    """Outcome of the exact pruned sign search (same survivors as trying
    all 2^W patterns).

    ``n_survivors`` counts sign patterns whose reconstruction residual is
    below tolerance; ``prefixes_checked`` counts the least-squares residuals
    the search evaluated, full-length patterns included (always fewer than
    1.5 * 2^W); ``matched_up_to_sign`` is True when every surviving
    coefficient vector equals the input up to one global sign.
    ``dilated_delta_star`` reports the averaged-perturbation statistic of
    the doubled node set (the applicable condition at half-integer
    density asks for it to be below 1/2, i.e. delta below 1/4 before
    doubling).
    """

    passes: bool
    n_survivors: int
    matched_up_to_sign: bool
    max_survivor_residual: float
    window: int
    dilated_delta_star: float
    dilated_condition_ok: bool
    prefixes_checked: int


def _surviving_signs(mat, q, samples, residual_tol: float):
    """Sign patterns whose relative least-squares residual is below
    ``residual_tol``, their residuals, and the number of residuals evaluated;
    ``q`` is the orthonormal factor of ``mat``'s reduced QR.

    The survivors are those of trying all 2^W patterns.  The residual of the
    first k rows is a lower bound on the residual of all rows, so once k
    exceeds the column count (up to there every prefix fits exactly) a
    prefix whose residual reaches the limit is dropped with every
    extension.  sigma_0 is fixed to +1; a pattern and its negation have the
    same residual, so the kept half is mirrored before the full-row test,
    which also decides the last row.
    """
    w, ncols = mat.shape
    scale = np.linalg.norm(samples)
    limit = residual_tol * (scale if scale > 0.0 else 1.0) * _PRUNE_SLACK
    # prefix k's orthonormal factor, from one batched QR of mat with its
    # rows from k on zeroed, is qs[k - ncols - 1, :k]
    prefixes = np.arange(ncols + 1, w)[:, None, None]
    qs = np.linalg.qr(np.where(np.arange(w)[:, None] < prefixes, mat, 0.0))[0]
    live = np.ones((1, 1))
    checked = 0
    for k in range(2, w + 1):
        live = np.column_stack([np.tile(live, (2, 1)), np.repeat([1.0, -1.0], len(live))])
        if ncols < k < w:
            qk = qs[k - ncols - 1, :k]
            y = live * samples[:k]
            resid = np.linalg.norm(y - (y @ qk) @ qk.T, axis=1)
            checked += len(live)
            live = live[resid < limit]
    signs = np.vstack([live, -live])
    targets = signs * samples[None, :]
    resid = np.linalg.norm(targets - (targets @ q) @ q.T, axis=1)
    rel = resid / scale if scale > 0.0 else resid
    keep = rel < residual_tol
    return signs[keep], rel[keep], checked + len(signs)


def sign_retrieval_check(
    a: float,
    coeffs: CoefficientVector,
    seq: NodeSequence,
    residual_tol: float = 1e-8,
    match_tol: float = 1e-8,
) -> SignRetrievalResult:
    """Try to recover real coefficients from unsigned samples.

    Every stored node is used.  Magnitudes s_m = |f(lambda_m)| are computed
    exactly from the coefficients, then the sign assignments are solved in
    the least-squares sense for real coefficients over the same index range
    by an exact pruned search over the 2^W assignments (same survivors as
    trying every one), on one QR factorisation and one batched QR of the
    pruning prefixes.  Assignments with relative residual below
    ``residual_tol`` survive; the verdict passes when the survivors'
    coefficient vectors are exactly the two global-sign copies of the
    input (the zero vector passes trivially).  Both tolerances must be
    finite and > 0 (BadParameterError).
    """
    param = GaussianParam(a)
    real(residual_tol, "residual_tol", gt=0)
    real(match_tol, "match_tol", gt=0)
    if np.any(coeffs.values.imag != 0.0):
        raise ComplexInputError("sign retrieval needs real coefficients")
    if len(coeffs) == 0:
        raise BadParameterError("empty coefficient vector")

    lam = seq.positions()
    w = len(lam)
    if w > _MAX_WINDOW:
        raise WindowTooLargeError(f"window {w} exceeds limit {_MAX_WINDOW}")

    c = coeffs.values.real.astype(float)
    mat = _entries(param, lam[:, None], coeffs.indices.astype(float)[None, :])
    if mat.shape[0] < mat.shape[1]:
        raise BadParameterError(
            f"{w} nodes cannot overdetermine {mat.shape[1]} coefficients"
        )
    samples = np.abs(mat @ c)

    # the condition at half-integer density, checked on the doubled nodes
    dilated = ExplicitWindow(2.0 * lam, seq.default_window()[0])
    dverdict = avdonin_verdict(dilated)
    dilated_ok = bool(dverdict.passes)

    q, r = np.linalg.qr(mat)
    signs, rel, checked = _surviving_signs(mat, q, samples, residual_tol)
    proj = (signs * samples[None, :]) @ q  # (survivors, ncols) of q^T y
    sols = np.linalg.solve(r, proj.T).T if len(signs) else np.empty((0, len(c)))
    cnorm = np.linalg.norm(c)
    tol = match_tol * max(cnorm, 1.0)
    plus = np.linalg.norm(sols - c, axis=1) <= tol
    minus = np.linalg.norm(sols + c, axis=1) <= tol
    # every survivor is +-c; survivors come in +- pairs (``_surviving_signs``)
    matched = bool(np.all(plus | minus))
    passes = matched and len(signs) > 0
    max_res = float(np.max(rel)) if len(rel) else float("nan")
    return SignRetrievalResult(
        passes=bool(passes),
        n_survivors=int(len(signs)),
        matched_up_to_sign=bool(matched),
        max_survivor_residual=max_res,
        window=w,
        dilated_delta_star=float(dverdict.delta_star),
        dilated_condition_ok=dilated_ok,
        prefixes_checked=checked,
    )
