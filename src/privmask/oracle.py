"""Exact finite-horizon information computations for the closed loop.

Every signal in the loop (state ``X_t``, masked uplink ``Y_t``, cloud
estimate ``Xhat_t``) is a linear combination of the underlying independent
Gaussian noises, so its exact joint covariance can be assembled by
propagating coefficient vectors instead of sampling.  The raw command
``U_t = k*Y_t`` carries the same information as ``Y_t`` and is not
offered.  Mutual information then reduces to log-determinants, and
directed information to squared Cholesky pivots: the pivot at a position
of an ordering is the variance of that signal given everything before it.
This module is the independent verification path for the closed forms in
:mod:`privmask.rates`, and ``exact_directed_info`` returns their ``DirectedInformation``.

``joint_covariance`` builds one Gram product, the covariance of Y, X and
Xhat up to the horizon, and returns it as a ``JointCovariance``.  A
factorization reads a contiguous ordering (a ``span``) as a slice view of
that covariance and gathers any other with ``take`` along both axes, and
the object keeps the squared pivots of each distinct ordering, so
``exact_mi``, ``exact_directed_info`` and ``consistency_report`` share one
factorization per ordering.  ``consistency_report`` factors seven: X, Y,
Xhat, the two interleaved orderings and the blocks [X Y] and [X Xhat].

Every factorization goes through ``_chol``, which refuses a covariance
(``SingularBlock``) once rounding in one of its pivots could reach a tenth
of ``CHECK_TOL``.  That guard bounds each pivot, not the totals, which sum
2T + 1 log pivots: ``verify --a 0.841704 --k -0.600731 --w 4.31264022310946
--m 0.0026573354857846636 --n 3.116584488003355e-05 --T 256`` passes it and
exits 1 by rounding alone, ``conservation_measurement`` off by 4.8e-9 on
totals of about 1515 nats.  ``HORIZON_CAP`` bounds time and memory.

Initial conditions are pinned to a known zero state: ``X_0 = 0``,
``Xhat_0 = 0`` and zero initial error covariance.  One consequence is that
the filter's time-0 gain is zero, ``Y_0`` never enters the estimate
recursion, and the map from measurements to estimates is *not* invertible:
``I(X^T; Xhat^T)`` genuinely falls short of ``I(X^T; Y^T)`` for horizons
``T >= 2`` (by exactly ``I(X^T; Y_0 | Xhat^T)``, a bounded amount that
vanishes in rate).  ``consistency_report`` therefore gates on the
measurement-target identities and reports the estimate-target comparisons
as informational rows.
"""

from __future__ import annotations

import sys as _sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import DegenerateMasks, HorizonTooLarge, HorizonTooShort, SingularBlock
from .params import MaskParams, SystemParams
from .rates import DirectedInformation, finite_horizon_info
from .riccati import gain_schedule

if TYPE_CHECKING:
    import numpy as np

HORIZON_CAP = 256

CHECK_TOL = 1e-9
# rounding in a factorization grows like eps * (largest diagonal / pivot);
# refuse a pivot once that could reach a tenth of CHECK_TOL
PIVOT_RTOL = 10 * _sys.float_info.epsilon / CHECK_TOL

_KINDS = ("Y", "X", "Xhat")  # the order of the kinds in ``JointCovariance.cov``


@dataclass(frozen=True)
class ConsistencyCheck:
    """One named |lhs - rhs| comparison from ``consistency_report``.

    ``informational`` rows document known, expected deviations (estimate
    target vs measurement target); they do not gate verification.
    """

    name: str
    lhs: float
    rhs: float
    abs_err: float
    passed: bool
    informational: bool = False


class JointCovariance:
    """Exact covariance of every loop signal up to a horizon, and its factorizations.

    ``cov`` is the covariance of Y_0..Y_T, X_0..X_T and Xhat_0..Xhat_T, kind
    by kind (X_0 = Xhat_0 = 0).  ``index`` and ``span`` give positions in
    ``cov``, and ``pivots`` factors the block at a sequence of positions
    once, however often that ordering is asked for.
    """

    def __init__(self, horizon: int, cov: np.ndarray):
        self.horizon = horizon
        self.cov = cov
        self._pivots = {}

    def index(self, label: str) -> int:
        """Position of ``label``, one of Y_0..Y_T, X_1..X_T and Xhat_1..Xhat_T."""
        kind, _, t = label.rpartition("_")
        # isdecimal, not a bare int(): int takes "-1" and " 1", and refuses "²" without a message
        if kind in _KINDS and t.isdecimal():
            pos = _KINDS.index(kind) * (self.horizon + 1) + int(t)
            if pos in self.span(kind):
                return pos
        T = self.horizon
        raise ValueError(f"unknown signal label {label!r}: expected one of "
                         f"Y_0..Y_{T}, X_1..X_{T} and Xhat_1..Xhat_{T}")

    def span(self, kind: str) -> range:
        """Positions of Y_0..Y_T, X_1..X_T or Xhat_1..Xhat_T."""
        kind_0 = _KINDS.index(kind) * (self.horizon + 1)
        return range(kind_0 + (kind != "Y"), kind_0 + self.horizon + 1)

    def pivots(self, idx: Sequence[int], block: str) -> np.ndarray:
        """Squared Cholesky pivots of the signals at positions ``idx``, in order.

        Pivot ``j`` is the variance of signal ``j`` given signals ``0..j-1``.
        """
        import numpy as np

        ix = np.asarray(idx)
        # keyed by the bytes of the positions, not a tuple: CPython 3.11 parks up
        # to 2000 freed 20-element tuples (X^T at T = 20) and never reuses them
        key = ix.tobytes()
        if key not in self._pivots:
            cov = self.cov
            # a contiguous range is a slice view; take gathers any other ordering
            # and refuses positions out of bounds, which a slice would clip
            if isinstance(idx, range) and idx.step == 1 and 0 <= idx.start and idx.stop <= len(cov):
                block_cov = cov[idx.start:idx.stop, idx.start:idx.stop]
            else:
                block_cov = cov.take(ix, 0).take(ix, 1)
            self._pivots[key] = _chol(block_cov, block).diagonal() ** 2
        return self._pivots[key]


def _chol(mat: np.ndarray, block: str) -> np.ndarray:
    """Cholesky factor (LAPACK) with an explicit relative pivot check.

    Raises ``SingularBlock`` naming ``block`` when the factorization fails
    or any squared pivot falls below PIVOT_RTOL times the largest diagonal
    entry, instead of returning a factorization too imprecise for the
    CHECK_TOL comparisons.
    """
    import numpy as np

    a = np.asarray(mat, dtype=float)
    top = max(a.diagonal().max(), 0.0)
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise _singular(block, f": not positive definite (largest diagonal {top:.3e})") from None
    pivots = L.diagonal() ** 2
    large = pivots > PIVOT_RTOL * top  # a NaN pivot is too small too
    if not large.all():
        j = int(large.argmin())
        raise _singular(block, f" at pivot {j} ({pivots[j]:.3e}, largest diagonal {top:.3e})")
    return L


def _singular(block: str, detail: str) -> SingularBlock:
    return SingularBlock(f"covariance block {block} is singular or too ill-conditioned "
                         f"for the {CHECK_TOL:g} checks{detail}")


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise HorizonTooShort(f"horizon must be >= 1, got {horizon}")
    if horizon > HORIZON_CAP:
        raise HorizonTooLarge(f"horizon must be in 1..{HORIZON_CAP}, got {horizon}")


def joint_covariance(sys: SystemParams, masks: MaskParams, horizon: int) -> JointCovariance:
    """Exact joint covariance of Y_0..Y_T, X_0..X_T and Xhat_0..Xhat_T.

    One Gram product of the signals' coefficient rows over the noise basis
    [N_0..N_T, M_0..M_{T-1}, W_1..W_T].  X_t = (a+k)*X_{t-1} + k*N_{t-1} +
    M_{t-1} + W_t, so the X rows are lower-triangular Toeplitz in two
    impulse responses, both run as Python floats with the operations of the
    step-by-step recursion, a*r + k*r, and so with its bits: ``h`` to N_j
    (h_0 = k) and ``g`` to M_j and W_{j+1} (g_0 = 1).  A Y row is its X row
    plus N_t.  Only the Xhat rows, whose gain changes each step, recur.
    """
    import numpy as np

    _check_horizon(horizon)
    T = horizon
    a, k = sys.a, sys.k
    nb = (T + 1) + T + T
    var = np.concatenate([np.full(T + 1, masks.n), np.full(T, masks.m), np.full(T, sys.w)])
    _, gains = gain_schedule(a, masks.m + sys.w, masks.n, T)

    h, g = [k], [1.0]  # responses of X_{j+1+d} to N_j, and to M_j and W_{j+1}
    for _ in range(T - 1):
        h.append(a * h[-1] + k * h[-1])
        g.append(a * g[-1] + k * g[-1])
    # lag[i, j] = T-1 + i - j reads resp[i - j] from the zero-padded response, 0 where i < j
    pad = np.zeros(T - 1)
    lag = np.subtract.outer(np.arange(T - 1, 2 * T - 1), np.arange(T))

    rows = np.zeros((3 * (T + 1), nb))
    y, x, xh = rows.reshape(3, T + 1, nb)  # views: row t of each is kind_t
    x[1:, :T] = np.concatenate([pad, h])[lag]
    x[1:, T + 1 : 2 * T + 1] = x[1:, 2 * T + 1 :] = np.concatenate([pad, g])[lag]
    y[1:] = x[1:]
    diag = np.arange(T + 1)
    y[diag, diag] = 1.0  # N_t; Y_0 = X_0 + N_0 = N_0
    ky = k * y  # U_t, needed by the recursion only
    for t in range(1, T + 1):
        pred = a * xh[t - 1] + ky[t - 1]
        xh[t] = pred + gains[t - 1] * (y[t] - pred)
    return JointCovariance(T, (rows * var) @ rows.T)


def _mi(jc: JointCovariance, ia: Sequence[int], ib: Sequence[int],
        name_a: str, name_b: str, name_ab: str) -> float:
    """0.5*(log det A + log det B - log det [A B]) from the squared pivots of ``jc``.

    The names of A, B and [A B] go into ``SingularBlock``.  [A B] is factored
    in block order, A first, and so apart from the interleaved orderings of
    ``exact_directed_info``: log det taken from the interleaved pivots would
    make the conservation rows hold by construction.
    """
    import numpy as np

    logdet = lambda idx, block: float(np.log(jc.pivots(idx, block)).sum())
    return 0.5 * (logdet(ia, name_a) + logdet(ib, name_b) - logdet([*ia, *ib], name_ab))


def exact_mi(jc: JointCovariance, block_a: Sequence[str], block_b: Sequence[str]) -> float:
    """Mutual information between two disjoint blocks of labelled signals of ``jc``.

    Computed as 0.5*(logdet A + logdet B - logdet [A B]); the Gaussian
    entropy constants cancel.
    """
    if set(block_a) & set(block_b):
        raise ValueError(f"blocks must be disjoint, both contain {set(block_a) & set(block_b)}")
    return _mi(jc, [jc.index(lbl) for lbl in block_a], [jc.index(lbl) for lbl in block_b],
               f"A={list(block_a)}", f"B={list(block_b)}", "AB")


def exact_directed_info(jc: JointCovariance, target: str = "Y") -> DirectedInformation:
    """Forward and backward directed information toward ``Y`` or ``Xhat``.

    Each per-step term is half the log of a ratio of conditional variances,
    and every one of them is a squared Cholesky pivot of one of three
    factorizations (chain rule of Massey 1990), with ``Z`` the target:

    * ``(Y_0 .. Y_T)`` or ``(Xhat_1 .. Xhat_T)`` gives ``Var(Z_t | Z^{t-1})``;
    * ``(X_1 .. X_T)`` gives ``Var(X_t | X^{t-1})``;
    * the interleaved ``(Y_0, X_1, Y_1, .., X_T, Y_T)``, or
      ``(X_1, Xhat_1, .., X_T, Xhat_T)``, gives ``Var(Z_t | Z^{t-1}, X^t)``
      at ``Z_t`` and ``Var(X_t | X^{t-1}, Z^{t-1})`` at ``X_t``.

    Forward term ``t`` is ``0.5*log(Var(Z_t | Z^{t-1}) / Var(Z_t | Z^{t-1},
    X^t))``, backward term ``t`` is ``0.5*log(Var(X_t | X^{t-1}) /
    Var(X_t | X^{t-1}, Z^{t-1}))`` and 0 where ``Z^{t-1}`` is empty.  For
    ``target="Y"`` the forward terms equal ``0.5*log(1 + S_t/n)`` and every
    backward term equals ``0.5*log(1 + k^2 n/(m+w))``; for
    ``target="Xhat"`` the time-0 measurement is invisible to the filter and
    the split differs (see the module docstring).
    """
    import numpy as np

    if target not in ("Y", "Xhat"):
        raise ValueError(f"target must be 'Y' or 'Xhat', got {target!r}")
    T = jc.horizon
    pre = 1 if target == "Y" else 0  # Y_0 precedes X_1; Xhat starts at 1
    zs = jc.span(target)
    xs = jc.span("X")
    inter = [*zs[:pre], *(i for pair in zip(xs, zs[pre:]) for i in pair)]
    z_piv = jc.pivots(zs, f"{target}^{T}")[pre:]
    x_piv = jc.pivots(xs, f"X^{T}")
    i_piv = jc.pivots(inter, f"X^{T} interleaved with {target}^{T}")
    fwd = 0.5 * np.log(z_piv / i_piv[pre + 1 :: 2])
    bwd = 0.5 * np.log(x_piv / i_piv[pre::2])
    if not pre:
        bwd[0] = 0.0  # X_1 has no Xhat past
    return DirectedInformation(float(fwd.sum()), float(bwd.sum()), fwd, bwd)


def consistency_report(
    sys: SystemParams, masks: MaskParams, horizon: int
) -> list:
    """Cross-check the closed forms against the exact-covariance oracle.

    Gating rows (tolerance 1e-9):

    * ``conservation_measurement``: I(X^T; Y^T) equals forward + backward
      directed information toward Y;
    * ``forward_sum_closed_form`` / ``backward_sum_closed_form``: the
      ``forward`` and ``backward`` of the oracle's ``DirectedInformation``
      toward Y vs those of ``finite_horizon_info``;
    * ``uplink_term_t``: their ``forward_terms``, 0.5*log(1 + S_t/n);
    * ``conservation_estimate``: chain-rule identity toward Xhat.

    Informational rows (reported, never gating): the estimate-target totals
    and splits vs the measurement-target ones, which deviate by design of
    the zero-initial-covariance filter.
    """
    _check_horizon(horizon)
    if masks.n == 0 or masks.m + sys.w == 0:
        raise DegenerateMasks("consistency_report needs n > 0 and m + w > 0")

    fh = finite_horizon_info(sys, masks, horizon)
    jc = joint_covariance(sys, masks, horizon)
    di_y = exact_directed_info(jc, "Y")
    di_xh = exact_directed_info(jc, "Xhat")

    T = horizon
    xs = jc.span("X")
    mi_y = _mi(jc, xs, jc.span("Y"), f"X^{T}", f"Y^{T}", f"X^{T} followed by Y^{T}")
    mi_xh = _mi(jc, xs, jc.span("Xhat"), f"X^{T}", f"Xhat^{T}", f"X^{T} followed by Xhat^{T}")

    def check(name, lhs, rhs, informational=False):
        err = abs(lhs - rhs)
        return ConsistencyCheck(
            name=name, lhs=lhs, rhs=rhs, abs_err=err,
            passed=err <= CHECK_TOL, informational=informational,
        )

    report = [
        check("conservation_measurement", mi_y, di_y.forward + di_y.backward),
        check("forward_sum_closed_form", di_y.forward, fh.forward),
        check("backward_sum_closed_form", di_y.backward, fh.backward),
    ]
    for t in range(1, horizon + 1):
        report.append(check(f"uplink_term_{t}", di_y.forward_terms[t - 1], fh.forward_terms[t - 1]))
    report.append(check("conservation_estimate", mi_xh, di_xh.forward + di_xh.backward))
    report.append(check("mi_estimate_vs_measurement", mi_xh, mi_y, informational=True))
    report.append(check("forward_estimate_vs_measurement", di_xh.forward, di_y.forward, informational=True))
    report.append(check("backward_estimate_vs_measurement", di_xh.backward, di_y.backward, informational=True))
    return report
