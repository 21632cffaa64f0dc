"""Exact finite-horizon information computations for the closed loop.

Every signal in the loop (state ``X_t``, masked uplink ``Y_t``, raw command
``U_t``, cloud estimate ``Xhat_t``) is a linear combination of the
underlying independent Gaussian noises, so its exact joint covariance can
be assembled by propagating coefficient vectors instead of sampling.
Mutual information then reduces to log-determinants, and directed
information to squared Cholesky pivots: the pivot at a position of an
ordering is the variance of that signal given everything before it.  This
module is the independent verification path for the closed forms in
:mod:`privmask.rates`.

One Gram product gives the covariance of Y, X and Xhat up to the horizon
(U_t = k*Y_t is scaled from Y), and every factorization gathers its block
from it with ``np.ix_``, as ``joint_covariance`` does.  Each distinct
ordering is factored once per call, so ``consistency_report`` factors
seven: X, Y, Xhat, the two interleaved orderings and the blocks [X Y] and
[X Xhat].

Every factorization goes through ``_chol``, which refuses a covariance
whose smallest pivot is so small against its largest diagonal entry that
rounding alone could exceed the ``CHECK_TOL`` comparisons
(``SingularBlock``).  That guard, not the horizon, is what bounds the
precision; ``HORIZON_CAP`` only bounds time and memory.

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

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateMasks, HorizonTooLarge, HorizonTooShort, SingularBlock
from .params import MaskParams, SystemParams
from .rates import finite_horizon_info
from .riccati import gain_schedule

HORIZON_CAP = 256

CHECK_TOL = 1e-9
# rounding in a factorization grows like eps * (largest diagonal / pivot);
# refuse a pivot once that could reach a tenth of CHECK_TOL
PIVOT_RTOL = 10 * np.finfo(float).eps / CHECK_TOL

_LABEL_RE = re.compile(r"^(X|Y|Xhat|U)_(\d+)$")


@dataclass(frozen=True)
class JointCovariance:
    """Exact covariance of a chosen ordered set of loop signals."""

    labels: tuple
    cov: np.ndarray

    def index(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class DirectedInformation:
    """Directed-information decomposition toward a target sequence.

    ``forward`` sums the per-step flows from the state path into the target
    (terms in ``forward_terms``); ``backward`` sums the flows from the
    delayed target back into the state path.  ``forward + backward`` equals
    the mutual information between the two paths exactly (chain rule).
    """

    forward: float
    backward: float
    forward_terms: np.ndarray
    backward_terms: np.ndarray


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


class _SignalSpace:
    """One covariance of all loop signals, and the factorizations read from it.

    Basis order of the coefficient rows: [N_0..N_T, M_0..M_{T-1}, W_1..W_T].
    ``cov`` is the covariance of Y_0..Y_T, X_0..X_T and Xhat_0..Xhat_T, kind
    by kind (X_0 = Xhat_0 = 0); U_t = k*Y_t is not stored.  ``span(kind)``
    gives the positions of one kind in ``cov``, and ``pivots`` factors the
    block at a sequence of positions once, however often that ordering is
    asked for.
    """

    def __init__(self, sys: SystemParams, masks: MaskParams, horizon: int):
        T = horizon
        self.horizon = T
        nb = (T + 1) + T + T
        var = np.concatenate(
            [np.full(T + 1, masks.n), np.full(T, masks.m), np.full(T, sys.w)]
        )
        _, gains = gain_schedule(sys.a, masks.m + sys.w, masks.n, T)

        rows = np.zeros((3 * (T + 1), nb))
        y, x, xh = rows.reshape(3, T + 1, nb)  # views: row t of each is kind_t
        u = np.zeros((T + 1, nb))  # U_t = k*Y_t, needed by the recursion only
        y[0, 0] = 1.0  # Y_0 = X_0 + N_0 = N_0
        u[0] = sys.k * y[0]
        for t in range(1, T + 1):
            x[t] = sys.a * x[t - 1] + u[t - 1]
            x[t, (T + 1) + (t - 1)] += 1.0  # M_{t-1}
            x[t, (T + 1) + T + (t - 1)] += 1.0  # W_t
            y[t] = x[t].copy()
            y[t, t] += 1.0  # N_t
            u[t] = sys.k * y[t]
            pred = sys.a * xh[t - 1] + u[t - 1]
            l = gains[t - 1]
            xh[t] = pred + l * (y[t] - pred)
        self.cov = (rows * var) @ rows.T
        self._first = {"Y": 0, "X": T + 1, "Xhat": 2 * (T + 1)}  # position of kind_0
        self._pivots = {}

    def position(self, kind: str, t: int) -> int:
        """Position of ``{kind}_t`` in ``cov``, kind Y, X or Xhat."""
        return self._first[kind] + t

    def span(self, kind: str) -> range:
        """Positions of Y_0..Y_T, X_1..X_T or Xhat_1..Xhat_T."""
        lo = 0 if kind == "Y" else 1
        return range(self.position(kind, lo), self.position(kind, self.horizon + 1))

    def pivots(self, idx: Sequence[int], block: str) -> np.ndarray:
        """Squared Cholesky pivots of the signals at positions ``idx``, in order.

        Pivot ``j`` is the variance of signal ``j`` given signals ``0..j-1``.
        """
        ix = np.asarray(idx)
        # keyed by the bytes of the positions, not a tuple: CPython 3.11 parks up
        # to 2000 freed 20-element tuples (X^T at T = 20) and never reuses them
        key = ix.tobytes()
        if key not in self._pivots:
            self._pivots[key] = _chol(self.cov[np.ix_(ix, ix)], block).diagonal() ** 2
        return self._pivots[key]


def _parse_label(label: str, horizon: int) -> tuple:
    m = _LABEL_RE.match(label)
    if not m:
        raise ValueError(f"unknown signal label {label!r} (expected e.g. 'X_1', 'Y_0', 'Xhat_2', 'U_0')")
    kind, idx = m.group(1), int(m.group(2))
    lo = 0 if kind in ("Y", "U") else 1
    hi = horizon - 1 if kind == "U" else horizon
    if not lo <= idx <= hi:
        raise ValueError(f"{label!r} outside valid range {kind}_{lo}..{kind}_{hi} for horizon {horizon}")
    return kind, idx


def _chol(mat: np.ndarray, block: str) -> np.ndarray:
    """Cholesky factor (LAPACK) with an explicit relative pivot check.

    Raises ``SingularBlock`` naming ``block`` when the factorization fails
    or any squared pivot falls below PIVOT_RTOL times the largest diagonal
    entry, instead of returning a factorization too imprecise for the
    CHECK_TOL comparisons.
    """
    a = np.asarray(mat, dtype=float)
    top = max(a.diagonal().max(), 0.0)
    problem = (f"covariance block {block} is singular or too ill-conditioned "
               f"for the {CHECK_TOL:g} checks")
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SingularBlock(
            f"{problem}: not positive definite (largest diagonal {top:.3e})") from None
    pivots = L.diagonal() ** 2
    small = np.flatnonzero(~(pivots > PIVOT_RTOL * top))  # a NaN pivot is too small too
    if small.size:
        j = small[0]
        raise SingularBlock(
            f"{problem} at pivot {j} ({pivots[j]:.3e}, largest diagonal {top:.3e})")
    return L


def _logdet(mat: np.ndarray, block: str) -> float:
    L = _chol(mat, block)
    return 2.0 * float(np.log(L.diagonal()).sum())


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise HorizonTooShort(f"horizon must be >= 1, got {horizon}")
    if horizon > HORIZON_CAP:
        raise HorizonTooLarge(f"horizon must be in 1..{HORIZON_CAP}, got {horizon}")


def joint_covariance(
    sys: SystemParams, masks: MaskParams, horizon: int, signals: Iterable[str]
) -> JointCovariance:
    """Exact joint covariance of the requested signals.

    ``signals`` is an ordered collection of labels from
    ``X_1..X_T, Y_0..Y_T, Xhat_1..Xhat_T, U_0..U_{T-1}``.
    """
    _check_horizon(horizon)
    labels = tuple(signals)
    space = _SignalSpace(sys, masks, horizon)
    picks = [_parse_label(label, horizon) for label in labels]
    # U_t = k*Y_t: read the Y_t entries and scale them by k
    idx = np.array([space.position("Y" if kind == "U" else kind, t) for kind, t in picks], dtype=int)
    scale = np.array([sys.k if kind == "U" else 1.0 for kind, _ in picks])
    return JointCovariance(labels=labels, cov=space.cov[np.ix_(idx, idx)] * np.outer(scale, scale))


def exact_mi(jc: JointCovariance, block_a: Sequence[str], block_b: Sequence[str]) -> float:
    """Mutual information between two disjoint blocks of a JointCovariance.

    Computed as 0.5*(logdet A + logdet B - logdet [A B]); the Gaussian
    entropy constants cancel.
    """
    if set(block_a) & set(block_b):
        raise ValueError(f"blocks must be disjoint, both contain {set(block_a) & set(block_b)}")
    ia = [jc.index(lbl) for lbl in block_a]
    ib = [jc.index(lbl) for lbl in block_b]
    iab = ia + ib
    sub = lambda idx: jc.cov[np.ix_(idx, idx)]
    return 0.5 * (
        _logdet(sub(ia), f"A={list(block_a)}")
        + _logdet(sub(ib), f"B={list(block_b)}")
        - _logdet(sub(iab), "AB")
    )


def exact_directed_info(
    sys: SystemParams, masks: MaskParams, horizon: int, target: str = "Y"
) -> DirectedInformation:
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
    if target not in ("Y", "Xhat"):
        raise ValueError(f"target must be 'Y' or 'Xhat', got {target!r}")
    _check_horizon(horizon)
    return _directed_info(_SignalSpace(sys, masks, horizon), target)


def _directed_info(space: _SignalSpace, target: str) -> DirectedInformation:
    T = space.horizon
    pre = 1 if target == "Y" else 0  # Y_0 precedes X_1; Xhat starts at 1
    zs = space.span(target)
    xs = space.span("X")
    inter = [*zs[:pre], *(i for pair in zip(xs, zs[pre:]) for i in pair)]
    z_piv = space.pivots(zs, f"{target}^{T}")[pre:]
    x_piv = space.pivots(xs, f"X^{T}")
    i_piv = space.pivots(inter, f"X^{T} interleaved with {target}^{T}")
    fwd = 0.5 * np.log(z_piv / i_piv[pre + 1 :: 2])
    bwd = 0.5 * np.log(x_piv / i_piv[pre::2])
    if not pre:
        bwd[0] = 0.0  # X_1 has no Xhat past
    return DirectedInformation(
        forward=float(fwd.sum()),
        backward=float(bwd.sum()),
        forward_terms=fwd,
        backward_terms=bwd,
    )


def _mutual_info(space: _SignalSpace, target: str) -> float:
    """I(X^T; Z^T) = 0.5*(log det X + log det Z - log det [X Z]) from squared pivots.

    ``[X Z]`` is factored in block order, X first as ``exact_mi`` orders
    [A B], and apart from the interleaved ordering: log det taken from the
    interleaved pivots would make the conservation rows hold by construction.
    """
    T = space.horizon
    xs, zs = space.span("X"), space.span(target)
    logdet = lambda idx, block: float(np.log(space.pivots(idx, block)).sum())
    return 0.5 * (logdet(xs, f"X^{T}") + logdet(zs, f"{target}^{T}")
                  - logdet([*xs, *zs], f"X^{T} followed by {target}^{T}"))


def consistency_report(
    sys: SystemParams, masks: MaskParams, horizon: int
) -> list:
    """Cross-check the closed forms against the exact-covariance oracle.

    Gating rows (tolerance 1e-9):

    * ``conservation_measurement``: I(X^T; Y^T) equals forward + backward
      directed information toward Y;
    * ``forward_sum_closed_form`` / ``backward_sum_closed_form``: oracle
      directed sums vs the closed-form finite-horizon sums;
    * ``uplink_term_t``: per-step oracle forward terms vs
      0.5*log(1 + S_t/n);
    * ``conservation_estimate``: chain-rule identity toward Xhat.

    Informational rows (reported, never gating): the estimate-target totals
    and splits vs the measurement-target ones, which deviate by design of
    the zero-initial-covariance filter.
    """
    _check_horizon(horizon)
    if masks.n == 0 or masks.m + sys.w == 0:
        raise DegenerateMasks("consistency_report needs n > 0 and m + w > 0")

    fh = finite_horizon_info(sys, masks, horizon)
    space = _SignalSpace(sys, masks, horizon)
    di_y = _directed_info(space, "Y")
    di_xh = _directed_info(space, "Xhat")

    mi_y = _mutual_info(space, "Y")
    mi_xh = _mutual_info(space, "Xhat")

    def check(name, lhs, rhs, informational=False):
        err = abs(lhs - rhs)
        return ConsistencyCheck(
            name=name, lhs=lhs, rhs=rhs, abs_err=err,
            passed=err <= CHECK_TOL, informational=informational,
        )

    report = [
        check("conservation_measurement", mi_y, di_y.forward + di_y.backward),
        check("forward_sum_closed_form", di_y.forward, fh.forward_sum),
        check("backward_sum_closed_form", di_y.backward, fh.backward_sum),
    ]
    for t in range(1, horizon + 1):
        report.append(check(f"uplink_term_{t}", di_y.forward_terms[t - 1], fh.forward_terms[t - 1]))
    report.append(check("conservation_estimate", mi_xh, di_xh.forward + di_xh.backward))
    report.append(check("mi_estimate_vs_measurement", mi_xh, mi_y, informational=True))
    report.append(check("forward_estimate_vs_measurement", di_xh.forward, di_y.forward, informational=True))
    report.append(check("backward_estimate_vs_measurement", di_xh.backward, di_y.backward, informational=True))
    return report
