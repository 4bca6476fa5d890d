"""Label-free estimation of agent accuracies, and the full pipeline.

Two estimators recover per-agent accuracies without any ground truth:

  * matrix fit (``fit_ow_l``): least-squares fit of the model-implied
    second-order probabilities to the empirically observed ones, solved
    by multi-start projected gradient descent with an analytic gradient;
  * pseudo-label vote (``fit_ow_i``): aggregate with the counterfactual
    peer rule, treat its output as truth, and score each agent against it.

Either way the recovered accuracies are turned into log-odds weights for
weighted voting. ``run_pipeline`` wires ingest, optional estimation, and
aggregation together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_EPS,
    DimensionError,
    DomainError,
    PredictionMatrix,
    _check_abilities,
    _check_acc,
    _freeze,
    ow_weights,
)
from . import aggregate as agg
from .aggregate import TIE_LOWEST, TiePolicy
from .secondorder import (
    SecondOrderMatrix,
    cross_label_prob,
    empirical_second_order,
    same_label_prob,
)

__all__ = [
    "METHODS",
    "ErmConfig",
    "FitResult",
    "PipelineResult",
    "erm_loss",
    "erm_gradient",
    "fit_accuracies",
    "fit_ow_l",
    "fit_ow_i",
    "run_pipeline",
]

METHODS = ("mv", "sp", "isp", "ow-l", "ow-i", "ow-oracle", "eow")

_GRAD_TOL = 1e-9  # a fit has converged once no projected-gradient entry exceeds this
_STEP0 = 0.1  # the line search's first step


@dataclass(frozen=True)
class ErmConfig:
    """Settings for the projected-gradient accuracy fit. ``eps`` is also the
    accuracy clamp of every weighted method: ``ow-l``, ``ow-i`` and ``ow-oracle``."""

    starts: int = 8
    max_iters: int = 2000
    eps: float = DEFAULT_EPS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise DomainError(f"starts must be >= 1, got {self.starts}")
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.eps < 0.5:
            raise DomainError(f"eps must lie in (0, 0.5), got {self.eps}")


@dataclass(frozen=True)
class FitResult:
    """Recovered accuracies and weights, plus fit diagnostics."""

    accuracies: np.ndarray
    weights: np.ndarray
    method: str
    loss: float | None = None
    converged: bool = True
    iterations: int = 0
    starts_agreeing: int | None = None
    imputed_cells: int = 0  # of the second-order matrix the fit read

    def __post_init__(self) -> None:
        _freeze(self, accuracies=np.array(self.accuracies, float), weights=np.array(self.weights, float))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "accuracies": [float(v) for v in self.accuracies],
            "weights": [float(v) for v in self.weights],
            "loss": None if self.loss is None else float(self.loss),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "starts_agreeing": self.starts_agreeing,
        }


# ---------------------------------------------------------------------------
# ERM objective
# ---------------------------------------------------------------------------


class _ErmData:
    """Sufficient statistics of the target second-order matrix.

    The loss sums squared residuals over all ordered pairs i != j and all
    (k, l) cells; grouping cells by same-label vs cross-label leaves the
    model's per-pair s_ij and c_ij against the targets' per-pair sums. Both
    are bilinear in phi_i = (x_i, 1 - x_i): s_ij = phi_i' A phi_j and
    c_ij = phi_i' B phi_j. So every pair sum in the loss and its gradient
    reduces to the 2x2 Gram G = Phi' Phi, one (2N, N) x (N, 2) product of
    the stacked targets with Phi, and O(N) diagonal terms.
    """

    def __init__(self, so: SecondOrderMatrix):
        n, k = so.n, so.k
        if n < 2:
            raise DimensionError("the fit needs at least 2 agents")
        self.n, self.k = n, k
        same = so.probs[:, :, np.arange(k), np.arange(k)].sum(axis=2)
        # targets[t, i, j]: the observed same- (t=0) or cross-label (t=1) sum of
        # pair (i, j) plus that of (j, i), since s and c are symmetric; 0 if i == j
        targets = np.stack([same, so.probs.sum(axis=(2, 3)) - same])
        targets = targets + targets.transpose(0, 2, 1)
        targets[:, np.arange(n), np.arange(n)] = 0.0
        self.targets = targets.reshape(2 * n, n)
        sq = np.einsum("ijkl,ijkl->ij", so.probs, so.probs)
        np.fill_diagonal(sq, 0.0)
        self.const = float(sq.sum())
        # A and B: as s and c are affine in each accuracy, their values at the
        # corners x in {1, 0}, where phi is (1, 0) or (0, 1), are the forms' entries
        x, y = np.array([[1.0], [0.0]]), np.array([1.0, 0.0])
        self.forms = np.stack([same_label_prob(x, y, k), cross_label_prob(x, y, k)])
        self.cells = np.array([k, k * (k - 1)], dtype=float)  # same- and cross-label cells per pair

    def evaluate(self, x: np.ndarray) -> tuple[float, tuple]:
        """The loss at x, and the terms its gradient there is built from."""

        phi = np.stack([x, 1.0 - x], axis=1)
        gram = phi.T @ phi
        t_phi = (self.targets @ phi).reshape(2, self.n, 2)  # targets[0] @ Phi and targets[1] @ Phi
        phi_f = phi @ self.forms  # (2, N, 2): Phi A and Phi B
        own = np.einsum("tnb,nb->tn", phi_f, phi)  # s_ii and c_ii
        fg = self.forms @ gram
        # over i != j, sum s_ij^2 = tr(AGAG) - sum_i s_ii^2 and 2 sum s_ij S_ij = tr(A Phi' T Phi),
        # with S the observed same-label sums and T = targets[0]; likewise for c, B
        sq = np.einsum("tab,tba->t", fg, fg) - np.einsum("tn,tn->t", own, own)
        loss = self.cells @ sq - np.einsum("tnb,tnb->", phi_f, t_phi) + self.const
        return float(loss), (phi_f, t_phi, own, gram)

    def gradient(self, terms: tuple) -> np.ndarray:
        """The gradient at the point whose ``evaluate`` gave ``terms``."""

        phi_f, t_phi, own, gram = terms
        # d phi_m / d x_m = (1, -1), which A and B map to their column differences
        resid = 2.0 * self.cells[:, None, None] * (phi_f @ gram) - t_phi
        grad = np.einsum("tnb,tb->tn", resid, self.forms[:, :, 0] - self.forms[:, :, 1])
        grad -= 2.0 * self.cells[:, None] * own * (phi_f[:, :, 0] - phi_f[:, :, 1])
        return 2.0 * grad.sum(axis=0)


def erm_loss(accuracies, so: SecondOrderMatrix) -> float:
    """Squared-residual fit of model-implied to observed second-order cells."""

    x = _check_fit_point(accuracies, so)
    return _ErmData(so).evaluate(x)[0]


def erm_gradient(accuracies, so: SecondOrderMatrix) -> np.ndarray:
    """Analytic gradient of ``erm_loss`` in the accuracies."""

    x = _check_fit_point(accuracies, so)
    data = _ErmData(so)
    return data.gradient(data.evaluate(x)[1])


def _check_fit_point(accuracies, so: SecondOrderMatrix) -> np.ndarray:
    x = np.asarray(accuracies, dtype=float)
    if x.shape != (so.n,):
        raise DimensionError(f"accuracies shape {x.shape} does not match N={so.n}")
    if np.any(~np.isfinite(x)):
        raise DomainError("accuracies must be finite")
    return x


# ---------------------------------------------------------------------------
# Projected gradient descent
# ---------------------------------------------------------------------------


def _pgd_single(data: _ErmData, x0: np.ndarray, lo: float, hi: float, cfg: ErmConfig):
    x = np.clip(x0, lo, hi)
    loss, terms = data.evaluate(x)
    grad = data.gradient(terms)
    step = _STEP0
    iters = 0
    converged = False
    for iters in range(1, cfg.max_iters + 1):
        moved = False
        for _ in range(60):  # backtracking line search
            x_new = np.clip(x - step * grad, lo, hi)
            delta = x_new - x
            if not np.any(delta):
                break
            new_loss, terms = data.evaluate(x_new)
            if new_loss <= loss + float(grad @ delta) + float(delta @ delta) / (2 * step):
                x, loss, grad = x_new, new_loss, data.gradient(terms)
                step *= 1.25
                moved = True
                break
            step *= 0.5
        proj_grad = x - np.clip(x - grad, lo, hi)
        # a stalled line search counts as converged to machine precision
        if np.max(np.abs(proj_grad)) <= _GRAD_TOL or not moved:
            converged = True
            break
    return x, loss, converged, iters


def fit_accuracies(so: SecondOrderMatrix, cfg: ErmConfig | None = None) -> FitResult:
    """Best-fit accuracies for an observed second-order matrix.

    Runs projected gradient descent from several random interior starts
    (plus the box midpoint) and keeps the lowest loss. The box is
    [1/K + eps, 1 - eps]; under relabeling symmetry the reflected solution
    lies outside the box, so the minimizer in the box is unique for
    informative data.
    """

    cfg = cfg or ErmConfig()
    data = _ErmData(so)
    lo = 1.0 / data.k + cfg.eps
    hi = 1.0 - cfg.eps
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    x0s = [np.full(data.n, 0.5 * (lo + hi))]
    x0s += list(lo + (hi - lo) * rng.random((cfg.starts - 1, data.n))) if cfg.starts > 1 else []

    results = [_pgd_single(data, x0, lo, hi, cfg) for x0 in x0s]
    best = min(range(len(results)), key=lambda idx: results[idx][1])
    x_best, loss_best, converged, iters = results[best]
    agreeing = sum(
        1
        for x, loss, _, _ in results
        if loss <= loss_best + 1e-8 and np.max(np.abs(x - x_best)) <= 1e-4
    )
    return FitResult(
        accuracies=x_best,
        weights=ow_weights(x_best, data.k, cfg.eps),
        method="ow-l",
        loss=loss_best,
        converged=converged,
        iterations=iters,
        starts_agreeing=agreeing,
        imputed_cells=int(so.imputed.sum()),
    )


def fit_ow_l(pm: PredictionMatrix, cfg: ErmConfig | None = None, smoothing: float = 0.0) -> FitResult:
    """Accuracies from the empirical second-order matrix of a dataset."""

    return fit_accuracies(empirical_second_order(pm, smoothing), cfg)


def _hit_rates(answers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The share of questions on which each agent answered ``labels``, counted a
    column at a time: no (M, N) temporary, and a count / M has the bits of a bool mean."""

    hits = [np.count_nonzero(answers[:, j] == labels) for j in range(answers.shape[1])]
    return np.array(hits) / answers.shape[0]


def fit_ow_i(pm: PredictionMatrix, eps: float = DEFAULT_EPS, smoothing: float = 0.0) -> FitResult:
    """Accuracies by scoring agents against counterfactual-peer pseudo-labels.

    Pseudo-label ties resolve to the lowest index so the estimate is
    deterministic.
    """

    if pm.n < 2:
        raise DimensionError("the pseudo-label estimator needs at least 2 agents")
    so = empirical_second_order(pm, smoothing)
    pseudo, _ = agg.aggregate_batch("isp", pm.answers, pm.k, TiePolicy(TIE_LOWEST), so=so)
    acc = _hit_rates(pm.answers, pseudo)
    return FitResult(
        accuracies=acc,
        weights=ow_weights(acc, pm.k, eps),
        method="ow-i",
        loss=None,
        converged=True,
        imputed_cells=int(so.imputed.sum()),
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    """The label of every question, in the answers' code dtype, plus how many came
    from a tie-break and how many second-order cells the rule or fit read were imputed."""

    labels: np.ndarray
    method: str
    fit: FitResult | None = None
    ties_broken: int = 0
    imputed_cells: int = 0

    def __post_init__(self) -> None:
        _freeze(self, labels=np.array(self.labels))


def _given_accuracies_fit(pm: PredictionMatrix, accuracies, eps: float) -> FitResult:
    if accuracies is None:
        raise DomainError("ow-oracle needs per-agent accuracies")
    x = _check_acc(accuracies)
    if x.shape != (pm.n,):
        raise DimensionError(f"accuracies shape {x.shape} does not match N={pm.n}")
    return FitResult(accuracies=x, weights=ow_weights(x, pm.k, eps), method="ow-oracle")


def _given_abilities_fit(pm: PredictionMatrix, abilities) -> FitResult:
    if abilities is None:
        raise DomainError("eow needs per-agent abilities")
    beta = np.asarray(abilities, dtype=float)
    if beta.shape != (pm.n,):
        raise DimensionError(f"abilities shape {beta.shape} does not match N={pm.n}")
    return FitResult(accuracies=np.full(pm.n, np.nan), weights=_check_abilities(beta), method="eow")


def run_pipeline(
    pm: PredictionMatrix,
    method: str,
    tie: TiePolicy | None = None,
    erm: ErmConfig | None = None,
    accuracies=None,
    abilities=None,
    smoothing: float = 0.0,
) -> PipelineResult:
    """Aggregate a prediction matrix with the chosen method.

    ``ow-oracle`` requires true accuracies and ``eow`` per-agent abilities;
    the label-free methods (``ow-l``, ``ow-i``) fit their own weights. The
    truth column of ``pm``, if any, is never consulted.
    """

    erm = erm or ErmConfig()
    method = method.lower().replace("_", "-")
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")
    so = fit = None
    if method in agg.SECOND_ORDER_RULES:
        so = empirical_second_order(pm, smoothing)
    elif method == "ow-l":
        fit = fit_ow_l(pm, erm, smoothing)
    elif method == "ow-i":
        fit = fit_ow_i(pm, erm.eps, smoothing)
    elif method == "ow-oracle":
        fit = _given_accuracies_fit(pm, accuracies, erm.eps)
    elif method == "eow":
        fit = _given_abilities_fit(pm, abilities)
    # mv, sp and isp are rules of their own; every other method votes with its fit's weights
    rule, weights = (method, None) if fit is None else ("weighted", fit.weights)
    labels, ties = agg.aggregate_batch(rule, pm.answers, pm.k, tie, so=so, weights=weights)
    imputed = fit.imputed_cells if fit is not None else 0 if so is None else int(so.imputed.sum())
    return PipelineResult(labels=labels, method=method, fit=fit, ties_broken=ties, imputed_cells=imputed)
