"""Output checks and exact oracles for the benchmark, independent of bibeta's code.

Every check returns a list of problems (empty when the output is right);
the runner counts an invocation with any problem as failed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np
from scipy.special import gammaln

WEIGHT_SUM_TOL = 1e-9
MEAN_TOL = 1e-9
# the CLI prints 12 significant digits, so a closed-form posterior read back
# from weights.csv differs from the exact one by rounding only
EXACT_TV_TOL = 1e-9
# Monte Carlo histogram priors: 10^7 pairs give TV ~0.005 today
MC_POSTERIOR_TV_LIMIT = 0.02
SAMPLE_TV_BINS = 50
SAMPLE_TV_LIMIT = 0.05
Z_LIMIT = 4.0


def midpoints(m: int) -> np.ndarray:
    return (np.arange(m) + 0.5) / m


def ol_minus_logpdf(x: np.ndarray, y: np.ndarray, alphas) -> np.ndarray:
    """Log density of (X, 1-Y) where X = U1/(U1+U3), Y = U2/(U2+U3) (Olkin-Liu)."""
    a1, a2, a3 = alphas
    yp = 1.0 - y
    return (
        gammaln(a1 + a2 + a3) - gammaln(a1) - gammaln(a2) - gammaln(a3)
        + (a1 - 1.0) * np.log(x)
        + (a2 - 1.0) * np.log(yp)
        + (a2 + a3 - 1.0) * np.log1p(-x)
        + (a1 + a3 - 1.0) * np.log(y)
        - (a1 + a2 + a3) * np.log1p(-x * yp)
    )


def _normalized_exp(log_w: np.ndarray) -> np.ndarray:
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def log_likelihood_grid(counts, m: int) -> np.ndarray:
    """Log likelihood of (eta, theta) at the m x m midpoints, up to a constant."""
    n, n1, k1, k2 = counts
    mid = midpoints(m)
    log_eta = k1 * np.log(mid) + (n1 - k1) * np.log1p(-mid)
    log_theta = k2 * np.log(mid) + (n - n1 - k2) * np.log1p(-mid)
    return log_eta[:, None] + log_theta[None, :]


def ol_minus_log_prior_grid(alphas, m: int) -> np.ndarray:
    eta, theta = np.meshgrid(midpoints(m), midpoints(m), indexing="ij")
    return ol_minus_logpdf(eta, theta, alphas)


def exact_ol_minus_posterior(counts, alphas, m: int) -> np.ndarray:
    """Posterior weights on the m x m midpoint grid under the OL- prior."""
    return _normalized_exp(log_likelihood_grid(counts, m) + ol_minus_log_prior_grid(alphas, m))


def prior_tv(weights: np.ndarray, counts, alphas) -> float:
    """TV between the prior grid a posterior run used and the exact OL- prior.

    The prior is recovered as posterior weights / likelihood, so unlike the
    posterior TV it does not depend on where the data put the posterior.
    """
    m = weights.shape[0]
    with np.errstate(divide="ignore"):
        used = _normalized_exp(np.log(weights) - log_likelihood_grid(counts, m))
    return total_variation(used, _normalized_exp(ol_minus_log_prior_grid(alphas, m)))


def ol_minus_cell_masses(alphas, bins: int, order: int = 8) -> np.ndarray:
    """Probability of each cell of a bins x bins grid, by Gauss-Legendre per cell."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.arange(bins) / bins
    points = (edges[:, None] + (nodes[None, :] + 1.0) / (2 * bins)).ravel()
    w = np.tile(weights / (2 * bins), bins)
    x, y = np.meshgrid(points, points, indexing="ij")
    dens = np.exp(ol_minus_logpdf(x, y, alphas)) * w[:, None] * w[None, :]
    return dens.reshape(bins, order, bins, order).sum(axis=(1, 3))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def beta_mean_var(a: float, b: float) -> Tuple[float, float]:
    return a / (a + b), a * b / ((a + b) ** 2 * (a + b + 1.0))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def read_numeric_csv(path: Path) -> Tuple[List[str], np.ndarray]:
    """Header cells and the numeric body of a CSV with no quoted cells."""
    head, _, body = path.read_text().partition("\n")
    header = head.split(",")
    values = np.array(body.rstrip("\n").replace("\n", ",").split(","), dtype=float)
    if values.size % len(header):
        raise ValueError(f"{path.name}: ragged rows")
    return header, values.reshape(-1, len(header))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# per-invocation checks
# ---------------------------------------------------------------------------


def check_posterior(prefix: Path, m: int) -> Tuple[List[str], Optional[np.ndarray]]:
    """Parse the five files of one `posterior` run and check them against each other."""
    problems: List[str] = []
    try:
        header, w = read_numeric_csv(Path(f"{prefix}.weights.csv"))
        grid = read_json(Path(f"{prefix}.grid.json"))
        summary = read_json(Path(f"{prefix}.summary.json"))["data"]
        _, marg_eta = read_numeric_csv(Path(f"{prefix}.marginal_eta.csv"))
        _, marg_theta = read_numeric_csv(Path(f"{prefix}.marginal_theta.csv"))
    except (OSError, ValueError, KeyError) as exc:
        return [f"{prefix.name}: unreadable output: {exc!r}"], None
    if w.shape != (m, m) or np.asarray(grid["data"]["weights"]).shape != (m, m):
        return [f"{prefix.name}: weights are not {m}x{m}"], None
    mid = midpoints(m)
    eta_axis = np.asarray(grid["data"]["eta_axis"])
    theta_axis = np.array(header, dtype=float)
    if np.abs(eta_axis - mid).max() > 1e-12 or np.abs(theta_axis - mid).max() > 1e-11:
        problems.append(f"{prefix.name}: grid axes are not the cell midpoints")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        problems.append(f"{prefix.name}: weights sum to {total!r}")
    pe, pt = w.sum(axis=1), w.sum(axis=0)
    for name, got, want in (("mean_eta", summary["mean_eta"], pe @ eta_axis),
                            ("mean_theta", summary["mean_theta"], pt @ theta_axis)):
        if abs(got - want) > MEAN_TOL:
            problems.append(f"{prefix.name}: summary {name} {got!r} != {want!r} from weights.csv")
    for name, marg, want in (("eta", marg_eta, pe), ("theta", marg_theta, pt)):
        if marg.shape != (m, 2) or np.abs(marg[:, 1] - want).max() > WEIGHT_SUM_TOL:
            problems.append(f"{prefix.name}: marginal_{name}.csv disagrees with weights.csv")
    return problems, w


def check_sample(path: Path, n: int, alphas) -> Tuple[List[str], Optional[float]]:
    """`sample` CSV of an OL- family: row count, range, marginal means, cell TV."""
    try:
        header, xy = read_numeric_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable output: {exc!r}"], None
    if header != ["x", "y"] or xy.shape != (n, 2):
        return [f"{path.name}: expected header x,y and {n} rows, got {header} {xy.shape}"], None
    problems = []
    if xy.min() < 0.0 or xy.max() > 1.0:
        problems.append(f"{path.name}: values outside [0, 1]")
    a1, a2, a3 = alphas
    for col, (a, b) in (("x", (a1, a3)), ("y", (a3, a2))):
        mean, var = beta_mean_var(a, b)
        got = float(xy[:, 0 if col == "x" else 1].mean())
        if abs(got - mean) > Z_LIMIT * math.sqrt(var / n):
            problems.append(f"{path.name}: {col} mean {got:.6f} is more than 4 SE from B({a:g},{b:g}) mean {mean:.6f}")
    bins = SAMPLE_TV_BINS
    hist, _, _ = np.histogram2d(xy[:, 0], xy[:, 1], bins=bins, range=[[0, 1], [0, 1]])
    tv = total_variation(hist / n, ol_minus_cell_masses(alphas, bins))
    if tv > SAMPLE_TV_LIMIT:
        problems.append(f"{path.name}: {bins}x{bins} cell TV {tv:.4f} from the exact law exceeds {SAMPLE_TV_LIMIT}")
    return problems, tv


def check_table(path: Path, table: int, reference: dict) -> Tuple[List[str], Optional[float], float]:
    """Table 5/6 correlations within 4 sqrt(SE^2 + SE_ref^2) of the stored references.

    SE is the measured standard deviation of a 10^6-pair correlation for the
    row (reference corr_sd), not the corr_std_error column, which understates
    it.  Returns the problems, the largest reported corr_std_error, and the
    largest ratio corr_sd / corr_std_error.
    """
    try:
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = [(r["distribution"], float(r["correlation"]), float(r["corr_std_error"])) for r in rows]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: unreadable output: {exc!r}"], None, math.nan
    refs = [r for r in reference["rows"] if r["table"] == table]
    if len(got) != len(refs):
        return [f"{path.name}: {len(got)} rows, reference has {len(refs)}"], None, math.nan
    problems = []
    for (label, corr, _), ref in zip(got, refs):
        tol = Z_LIMIT * math.hypot(ref["corr_sd"], ref["se_ref"])
        if not abs(corr - ref["correlation"]) <= tol:
            problems.append(f"{path.name}: {label} correlation {corr:.6f} vs reference {ref['correlation']:.6f} (tol {tol:.2e})")
    understated = max(ref["corr_sd"] / se for (_, _, se), ref in zip(got, refs))
    return problems, max(se for _, _, se in got), understated


def check_closure(path: Path) -> List[str]:
    try:
        data = read_json(path)["data"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: unreadable output: {exc!r}"]
    problems = []
    if data.get("oracle_passed") is not True:
        problems.append(f"{path.name}: oracle_passed is not true")
    if data.get("involution") is not True:
        problems.append(f"{path.name}: double complement is not the identity")
    return problems
