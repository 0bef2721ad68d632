"""Regenerate perfbench/reference.json, the stored Table 5/6 correlations.

Run from the repository root:  python3 perfbench/make_reference.py

How each reference correlation is obtained:

* Table 5 rows are OL+(a, a, b).  The two rows with b = 1 come from a 2-D
  quadrature (scipy ``dblquad``) of ``exp(closed_form_logpdf)`` times xy over
  the unit square.  The rows with b < 1, including the slow-decay B(1,0.1)
  row OL+(1,1,0.1), have an integrable singularity at (1, 1) that this
  quadrature does not resolve (it is off by 5e-6 at b = 0.3).  Every row is
  therefore also computed from the Laplace-transform form

      E[XY] = int_0^inf int_0^inf a1 a2 (1+s)^-(a1+1) (1+t)^-(a2+1)
              (1+s+t)^-a3 ds dt,

  which follows from 1/(U+u) = int_0^inf exp(-t(U+u)) dt; the two agree to
  1e-6 where both apply, and the Laplace value is the one stored.
* Table 6 rows are AN5; their correlations are the Laplace-transform
  quadrature values listed in ROADMAP.md (5 decimals, so se_ref is half a
  unit of the last decimal).
* Every row is cross-checked once by a 10^8-pair Monte Carlo run on seed
  CROSS_CHECK_SEED, which the benchmark never uses, drawn as 100 chunks of
  10^6 pairs.  The script refuses to write the file if a reference sits more
  than 4 Monte Carlo standard errors from its cross-check.
* corr_sd is the standard deviation of the correlation of one 10^6-pair
  sample, the sample size of `bibeta tables`, by the delta method from the
  cross-check run's moments up to order four.  It is the noise scale the
  benchmark checks table correlations with.  The normal-theory error
  (1 - r^2)/sqrt(n) that `tables` reports as corr_std_error understates it
  by up to 2x on the rows with shapes below 1.

The published survivabilities are deliberately not used: the paper's
Table-6 row (5,10,.1,.1,.5) sits 0.00996 from its printed 0.840, so a fresh
bit stream could fail a check against it by chance.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy import integrate

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bibeta import FamilySpec, RngState, marginal_params, sample_pairs  # noqa: E402
from bibeta.families import closed_form_logpdf  # noqa: E402

CROSS_CHECK_SEED = 987_654_321
CROSS_CHECK_CHUNKS = 100
CHUNK = 1_000_000

TABLE5_ALPHAS = ((1.0, 1.0, 1.0), (3.0, 3.0, 1.0), (3.0, 3.0, 0.3), (1.0, 1.0, 0.1))
TABLE6_ALPHAS = ((10, 10, 0.1, 0.1, 10), (10, 10, 0.1, 0.1, 1), (5, 10, 0.1, 0.1, 0.5))
ROADMAP_AN5_CORR = (0.48485, 0.75582, 0.67616)


def _corr_from_exy(family: FamilySpec, exy: float) -> float:
    mx, my = marginal_params(family)
    return (exy - mx.mean * my.mean) / math.sqrt(mx.variance * my.variance)


def ol_plus_exy_laplace(a1: float, a2: float, a3: float) -> tuple[float, float]:
    def integrand(t: float, s: float) -> float:
        return a1 * a2 * (1 + s) ** (-a1 - 1) * (1 + t) ** (-a2 - 1) * (1 + s + t) ** (-a3)

    return integrate.dblquad(integrand, 0, np.inf, 0, np.inf, epsabs=1e-12, epsrel=1e-10)


def ol_plus_exy_unit_square(family: FamilySpec) -> float:
    def integrand(y: float, x: float) -> float:
        return x * y * math.exp(float(closed_form_logpdf(family, np.float64(x), np.float64(y))))

    eps = 1e-12
    value, _ = integrate.dblquad(integrand, eps, 1 - eps, eps, 1 - eps, epsabs=1e-10, epsrel=1e-9)
    return value


def monte_carlo_corr(family: FamilySpec, stream: int) -> dict:
    """Correlation of CROSS_CHECK_CHUNKS chunks of CHUNK pairs, with its
    standard error and the standard deviation of one chunk's correlation.

    The chunk standard deviation is the delta-method one, from the pooled
    central moments up to order four (Kendall and Stuart), and, as a check,
    the spread of the per-chunk correlations.
    """
    powers = [(a, b) for a in range(5) for b in range(5) if a + b <= 4]
    sums = np.zeros(len(powers))
    chunk_corr = []
    for chunk in range(CROSS_CHECK_CHUNKS):
        x, y = sample_pairs(RngState(CROSS_CHECK_SEED, stream * 1000 + chunk), family, CHUNK)
        xp = [np.ones_like(x), x, x * x, x * x * x, (x * x) ** 2]
        yp = [np.ones_like(y), y, y * y, y * y * y, (y * y) ** 2]
        sums += [float(np.dot(xp[a], yp[b])) for a, b in powers]
        chunk_corr.append(np.corrcoef(x, y)[0, 1])
    raw = dict(zip(powers, sums / (CROSS_CHECK_CHUNKS * CHUNK)))
    mx, my = raw[(1, 0)], raw[(0, 1)]

    def central(a: int, b: int) -> float:
        return sum(
            math.comb(a, i) * math.comb(b, j) * raw[(i, j)] * (-mx) ** (a - i) * (-my) ** (b - j)
            for i in range(a + 1)
            for j in range(b + 1)
        )

    m20, m02, m11 = central(2, 0), central(0, 2), central(1, 1)
    r = m11 / math.sqrt(m20 * m02)
    var_unit = r * r * (
        (central(4, 0) / m20**2 + central(0, 4) / m02**2 + 2 * central(2, 2) / (m20 * m02)) / 4
        + central(2, 2) / m11**2
        - central(3, 1) / (m11 * m20)
        - central(1, 3) / (m11 * m02)
    )
    return {
        "correlation": r,
        "se": math.sqrt(var_unit / (CROSS_CHECK_CHUNKS * CHUNK)),
        "chunk_sd": math.sqrt(var_unit / CHUNK),
        "chunk_sd_empirical": float(np.std(chunk_corr, ddof=1)),
    }


def main() -> int:
    rows = []
    for i, alphas in enumerate(TABLE5_ALPHAS):
        family = FamilySpec.ol_plus(*alphas)
        exy, err = ol_plus_exy_laplace(*alphas)
        corr = _corr_from_exy(family, exy)
        row = {"table": 5, "family": "ol-plus", "alphas": list(alphas), "correlation": corr,
               "se_ref": max(err, 1e-9), "method": "laplace-transform quadrature"}
        if alphas[2] >= 1.0:
            square = _corr_from_exy(family, ol_plus_exy_unit_square(family))
            row["unit_square_quadrature"] = square
            if abs(square - corr) > 1e-6:
                raise SystemExit(f"quadratures disagree for OL+{alphas}: {square} vs {corr}")
        rows.append((row, family, i))
    for i, (alphas, corr) in enumerate(zip(TABLE6_ALPHAS, ROADMAP_AN5_CORR)):
        row = {"table": 6, "family": "an5", "alphas": [float(a) for a in alphas], "correlation": corr,
               "se_ref": 0.5e-5, "method": "ROADMAP.md Laplace-transform quadrature, 5 decimals"}
        rows.append((row, FamilySpec.an5(*alphas), 10 + i))
    for row, family, stream in rows:
        mc = monte_carlo_corr(family, stream)
        row["corr_sd"] = mc["chunk_sd"]
        row["monte_carlo_check"] = {**mc, "pairs": CROSS_CHECK_CHUNKS * CHUNK, "seed": CROSS_CHECK_SEED}
        z = abs(mc["correlation"] - row["correlation"]) / math.hypot(mc["se"], row["se_ref"])
        print(f"table {row['table']} {row['alphas']}: ref {row['correlation']:.6f} "
              f"mc {mc['correlation']:.6f} +- {mc['se']:.1e} (z={z:.2f}); chunk sd {mc['chunk_sd']:.2e}, "
              f"empirical {mc['chunk_sd_empirical']:.2e}", file=sys.stderr)
        if z > 4:
            raise SystemExit("reference disagrees with its Monte Carlo cross-check")
    out = {"note": __doc__.strip().splitlines()[2:], "rows": [row for row, _, _ in rows]}
    (HERE / "reference.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
