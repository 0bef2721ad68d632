"""One posterior-sweep iteration in a fresh process: in-process library use of bibeta.

    python3 perfbench/sweep.py IN.json OUT.json [SPANS.json]

IN.json holds the seed and the datasets the benchmark drew.  The process
times the import plus the first, cold ``joint_posterior`` (which builds the
AN5 prior grid) as set-up, then the sweep: every dataset under the three
priors, each through ``joint_posterior`` + ``posterior_summary`` +
``predictive_propensity``.  Only those calls are inside the timed region;
hashing the weights for the determinism check is not.  With SPANS.json the
calls are traced (see tracer.py) and the spans written there.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import bibeta  # noqa: E402
from bibeta import inference  # noqa: E402
from bibeta.families import FamilySpec  # noqa: E402
from bibeta.sampling import RngState  # noqa: E402
from bibeta.special import BetaParams  # noqa: E402

import tracer as tracing  # noqa: E402


def priors(seed: int):
    """(name, PriorSpec, m, rng, prior_samples) of the three sweep priors."""
    flat = BetaParams(1.0, 1.0)
    return [
        ("an5", inference.PriorSpec(FamilySpec.an5(5, 5, 5, 5, 1e-4), flat), 100, RngState(seed, 0), 10**6),
        ("ol-minus", inference.PriorSpec(FamilySpec.ol_minus(10, 2.5, 5), flat), 1000, None, 0),
        ("indep", inference.PriorSpec(FamilySpec.independent(flat, flat), flat), 100, None, 0),
    ]


def main(argv) -> int:
    spec = json.loads(open(argv[0]).read())
    tracing.check_source(bibeta)
    tracer = None
    if len(argv) > 2:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    datasets = [inference.DiagnosticData(*d) for d in spec["datasets"]]
    prior_list = priors(spec["seed"])
    _, prior, m, rng, samples = prior_list[0]
    inference.joint_posterior(datasets[0], prior, m=m, rng=rng, prior_samples=samples)
    setup_s = time.perf_counter() - _T0

    digest = hashlib.sha256()
    results, errors = [], []
    sweep_s = 0.0
    attempted = 1
    for i, d in enumerate(datasets):
        for name, prior, m, rng, samples in prior_list:
            attempted += 3
            start = time.perf_counter()
            try:
                gp = inference.joint_posterior(d, prior, m=m, rng=rng, prior_samples=samples)
                summary = inference.posterior_summary(gp)
                lam, psi = inference.predictive_propensity(gp)
            except (ValueError, RuntimeError) as exc:
                errors.append(f"dataset {i} prior {name}: {exc!r}")
                continue
            finally:
                sweep_s += time.perf_counter() - start
            values = [summary.mean_eta, summary.mean_theta, summary.correlation, lam, psi]
            digest.update(np.ascontiguousarray(gp.weights).tobytes())
            digest.update(repr(values + list(summary.mode_cell)).encode())
            results.append(
                {"dataset": i, "prior": name, "m": m, "values": values, "weight_sum": float(gp.weights.sum())}
            )
    out = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "attempted": attempted,
        "errors": errors,
        "digest": digest.hexdigest(),
        "results": results,
    }
    with open(argv[1], "w") as fh:
        json.dump(out, fh)
    if tracer is not None:
        tracer.dump(argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
