"""Conditional tail estimation on the sine regression model.

One replication of the nonparametric pipeline: draw y = 20 sin(pi x) + eps,
pick the kernel bandwidth by cross-validation, build the conditional CDF
estimate at a probe point, and read off the average-quantile values for
several families against their population truths.
"""

import numpy as np

from aqr import (Dataset, aqr_conditional, cde_curve, cv_bandwidth, es,
                 extremile, exponential, ges, normal, population_aqr, rpad,
                 tcrm)

rng = np.random.default_rng(7)


def main():
    n = 300
    x = rng.standard_normal(n)
    eps = rng.standard_normal(n)
    y = 20.0 * np.sin(np.pi * x) + eps
    data = Dataset(y, x[:, None])

    h = cv_bandwidth(data)
    print(f"n = {n}, cross-validated bandwidth h = {h:.3f}")

    for tau, x0 in [(0.05, -0.5), (0.95, 0.5)]:
        F = cde_curve(data, h, x0)
        print(f"\nprobe x0 = {x0}, tau = {tau} "
              f"({F.knots.size} knots in the local CDF):")
        for name, fam in [("es", es()), ("ges(1)", ges(1.0)),
                          ("extremile", extremile()),
                          ("tcrm", tcrm("half-inverse"))]:
            est = aqr_conditional(F, fam, tau)
            truth = 20.0 * np.sin(np.pi * x0) + population_aqr(
                normal(), fam, tau)
            print(f"  {name:10s} estimate {est.value:8.3f}   truth "
                  f"{truth:8.3f}   rpad {rpad(est.value, truth):5.2f}%")

    # skewed errors move the lower tail much closer to the regression curve
    y2 = 20.0 * np.sin(np.pi * x) + rng.exponential(1.0, size=n)
    data2 = Dataset(y2, x[:, None])
    F2 = cde_curve(data2, cv_bandwidth(data2), -0.5)
    est = aqr_conditional(F2, es(), 0.05)
    truth = 20.0 * np.sin(np.pi * -0.5) + population_aqr(
        exponential(1.0), es(), 0.05)
    print(f"\nexp(1) errors, tau = 0.05: estimate {est.value:.3f}, "
          f"truth {truth:.3f}, rpad {rpad(est.value, truth):.2f}%")


if __name__ == "__main__":
    main()
