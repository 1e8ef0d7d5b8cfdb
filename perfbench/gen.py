"""Seeded input records for the benchmark, drawn with numpy only.

The generator mimics the packaged truth model (``configs/default_simulation.json``)
without calling into agemix, so a change to ``agemix.data_io.simulate`` cannot
change what the fitting workloads fit: integer respondent ages 15..64, sex
coded 1 = female, and a sinh-arcsinh log(partner / respondent age) whose
location, scale, skewness and tail weight are linear in age with sex
interactions. ``heaping`` is the share of records whose partner age is
rounded to a multiple of five years from the respondent's own age.
"""

from __future__ import annotations

import numpy as np

# (const, sex, age, sex * age) on the uncentered age scale, as in the
# packaged default truth
TRUTH = {
    "mu": (0.25, 0.214, -0.006, -0.0022),
    "sigma": (-2.2, 0.15, 0.008, -0.003),
    "epsilon": (0.3, -0.5, -0.004, 0.002),
    "delta": (-0.15, 0.05, 0.004, 0.0),
}
AGE_MIN, AGE_MAX = 15, 64
PARTNER_MAX = 150.0


def records(n: int, seed: int, heaping: float = 0.0) -> np.ndarray:
    """(n, 3) float array of respondent_age, respondent_sex, partner_age."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    ages = rng.integers(AGE_MIN, AGE_MAX + 1, size=n).astype(float)
    sexes = (rng.uniform(size=n) < 0.5).astype(float)
    design = np.stack([np.ones(n), sexes, ages, sexes * ages], axis=1)
    eta = {slot: design @ np.array(coef) for slot, coef in TRUTH.items()}
    delta = np.exp(eta["delta"])
    sigma = np.exp(eta["sigma"]) * delta
    z = rng.standard_normal(n)
    log_ratio = eta["mu"] + sigma * np.sinh((np.arcsinh(z) - eta["epsilon"]) / delta)
    partners = np.clip(np.rint(ages * np.exp(log_ratio)), 1.0, PARTNER_MAX - 1.0)
    if heaping > 0.0:
        heaped = ages + 5.0 * np.rint((partners - ages) / 5.0)
        take = (rng.uniform(size=n) < heaping) & (heaped > 0.0) & (heaped < PARTNER_MAX)
        partners = np.where(take, heaped, partners)
    return np.stack([ages, sexes, partners], axis=1)


def write_csv(path, rows: np.ndarray) -> None:
    """Write records in the CLI's input format (integer ages)."""
    with open(path, "w", newline="") as fh:
        fh.write("respondent_age,respondent_sex,partner_age\n")
        np.savetxt(fh, rows, fmt="%d", delimiter=",")
