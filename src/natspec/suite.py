"""Seeded end-to-end verification suite.

Every step is deterministic given the seed, and the report lines are built
from repr() of floats, so repeated runs produce byte-identical output.
"""

from __future__ import annotations

import numpy as np

from .decomposition import DecompositionOptions, decompose, verify_decomposition
from .kronecker import hit_target
from .measures import (as_mixed, convolve, make_rho, make_theta0, make_theta1,
                       parity_projections)
from .sampling import default_rng, random_basis, random_discrete, random_mixed
from .serialize import measure_from_json, measure_to_json
from .spectrum import fekete_bound, radius_bracket


def _step_theta_algebra(rng):
    basis = random_basis(2)
    th0, th1 = make_theta0(basis), make_theta1(basis)
    ok = (convolve(th0, th1).is_zero and convolve(th0, th0) == th0
          and convolve(th1, th1) == th1)
    return ok, "projection identities exact"


def _step_convolution_transform(rng):
    basis = random_basis(2)
    ns = np.arange(-64, 65, dtype=np.int64)
    worst = 0.0
    for _ in range(8):
        a = random_mixed(rng, basis, n_atoms=3, degree=2)
        b = random_mixed(rng, basis, n_atoms=3, degree=2)
        resid = np.max(np.abs(convolve(a, b).transform(ns)
                              - a.transform(ns) * b.transform(ns)))
        worst = max(worst, float(resid))
    return worst <= 1e-10, f"max transform residual {worst!r}"


def _step_parity_recombination(rng):
    basis = random_basis(2)
    worst = 0.0
    for _ in range(10):
        mu = random_mixed(rng, basis, n_atoms=4, degree=3)
        mu0, mu1 = parity_projections(mu)
        diff = (mu0 + mu1) - mu
        resid = max((abs(w) for w in as_mixed(diff).disc.w.tolist()), default=0.0)
        resid = max(resid, max((abs(c) for c in as_mixed(diff).ac.coeffs.values()),
                               default=0.0))
        worst = max(worst, resid)
    return worst == 0.0, f"max recombination residual {worst!r}"


def _step_rho_spectral_radius(rng):
    basis = random_basis(2)
    rho = make_rho(basis.generator("sqrt2"), basis.generator("sqrt3"), basis)
    (lower, upper), fallback = radius_bracket(rho, 4)
    ok = fallback is None and abs(upper - 1.0) <= 1e-12 and lower >= 0.999
    return ok, f"upper {upper!r} lower {lower!r}"


def _step_kronecker_targets(rng):
    import math
    alpha, beta = math.sqrt(2.0), math.sqrt(3.0)
    targets = [(0.3 + 0.2j, "any"), (0.5 + 0.0j, "even"), (-0.2 + 0.4j, "odd")]
    hits = []
    for w, parity in targets:
        n = hit_target(alpha, beta, w, 0.1, parity=parity, n_max=1_000_000)
        rho = 0.5 * (np.exp(-1j * n * alpha) + np.exp(-1j * n * beta))
        if abs(rho - w) >= 0.1:
            return False, f"target {w} parity {parity} failed at n={n}"
        if parity == "even" and n % 2 != 0:
            return False, f"parity violation at n={n}"
        if parity == "odd" and n % 2 == 0:
            return False, f"parity violation at n={n}"
        hits.append(n)
    return True, f"hits {hits!r}"


def _step_serialization_roundtrip(rng):
    basis = random_basis(2)
    for _ in range(5):
        mu = random_mixed(rng, basis, n_atoms=4, degree=3)
        back = measure_from_json(measure_to_json(mu))
        if not (as_mixed(back).disc == mu.disc and as_mixed(back).ac == mu.ac):
            return False, "roundtrip mismatch"
        nu = random_discrete(rng, basis, n_atoms=3)
        if measure_from_json(measure_to_json(nu)) != nu:
            return False, "discrete roundtrip mismatch"
    return True, "5 mixed + 5 discrete roundtrips exact"


def _step_spectral_bracket(rng):
    basis = random_basis(2)
    worst = -np.inf
    for _ in range(5):
        mu = random_discrete(rng, basis, n_atoms=3)
        (lower, upper), _ = radius_bracket(mu, 3)
        worst = max(worst, lower - min(upper, fekete_bound(mu, 3).final_bound))
    return worst <= 0.0, f"max lower-minus-upper gap {float(worst)!r}"


def _step_decomposition(rng):
    basis = random_basis(2)
    worst_pass = True
    residuals = []
    for _ in range(2):
        mu = random_mixed(rng, basis, n_atoms=3, degree=2)
        result = decompose(mu, DecompositionOptions(verify=False, fekete_k_max=3))
        report = verify_decomposition(mu, result, N=8192, tol=0.05)
        worst_pass = worst_pass and report.passed
        residuals.append(report.check("identity_transform").residual)
    return worst_pass, f"identity residuals {residuals!r}"


_STEPS = (
    ("theta_algebra", _step_theta_algebra),
    ("convolution_transform", _step_convolution_transform),
    ("parity_recombination", _step_parity_recombination),
    ("rho_spectral_radius", _step_rho_spectral_radius),
    ("kronecker_targets", _step_kronecker_targets),
    ("serialization_roundtrip", _step_serialization_roundtrip),
    ("spectral_bracket", _step_spectral_bracket),
    ("decomposition", _step_decomposition),
)


def run_suite(seed: int = 42) -> tuple[bool, list[str]]:
    """Run all suite steps on one seeded stream; returns (passed, lines)."""
    rng = default_rng(seed)
    lines = [f"seed {seed}"]
    all_ok = True
    for name, fn in _STEPS:
        ok, detail = fn(rng)
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    lines.append(f"suite {'PASS' if all_ok else 'FAIL'} ({len(_STEPS)} checks)")
    return all_ok, lines
