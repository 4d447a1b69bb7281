"""Splitting a measure into pieces with clean transform structure.

Given mu, the half-turn projections mu0 (even) and mu1 (odd) carry the even
and odd transform values.  Adding a scaled copy of rho * theta1 to mu0 (and
rho * theta0 to mu1), where rho sits at two fresh independent positions,
fills the unused parity class with a dense copy of the scaled unit disk; the
correction nu2 keeps the total equal to mu.  The vector (nu0, nu1, nu2) then
satisfies exact algebraic identities that ``verify_decomposition`` certifies
numerically: nu0 and nu1 have transform clouds dense in their spectral disks,
and nu2 is a small discrete correction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .angles import Angle, GeneratorBasis, basis_fresh_generators
from .errors import RadiusValidationError
from .measures import (_U, DiscreteMeasure, MeasureLike, MixedMeasure, _transform_sups,
                       as_mixed, convolve, make_rho, make_theta0, make_theta1,
                       parity_projections, transforms, tv_norm)
from .spectrum import (_DISK_COVER, RadiusFallback, _pair_covering, covering_radius,
                       disk_grid, disk_grid_shape, radius_bracket)

RADIUS_MODES = ("bracket", "manual")

# Absolute residual thresholds for the verifier checks.
IDENTITY_TRANSFORM_TOL = 1e-9
IDENTITY_STRUCTURAL_TOL = 1e-12
PARITY_TOL = 1e-9
MODULUS_SLACK = 1e-9
MANUAL_RADIUS_SCAN = 256
# largest transform range |n| <= N the verifier accepts (100x the largest in use)
MAX_VERIFY_N = 1 << 20


@dataclass(frozen=True)
class DecompositionOptions:
    """Tuning knobs for ``decompose``.

    radius_mode selects how the two disk radii are produced.  "bracket"
    takes each radius R_i as the certified upper end of
    ``spectrum.radius_bracket(mu_i, fekete_k_max)``, whose norm-root
    squarings run only where the walker refuses the piece's lattice or the
    walks end wide: fekete_k_max is the depth of that fallback only.
    "manual" takes user radii, refused unless each is at least sup_{|n| <=
    256} |mu_i_hat(n)| less that sup's rounding allowance, a multiple of u
    * ||mu_i||.  Manual radii that are negative, not finite or above 2**400
    are refused before any work.  verify_N and verify_tol are
    ``verify_decomposition``'s N and tol."""

    radius_mode: str = "bracket"
    manual_radii: Optional[tuple[float, float]] = None
    fekete_k_max: int = 6
    verify: bool = True
    verify_N: int = 10_000
    verify_tol: float = 0.05


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    residual: float
    threshold: float
    details: Optional[dict] = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[VerificationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> VerificationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class DecompositionResult:
    """nu0 + nu1 + nu2 == mu with nu2 supported on the four fresh positions.

    In "bracket" mode radius_brackets holds each piece's (lower, upper)
    spectral-radius bracket, whose upper end is its radius, and
    radius_fallbacks a RadiusFallback for each piece whose bracket ran the
    norm-root squarings; both are None in "manual" mode."""

    nu0: MeasureLike
    nu1: MeasureLike
    nu2: DiscreteMeasure
    R0: float
    R1: float
    alpha: Angle
    beta: Angle
    basis: GeneratorBasis
    mu_embedded: MeasureLike
    radius_brackets: Optional[tuple[tuple[float, float], tuple[float, float]]]
    radius_fallbacks: Optional[tuple[Optional[RadiusFallback], Optional[RadiusFallback]]]
    report: Optional[VerificationReport]


def _embed(mu: MeasureLike, ext: GeneratorBasis) -> MeasureLike:
    """Reinterpret mu over an extended basis (extra generators appended)."""
    old = len(mu.basis) if isinstance(mu, (DiscreteMeasure, MixedMeasure)) else 0
    pad = len(ext) - old
    if pad < 0 or ext.names[:old] != mu.basis.names:
        raise ValueError("extended basis must begin with the measure's basis")

    def lift(d: DiscreteMeasure) -> DiscreteMeasure:
        # zero columns appended after the last keep the rows' order
        coef = np.zeros((len(d), len(ext)), dtype=np.int64)
        coef[:, :old] = d.coef
        return DiscreteMeasure._canonical_rows(ext, d.den, d.num, coef, d.w)

    if isinstance(mu, DiscreteMeasure):
        return lift(mu)
    m = as_mixed(mu)
    return MixedMeasure(lift(m.disc), m.ac)


def _radii(mu0: MeasureLike, mu1: MeasureLike, opts: DecompositionOptions):
    if opts.radius_mode == "manual":
        r0, r1 = float(opts.manual_radii[0]), float(opts.manual_radii[1])
        ns = np.arange(-MANUAL_RADIUS_SCAN, MANUAL_RADIUS_SCAN + 1, dtype=np.int64)
        for r, (sup, allowance), name in zip((r0, r1), _transform_sups([mu0, mu1], ns),
                                             ("R0", "R1")):
            if r < sup - allowance:
                raise RadiusValidationError(
                    f"{name}={r} is below the transform bound {sup} "
                    f"(sup over |n| <= {MANUAL_RADIUS_SCAN})")
        return r0, r1, None, None
    brackets, fallbacks = zip(*(radius_bracket(m, opts.fekete_k_max) for m in (mu0, mu1)))
    return brackets[0][1], brackets[1][1], brackets, fallbacks


def _validate_options(opts: DecompositionOptions) -> None:
    if opts.radius_mode not in RADIUS_MODES:
        raise ValueError(f"unknown radius_mode {opts.radius_mode!r}")
    if opts.fekete_k_max < 0:
        raise ValueError("fekete_k_max must be nonnegative")
    _check_N(opts.verify_N)
    disk_grid_shape(opts.verify_tol)
    if opts.radius_mode == "manual" and opts.manual_radii is None:
        raise RadiusValidationError("radius_mode 'manual' needs manual_radii=(R0, R1)")
    if opts.radius_mode != "manual" and opts.manual_radii is not None:
        raise RadiusValidationError(f"manual radii are used only by radius_mode 'manual', "
                                    f"not {opts.radius_mode!r}")
    for name, r in zip(("R0", "R1"), map(float, opts.manual_radii or ())):
        if r < 0:
            raise RadiusValidationError("radii must be nonnegative")
        # NaN fails this test too; above the bound the verifier's disk
        # geometry would leave the float range
        if not r <= 2.0 ** 400:
            raise RadiusValidationError(f"{name}={r} is not a finite radius of at most 2**400")


def _check_N(N: int) -> None:
    if not 1 <= N <= MAX_VERIFY_N:
        raise ValueError("N must be between 1 and 2**20")


def decompose(mu: MeasureLike, options: Optional[DecompositionOptions] = None
              ) -> DecompositionResult:
    """Build (nu0, nu1, nu2) over a basis extended by two fresh generators.

    The two fresh generators are the first two entries of the built-in list
    whose names and values the input basis does not use.  The identity
    nu0 + nu1 + nu2 == mu holds exactly at the level of stored weights for
    weights on a common dyadic grid.
    """
    opts = options if options is not None else DecompositionOptions()
    _validate_options(opts)
    mixed = as_mixed(mu)
    fresh = basis_fresh_generators(mixed.basis, 2)
    ext = mixed.basis.extended(fresh)
    alpha = ext.generator(fresh[0][0])
    beta = ext.generator(fresh[1][0])
    mu_ext = _embed(mu, ext)
    mu0, mu1 = parity_projections(mu_ext)
    r0, r1, brackets, fallbacks = _radii(mu0, mu1, opts)
    rho = make_rho(alpha, beta, ext)
    rt1 = convolve(rho, make_theta1(ext))
    rt0 = convolve(rho, make_theta0(ext))
    add0 = rt1.scale(r0)
    add1 = rt0.scale(r1)
    nu0 = mu0 + add0
    nu1 = mu1 + add1
    nu2 = (-add0) + (-add1)
    result = DecompositionResult(nu0, nu1, nu2, float(r0), float(r1), alpha, beta,
                                 ext, mu_ext, brackets, fallbacks, None)
    if opts.verify:
        report = verify_decomposition(mu, result, N=opts.verify_N, tol=opts.verify_tol)
        result = replace(result, report=report)
    return result


def _structural_residual(m: MixedMeasure) -> float:
    atom_part = max((abs(w) for w in m.disc.w.tolist()), default=0.0)
    ac_part = max((abs(c) for c in m.ac.coeffs.values()), default=0.0)
    return max(atom_part, ac_part)


def verify_decomposition(mu: MeasureLike, result: DecompositionResult, *,
                         N: int = DecompositionOptions.verify_N,
                         tol: float = DecompositionOptions.verify_tol) -> VerificationReport:
    """Certify a decomposition against the input measure.

    Each check is exact (on stored weights, with no rounding), a net (a
    finite sample that can miss a failure between its points) or a proof (a
    certified bound over the whole spectrum).  (a) The identity nu0 + nu1 +
    nu2 == mu on stored weights, exact wherever the parity split finds an
    exact pair of halves (``measures._exact_halves``) and otherwise a
    bound within the halves' rounding, and a net through transforms over
    |n| <= N; the support shape of nu2, exact.  (b) Orthogonality of the
    parity projections against the opposite-parity correction, exact.  (c)
    The parity transform laws and (d) the modulus bound |nu_i_hat| <= R_i,
    nets over |n| <= N; once (f) passes, (d) holds at every n, since
    |nu_i_hat(n)| <= r(nu_i).  (e) Density of each transform cloud in its
    R_i disk, a net: the covering radius of ``disk_grid(R_i, tol)`` by the
    cloud is at most tol * max(1, R_i).  At odd n, nu0_hat(n) = R0
    rho_hat(n) up to (c)'s residual c0_odd, so a grid point g, within 8 u R0
    of R0 u for u the matching point of ``disk_grid(1, tol)``, is within R0
    |u - rho_hat(n)| + c0_odd of the cloud: the covering radius is at most
    the bound R0 cov + c0_odd + 8 u (R0 + R0 cov + c0_odd), cov the
    covering of ``disk_grid(1, tol)`` by rho_hat at the odd |n| <= N
    (``spectrum._pair_covering``, cached: it depends on the fresh pair's
    positions, the basis, N, tol and the parity alone).  Its rho_hat comes
    from ``transforms`` too, so cov and c0_odd are taken on the same floats
    and the bound needs no allowance for the phases' rounding.  nu1 takes
    the even n and c1_even.  Where the bound is at most the threshold it is
    the residual (route "bound"); elsewhere the residual is the cloud's own
    covering radius (route "exact").  The bound is at least that radius, so
    the verdict is the one the radius gives.
    The check is a finite witness, at resolution tol, of the density of
    rho_hat over odd and over even n in the unit disk, which is Kronecker's
    theorem for a fresh pair with 1, alpha / 2 pi and beta / 2 pi
    independent over Q: by Lindemann's theorem for square roots, by Baker's
    on linear forms in logarithms for ln 3 and ln 5.  (e) relies on (d)
    for the other half of the Hausdorff distance: once (d) passes, each
    cloud point is within R_i + MODULUS_SLACK of 0, so within the a-priori
    ``cloud_to_grid_bound`` (about 0.56 tol R_i, below the threshold) of
    the grid.  (f) The spectrum of nu_i inside the R_i disk, a proof:
    r(nu0) = max(r(mu0), R0) once nu0 - mu0 == R0 rho * theta1, since every
    complex homomorphism h of the measure algebra has h(theta0) + h(theta1)
    = 1 and h(theta0) h(theta1) = 0: where h(theta1) = 0, h(nu0) = h(mu0),
    and where h(theta0) = 0, h(mu0) = h(mu0 * theta0) = 0 and h(nu0) = R0
    h(rho), with r(rho) = 1.  Likewise for nu1 with theta0 and R1.  (f)
    checks that premise, exactly on stored weights, and that the upper end
    of r(mu_i) that ``decompose`` takes in bracket mode is at most R_i:
    ``radius_bracket(mu_i, k)``'s, k the depth its fallback report reached
    (the default fekete_k_max without one).  The threshold is 0: the
    bracket's bits do not depend on the BLAS thread count.

    The identity residual, rho, mu, nu0 and nu1 are evaluated on |n| <= N
    in one ``transforms`` call: each from its own atoms' tables (never by
    linearity, which would make (c) hold by construction), sharing only the
    phase tables of the generator-coefficient vectors g they have in
    common.  (c) reads even and odd slices of those values, (d) and (e)'s
    exact route whole arrays, and (e)'s cached covering rho_hat's values
    at the same n, bit for bit.  Raises ValueError unless 1 <= N <= 2**20 and
    ``disk_grid`` accepts tol, before any array is built.
    """
    _check_N(N)
    disk_grid_shape(tol)
    checks: list[VerificationCheck] = []
    ext = result.basis
    mu_e = as_mixed(_embed(mu, ext))
    nu0m, nu1m, nu2m = as_mixed(result.nu0), as_mixed(result.nu1), as_mixed(result.nu2)
    r0, r1 = result.R0, result.R1
    ns_full = np.arange(-N, N + 1, dtype=np.int64)
    even = slice(N % 2, None, 2)  # ns_full[0] = -N has the parity of N
    odd = slice(1 - N % 2, None, 2)

    # (a) identity
    total = ((nu0m + nu1m) + nu2m) - mu_e
    struct = _structural_residual(total)
    rho = make_rho(result.alpha, result.beta, ext)
    residual = [] if total.is_zero else [total]
    *total_t, rho_t, mu_t, nu0_t, nu1_t = transforms(residual + [rho, mu_e, nu0m, nu1m],
                                                     ns_full)
    trans = float(np.max(np.abs(total_t[0]))) if total_t else 0.0
    checks.append(VerificationCheck("identity_structural", struct <= IDENTITY_STRUCTURAL_TOL,
                                    struct, IDENTITY_STRUCTURAL_TOL))
    checks.append(VerificationCheck("identity_transform", trans <= IDENTITY_TRANSFORM_TOL,
                                    trans, IDENTITY_TRANSFORM_TOL))

    # nu2 support: at most 8 atoms on the four fresh positions, no density
    half = ext.half_turn()
    allowed = {result.alpha, result.alpha + half, result.beta, result.beta + half}
    shape_ok = (len(nu2m.disc) <= 8 and set(nu2m.disc.atoms) <= allowed
                and nu2m.ac.is_zero)
    checks.append(VerificationCheck("nu2_support", shape_ok,
                                    0.0 if shape_ok else 1.0, 0.0))

    # (b) exact orthogonality; the grouping (mu_i * rho) * theta keeps every
    # cancellation a two-term sum of exact negatives
    mu0v, mu1v = parity_projections(mu_e)
    theta0, theta1 = make_theta0(ext), make_theta1(ext)
    o0 = convolve(convolve(mu0v, rho), theta1)
    o1 = convolve(convolve(mu1v, rho), theta0)
    ortho = tv_norm(o0) + tv_norm(o1)
    checks.append(VerificationCheck("orthogonality", ortho == 0.0, ortho, 0.0))

    # (c) parity laws
    c0_even = float(np.max(np.abs(nu0_t[even] - mu_t[even])))
    c0_odd = float(np.max(np.abs(nu0_t[odd] - r0 * rho_t[odd])))
    c1_even = float(np.max(np.abs(nu1_t[even] - r1 * rho_t[even])))
    c1_odd = float(np.max(np.abs(nu1_t[odd] - mu_t[odd])))
    checks.append(VerificationCheck("parity_nu0", max(c0_even, c0_odd) <= PARITY_TOL,
                                    max(c0_even, c0_odd), PARITY_TOL,
                                    {"even": c0_even, "odd": c0_odd}))
    checks.append(VerificationCheck("parity_nu1", max(c1_even, c1_odd) <= PARITY_TOL,
                                    max(c1_even, c1_odd), PARITY_TOL,
                                    {"even": c1_even, "odd": c1_odd}))

    # (d) modulus bound
    for name, vals, r in (("modulus_nu0", nu0_t, r0), ("modulus_nu1", nu1_t, r1)):
        sup = float(np.max(np.abs(vals)))
        checks.append(VerificationCheck(name, sup <= r + MODULUS_SLACK, sup - r,
                                        MODULUS_SLACK, {"sup": sup, "radius": r}))

    # (e) density of the transform cloud in the scaled disk, from the grid's
    # side: the fresh pair's cached covering bounds it, and the cloud's own
    # covering decides only where that bound is above the threshold
    for name, vals, r, half, c in (("density_nu0", nu0_t, r0, "odd", c0_odd),
                                   ("density_nu1", nu1_t, r1, "even", c1_even)):
        thr = tol * max(1.0, r)
        cov = _pair_covering(result.alpha, result.beta, ext, N, tol, half)
        # the grid's rescaling (8 u R) and the float sums of cov, c and the bound
        rounding = 8 * _U * (r + r * cov + c)
        bound = r * cov + c + rounding
        details = {"radius": r, "cloud_to_grid_bound": _DISK_COVER * tol * r + MODULUS_SLACK,
                   "route": "bound", "bound": bound, "pair_cover": cov,
                   "parity_residual": c, "rounding": rounding}
        metric = bound
        if bound > thr:
            metric, details["route"] = covering_radius(disk_grid(r, tol), vals), "exact"
        checks.append(VerificationCheck(name, metric <= thr, metric, thr, details))

    # (f) spectrum inside the R_i disk, from mu_i's own radius bracket
    fallbacks = result.radius_fallbacks or (None, None)
    for name, nu, mu_i, theta, r, fallback in (
            ("spectrum_nu0", nu0m, mu0v, theta1, r0, fallbacks[0]),
            ("spectrum_nu1", nu1m, mu1v, theta0, r1, fallbacks[1])):
        exact = ((nu - mu_i) - convolve(rho, theta).scale(r)).is_zero
        k = fallback.report.entries[-1][0] if fallback else DecompositionOptions.fekete_k_max
        upper = radius_bracket(mu_i, k)[0][1]
        checks.append(VerificationCheck(name, exact and upper <= r, upper - r, 0.0,
                                        {"upper": upper, "radius": r, "exact": exact}))

    return VerificationReport(tuple(checks))
