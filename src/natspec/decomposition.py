"""Splitting a measure into pieces with clean transform structure.

Given mu, the half-turn projections mu0 (even) and mu1 (odd) carry the even
and odd transform values.  Adding a scaled copy of rho * theta1 to mu0 (and
rho * theta0 to mu1), where rho sits at two fresh independent positions,
fills the unused parity class with a dense copy of the scaled unit disk; the
correction nu2 keeps the total equal to mu.  The vector (nu0, nu1, nu2) then
satisfies exact algebraic identities that ``verify_decomposition`` checks
on rows and brackets: nu0 and nu1 have transform clouds dense in their
spectral disks, and nu2 is a small discrete correction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .angles import Angle, GeneratorBasis, basis_fresh_generators
from .errors import RadiusValidationError
from .measures import (_U, DiscreteMeasure, MeasureLike, MixedMeasure, _fresh_pair, _sum,
                       _transform_allowance, _transform_sups, as_mixed, parity_projections,
                       transforms)
from .spectrum import (_DISK_COVER, RadiusFallback, _live_classes, _pair_covering,
                       _transform_upper, covering_radius, disk_grid, disk_grid_shape,
                       radius_bracket)

RADIUS_MODES = ("bracket", "manual")

# Absolute residual thresholds for the verifier checks.
IDENTITY_TRANSFORM_TOL = 1e-9
IDENTITY_STRUCTURAL_TOL = 1e-12
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
    if not isinstance(mu, DiscreteMeasure):
        mu = as_mixed(mu)  # TypeError unless mu is a measure
    old = len(mu.basis)
    if len(ext) < old or ext.names[:old] != mu.basis.names:
        raise ValueError("extended basis must begin with the measure's basis")

    def lift(d: DiscreteMeasure) -> DiscreteMeasure:
        # zero columns appended after the last keep the rows' order
        coef = np.zeros((len(d), len(ext)), dtype=np.int64)
        coef[:, :old] = d.coef
        return DiscreteMeasure._canonical_rows(ext, d.den, d.num, coef, d.w)

    if isinstance(mu, DiscreteMeasure):
        return lift(mu)
    return MixedMeasure(lift(mu.disc), mu.ac)


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
    _, rt1, rt0 = _fresh_pair(alpha, beta, ext)
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


def _has_parity(m: MixedMeasure, parity: int) -> bool:
    """Whether m_hat vanishes at every n of the other parity: the half turn
    maps m's rows onto themselves (parity 0) or onto their negatives (parity
    1), as ``spectrum._live_classes`` tests, and m's density has only
    frequencies of that parity.  The zero measure has both."""
    classes = _live_classes(m.disc)
    return ((m.disc.is_zero or classes.step == 2 and classes.start == parity)
            and all(k % 2 == parity for k in m.ac.coeffs))


def verify_decomposition(mu: MeasureLike, result: DecompositionResult, *,
                         N: int = DecompositionOptions.verify_N,
                         tol: float = DecompositionOptions.verify_tol) -> VerificationReport:
    """Certify a decomposition against the input measure.

    Each check is exact (on stored weights), a proof (a certified bound at
    every n) or a net (a finite sample over |n| <= N); only (e) reads
    transform values.  mu_i are the parity pieces derived from mu, and tau
    = nu0 + nu1 + nu2 - mu, its rows summed in one merge (``measures._sum``)
    and its densities as dicts.  (a) ``identity_structural``, exact:
    tau's largest weight or coefficient, 0 wherever the parity split finds
    an exact pair of halves (``measures._exact_halves``).
    ``identity_transform``, a proof: |tau_hat(n)| <= ||tau_disc|| + max_k
    |tau_ac(k)| (``spectrum._transform_upper``).  ``nu2_support``, exact: at
    most 8 atoms on the four fresh positions.  (b) ``orthogonality``,
    exact: the half turn maps mu0's rows onto themselves and mu1's onto
    their negatives (``spectrum._live_classes``'s test), and their
    densities have only even and only odd frequencies, so mu0 * theta1 =
    mu1 * theta0 = 0; residual 0, or 1.  (f) ``spectrum_nu*``, proofs:
    r(nu0) = max(r(mu0), R0) once nu0 - mu0 == R0 rho * theta1 and (b)
    hold, since every complex homomorphism h of the measure algebra has
    h(theta0) + h(theta1) = 1 and h(theta0) h(theta1) = 0: where h(theta1)
    = 0, h(nu0) = h(mu0), and where h(theta0) = 0, h(mu0) = h(mu0 * theta0)
    = 0 and h(nu0) = R0 h(rho), with r(rho) = 1; likewise nu1 with theta0.
    (f) checks that premise exactly, nu_i - mu_i - R_i rho * theta summed
    in one merge, with rho * theta1 and rho * theta0 read from the fresh
    pair's entry (``measures._fresh_pair``, kept per fresh pair and basis
    and read by ``decompose`` too, so a verifier after it convolves
    nothing), and that the upper end of
    ``radius_bracket(mu_i, k)`` is at most R_i, k the depth the radius's
    fallback reached (fekete_k_max's default without one), threshold 0.
    It brackets the mu_i it derives, never ``result.radius_brackets``; a
    bracket ``spectral_bracket`` kept for the same bits is a function of
    those bits alone.  (c) ``parity_nu*``, proofs: the premise gives nu0_hat
    = R0 rho_hat at odd n, and nu0_hat - mu_hat = (mu0 + mu1 - mu)_hat,
    whose rows are tau's off the fresh positions, at even n; the residual
    is ``identity_transform``'s, at least 1 where the premise fails.  (d)
    ``modulus_nu*``, proofs: |nu_i_hat(n)| <= r(nu_i) <= R_i, passing
    exactly when (f) does, residual upper - R_i, at least 1 where the
    premise fails.  (e) ``density_nu*``, nets: the covering radius of
    ``disk_grid(R_i, tol)`` by nu_i's cloud over |n| <= N is at most tol *
    max(1, R_i).  With the premise, nu0_hat = R0 rho_hat at odd n, so it
    is at most R0 (cov + a) + 8 u (R0 + R0 (cov + a)): cov covers
    ``disk_grid(1, tol)`` by the floats rho_hat at the odd |n| <= N
    (``spectrum._pair_covering``, cached with the even n's per fresh pair,
    basis, N and tol), a = ``measures._transform_allowance(rho, N)`` bounds
    their rounding, and 8 u (...) the grid's rescaling and the float sums;
    nu1 takes the even n.  Where the premise holds and this bound is at
    most the threshold it is the residual (route "bound"); elsewhere the
    residual is the covering radius of the ``transforms`` values (route
    "exact"), one call for the pieces that need it.  It is a finite witness
    at resolution tol of rho_hat's density in the unit disk over odd and
    over even n: Kronecker's theorem, 1, alpha / 2 pi and beta / 2 pi being
    independent over Q (Lindemann for square roots, Baker for ln 3 and ln
    5).  Once (d) passes, each cloud point lies in the R_i disk, so within
    ``cloud_to_grid_bound`` = _DISK_COVER tol R_i of the grid: the other
    half of the Hausdorff distance.  Raises ValueError unless 1 <= N <=
    2**20 and ``disk_grid`` accepts tol, before any array is built.
    """
    _check_N(N)
    disk_grid_shape(tol)
    ext = result.basis
    mu_e = as_mixed(_embed(mu, ext))
    nus = (as_mixed(result.nu0), as_mixed(result.nu1))
    nu2m = as_mixed(result.nu2)
    radii = (result.R0, result.R1)

    # (a) identity, on rows and as a bound on every transform value
    total = MixedMeasure(_sum([nus[0].disc, nus[1].disc, nu2m.disc, -mu_e.disc]),
                         ((nus[0].ac + nus[1].ac) + nu2m.ac) - mu_e.ac)
    struct, trans = _structural_residual(total), _transform_upper(total)
    checks = [VerificationCheck("identity_structural", struct <= IDENTITY_STRUCTURAL_TOL,
                                struct, IDENTITY_STRUCTURAL_TOL),
              VerificationCheck("identity_transform", trans <= IDENTITY_TRANSFORM_TOL,
                                trans, IDENTITY_TRANSFORM_TOL)]

    # nu2 support: at most 8 atoms on the four fresh positions, no density
    half = ext.half_turn()
    allowed = {result.alpha, result.alpha + half, result.beta, result.beta + half}
    shape_ok = (len(nu2m.disc) <= 8 and set(nu2m.disc.atoms) <= allowed
                and nu2m.ac.is_zero)
    checks.append(VerificationCheck("nu2_support", shape_ok,
                                    0.0 if shape_ok else 1.0, 0.0))

    # (b) the half-turn row test on mu0 and mu1
    pieces = parity_projections(mu_e)
    halves = all(_has_parity(m, parity) for parity, m in enumerate(pieces))
    checks.append(VerificationCheck("orthogonality", halves, 0.0 if halves else 1.0, 0.0))

    # (f)'s premise and brackets, from which (c) and (d) follow
    rho, rt1, rt0 = _fresh_pair(result.alpha, result.beta, ext)
    spectra = []
    for nu, mu_i, rt, r, fallback in zip(nus, pieces, (rt1, rt0), radii,
                                         result.radius_fallbacks or (None, None)):
        k = fallback.report.entries[-1][0] if fallback else DecompositionOptions.fekete_k_max
        spectra.append({"upper": radius_bracket(mu_i, k)[0][1], "radius": r, "exact": halves
                        and _sum([nu.disc, -mu_i.disc, -rt.scale(r)]).is_zero
                        and (nu.ac - mu_i.ac).is_zero})
    for i, spec in enumerate(spectra):
        residual = trans if spec["exact"] else max(trans, 1.0)
        checks.append(VerificationCheck(f"parity_nu{i}", residual <= IDENTITY_TRANSFORM_TOL,
                                        residual, IDENTITY_TRANSFORM_TOL,
                                        {"exact": spec["exact"]}))
    for i, spec in enumerate(spectra):
        gap = spec["upper"] - spec["radius"]
        residual = gap if spec["exact"] else max(gap, 1.0)
        checks.append(VerificationCheck(f"modulus_nu{i}", residual <= 0.0, residual, 0.0,
                                        dict(spec)))

    # (e) density of the transform cloud in the scaled disk, from the grid's
    # side: the fresh pair's cached covering bounds it, and the cloud's own
    # covering decides only where that bound does not
    cov_even, cov_odd = _pair_covering(result.alpha, result.beta, ext, N, tol)
    allowance = _transform_allowance(as_mixed(rho), N)
    density = []
    for r, cov, spec in zip(radii, (cov_odd, cov_even), spectra):
        spread = r * (cov + allowance)
        rounding = 8 * _U * (r + spread)  # the grid's rescaling (8 u R) and the float sums
        thr = tol * max(1.0, r)
        route = "bound" if spec["exact"] and spread + rounding <= thr else "exact"
        density.append((thr, {"radius": r, "cloud_to_grid_bound": _DISK_COVER * tol * r,
                              "route": route, "bound": spread + rounding, "pair_cover": cov,
                              "allowance": allowance, "rounding": rounding}))
    exact_route = [nu for nu, (_, d) in zip(nus, density) if d["route"] == "exact"]
    clouds = iter(transforms(exact_route, np.arange(-N, N + 1, dtype=np.int64))
                  if exact_route else ())
    for i, (thr, d) in enumerate(density):
        metric = (d["bound"] if d["route"] == "bound"
                  else covering_radius(disk_grid(d["radius"], tol), next(clouds)))
        checks.append(VerificationCheck(f"density_nu{i}", metric <= thr, metric, thr, d))

    # (f) spectrum inside the R_i disk, from mu_i's own radius bracket
    checks += [VerificationCheck(f"spectrum_nu{i}", s["exact"] and s["upper"] <= s["radius"],
                                 s["upper"] - s["radius"], 0.0, s) for i, s in enumerate(spectra)]
    return VerificationReport(tuple(checks))
