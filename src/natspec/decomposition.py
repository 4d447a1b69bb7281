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
from .measures import (DiscreteMeasure, MeasureLike, MixedMeasure, as_mixed, convolve,
                       make_rho, make_theta0, make_theta1, parity_projections,
                       transforms, tv_norm)
from .spectrum import (_SAFE_RADIUS, FeketeReport, _coverage_grid, char_polynomial,
                       character_values, check_torus_grid, covering_radius, disk_grid,
                       disk_grid_shape, disk_hausdorff, fekete_bound, restrict,
                       torus_grid_within, torus_max)

RADIUS_MODES = ("exact_discrete", "fekete", "manual")

# Absolute residual thresholds for the verifier checks.
IDENTITY_TRANSFORM_TOL = 1e-9
IDENTITY_STRUCTURAL_TOL = 1e-12
PARITY_TOL = 1e-9
MODULUS_SLACK = 1e-9
MEMBERSHIP_SLACK = 1e-6
MANUAL_RADIUS_SCAN = 256
# torus grid of the lower end of the "exact_discrete" radius brackets, halved
# until the lattice fits the walker's limit
EXACT_DISCRETE_GRID = 128
# grid points the verifier's check (f) may spend, see spectrum.torus_grid_within
MEMBERSHIP_POINT_BUDGET = 2_000_000
# largest transform range |n| <= N the verifier accepts (100x the largest in use)
MAX_VERIFY_N = 1 << 20


@dataclass(frozen=True)
class DecompositionOptions:
    """Tuning knobs for ``decompose``.

    radius_mode selects how the two disk radii are produced: "fekete" uses
    the norm-root upper bound, "exact_discrete" additionally brackets it from
    below with a torus maximum (discrete inputs only), and "manual" takes
    user radii validated against the transform lower bound
    sup_{|n| <= 256} |mu_i_hat(n)|.  Manual radii that are negative, not
    finite or above 2**400 are refused before any work.  verify_N and
    verify_tol are ``verify_decomposition``'s N and tol."""

    radius_mode: str = "fekete"
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

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks)


@dataclass(frozen=True)
class DecompositionResult:
    """nu0 + nu1 + nu2 == mu with nu2 supported on the four fresh positions."""

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
    fekete_reports: Optional[tuple[FeketeReport, FeketeReport]]
    report: Optional[VerificationReport]


def _embed(mu: MeasureLike, ext: GeneratorBasis) -> MeasureLike:
    """Reinterpret mu over an extended basis (extra generators appended)."""
    old = len(mu.basis) if isinstance(mu, (DiscreteMeasure, MixedMeasure)) else 0
    pad = len(ext) - old
    if pad < 0 or ext.names[:old] != mu.basis.names:
        raise ValueError("extended basis must begin with the measure's basis")

    def lift(d: DiscreteMeasure) -> DiscreteMeasure:
        return DiscreteMeasure._rows(ext, d.den, d.num, np.pad(d.coef, ((0, 0), (0, pad))), d.w)

    if isinstance(mu, DiscreteMeasure):
        return lift(mu)
    m = as_mixed(mu)
    return MixedMeasure(lift(m.disc), m.ac)


def _transform_sups(measures: list[MeasureLike], n_bound: int) -> list[float]:
    ns = np.arange(-n_bound, n_bound + 1, dtype=np.int64)
    return [float(np.max(np.abs(v)))
            for v in transforms([as_mixed(m) for m in measures], ns)]


def _radii(mu0: MeasureLike, mu1: MeasureLike, opts: DecompositionOptions):
    if opts.radius_mode == "manual":
        r0, r1 = float(opts.manual_radii[0]), float(opts.manual_radii[1])
        sups = _transform_sups([mu0, mu1], MANUAL_RADIUS_SCAN)
        for r, sup, name in ((r0, sups[0], "R0"), (r1, sups[1], "R1")):
            if r + 1e-12 < sup:
                raise RadiusValidationError(
                    f"{name}={r} is below the transform bound {sup} "
                    f"(sup over |n| <= {MANUAL_RADIUS_SCAN})")
        return r0, r1, None, None
    # exact_discrete brackets the radius between a torus maximum and the
    # norm-root bound, returning the certified upper end; each lattice is
    # fitted, or refused, before any squaring
    lattices = []
    if opts.radius_mode == "exact_discrete":
        for m in (mu0, mu1):
            if not as_mixed(m).is_discrete:
                raise RadiusValidationError(
                    "radius_mode 'exact_discrete' requires a discrete measure")
            p = char_polynomial(as_mixed(m).disc)
            grid = torus_grid_within(p, p.order * EXACT_DISCRETE_GRID ** p.dims)
            check_torus_grid(p, grid)
            lattices.append((p, grid))
    reports = (fekete_bound(mu0, opts.fekete_k_max), fekete_bound(mu1, opts.fekete_k_max))
    r0, r1 = reports[0].final_bound, reports[1].final_bound
    if not lattices:
        return r0, r1, None, reports
    (p0, g0), (p1, g1) = lattices
    return r0, r1, ((torus_max(p0, g0), r0), (torus_max(p1, g1), r1)), reports


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
        if not r <= _SAFE_RADIUS[1]:
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
    r0, r1, brackets, reports = _radii(mu0, mu1, opts)
    rho = make_rho(alpha, beta, ext)
    rt1 = convolve(rho, make_theta1(ext))
    rt0 = convolve(rho, make_theta0(ext))
    add0 = rt1.scale(r0)
    add1 = rt0.scale(r1)
    nu0 = mu0 + add0
    nu1 = mu1 + add1
    nu2 = (-add0) + (-add1)
    result = DecompositionResult(nu0, nu1, nu2, float(r0), float(r1), alpha, beta,
                                 ext, mu_ext, brackets, reports, None)
    if opts.verify:
        report = verify_decomposition(mu, result, N=opts.verify_N, tol=opts.verify_tol)
        result = replace(result, report=report)
    return result


def _structural_residual(m: MixedMeasure) -> float:
    atom_part = max((abs(w) for w in m.disc.w.tolist()), default=0.0)
    ac_part = max((abs(c) for c in m.ac.coeffs.values()), default=0.0)
    return max(atom_part, ac_part)


def verify_decomposition(mu: MeasureLike, result: DecompositionResult, *,
                         N: int = 10_000, tol: float = 0.05) -> VerificationReport:
    """Certify a decomposition against the input measure.

    Checks: (a) the exact identity, structurally and through transforms up to
    |n| <= N; the support shape of nu2; (b) exact orthogonality of the parity
    projections against the opposite-parity correction; (c) the parity
    transform laws; (d) the modulus bound |nu_i_hat| <= R_i; (e) density of
    each transform cloud in its scaled disk; and, for discrete inputs over at
    most two generators, (f) that sampled character values of nu0 stay inside
    the R0 disk while covering it, on a grid derived from tol (256 at 0.05).

    The identity residual, rho, mu, nu0 and nu1 are evaluated on |n| <= N
    in one ``transforms`` call: each from its own atoms (never by linearity,
    which would make (c) hold by construction), sharing only the phase
    factors e^{-ing} of the generator-coefficient vectors g they have in
    common.  (c) reads even and odd slices of those values, (d) and (e)
    whole arrays.  (e) is a Hausdorff distance between the cloud and the
    polar grid ``disk_grid(R_i, tol)``: from each cloud point to its nearest
    grid point exactly, in closed form (``disk_hausdorff``), and from each
    grid point to the cloud by a KD-tree query.
    Raises ValueError unless 1 <= N <= 2**20 and ``disk_grid`` accepts tol,
    before any array is built.
    """
    _check_N(N)
    disk_grid_shape(tol)
    checks: list[VerificationCheck] = []
    ext = result.basis
    mu_e = as_mixed(_embed(mu, ext)) if mu.basis != ext else as_mixed(mu)
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
    o0 = convolve(convolve(mu0v, rho), make_theta1(ext))
    o1 = convolve(convolve(mu1v, rho), make_theta0(ext))
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

    # (e) density of the transform cloud in the scaled disk; the tolerance
    # scales with the radius so the check is invariant under mu -> c*mu
    for name, vals, r in (("density_nu0", nu0_t, r0), ("density_nu1", nu1_t, r1)):
        metric = disk_hausdorff(vals, r, tol)
        thr = tol * max(1.0, r)
        checks.append(VerificationCheck(name, metric <= thr, metric, thr,
                                        {"radius": r}))

    # (f) character-value geometry, feasible for discrete inputs over at
    # most two generators (nu0 then has at most four free dimensions)
    if as_mixed(mu).is_discrete and len(mu.basis) <= 2:
        p = char_polynomial(nu0m.disc)
        g_mem = torus_grid_within(p, MEMBERSHIP_POINT_BUDGET)
        smax = torus_max(p, grid=g_mem)
        checks.append(VerificationCheck(
            "spectrum_membership", smax <= r0 + MEMBERSHIP_SLACK, smax - r0,
            MEMBERSHIP_SLACK, {"sampled_max": smax, "radius": r0, "grid": g_mem}))
        # coverage witness: fix the torsion character odd and pin the original
        # generators at phase zero; the slice equals a small constant plus
        # R0 * (z_alpha + z_beta) / 2, whose range is the full R0 disk
        keep = [name for name in p.dim_names
                if name in (ext.names[-2], ext.names[-1])]
        q = restrict(p, 1 if p.order % 2 == 0 else 0, keep)
        vals = character_values(q, _coverage_grid(tol))
        cov = covering_radius(disk_grid(r0, tol), vals)
        thr = tol * max(1.0, r0)
        checks.append(VerificationCheck("spectrum_coverage", cov <= thr, cov, thr,
                                        {"radius": r0}))

    return VerificationReport(tuple(checks))
