"""Randomized (Schwartz-Zippel) verification of the polynomial identities.

Every identity the geometry relies on is a polynomial defect that must
vanish identically; each check samples seeded random points in F_p^n and
requires the defect to be exactly zero at every one of them.  A nonzero
defect polynomial of degree d survives a single trial with probability at
most d/p, so the per-check failure bound reported is trials * d / p (a
union bound; with p = 2^31 - 1 and degree 24 it is far below 1e-5 at 100
trials), capped at 1.  A check that ran no trial reports 1, and a suite
that selects no check is refused.  The bound needs a field, so the prime
must be one coeffs.PrimeField accepts (an odd prime is_prime proves); the
checks leave every dtype and reduction to the ring and linalg, and run at
all of them.

Degrees are recorded with respect to the hermitian-triple coordinates; in
the equivariance checks the group element is sampled separately and the
defect is linear in the point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import cayley, linalg, symmetry
from .cayley import AlgebraElement
from .coeffs import PrimeField, derive_rng
from .jordan import (HermitianTriple, build_M, build_N, com, det_cartan,
                     random_triple, s_odm, twisted_cubic, twisted_sextic)


@dataclass
class CheckResult:
    check_id: str
    name: str
    passed: bool
    trials: int
    degree: int
    failure_bound: float
    elapsed: float
    detail: str = ""


@dataclass
class SuiteReport:
    prime: int
    seed: int
    trials: int
    results: list
    elapsed: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "seed": self.seed,
            "trials": self.trials,
            "all_passed": self.all_passed,
            "elapsed_sec": self.elapsed,
            "checks": [{
                "id": r.check_id,
                "name": r.name,
                "passed": r.passed,
                "trials": r.trials,
                "degree": r.degree,
                "failure_bound": r.failure_bound,
                "elapsed_sec": r.elapsed,
                "detail": r.detail,
            } for r in self.results],
        }


class CheckFailure(Exception):
    """Raised inside a trial; carries the point and defect description."""


def _quaternionic(ring, rng) -> AlgebraElement:
    return AlgebraElement(ring, 3, tuple(ring.random(rng) for _ in range(4)) + (0,) * 4)


def _fail(msg: str, point=None):
    if point is not None:
        msg += f" at point {point}"
    raise CheckFailure(msg)


# individual trial bodies ----------------------------------------------------

def _c1_composition(ring, rng):
    for level in range(4):
        x = cayley.random_element(ring, level, rng)
        y = cayley.random_element(ring, level, rng)
        if (x * y).norm_sq() != ring.reduce(x.norm_sq() * y.norm_sq()):
            _fail(f"composition law fails at level {level}", (x.coords, y.coords))
    x = cayley.random_element(ring, 3, rng)
    y = cayley.random_element(ring, 3, rng)
    u = cayley.random_element(ring, 3, rng)
    if (x * (x * y)).coords != ((x * x) * y).coords:
        _fail("left alternativity fails", (x.coords, y.coords))
    if ((y * x) * x).coords != (y * (x * x)).coords:
        _fail("right alternativity fails", (x.coords, y.coords))
    if ((u * x) * (y * u)).coords != (u * ((x * y) * u)).coords:
        _fail("Moufang identity fails", (u.coords, x.coords, y.coords))
    if cayley.real_product(x * y, u) != cayley.real_product(x, y * u):
        _fail("trace associativity fails", (x.coords, y.coords, u.coords))


def _c2_splitting(ring, rng):
    ell = cayley.basis(ring, 3, 4)
    u, v = _quaternionic(ring, rng), _quaternionic(ring, rng)
    if (u * (v * ell)).coords != ((v * u) * ell).coords:
        _fail("u(v.e) = (vu)e fails", (u.coords, v.coords))
    if ((u * ell) * (v * ell)).coords != (-(v.conjugate() * u)).coords:
        _fail("(ue)(ve) = -conj(v)u fails", (u.coords, v.coords))
    if (u * ell).coords != (ell * u.conjugate()).coords:
        _fail("ue = e conj(u) fails", (u.coords,))
    if ((u * ell) * v).coords != ((u * v.conjugate()) * ell).coords:
        _fail("(ue)v = (u conj(v))e fails", (u.coords, v.coords))


def _c3_gram(ring, rng):
    c, b, a = (cayley.random_element(ring, 3, rng) for _ in range(3))
    lhs = cayley.associator(c, b, a).norm_sq()
    ph = cayley.phi(c, b, a)
    rhs = ring.reduce(ring.from_int(4) * (cayley.gram_im(c, b, a) - ph * ph))
    if lhs != rhs:
        _fail("Gram-associator identity fails", (c.coords, b.coords, a.coords))


def _check_com_factorization(ring, t: HermitianTriple):
    """Com(A) A = A Com(A) = det(A) I on the M blocks.

    Block (i, j) of build_M(Y) is L_{Y_ij}, and L_x e_1 = x, so column j*n
    of build_M(Y) stacks the entries of column j of Y, and
    build_M(X) build_M(Y)[:, ::n] stacks the columns of the product XY."""
    n = 1 << t.level
    want = ring.reduce(det_cartan(t) * linalg.eye(ring, 3 * n)[:, ::n])
    m, mc = build_M(t), build_M(com(t))
    for prod in (linalg.matmul(ring, mc, m[:, ::n]), linalg.matmul(ring, m, mc[:, ::n])):
        # the (i, j) entries of the 3x3 product that differ, in row-major order
        wrong = np.argwhere((prod != want).reshape(3, n, 3).any(axis=1))
        if wrong.size:
            i, j = wrong[0]
            _fail(f"Com factorization fails in entry ({i},{j})", t.flatten())


def _c4_com(ring, rng):
    for level in (0, 1, 2):
        _check_com_factorization(ring, random_triple(ring, level, rng))
    quat = HermitianTriple(ring, 3, tuple(ring.random(rng) for _ in range(3)),
                           _quaternionic(ring, rng), _quaternionic(ring, rng),
                           _quaternionic(ring, rng))
    _check_com_factorization(ring, quat)


def _c5_associative_det(ring, rng):
    for level, power in ((0, 1), (1, 2), (2, 4)):
        t = random_triple(ring, level, rng)
        if linalg.det(ring, build_M(t)) != ring.reduce(det_cartan(t) ** power):
            _fail(f"det(M) != Det^{power} at level {level}", t.flatten())


def _c6_det_m(ring, rng):
    t = random_triple(ring, 3, rng)
    if linalg.det(ring, build_M(t)) != ring.reduce(s_odm(t) ** 4):
        _fail("det(M_O) != S_ODM^4", t.flatten())


def _c7_det_n(ring, rng):
    t = random_triple(ring, 3, rng)
    want = ring.reduce(twisted_cubic(t) ** 4 * twisted_sextic(t) ** 2)
    if linalg.det(ring, build_N(t)) != want:
        _fail("det(N_O) != cubic^4 * sextic^2", t.flatten())


def _conjugated(ring, m: np.ndarray, diag: tuple) -> np.ndarray:
    """D M D^T for the block diagonal D = diag(*diag) of three 8x8 blocks."""
    z = np.zeros((8, 8), dtype=m.dtype)
    blocks = linalg.block([[d if k == i else z for k in range(3)] for i, d in enumerate(diag)])
    return linalg.matmul(ring, linalg.matmul(ring, blocks, m), blocks.T)


def _c8_equivariance(ring, rng):
    # untwisted: M(T1.A) = diag(T2,T2,T2) M(A) diag(T2,T2,T2)^T for the left
    # pair (T1, T2) = (K_{T2'}, K_{T1'}) of a right pair (T1', T2')
    right = symmetry.random_spin7(ring, rng)
    t1, t2 = symmetry.kappa(ring, right.t2), symmetry.kappa(ring, right.t1)
    t = random_triple(ring, 3, rng)
    if not np.array_equal(build_M(symmetry.so7_act(ring, t1, t)),
                          _conjugated(ring, build_M(t), (t2, t2, t2))):
        _fail("M_O conjugation equivariance fails", t.flatten())
    # twisted: N((T1,T2).A) = diag(T1,T1,T2) N(A) diag(T1,T1,T2)^T
    trip = symmetry.random_spin7(ring, rng)
    t = random_triple(ring, 3, rng)
    if not np.array_equal(build_N(symmetry.spin7_act(trip, t)),
                          _conjugated(ring, build_N(t), (trip.t1, trip.t1, trip.t2))):
        _fail("N_O conjugation equivariance fails", t.flatten())


def _nonsingular(ring, draw):
    """(H, det H) for the first draw with det H != 0; a singular congruence
    would leave the covariance checks with nothing to test."""
    while True:
        h = ring.array(draw())
        dh = linalg.det(ring, h)
        if dh:
            return h, dh


def _c9_sl3_and_invariance(ring, rng):
    h, dh = _nonsingular(ring, lambda: [[ring.random(rng) for _ in range(3)]
                                        for _ in range(3)])
    points = [random_triple(ring, 3, rng) for _ in range(5)]
    # each point's invariants are computed once and reused by every check
    sodm = [s_odm(t) for t in points]
    dh4 = ring.reduce(dh ** 4)
    for t, v in zip(points, sodm):
        moved = symmetry.sl3_act(ring, h, t)
        if det_cartan(moved) != ring.reduce(dh * dh * det_cartan(t)):
            _fail("det_cartan congruence covariance fails", t.flatten())
        if s_odm(moved) != ring.reduce(dh4 * v):
            _fail("S_ODM congruence covariance (det^4) fails", t.flatten())
    # SO7 leaves S_ODM invariant and Spin7 the twisted sextic
    t1 = symmetry.random_spin7(ring, rng).t2
    for t, v in zip(points, sodm):
        if s_odm(symmetry.so7_act(ring, t1, t)) != v:
            _fail("S_ODM invariance under SO7 fails", t.flatten())
    trip = symmetry.random_spin7(ring, rng)
    sextic = [twisted_sextic(t) for t in points]
    for t, v in zip(points, sextic):
        if twisted_sextic(symmetry.spin7_act(trip, t)) != v:
            _fail("twisted sextic invariance under Spin7 fails", t.flatten())
    # congruences mixing the third row into the first two break the twisted
    # kernel (an octonion-commutator obstruction), so the twisted invariants
    # are covariant exactly for the block subgroup fixing that split
    hb, dhb = _nonsingular(ring, lambda: [[ring.random(rng), ring.random(rng), 0],
                                          [ring.random(rng), ring.random(rng), 0],
                                          [0, 0, ring.random(rng)]])
    db2, db4 = ring.reduce(dhb ** 2), ring.reduce(dhb ** 4)
    for t, v in zip(points, sextic):
        moved = symmetry.sl3_act(ring, hb, t)
        if twisted_cubic(moved) != ring.reduce(db2 * twisted_cubic(t)):
            _fail("twisted cubic covariance under block congruence fails", t.flatten())
        if twisted_sextic(moved) != ring.reduce(db4 * v):
            _fail("twisted sextic covariance under block congruence fails", t.flatten())


def _lab(a: AlgebraElement, b: AlgebraElement, xc: np.ndarray) -> np.ndarray:
    """L_a L_b X_c for X_c = L_c or R_c, the operator chain of C10, C11 and
    the charpoly check."""
    ring = a.ring
    lab = linalg.matmul(ring, cayley.left_mult_matrix(a), cayley.left_mult_matrix(b))
    return linalg.matmul(ring, lab, xc)


def multiplicity_defect(a: AlgebraElement, b: AlgebraElement, c: AlgebraElement) -> int:
    """Rank of L_a L_b R_c + R_c^T L_b^T L_a^T - 2 Re(conj(c)(ba)) I.

    The twisted operator has 2 Re(conj(c) b a) as an eigenvalue of
    multiplicity at least 4, so the rank is at most 4, with equality at
    generic triples.
    """
    ring = a.ring
    prod = _lab(a, b, cayley.right_mult_matrix(c))
    shift = cayley.real_product(c.conjugate(), b * a)
    op = ring.reduce(prod + prod.T - (shift + shift) * linalg.eye(ring, 8))
    return linalg.rank(ring, op)


def _c10_multiplicity(ring, rng):
    a, b, c = (cayley.random_element(ring, 3, rng) for _ in range(3))
    r = multiplicity_defect(a, b, c)
    if r > 4:
        _fail(f"multiplicity defect rank {r} > 4", (a.coords, b.coords, c.coords))


def _schur_factor_trial(ring, rng, twisted: bool):
    for _ in range(64):
        t = random_triple(ring, 3, rng)
        na, nc = t.a.norm_sq(), t.c.norm_sq()
        l1, l2, l3 = t.lambdas
        if 0 in (na, nc, l2):
            continue
        inv_l2 = ring.inv(l2)
        delta = ring.reduce(nc * l1 - nc * nc * inv_l2)
        nu = ring.reduce(l3 * na - na * na * inv_l2)
        if delta == 0 or nu == 0:
            continue
        break
    else:
        raise CheckFailure("no admissible point for the Schur factorization")
    cb = cayley.right_mult_matrix(t.c) if twisted else cayley.left_mult_matrix(t.c)
    idn = linalg.eye(ring, 8)
    bmat = ring.reduce(_lab(t.a, t.b, cb) - ring.reduce(na * nc * inv_l2) * idn)
    z = np.zeros((8, 8), dtype=idn.dtype)
    r1 = linalg.block([[ring.reduce(ring.inv(nc) * cb), z, z],
                       [z, idn, z],
                       [z, z, ring.reduce(ring.inv(na) * cayley.left_mult_matrix(t.a).T)]])
    r2 = linalg.block([[idn, ring.reduce(nc * inv_l2) * idn, z],
                       [z, idn, z],
                       [ring.reduce(ring.inv(delta) * bmat), ring.reduce(na * inv_l2) * idn, idn]])
    w = ring.reduce(nu * idn - ring.inv(delta) * linalg.matmul(ring, bmat, bmat.T))
    dmid = linalg.block([[delta * idn, z, z],
                         [z, l2 * idn, z],
                         [z, z, w]])
    prod = linalg.matmul(ring, r1, r2)
    prod = linalg.matmul(ring, prod, dmid)
    prod = linalg.matmul(ring, prod, r2.T)
    prod = linalg.matmul(ring, prod, r1.T)
    target = build_N(t) if twisted else build_M(t)
    if not np.array_equal(prod, target):
        name = "S1 S2 D S2^T S1^T = N_O" if twisted else "R1 R2 D R2^T R1^T = M_O"
        _fail(f"proof factorization {name} fails", t.flatten())


def _c11_schur(ring, rng):
    _schur_factor_trial(ring, rng, twisted=False)
    _schur_factor_trial(ring, rng, twisted=True)


def charpoly_factor_check(a: AlgebraElement, b: AlgebraElement, c: AlgebraElement,
                          kappa_val) -> tuple:
    """Check det(kI - (L_a L_b L_c + t(L_c)t(L_b)t(L_a))) against the
    fourth power of the quadratic (k - 2Re(c(ab)))(k - 2Re(c(ba))) - |[c,b,a]|^2.

    Returns (True, "") when det is exactly that fourth power and (False,
    msg) otherwise; a match with another exponent is a failure too.
    """
    ring = a.ring
    prod = _lab(a, b, cayley.left_mult_matrix(c))
    lhs = linalg.det(ring, ring.reduce(kappa_val * linalg.eye(ring, 8) - (prod + prod.T)))
    re_cab = cayley.real_product(c, a * b)
    re_cba = cayley.real_product(c, b * a)
    asq = cayley.associator(c, b, a).norm_sq()
    quad = ring.reduce((kappa_val - (re_cab + re_cab)) * (kappa_val - (re_cba + re_cba)) - asq)
    if lhs == ring.reduce(quad ** 4):
        return True, ""
    return False, f"det is not the fourth power of the quadratic (lhs={lhs}, quad={quad})"


def _charpoly_trial(ring, rng):
    a, b, c = (cayley.random_element(ring, 3, rng) for _ in range(3))
    ok, msg = charpoly_factor_check(a, b, c, ring.random(rng))
    if not ok:
        _fail(msg, (a.coords, b.coords, c.coords))


_CHECKS = [
    ("C1", "composition, alternativity, Moufang, trace associativity", 4, _c1_composition),
    ("C2", "quaternionic splitting relations", 2, _c2_splitting),
    ("C3", "Gram-associator identity", 6, _c3_gram),
    ("C4", "comatrix factorization (associative data)", 3, _c4_com),
    ("C5", "det(M_A) = Det^n_A for the associative levels", 12, _c5_associative_det),
    ("C6", "det(M_O) = S_ODM^4", 24, _c6_det_m),
    ("C7", "det(N_O) = cubic^4 * sextic^2", 24, _c7_det_n),
    ("C8", "M_O and N_O conjugation equivariance", 1, _c8_equivariance),
    ("C9", "SL3 covariance and SO7/Spin7 invariance", 12, _c9_sl3_and_invariance),
    ("C10", "twisted multiplicity bound rank <= 4", 15, _c10_multiplicity),
    ("C11", "Schur factorizations from the degeneracy proofs", 24, _c11_schur),
    ("charpoly", "untwisted characteristic polynomial factorization", 24, _charpoly_trial),
]


def check_ids() -> list:
    return [cid for cid, *_ in _CHECKS]


def _run_check(prime: int, seed: int, trials: int, cid: str) -> CheckResult:
    ring = PrimeField(prime)
    entry = next(c for c in _CHECKS if c[0] == cid)
    _, name, degree, body = entry
    c_start = time.perf_counter()
    passed, detail = True, ""
    for trial in range(trials):
        rng = derive_rng(seed, cid, trial)
        try:
            body(ring, rng)
        except CheckFailure as exc:
            passed, detail = False, f"trial {trial}: {exc}"
            break
    # a check that ran no trial has tested nothing, so it bounds nothing
    bound = min(1.0, trials * degree / prime) if trials else 1.0
    return CheckResult(cid, name, passed, trials, degree, bound,
                       time.perf_counter() - c_start, detail)


def run_suite(prime: int, seed: int, trials: int, checks=None) -> SuiteReport:
    """Run the registered checks; any nonzero defect fails its check at the
    offending trial and the remaining checks still run."""
    max_degree = max(deg for _, _, deg, _ in _CHECKS)
    if prime <= max_degree:
        raise ValueError(f"prime {prime} must exceed the maximum identity "
                         f"degree {max_degree}")
    wanted = None if checks is None else {c.lower() for c in checks}
    if wanted is not None:
        unknown = wanted - {cid.lower() for cid, *_ in _CHECKS}
        if unknown:
            raise ValueError(f"unknown check ids: {sorted(unknown)}")
    ids = [cid for cid, *_ in _CHECKS
           if wanted is None or cid.lower() in wanted]
    if not ids:
        raise ValueError("no check selected")
    t_start = time.perf_counter()
    results = [_run_check(prime, seed, trials, cid) for cid in ids]
    return SuiteReport(prime, seed, trials, results, time.perf_counter() - t_start)
