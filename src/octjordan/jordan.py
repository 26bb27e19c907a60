"""Hermitian 3x3 matrices over a composition algebra and their invariants.

A point is stored as three diagonal scalars and three off-diagonal algebra
elements,

        [ l1        c      conj(b) ]
        [ conj(c)   l2     a       ]
        [ b         conj(a) l3     ],

with the flat coordinate order c(1..2^k), b, a, l1, l2, l3 (so 27
coordinates at the octonion level).  The module provides the degree-3 and
degree-6 invariants (Cartan determinant, comatrix, the octonionic
degeneracy sextic, the twisted cubic and twisted sextic), closed-form
gradients of the two sextics, and the two 24x24 block matrices whose
determinants those invariants govern: det(M) = sextic^4 and
det(N) = cubic^4 * twisted_sextic^2.  A real part Re(xy) is always
cayley.real_product(x, y), the coordinate-0 sum of the product, so the
invariants form only the full products they need (det_cartan 1,
twisted_cubic 2, twisted_sextic 0, s_odm 7), bit-identical to the real
parts of full products.

Over C every scalar of a triple may also be a complex128 array of shape
(S,), one lane per point (`stack_lanes`, `lane`).  The invariants then
return an (S,) array, the comatrix a stacked triple, and `build_M` /
`build_N` an (S, 24, 24) stack, all from the same formulas as one point.
Over F_p the scalars may likewise be int64 or object arrays, one lane per
point, while every unreduced value fits the dtype; autdim evaluates the
gradients that way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import cayley, linalg
from .cayley import AlgebraElement


@dataclass(frozen=True)
class HermitianTriple:
    ring: object
    level: int
    lambdas: tuple
    a: AlgebraElement
    b: AlgebraElement
    c: AlgebraElement

    def __post_init__(self):
        if len(self.lambdas) != 3:
            raise ValueError("three diagonal scalars required")
        for x in (self.a, self.b, self.c):
            if x.level != self.level:
                raise ValueError("off-diagonal level mismatch")

    def scale(self, s) -> "HermitianTriple":
        r = self.ring
        return HermitianTriple(r, self.level,
                               tuple(r.reduce(s * l) for l in self.lambdas),
                               self.a.scale(s), self.b.scale(s), self.c.scale(s))

    def flatten(self) -> list:
        return list(self.c.coords) + list(self.b.coords) + list(self.a.coords) \
            + list(self.lambdas)


def identity_triple(ring, level: int) -> HermitianTriple:
    z = cayley.zero(ring, level)
    return HermitianTriple(ring, level, (ring.one,) * 3, z, z, z)


def diagonal_triple(ring, level: int, l1, l2, l3) -> HermitianTriple:
    z = cayley.zero(ring, level)
    return HermitianTriple(ring, level, (l1, l2, l3), z, z, z)


def random_triple(ring, level: int, rng: random.Random) -> HermitianTriple:
    return HermitianTriple(ring, level,
                           tuple(ring.random(rng) for _ in range(3)),
                           cayley.random_element(ring, level, rng),
                           cayley.random_element(ring, level, rng),
                           cayley.random_element(ring, level, rng))


def unflatten(ring, level: int, coords) -> HermitianTriple:
    n = 1 << level
    if len(coords) != 3 * n + 3:
        raise ValueError(f"expected {3 * n + 3} coordinates")
    c = AlgebraElement(ring, level, tuple(coords[:n]))
    b = AlgebraElement(ring, level, tuple(coords[n:2 * n]))
    a = AlgebraElement(ring, level, tuple(coords[2 * n:3 * n]))
    return HermitianTriple(ring, level, tuple(coords[3 * n:]), a, b, c)


def stack_lanes(ring, triples) -> HermitianTriple:
    """Level-3 complex triples as one triple whose scalars are complex128
    arrays of shape (S,), lane i holding triples[i]."""
    flat = np.array([t.flatten() for t in triples], dtype=np.complex128)
    return unflatten(ring, 3, list(flat.reshape(len(triples), 27).T))


def lane(t: HermitianTriple, i: int) -> HermitianTriple:
    """Lane i of a lane-stacked complex triple, with Python complex scalars."""
    return unflatten(t.ring, t.level, [complex(z[i]) for z in t.flatten()])


def det_cartan(t: HermitianTriple):
    """l1 l2 l3 + 2 Re(c(ab)) - l2 |b|^2 - l1 |a|^2 - l3 |c|^2."""
    return _det_cartan_and_re_cab(t)[0]


def _det_cartan_and_re_cab(t: HermitianTriple) -> tuple:
    """det_cartan and the Re(c(ab)) it is formed from, one product ab."""
    r = t.ring
    l1, l2, l3 = t.lambdas
    re_cab = cayley.real_product(t.c, t.a * t.b)
    return r.reduce(l1 * l2 * l3 + (re_cab + re_cab) - l2 * t.b.norm_sq()
                    - l1 * t.a.norm_sq() - l3 * t.c.norm_sq()), re_cab


def com(t: HermitianTriple) -> HermitianTriple:
    """Formal comatrix; satisfies Com(A) A = det(A) I in associative data."""
    r = t.ring
    l1, l2, l3 = t.lambdas
    a, b, c = t.a, t.b, t.c
    lam = (r.reduce(l2 * l3 - a.norm_sq()),
           r.reduce(l1 * l3 - b.norm_sq()),
           r.reduce(l1 * l2 - c.norm_sq()))
    new_c = b.conjugate() * a.conjugate() - c.scale(l3)
    new_a = c.conjugate() * b.conjugate() - a.scale(l1)
    new_b = a.conjugate() * c.conjugate() - b.scale(l2)
    return HermitianTriple(r, t.level, lam, new_a, new_b, new_c)


def s_odm(t: HermitianTriple):
    """Degeneracy sextic of the untwisted problem:
    Det^2 - 4 phi(c,b,a) Det - |[c,b,a]|^2."""
    if t.level != 3:
        raise ValueError("sextic defined at level 3")
    r = t.ring
    d = det_cartan(t)
    ph = cayley.phi(t.c, t.b, t.a)
    asq = cayley.associator(t.c, t.b, t.a).norm_sq()
    return r.reduce(d * d - r.from_int(4) * (ph * d) - asq)


def twisted_cubic(t: HermitianTriple):
    """Det - 2 Re(c(ab)) + 2 Re(conj(c)(ba)); the cubic factor of det(N)."""
    if t.level != 3:
        raise ValueError("twisted invariants defined at level 3")
    r = t.ring
    d, re_cab = _det_cartan_and_re_cab(t)
    re_cba = cayley.real_product(t.c.conjugate(), t.b * t.a)
    return r.reduce(d - (re_cab + re_cab) + (re_cba + re_cba))


def twisted_sextic(t: HermitianTriple):
    """The sextic factor of det(N) (degeneracy of the twisted kernel)."""
    if t.level != 3:
        raise ValueError("twisted invariants defined at level 3")
    r = t.ring
    l1, l2, l3 = t.lambdas
    na, nb, nc = t.a.norm_sq(), t.b.norm_sq(), t.c.norm_sq()
    env = r.reduce(l1 * na + l2 * nb + l3 * nc - l1 * l2 * l3)
    re_c = t.c.real_part()
    re_ab = cayley.real_product(t.a, t.b)
    four = r.from_int(4)
    tail = nb * na * (re_c * re_c) + nc * (re_ab * re_ab) - na * nb * nc
    return r.reduce(env * env - four * (env * (re_c * re_ab)) + four * tail)


def s_odm_gradient(t: HermitianTriple) -> list:
    """The 27 partials of s_odm in flatten() order (c, b, a, l1, l2, l3).

    With S = d^2 - 4 phi d - |A|^2, d = det_cartan and A = [c, b, a],
    grad S = (2d - 4 phi) grad d - 4 d grad phi - grad |A|^2.  grad d is
    the comatrix, (2 com.c, 2 com.b, 2 com.a, com.lambdas).  The octonion
    parts of the other two follow from B(xy, z) = B(y, conj(x) z) =
    B(x, z conj(y)) (Springer & Veldkamp 2000, ch. 1), in the order c, b, a:

        grad phi   = 1/2 (a'b - ba',  ac - ca,  bc' - c'b)
        grad |A|^2 = 2 ((Aa')b' - A (ba)',  c'(Aa') - (c'A)a',  (cb)'A - b'(c'A))

    with x' = conj(x).  phi is linear in a, so phi = B(a, grad_a phi).
    Every unreduced value is a sum of at most 32 products of at most three
    reduced scalars."""
    if t.level != 3:
        raise ValueError("sextic defined at level 3")
    r = t.ring
    a, b, c = t.a, t.b, t.c
    ac, bc, cc = a.conjugate(), b.conjugate(), c.conjugate()
    half = r.inv(r.from_int(2))
    cb, ba = c * b, b * a
    assoc = cb * a - c * ba
    grad_phi = ((ac * b - b * ac).scale(half), (a * c - c * a).scale(half),
                (b * cc - cc * b).scale(half))
    assoc_a, c_assoc = assoc * ac, cc * assoc
    grad_asq = (assoc_a * bc - assoc * ba.conjugate(), cc * assoc_a - c_assoc * ac,
                cb.conjugate() * assoc - bc * c_assoc)
    d = det_cartan(t)
    ph = cayley.bilinear(a, grad_phi[2])
    two, four = r.from_int(2), r.from_int(4)
    k = r.reduce(d + d - four * ph)           # the coefficient of grad d
    k2, d4 = r.reduce(k + k), r.reduce(four * d)
    m = com(t)
    out = [r.reduce(k2 * x - d4 * y - two * z)
           for mx, gp, ga in zip((m.c, m.b, m.a), grad_phi, grad_asq)
           for x, y, z in zip(mx.coords, gp.coords, ga.coords)]
    return out + [r.reduce(k * x) for x in m.lambdas]


def twisted_sextic_gradient(t: HermitianTriple) -> list:
    """The 27 partials of twisted_sextic in flatten() order (c, b, a, l1,
    l2, l3), by the chain rule on env^2 - 4 env c0 R + 4 tail, where
    R = Re(ab) = B(a, b'), c0 = Re(c) and tail = |a|^2 |b|^2 c0^2 +
    |c|^2 R^2 - |a|^2 |b|^2 |c|^2.  With e = 2 env - 4 c0 R and
    w = 4 env:

        d/dc  = (2 e l3 + 8 R^2 - 8 |a|^2 |b|^2) c + (8 |a|^2 |b|^2 c0 - w R) e1
        d/db  = (2 e l2 + 8 |a|^2 c0^2 - 8 |a|^2 |c|^2) b + (8 |c|^2 R - w c0) a'
        d/da  = (2 e l1 + 8 |b|^2 c0^2 - 8 |b|^2 |c|^2) a + (8 |c|^2 R - w c0) b'
        d/dl1 = e (|a|^2 - l2 l3), and cyclically for l2 and l3.

    Every unreduced value is a sum of at most 32 products of at most three
    reduced scalars."""
    if t.level != 3:
        raise ValueError("twisted invariants defined at level 3")
    r = t.ring
    l1, l2, l3 = t.lambdas
    a, b, c = t.a, t.b, t.c
    na, nb, nc = a.norm_sq(), b.norm_sq(), c.norm_sq()
    ac, bc = a.conjugate(), b.conjugate()
    c0 = c.real_part()
    re_ab = cayley.bilinear(a, bc)
    two, four, eight = r.from_int(2), r.from_int(4), r.from_int(8)
    env = r.reduce(l1 * na + l2 * nb + l3 * nc - l1 * l2 * l3)
    e = r.reduce(env + env - four * (c0 * re_ab))
    w = r.reduce(four * env)
    c0sq, nanb = r.reduce(c0 * c0), r.reduce(na * nb)
    cross = r.reduce(eight * (nc * re_ab) - w * c0)
    own_c = r.reduce(two * e * l3 + eight * (re_ab * re_ab) - eight * nanb)
    grad_c = [r.reduce(own_c * u) for u in c.coords]
    grad_c[0] = r.reduce(own_c * c0 + eight * (nanb * c0) - w * re_ab)
    own_b = r.reduce(two * e * l2 + eight * (na * c0sq) - eight * (na * nc))
    own_a = r.reduce(two * e * l1 + eight * (nb * c0sq) - eight * (nb * nc))
    grad_b = [r.reduce(own_b * u + cross * v) for u, v in zip(b.coords, ac.coords)]
    grad_a = [r.reduce(own_a * u + cross * v) for u, v in zip(a.coords, bc.coords)]
    grad_l = [r.reduce(e * (na - l2 * l3)), r.reduce(e * (nb - l1 * l3)),
              r.reduce(e * (nc - l1 * l2))]
    return grad_c + grad_b + grad_a + grad_l


def build_M(t: HermitianTriple) -> np.ndarray:
    """Symmetric 3*2^k block matrix with left-multiplication blocks."""
    lc = cayley.left_mult_matrix(t.c)
    return _assemble(t, lc)


def build_N(t: HermitianTriple) -> np.ndarray:
    """The twisted variant: right multiplication by c in the (1,2) block."""
    if t.level != 3:
        raise ValueError("twisted matrix defined at level 3")
    rc = cayley.right_mult_matrix(t.c)
    return _assemble(t, rc)


def _assemble(t: HermitianTriple, cblock: np.ndarray) -> np.ndarray:
    # the diagonal blocks are l * idn, so their off-diagonal zeros carry the
    # signs of l * 0
    r = t.ring
    la = cayley.left_mult_matrix(t.a)
    lb = cayley.left_mult_matrix(t.b)
    idn = np.eye(1 << t.level, dtype=la.dtype)
    # lane-stacked scalars of shape (S,) give (S, n, n) blocks throughout
    l1, l2, l3 = (np.asarray(l)[..., None, None] * idn for l in t.lambdas)
    tr = lambda x: np.swapaxes(x, -1, -2)
    out = linalg.block([
        [l1, cblock, tr(lb)],
        [tr(cblock), l2, la],
        [lb, tr(la), l3],
    ])
    return r.reduce(out)


def to_full_matrix(t: HermitianTriple) -> list:
    """The honest 3x3 matrix of algebra elements (diagonal embedded)."""
    r = t.ring
    emb = lambda s: cayley.embed_scalar(r, t.level, s)
    l1, l2, l3 = t.lambdas
    a, b, c = t.a, t.b, t.c
    return [[emb(l1), c, b.conjugate()],
            [c.conjugate(), emb(l2), a],
            [b, a.conjugate(), emb(l3)]]


def full_matmul(x: list, y: list) -> list:
    """Product of 3x3 matrices of algebra elements (order preserved)."""
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = x[i][0] * y[0][j]
            for k in (1, 2):
                acc = acc + x[i][k] * y[k][j]
            row.append(acc)
        out.append(row)
    return out


# JSON interchange through ring.encode / ring.decode: prime-field scalars as
# decimal strings, complex as [re, im]

def triple_to_json(t: HermitianTriple) -> dict:
    enc = lambda scalars: [t.ring.encode(s) for s in scalars]
    return {"level": t.level, "lambda": enc(t.lambdas),
            "a": enc(t.a.coords), "b": enc(t.b.coords), "c": enc(t.c.coords)}


def triple_from_json(ring, d: dict) -> HermitianTriple:
    level = d["level"]
    # a JSON integer, not a bool or a float that int() would truncate
    if type(level) is not int or not 0 <= level <= 3:
        raise ValueError(f"level must be an integer in 0..3, got {level!r}")

    def dec(key, n):
        vals = d[key]
        if len(vals) != n:
            raise ValueError(f"{key} must have {n} entries at level {level}")
        return tuple(ring.decode(v) for v in vals)

    el = lambda key: AlgebraElement(ring, level, dec(key, 1 << level))
    return HermitianTriple(ring, level, dec("lambda", 3), el("a"), el("b"), el("c"))
