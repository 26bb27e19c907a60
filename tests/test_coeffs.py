import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest

import octjordan
from octjordan.coeffs import (INT64_SAFE_MODULUS, MR_BOUND, ComplexField, PrimeField,
                              derive_rng, is_prime)

P31 = 2**31 - 1
P61 = 2**61 - 1
P80 = 1208925819614629174706189   # the least prime above 2^80
INT64_TOP = 3_037_000_493   # the largest prime up to INT64_SAFE_MODULUS


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(313) and is_prime(P31)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(313 * 317)
    # strong pseudoprime to several bases
    assert not is_prime(3215031751)


def test_is_prime_rejects_the_strong_pseudoprimes_to_the_first_primes():
    # the least strong pseudoprimes to all of the first 9, 12 and 13 primes
    # as bases (Sorenson & Webster, Math. Comp. 86, 2017)
    assert not is_prime(3825123056546413051)
    assert 318665857834031151167461 == 399165290221 * 798330580441
    assert not is_prime(318665857834031151167461)
    assert [q - 2**80 for q in range(2**80, P80 + 1) if is_prime(q)] == [13]
    assert MR_BOUND == 3_317_044_064_679_887_385_961_981
    with pytest.raises(ValueError, match="only below"):
        is_prime(MR_BOUND)
    with pytest.raises(ValueError, match="only below"):
        PrimeField(2**89 - 1)


def test_memoized_is_prime_still_refuses_after_a_cached_call():
    # a cached answer is returned as computed, and a ValueError is not cached
    pseudoprime = 318665857834031151167461
    for _ in range(2):
        assert not is_prime(pseudoprime)
        assert is_prime(P31) and is_prime(P80)
        with pytest.raises(ValueError, match="only below"):
            is_prime(MR_BOUND)
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(pseudoprime)
    assert is_prime.cache_info().hits >= 3


def test_prime_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        PrimeField(360)
    with pytest.raises(ValueError):
        PrimeField(2)


def test_sqrt_zero_and_one():
    f = PrimeField(313)
    assert f.sqrt(0) == 0
    assert f.sqrt(1) in (1, 312)


def test_sqrt_two_mod_313():
    # frozen from exhaustive search over F_313: 120^2 = 193^2 = 2
    f = PrimeField(313)
    r = f.sqrt(2)
    assert r in (120, 193)
    assert f.sqrt(5) is None  # 5 is a non-residue mod 313


@pytest.mark.parametrize("p", [313, 10007, P31])
def test_sqrt_roundtrip(p):
    f = PrimeField(p)
    rng = random.Random(1)
    for _ in range(50):
        x = rng.randrange(p)
        r = f.sqrt(x)
        if r is not None:
            assert r * r % p == x


def test_ring_axioms_sampled():
    f = PrimeField(P31)
    rng = random.Random(2)
    for _ in range(200):
        a, b, c = (f.random(rng) for _ in range(3))
        assert f.reduce(f.reduce(a * b) * c) == f.reduce(a * f.reduce(b * c)) \
            == f.reduce(a * b * c)
        assert f.reduce(a * f.reduce(b + c)) == f.reduce(f.reduce(a * b) + f.reduce(a * c))
        assert f.reduce(a + f.reduce(-a)) == 0
        if a:
            assert f.reduce(a * f.inv(a)) == 1


def test_random_determinism():
    f = PrimeField(P31)
    xs = [f.random(derive_rng(7, "t", i)) for i in range(10)]
    ys = [f.random(derive_rng(7, "t", i)) for i in range(10)]
    zs = [f.random(derive_rng(8, "t", i)) for i in range(10)]
    assert xs == ys
    assert xs != zs


def test_uniformity_chi_square():
    # 10^4 draws over F_7: each residue within 5 sigma of the uniform count
    f = PrimeField(7)
    rng = derive_rng(0, "chi")
    n = 10_000
    counts = [0] * 7
    for _ in range(n):
        counts[f.random(rng)] += 1
    expect = n / 7
    sigma = (n * (1 / 7) * (6 / 7)) ** 0.5
    for k in counts:
        assert abs(k - expect) <= 5 * sigma


def test_complex_ring():
    r = ComplexField()
    rng = random.Random(3)
    for _ in range(100):
        z = r.random(rng)
        assert abs(z.real) <= 1 and abs(z.imag) <= 1
    a, b, c = (r.random(rng) for _ in range(3))
    assert abs(r.reduce(r.reduce(a * b) * c) - r.reduce(a * r.reduce(b * c))) < 1e-12
    assert abs(r.reduce(a * r.inv(a)) - r.one) < 1e-12
    assert r.sqrt(-1) == 1j
    # determinism contract
    assert [ComplexField().random(derive_rng(5, i)) for i in range(4)] == \
           [ComplexField().random(derive_rng(5, i)) for i in range(4)]


@pytest.mark.parametrize("ring", [PrimeField(313), PrimeField(P31), PrimeField(INT64_TOP),
                                  PrimeField(P61), ComplexField()], ids=repr)
def test_ring_contract(ring):
    # scalar arithmetic is Python operators plus reduce, with no second form,
    # and no zero test: callers compare residues or magnitudes themselves
    assert not any(hasattr(ring, name)
                   for name in ("add", "sub", "mul", "neg", "div", "eq", "is_zero"))
    if isinstance(ring, PrimeField):
        p = ring.p
        a = ring.array([[-1, p, 2 * p + 3], [p - 1, 0, -p - 2]])
        assert a.dtype == (np.int64 if p <= INT64_SAFE_MODULUS else object)
        assert a.tolist() == [[p - 1, 0, 3], [p - 1, 0, p - 2]]
        # an entrywise product of residues reduces back to residues
        assert ring.reduce(a * a).tolist() == [[1, 0, 9], [1, 0, 4]]
        for s in (0, 1, p - 1):
            assert ring.decode(ring.encode(s)) == s
        assert ring.encode(p - 1) == str(p - 1)
        assert ring.decode(-1) == p - 1 and ring.decode(str(p + 5)) == 5
        for bad in (True, False, 2.7, 3.0, np.float64(1.0)):
            with pytest.raises(ValueError):
                ring.decode(bad)
    else:
        a = ring.array([[1, 2j], [-0.0, 3]])
        assert a.dtype == np.complex128
        assert a.tolist() == [[1, 2j], [0, 3]]
        assert ring.reduce(a) is a
        for s in (0j, 1.5 - 2j, complex(-0.0, 0.0), complex(1e300, -1e-300)):
            back = ring.decode(ring.encode(s))
            assert back == s
            assert math.copysign(1, back.real) == math.copysign(1, s.real)
        for bad in ([math.nan, 0], [0, math.inf], [-math.inf, 1], [True, 0], [0, False]):
            with pytest.raises(ValueError):
                ring.decode(bad)


# The only places outside coeffs that may decide on the field type, pick an
# object or int64 dtype or test a ring's reduce against None, with the
# reason each one stays.
RING_DECISIONS_ALLOWED = {
    # the algorithms differ: residue arithmetic and elimination against
    # numpy products, LU and singular values
    ("linalg", "matmul"), ("linalg", "det"), ("linalg", "rank"),
    ("linalg", "nullspace"), ("linalg", "solve"),
    # a count of failing pairs over F_p, a magnitude over C
    ("symmetry", "_pair_defect"),
    # input guards: the reduction runs in complex arithmetic, the triality
    # lift and the Spin7 word over F_p
    ("reduce", "reduce_to_identity"), ("symmetry", "fast_right_companion"),
    ("symmetry", "random_spin7"),
    # int64 tables that hold no field values: +-1 structure constants, signs,
    # the identity before ring.array and an index map
    ("cayley", "left_basis_matrices"), ("symmetry", "kappa"), ("linalg", "eye"),
    ("autdim", "_raise_map"),
}

# Outside coeffs and linalg (the algorithms module, whose residue arithmetic
# is the reduction itself) no code compares a dtype with int64 or object or
# reduces mod p by hand, except the polynomial ring's own arithmetic: the
# methods of these classes.
HAND_REDUCTIONS_ALLOWED = {("autdim", "SparsePoly"), ("autdim", "PolyRing")}


def _names(node: ast.AST) -> set:
    return {x.id for x in ast.walk(node) if isinstance(x, ast.Name)} | \
        {x.attr for x in ast.walk(node) if isinstance(x, ast.Attribute)}


def _is_reduce_none_test(node: ast.Compare) -> bool:
    """`x.reduce is None` or `reduce is None` (either with `is not`)."""
    left = node.left
    named = (isinstance(left, ast.Attribute) and left.attr == "reduce") or \
        (isinstance(left, ast.Name) and left.id == "reduce")
    return named and len(node.ops) == 1 and isinstance(node.ops[0], (ast.Is, ast.IsNot)) \
        and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value is None


def _is_dtype_test(node: ast.Compare) -> bool:
    """A dtype (`dtype` or `x.dtype`) compared with int64 or object."""
    sides = [node.left, *node.comparators]

    def is_dtype(x):
        return (isinstance(x, ast.Name) and x.id == "dtype") or \
            (isinstance(x, ast.Attribute) and x.attr == "dtype")

    return any(map(is_dtype, sides)) and any(
        _names(x) & {"object", "int64"} for x in sides if not is_dtype(x))


def _is_modulus(node: ast.AST) -> bool:
    """A name p or prime, or an attribute .p."""
    return (isinstance(node, ast.Name) and node.id in ("p", "prime")) or \
        (isinstance(node, ast.Attribute) and node.attr == "p")


def _ring_decisions(tree: ast.Module):
    """(kind, scope, line) of every finding; scope is the enclosing class
    and function names joined by dots.  Kind "decision": an isinstance test
    on a field class, a dtype= keyword that can select object or int64 or a
    test of a ring's reduce against None; "dtype": a dtype compared with
    int64 or object; "reduction": % or %= by a modulus (p, prime or .p) or
    a 3-argument pow with one."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Compare):
            if _is_reduce_none_test(node):
                out.append(("decision", scope, node.lineno))
            if _is_dtype_test(node):
                out.append(("dtype", scope, node.lineno))
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod)
                and _is_modulus(node.right if isinstance(node, ast.BinOp) else node.value)):
            out.append(("reduction", scope, node.lineno))
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and _names(node.args[1]) & {"PrimeField", "ComplexField"}):
                out.append(("decision", scope, node.lineno))
            if any(k.arg == "dtype" and _names(k.value) & {"object", "int64"}
                   for k in node.keywords):
                out.append(("decision", scope, node.lineno))
            if (isinstance(node.func, ast.Name) and node.func.id == "pow"
                    and len(node.args) == 3 and _is_modulus(node.args[2])):
                out.append(("reduction", scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def test_ring_decisions_stay_in_the_allowlist():
    src = Path(octjordan.__file__).parent
    found, by_hand = {}, {}
    for path in sorted(src.glob("*.py")):
        if path.stem == "coeffs":
            continue
        for kind, scope, line in _ring_decisions(ast.parse(path.read_text())):
            if kind == "decision":
                found.setdefault((path.stem, scope), []).append(line)
            elif path.stem != "linalg":
                by_hand.setdefault((kind, path.stem, scope), []).append(line)
    outside = {site: lines for site, lines in found.items()
               if site not in RING_DECISIONS_ALLOWED}
    assert not outside, f"field-type decisions outside coeffs: {outside}"
    stale = RING_DECISIONS_ALLOWED - set(found)
    assert not stale, f"allowlisted sites that no longer decide: {sorted(stale)}"
    repeated = {site: lines for site, lines in found.items() if len(lines) > 1}
    assert not repeated, f"more than one field-type decision per site: {repeated}"
    owners = {(module, scope.split(".")[0]) for _, module, scope in by_hand}
    stray = {site: lines for site, lines in by_hand.items()
             if site[0] == "dtype" or (site[1], site[2].split(".")[0])
             not in HAND_REDUCTIONS_ALLOWED}
    assert not stray, f"dtype tests or hand reductions outside coeffs and linalg: {stray}"
    assert owners == HAND_REDUCTIONS_ALLOWED, f"hand reductions only in {sorted(owners)}"


def test_ring_decision_scan_sees_each_kind_of_decision():
    code = """
def f(ring, x):
    if isinstance(ring, (PrimeField, int)):
        return np.zeros(3, dtype=np.int64 if x else object)
    return isinstance(x, coeffs.ComplexField)

def g(ring, reduce):
    if ring.reduce is None or reduce is not None:
        return ring.reduce == 0

def h(x):
    return np.array(x, dtype=np.int64), np.eye(3, dtype=np.uint8)

class K:
    def k(self, ring, x, p, dtype):
        if x.dtype is np.int64 or ring.dtype == object or dtype != np.uint8:
            x %= p
        return x % self.p, pow(x, -1, prime), pow(x, 2), x % q, (x + 1) % p
"""
    assert _ring_decisions(ast.parse(code)) == [
        ("decision", "f", 3), ("decision", "f", 4), ("decision", "f", 5),
        ("decision", "g", 8), ("decision", "g", 8), ("decision", "h", 12),
        ("dtype", "K.k", 16), ("dtype", "K.k", 16), ("reduction", "K.k", 17),
        ("reduction", "K.k", 18), ("reduction", "K.k", 18), ("reduction", "K.k", 18)]
