"""The Wall-Jupp-Zubr system of invariants of a 6-dimensional signed GKM
graph, the equivalence search between two systems, and the diffeomorphism
oracle built on top of them.

A system is (rank of H^2, the cubic form mu(x,y,z) = <xyz, [M]>, the
second Stiefel-Whitney class in H^2 tensor Z/2, and the first Pontrjagin
class viewed as a linear form on H^2). For simply-connected 6-manifolds
with vanishing odd cohomology an equivalence of systems is realized by an
orientation-preserving diffeomorphism; both hypotheses are beyond what the
graph can certify, so the oracle demands explicit assumption flags.
"""

import itertools
import operator
from math import gcd

from .charclasses import stiefel_whitney_coords
from .cohomology import CohomologyRing, FixedPointClass, GeneratorBasis, RingElement, _dot, ring_of
from .errors import MAX_BOUND, LocalizationRequiresSignedGraph, Not6Dimensional, Record, SchemaError
from .gkm import GKMGraph, find_isomorphisms
from .intlinalg import IntMatrix, gcd_of, primitive_part, saturated
from .polyring import IntPolynomial, monomials


def _check_bound(bound):
    if not (isinstance(bound, int) and not isinstance(bound, bool) and 0 <= bound <= MAX_BOUND):
        raise SchemaError("bound must be an integer in 0..%d, got %r" % (MAX_BOUND, bound))


class InvariantSystem(Record):
    # mu: rank x rank x rank nested tuples, fully symmetric; w (entries 0/1), p: length rank
    _fields = ("rank", "mu", "w", "p", "basis_label", "warnings")
    basis_label, warnings = "", ()

    def reversed_orientation(self):
        neg = tuple(
            tuple(tuple(-x for x in row) for row in plane) for plane in self.mu
        )
        return InvariantSystem(
            self.rank, neg, self.w, tuple(-x for x in self.p), self.basis_label, self.warnings
        )

    def to_json(self):
        return {
            "rank": self.rank,
            "mu": [[list(r) for r in plane] for plane in self.mu],
            "w": list(self.w),
            "p": list(self.p),
            "basis": self.basis_label,
            **({"warnings": list(self.warnings)} if self.warnings else {}),
        }

    def __eq__(self, other):
        return (
            isinstance(other, InvariantSystem)
            and (self.rank, self.mu, self.w, self.p) == (other.rank, other.mu, other.w, other.p)
        )


class Equivalence(Record):
    __slots__ = _fields = ("phi",)


class ProvablyDistinct(Record):
    __slots__ = _fields = ("reason",)


class NotFoundWithinBound(Record):
    __slots__ = _fields = ("bound",)


def invariant_system(graph: GKMGraph, gens: GeneratorBasis = None, ring: CohomologyRing = None) -> InvariantSystem:
    """Extract (H^2, mu, w2, p1) from a valid signed valence-3 graph.

    mu and p are integrals of cup products of classes of A, exact at the
    ring's integer point xi (`CohomologyRing._point`, certified once per
    ring by a connection, tested from the weights alone; NoConnection
    without one): each entry is a sum of values at xi over the fixed
    points, and each entry of mu is computed once per unordered triple. No
    total class is built: w2 is the mod-2 descent of c1 = sum_j a_j over
    the weights at each vertex, and p1 = sum_j a_j^2 is one integer per
    vertex at xi. With user generators the tensors are stated in that
    basis, otherwise in the deterministic internal one.
    """
    if graph.valence != 3:
        raise Not6Dimensional("valence %d graph; the classification applies to valence 3" % graph.valence)
    if not graph.signed:
        raise LocalizationRequiresSignedGraph("invariants need a signed graph")
    ring = ring or ring_of(graph)
    warnings = []
    for e in graph.edges:
        if primitive_part(e.weight_at_u) != e.weight_at_u:
            warnings.append(
                "weight %r on edge %s-%s is not primitive; connected isotropy is doubtful"
                % (e.weight_at_u, e.u, e.v)
            )
    r = ring.betti(2)
    if gens is not None:
        # GeneratorsDoNotSpan unless the names themselves are a basis of H^2
        units = gens.basis_monomials(2)
        basis_classes = gens.classes
        label = ",".join(gens.names)
    else:
        basis_classes = ring.ordinary(2).quotient_reps
        label = "internal"
    point = ring._point
    at_xi = [point.at(cls) for cls in basis_classes]  # they lie in A: GeneratorBasis checks its generators
    # mu is symmetric: compute each unordered triple once
    mu = [[[0] * r for _ in range(r)] for _ in range(r)]
    for a, b, c in itertools.combinations_with_replacement(range(r), 3):
        value = point.integral(x * y * z for x, y, z in zip(at_xi[a], at_xi[b], at_xi[c]))
        for i, j, l in itertools.permutations((a, b, c)):
            mu[i][j][l] = value
    mu = tuple(tuple(tuple(row) for row in plane) for plane in mu)
    c1 = [IntPolynomial.linear_form(map(sum, zip(*graph.weights_at(v)))) for v in graph.vertices]
    w_coords = stiefel_whitney_coords(ring, FixedPointClass(graph, c1), 2)
    if gens is not None:
        wpoly = gens.to_poly(RingElement(2, w_coords)).mod2()
        w = tuple(wpoly.coefficient(m) for m in units)
    else:
        w = tuple(w_coords)
    # the connection puts p1 in A
    pont_at_xi = [sum(_dot(w, point.xi) ** 2 for w in graph.weights_at(v)) for v in graph.vertices]
    p = tuple(point.integral(map(operator.mul, pont_at_xi, at_xi[a])) for a in range(r))
    return InvariantSystem(r, mu, w, p, label, tuple(warnings))


def _is_equivalence(phi: IntMatrix, s1: InvariantSystem, s2: InvariantSystem) -> bool:
    r = s1.rank
    if s2.rank != r or phi.rows != r or phi.cols != r or not phi.is_unimodular():
        return False
    for i in range(r):
        if _dot(phi.row(i), s1.w) % 2 != s2.w[i] % 2:
            return False
    cols = [phi.column(a) for a in range(r)]
    for a in range(r):
        if _dot(s2.p, cols[a]) != s1.p[a]:
            return False
    for a in range(r):
        for b in range(r):
            q = _covector(s2.mu, cols[a], cols[b])
            if any(_dot(q, cols[c]) != s1.mu[a][b][c] for c in range(r)):
                return False
    return True


def _cubic_zeros_mod2(s: InvariantSystem):
    """The number of x in (Z/2)^rank with mu(x,x,x) even: with the rank, the
    GL(r,Z)-invariant multiset of the cubic's mod-2 values. Mod 2 the cubic
    is the quadratic form sum_i mu_iii x_i + sum_{i<j} (mu_iij + mu_ijj)
    x_i x_j, and each hyperbolic pair split off (Dickson) leaves a form R in
    two fewer variables, with Z(x_i x_j + R) = 2 Z(R) + 2^(n-2)."""
    r, mu = s.rank, s.mu
    lin = sum((mu[i][i][i] & 1) << i for i in range(r))  # bitmasks over the variables
    adj = [sum(((mu[i][i][k] + mu[i][k][k]) & 1) << k for k in range(r) if k != i) for i in range(r)]
    const, n, scale, extra = 0, r, 1, 0
    for i in range(r):
        if adj[i]:  # x_i x_j + x_i A + x_j B + C = (x_i + B)(x_j + A) + AB + C
            j = adj[i].bit_length() - 1
            pair = 1 << i | 1 << j
            am, bm, adj[i], adj[j] = adj[i] & ~pair, adj[j] & ~pair, 0, 0
            const ^= lin >> i & lin >> j & 1
            lin = (lin & ~pair) ^ (bm if lin >> i & 1 else 0) ^ (am if lin >> j & 1 else 0) ^ (am & bm)
            for k in range(r):
                adj[k] = (adj[k] & ~pair) ^ (bm if am >> k & 1 else 0) ^ (am if bm >> k & 1 else 0)
            n, extra, scale = n - 2, extra + (scale << n - 2), 2 * scale
    return scale * ((1 << n - 1) if lin else (1 - const) << n) + extra  # the rest is affine


def _flatten_mu(s):
    return [x for plane in s.mu for row in plane for x in row]


def _covector(mu, x, y):
    """mu(x, y, .) as a vector, summed by rows: mu is symmetric, so entry l
    is sum_i x_i * (mu[l][i] . y)."""
    return tuple(sum(a * _dot(row, y) for a, row in zip(x, plane) if a) for plane in mu)


def _candidate_columns(s1, s2, bound):
    """For each a, the vectors v in [-bound, bound]^rank that can be column
    a of Phi, i.e. p2.v = p1[a] and mu2(v,v,v) = mu1[a][a][a]. They come in
    increasing max-norm, then 1-norm, then lexicographic order, so that
    small witnesses such as +-I come first; columns with equal (p1, mu1)
    share one list.

    Only the box points of the planes p2.v = p1[a] are visited. j carries
    the largest |p2_j| and l is another coordinate: the other entries run
    over the box, and (v_l, v_j) walks the line p2_l*v_l + p2_j*v_j = rest,
    v_l from its least value in the box in steps of |p2_j| / gcd(p2_l, p2_j),
    clipped to the box in v_j. With p2 = 0 the walk runs along v_j alone,
    and at rank 1 it is one point. On the line v0 + t*d the cubic is
    A + 3Bt + 3Ct^2 + Dt^3, with A = mu2(v0,v0,v0), B = mu2(v0,v0,d),
    C = mu2(v0,d,d) and D = mu2(d,d,d), stepped by forward differences."""
    r, p, mu, b = s1.rank, s2.p, s2.mu, bound
    wanted = {}
    for a in range(r):
        wanted.setdefault(s1.p[a], {}).setdefault(s1.mu[a][a][a], []).append(a)
    out = [None] * r
    if not r:
        return out
    j = max(range(r), key=lambda i: abs(p[i]))
    l = next((i for i in range(r) if i != j), None) if p[j] else None
    pl = p[l] if l is not None else 0
    g = gcd(pl, p[j])
    m = abs(p[j]) // g if g else 1
    inv = pow(pl // g, -1, m) if g else 0
    d = [0] * r
    if l is not None:
        d[l], d[j] = m, -pl * m // p[j]
    elif not g:
        d[j] = 1
    free = [i for i in range(r) if i != j and i != l]
    dd = _covector(mu, d, d)
    D = _dot(dd, d)
    for c, cubes in wanted.items():
        found = {cube: [] for cube in cubes}
        for u in itertools.product(range(-b, b + 1), repeat=len(free)) if g or not c else ():  # p2 = 0: c = 0 only
            v0 = [0] * r
            for i, x in zip(free, u):
                v0[i] = x
            rest = c - _dot(p, v0)
            lo, hi, y = 0, 2 * b, -b  # p2 = 0: v_j walks the whole box
            if g:
                if rest % g:
                    continue
                x = hi = 0  # rank 1: one point
                if l is not None:
                    x = v0[l] = -b + (rest // g * inv + b) % m
                    hi = (b - x) // m
                y, k = (rest - pl * x) // p[j], abs(d[j])
                if k:  # -b <= v_j + t*d_j <= b
                    z = y if d[j] > 0 else -y
                    lo, hi = max(0, -((b + z) // k)), min(hi, (b - z) // k)
                elif abs(y) > b:
                    continue
            v0[j] = y
            v0 = [x + lo * e for x, e in zip(v0, d)]
            q, C = _covector(mu, v0, v0), _dot(dd, v0)
            # f(t) and its forward differences at t = 0; the third is 6D
            f, df, d2f = _dot(q, v0), 3 * _dot(q, d) + 3 * C + D, 6 * (C + D)
            for t in range(hi - lo + 1):
                column = found.get(f)
                if column is not None:
                    column.append(tuple(map(operator.add, v0, map(t.__mul__, d))))
                f, df, d2f = f + df, df + d2f, d2f + 6 * D
        for cube, column in found.items():
            column.sort(key=lambda v: (max(map(abs, v)), sum(map(abs, v)), v))
            for a in cubes[cube]:
                out[a] = column
    return out


def _extend(s1, s2, candidates, order, placed):
    """Depth-first search for Phi extending `placed`, a list of (a, column
    a) pairs, with the columns in `order`.

    Column k is kept only if mu2(col_a, col_b, col_k) = mu1[a][b][k] for
    all a, b among the placed columns and k, and the columns stay
    saturated; every complete Phi is tested with _is_equivalence. Returns
    Phi or None.
    """
    if len(placed) == s1.rank:
        phi = IntMatrix.from_columns(v for _, v in sorted(placed))
        return phi if _is_equivalence(phi, s1, s2) else None
    k = order[len(placed)]
    linear = [
        (_covector(s2.mu, x, y), s1.mu[a][b][k])
        for i, (b, y) in enumerate(placed)
        for a, x in placed[: i + 1]
    ]
    quadratic = [(x, s1.mu[k][k][a]) for a, x in placed]
    for v in candidates[k]:
        if not all(_dot(u, v) == t for u, t in linear):
            continue
        q = _covector(s2.mu, v, v) if quadratic else ()  # mu2(v,v,.) only past the linear checks
        if all(_dot(q, x) == t for x, t in quadratic) and saturated([x for _, x in placed] + [v]):
            phi = _extend(s1, s2, candidates, order, placed + [(k, v)])
            if phi is not None:
                return phi
    return None


def are_equivalent(s1: InvariantSystem, s2: InvariantSystem, bound: int = 10):
    """Decide equivalence of two systems of invariants.

    GL(r,Z)-invariants that differ prove the systems distinct: the rank,
    the gcds of the mu and p entries, whether w2 vanishes, and the number
    of x mod 2 with mu(x,x,x) even (counted in O(r^3), not at 2^r points).
    Otherwise a search over all matrices with entries bounded by `bound`,
    built one column at a time from `_candidate_columns`, which visits only
    the box points of the planes p2.v = p1[a], and pruned by conditions
    every equivalence meets, either finds a witness or reports an honest
    inconclusive. `bound` is an int in 0..MAX_BOUND (SchemaError otherwise).
    """
    _check_bound(bound)
    if s1.rank != s2.rank:
        return ProvablyDistinct("rank (%d vs %d)" % (s1.rank, s2.rank))
    if gcd_of(_flatten_mu(s1)) != gcd_of(_flatten_mu(s2)):
        return ProvablyDistinct(
            "gcd of mu entries (%d vs %d)" % (gcd_of(_flatten_mu(s1)), gcd_of(_flatten_mu(s2)))
        )
    if gcd_of(s1.p) != gcd_of(s2.p):
        return ProvablyDistinct("gcd of p entries (%d vs %d)" % (gcd_of(s1.p), gcd_of(s2.p)))
    if (any(s1.w) and not any(s2.w)) or (any(s2.w) and not any(s1.w)):
        return ProvablyDistinct("vanishing of w2")
    if _cubic_zeros_mod2(s1) != _cubic_zeros_mod2(s2):
        return ProvablyDistinct("mod-2 value multiset of the cubic form")
    candidates = _candidate_columns(s1, s2, bound)
    # placing the columns with the fewest candidates first keeps the tree narrow
    order = sorted(range(s1.rank), key=lambda a: len(candidates[a]))
    phi = _extend(s1, s2, candidates, order, [])
    return NotFoundWithinBound(bound) if phi is None else Equivalence(phi)


class DiffeoVerdict(Record):
    # status: "diffeomorphic" | "provably_distinct" | "inconclusive"
    _fields = ("status", "assumptions", "reason", "graph_iso", "phi", "reversed_orientation_note", "systems")
    reason, graph_iso, phi, reversed_orientation_note, systems = "", None, None, "", ()


def phi_from_graph_iso(g1, g2, iso):
    """The equivalence of invariant systems a signed graph isomorphism
    induces: carry each degree-2 basis class of g1 onto g2 through (phi,
    psi) and express it in g2's basis; those coordinates are the columns
    of Phi."""
    ring2 = ring_of(g2)
    preimage = {w: v for v, w in iso.mapping().items()}
    units = monomials(g1.torus_rank, 2)
    cols = []
    for cls in ring_of(g1).ordinary(2).quotient_reps:
        # psi carries the linear form with coefficient vector c to psi*c
        comps = [IntPolynomial.linear_form(iso.psi.apply(map(cls.component(preimage[u]).coefficient, units)))
                 for u in g2.vertices]
        cols.append(ring2.express(FixedPointClass(g2, comps), 2).coords)
    return Equivalence(IntMatrix.from_columns(cols))


def diffeo_verdict(
    g1: GKMGraph,
    g2: GKMGraph,
    assume_simply_connected: bool,
    assume_h_odd_zero: bool,
    bound: int = 10,
) -> DiffeoVerdict:
    """Three-valued diffeomorphism oracle for two signed valence-3 graphs.

    A signed graph isomorphism (none exists across tori of different rank)
    is the stronger witness and yields an exact equivalence of systems;
    otherwise one bounded search decides, and it also gives the note on the
    reversed orientation. Without both assumption flags the classification
    theorem does not apply and the verdict is inconclusive. `bound` is
    checked as in are_equivalent.
    """
    _check_bound(bound)
    for g in (g1, g2):
        if g.valence != 3:
            raise Not6Dimensional("valence %d graph" % g.valence)
        g.require_valid()
    missing = []
    if not assume_simply_connected:
        missing.append("--assume-simply-connected")
    if not assume_h_odd_zero:
        missing.append("--assume-h-odd-zero")
    if missing:
        return DiffeoVerdict(
            "inconclusive",
            (),
            reason=(
                "the classification theorem needs simple connectedness and "
                "vanishing odd cohomology, which a graph cannot certify; "
                "missing %s" % ", ".join(missing)
            ),
        )
    s1 = invariant_system(g1)
    s2 = invariant_system(g2)
    isos = find_isomorphisms(g1, g2, signed=True, least=True) if g1.torus_rank == g2.torus_rank else []
    # Phi carries s2 to s1 exactly when -Phi, of the same entry bound, carries
    # the reversed s2 to s1 (mu is cubic, p linear, w read mod 2), and every
    # invariant are_equivalent checks is blind to negating mu and p: so one
    # search gives the verdict and the note, with the same outcome and reason.
    reversible = s2.reversed_orientation() != s2
    outcome = are_equivalent(s1, s2, bound) if reversible or not isos else None
    note = ""
    if reversible:
        if isinstance(outcome, Equivalence):
            note = "systems also equivalent after reversing the second orientation"
        elif isinstance(outcome, ProvablyDistinct):
            note = "orientation-reversed systems provably distinct (%s)" % outcome.reason
        else:
            note = "orientation-reversed comparison inconclusive within bound %d" % bound
    phi = None
    if isos:
        phi = phi_from_graph_iso(g1, g2, isos[0]).phi
        if not _is_equivalence(phi, s1, s2):
            raise AssertionError("transported basis failed to verify the equivalence equations")
        status = "diffeomorphic"
        reason = "signed GKM graphs are isomorphic (strong witness); induced equivalence verified"
    elif isinstance(outcome, Equivalence):
        status, phi = "diffeomorphic", outcome.phi
        reason = "systems of invariants are equivalent"
    elif isinstance(outcome, ProvablyDistinct):
        status = "provably_distinct"
        reason = "systems differ in a GL(r,Z) invariant: %s" % outcome.reason
    else:
        status = "inconclusive"
        reason = "no equivalence found with entries bounded by %d; this does not prove distinctness" % bound
    return DiffeoVerdict(status, ("simply-connected", "h-odd-zero"), reason=reason,
                         graph_iso=isos[0] if isos else None, phi=phi,
                         reversed_orientation_note=note, systems=(s1, s2))
