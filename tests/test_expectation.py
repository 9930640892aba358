import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isrlab.algebra import (
    AlgebraElement,
    GaussianRational,
    ad,
    inner_product,
    norm_sq,
    trace,
    unit,
)
from isrlab import zoo
from isrlab.errors import FamilyMismatch, HypothesisViolated, WindowNotNormalized
from isrlab.expectation import (
    SubalgebraSpec,
    _Span,
    check_E_properties,
    check_ES_subset_S,
    character_of,
    conditional_expectation,
    load_spec,
    spec_from_dict,
    spec_to_dict,
    verify_closure,
    verify_invariance,
)
from isrlab.f2 import F2Matrix, F2Vector
from isrlab.groups import (
    Affine,
    Lamplighter,
    Wreath,
    conjugate,
    enumerate_group,
    gl_elements,
    inverse,
    transposition,
)
from isrlab.projections import half_projection


def scalar_spec(family="wreath"):
    ident = Wreath.identity() if family == "wreath" else Affine.identity()
    return SubalgebraSpec("scalars", [unit(ident)], [ident])


def vector_spec(n=2):
    """L(F2^n) inside the affine family."""
    basis = [unit(Affine.vector(F2Vector(b))) for b in range(1 << n)]
    return SubalgebraSpec("vectors", basis, [b.support().pop() for b in basis])


class TestProjection:
    def test_onto_scalars(self):
        spec = scalar_spec()
        g = Wreath.perm(transposition(0, 1))
        rep = conditional_expectation(unit(g), spec)
        assert rep.output.is_zero()
        assert rep.residual_norm_sq == 1
        assert conditional_expectation(unit(Wreath.identity()), spec).output == unit(
            Wreath.identity()
        )

    def test_onto_vectors(self):
        spec = vector_spec()
        v = Affine.vector(F2Vector.basis(1))
        assert spec.project(unit(v)) == unit(v)
        from isrlab.f2 import F2Matrix

        s = Affine(F2Matrix.from_lists([[0, 1], [1, 0]]), F2Vector.basis(1))
        assert spec.project(unit(s)).is_zero()

    def test_idempotent_and_orthogonal(self):
        spec = vector_spec()
        rng = random.Random(4)
        pool = enumerate_group("affine", 2)
        for _ in range(20):
            x = AlgebraElement(
                {
                    pool[rng.randrange(len(pool))]: Fraction(rng.randrange(-3, 4), 2)
                    for _ in range(4)
                }
            )
            e = spec.project(x)
            assert spec.project(e) == e
            for b in spec.basis:
                assert inner_product(b, x - e) == 0
            assert trace(e) == trace(x)

    def test_minimality(self):
        spec = vector_spec()
        x = unit(Affine(Affine.identity().g, F2Vector(0)))
        rng = random.Random(5)
        pool = enumerate_group("affine", 2)
        x = unit(pool[17])
        rep = conditional_expectation(x, spec)
        for _ in range(100):
            y = AlgebraElement(
                {
                    Affine.vector(F2Vector(rng.randrange(4))): Fraction(
                        rng.randrange(-2, 3), rng.choice([1, 2])
                    )
                    for _ in range(3)
                }
            )
            assert rep.residual_norm_sq <= norm_sq(x - y)

    def test_dependent_basis(self):
        # redundant spanning set projects identically
        v = Affine.vector(F2Vector.basis(1))
        b1 = unit(Affine.identity()) + unit(v)
        b2 = unit(Affine.identity()) - unit(v)
        dep = SubalgebraSpec(
            "dep", [b1, b2, b1 + b2], [Affine.identity(), v]
        )
        ref = SubalgebraSpec("ref", [b1, b2], [Affine.identity(), v])
        from isrlab.f2 import F2Matrix

        x = unit(v) + unit(Affine.matrix(F2Matrix.from_lists([[0, 1], [1, 0]])))
        assert dep.project(x) == ref.project(x)

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatch):
            scalar_spec().project(unit(Affine.identity()))

    def test_lamplighter_modulus_mismatch(self):
        window = enumerate_group("lamplighter", 4)
        spec = SubalgebraSpec("lamps", [unit(g) for g in window], window)
        other = unit(Lamplighter(5, 1, 0))
        with pytest.raises(FamilyMismatch):
            spec.project(other)
        with pytest.raises(FamilyMismatch):
            spec.contains(other)
        with pytest.raises(FamilyMismatch):
            SubalgebraSpec("two moduli", [unit(window[1]), other], window)

    def test_mixed_window(self):
        # the window is one group: each element is checked against the
        # basis family, before any check conjugates it
        lamp = Lamplighter.identity(4)
        with pytest.raises(FamilyMismatch):
            SubalgebraSpec("x", [unit(lamp)], [lamp, Lamplighter(5, 1, 0), Affine.identity()])
        for stray in (Lamplighter(5, 1, 0), Affine.identity()):
            with pytest.raises(FamilyMismatch):
                SubalgebraSpec("x", [unit(lamp)], [lamp, stray])

    @pytest.mark.parametrize("family,n", [("affine", 2), ("wreath", 2), ("lamplighter", 3),
                                          ("cantor", 1)])
    def test_window_without_the_identity(self, family, n):
        # the identity is looked up in the window by the basis group's own
        # identity, read after the family check
        window = enumerate_group(family, n)
        rest = [g for g in window if not g.is_identity()]
        assert len(rest) == len(window) - 1
        with pytest.raises(ValueError, match="^window must contain the identity$"):
            SubalgebraSpec("x", [unit(rest[0])], rest)
        assert SubalgebraSpec("x", [unit(rest[0])], window).window == frozenset(window)


# ---------------------------------------------------------------------------
# projection laws on random specs, against an exact dense solve of the Gram
# system (an oracle that shares no code with the Gram–Schmidt in the library)

AFFINE2 = enumerate_group("affine", 2)
GAUSSIAN = st.builds(
    lambda re, im, d: GaussianRational(Fraction(re, d), Fraction(im, d)),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(1, 3),
).filter(lambda c: not c.is_zero())


def _element(draw, region):
    gs = draw(st.lists(st.sampled_from(region), min_size=1, max_size=3, unique=True))
    return AlgebraElement({g: draw(GAUSSIAN) for g in gs})


@st.composite
def affine_specs(draw):
    """A basis list over affine n=2 with a zero vector, a dependent vector,
    a non-real coefficient and two disjoint support regions; plus two
    elements x, y of the whole group."""
    pool = draw(st.permutations(AFFINE2))
    cut = draw(st.integers(1, 6))
    regions = (pool[:cut], pool[cut : 2 * cut])
    basis = [_element(draw, regions[0]), _element(draw, regions[1])]
    for _ in range(draw(st.integers(0, 3))):
        basis.append(_element(draw, draw(st.sampled_from(regions))))
    nonreal = GaussianRational(draw(st.integers(-2, 2)), draw(st.sampled_from([-1, 1, 2])))
    basis.append(unit(regions[0][0]).scale(nonreal))
    i, j = draw(st.lists(st.integers(0, len(basis) - 1), min_size=2, max_size=2))
    basis.append(basis[i].scale(draw(GAUSSIAN)) + basis[j].scale(draw(GAUSSIAN)))
    basis.insert(draw(st.integers(0, len(basis))), AlgebraElement({}))
    return basis, _element(draw, AFFINE2), _element(draw, AFFINE2)


def _dot(u, v):
    return sum(
        (c.conjugate() * v.coefficient(g) for g, c in u.terms.items()),
        GaussianRational(),
    )


def gram_projection(basis, x):
    """Σ λ_j b_j for a solution λ of G·λ = (⟨b_i, x⟩)_i, G_ij = ⟨b_i, b_j⟩,
    by Gauss–Jordan elimination; free unknowns of a singular G are 0."""
    k = len(basis)
    rows = [[_dot(bi, bj) for bj in basis] + [_dot(bi, x)] for bi in basis]
    pivots = []
    for col in range(k):
        r = len(pivots)
        piv = next((i for i in range(r, k) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        rows[r] = [c / p for c in rows[r]]
        for i in range(k):
            f = rows[i][col]
            if i != r and not f.is_zero():
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    lam = [GaussianRational()] * k
    for row, col in zip(rows, pivots):
        lam[col] = row[k]
    return AlgebraElement(
        {g: sum((l * b.coefficient(g) for l, b in zip(lam, basis)), GaussianRational()) for g in AFFINE2}
    )


def random_spec(basis):
    return SubalgebraSpec("random", basis, AFFINE2)


class TestProjectionOracle:
    @given(affine_specs())
    @settings(max_examples=60, deadline=None)
    def test_matches_gram_solve(self, case):
        basis, x, y = case
        spec = random_spec(basis)
        assert spec.project(x) == gram_projection(basis, x)
        assert spec.project(y) == gram_projection(basis, y)

    @given(affine_specs())
    @settings(max_examples=60, deadline=None)
    def test_laws(self, case):
        basis, x, y = case
        spec = random_spec(basis)
        ex, ey = spec.project(x), spec.project(y)
        assert spec.project(ex) == ex  # idempotent
        assert inner_product(ex, y) == inner_product(x, ey)  # self-adjoint
        for b in basis:
            assert inner_product(b, x - ex) == 0  # residual ⟂ span

    @given(affine_specs())
    @settings(max_examples=60, deadline=None)
    def test_membership(self, case):
        basis, x, y = case
        spec = random_spec(basis)
        for z in (x, spec.project(x), basis[-1] - spec.project(y)):
            assert spec.contains(z) == (gram_projection(basis, z) == z)

    @given(affine_specs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_trace_preserved_on_unital_spans(self, case, data):
        # 1 enters the span only through a combination: b_j and c·1 + b_j
        basis, x, y = case
        one = unit(Affine.identity())
        hidden = one.scale(data.draw(GAUSSIAN)) + data.draw(st.sampled_from(basis))
        basis.insert(data.draw(st.integers(0, len(basis))), hidden)
        spec = random_spec(basis)
        assert spec.contains(one)
        for z in (x, y, x.scale(data.draw(GAUSSIAN)) + y):
            assert trace(spec.project(z)) == trace(z)

    @given(affine_specs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_es_subset_s_membership(self, case, data):
        # S = span{y} with supp(y) off supp(A)^{-1}, so τ vanishes on S·A
        basis, _, _ = case
        spec = random_spec(basis)
        inverses = {inverse(g) for b in basis for g in b.support()}
        y = _element(data.draw, [g for g in AFFINE2 if g not in inverses])
        expected = SubalgebraSpec("S", [y], AFFINE2).contains(spec.project(y))
        assert check_ES_subset_S(spec, basis, [AlgebraElement({}), y]) == expected


class TestInvariance:
    def test_scalars_invariant(self):
        spec = scalar_spec()
        assert verify_invariance(spec, [Wreath.identity()])

    def test_window_not_normalized(self):
        spec = scalar_spec("affine")
        t = Affine.vector(F2Vector.basis(1))
        # conjugation by t fixes the identity window, so pick a window
        # that actually moves: basis u_{e1} with window {e, e1}
        v = Affine.vector(F2Vector.basis(1))
        spec2 = SubalgebraSpec("v", [unit(v)], [Affine.identity(), v])
        from isrlab.f2 import F2Matrix

        rot = Affine.matrix(F2Matrix.from_lists([[0, 1], [1, 0]]))
        with pytest.raises(WindowNotNormalized):
            verify_invariance(spec2, [rot])

    def test_conjugator_of_another_family(self):
        with pytest.raises(FamilyMismatch):
            verify_invariance(scalar_spec("affine"), [Wreath.identity()])
        window = enumerate_group("lamplighter", 4)
        spec = SubalgebraSpec("lamps", [unit(g) for g in window], window)
        with pytest.raises(FamilyMismatch):
            verify_invariance(spec, [Lamplighter.shift(5)])

    def test_non_invariant_span(self):
        s = Wreath.perm(transposition(0, 1))
        window = enumerate_group("wreath", 2)
        spec = SubalgebraSpec("just-s", [unit(s)], window)
        z1 = Wreath.vector(F2Vector.basis(1))
        assert not verify_invariance(spec, [z1])

    def test_vectors_invariant(self):
        spec = vector_spec()
        conj = [Affine.vector(F2Vector(b)) for b in range(4)]
        # vectors normalize themselves; GL part moves u_v to u_{g(v)}
        assert verify_invariance(spec, conj)


class TestClosure:
    def test_scalars(self):
        assert verify_closure(scalar_spec())

    def test_missing_identity_power(self):
        s = Wreath.perm(transposition(0, 1))
        spec = SubalgebraSpec("just-s", [unit(s)], [Wreath.identity(), s])
        assert not verify_closure(spec)

    def test_vectors_closed(self):
        assert verify_closure(vector_spec())

    def test_star_closure_is_checked(self):
        # e = p + p·u_g·(1 − p) is an idempotent that is not self-adjoint,
        # so span{1, e} is closed under products but not under *
        window = enumerate_group("wreath", 2)
        one = unit(Wreath.identity())
        p = half_projection(Wreath.vector(F2Vector.basis(1)), 1)
        e = p + p * unit(Wreath.perm(transposition(0, 1))) * (one - p)
        assert e * e == e and e.adjoint() != e
        spec = SubalgebraSpec("idempotent", [one, e], window)
        assert all(spec.contains(a * b) for a in (one, e) for b in (one, e))
        assert not spec.contains(e.adjoint())
        assert not verify_closure(spec)



def closure_over_basis(spec):
    """verify_closure's test run over every adjoint and pair product of
    the whole basis."""

    def inside(x):
        return x.support() <= spec.window and spec.contains(x)

    basis = spec.basis
    return all(inside(b.adjoint()) for b in basis) and all(
        inside(a * b) for a in basis for b in basis
    )


def invariance_over_basis(spec, conjugators):
    """verify_invariance's test run over the whole basis."""
    return all(spec.contains(ad(c, b)) for c in conjugators for b in spec.basis)


def affine_conjugators(n):
    return [Affine.matrix(g) for g in gl_elements(n)] + [
        Affine.vector(F2Vector(b)) for b in range(1 << n)
    ]


def lamplighter_specs(m=4):
    """The lamplighter suite's spans: Y ∪ u_{s^k}·Y for its three Y."""
    window = enumerate_group("lamplighter", m)
    orbit_sums = []
    for orbit in zoo._shift_orbits(m):
        acc = AlgebraElement({})
        for x in orbit:
            acc = acc + zoo._lamp_cylinder(m, x)
        orbit_sums.append(acc)
    ys = [
        [unit(Lamplighter.identity(m))],
        [unit(Lamplighter(m, bits, 0)) for bits in range(1 << m)],
        orbit_sums,
    ]
    return [
        SubalgebraSpec(
            f"lamp:{i},k={k}",
            [unit(Lamplighter.shift(m, k * t)) * y for t in range(m // k) for y in y_basis],
            window,
        )
        for i, y_basis in enumerate(ys)
        for k in (1, 2, 4)
    ]


def without_matrix(spec, g):
    """spec less every basis vector supported on the coset of g."""
    basis = [b for b in spec.basis if next(iter(b.ints)).rows != g.rows]
    return SubalgebraSpec(spec.label + "-broken", basis, spec.window)


class TestPivotChecks:
    """Closure and invariance run over the span's pivots; by bilinearity
    that is the same verdict as over the whole basis."""

    def test_pivots_are_a_basis_of_the_span(self):
        for spec in [zoo.build_mexo(2), zoo.build_mq(3), zoo.build_mpart(3)]:
            span = spec._orthogonal_basis()
            assert len(span.pivots) == len(span) < len(spec.basis)
            again = _Span(span.pivots)
            assert len(again) == len(span)
            assert all(again.contains(b) for b in spec.basis)

    def test_closure_matches_the_whole_basis(self):
        specs = [
            zoo.build_mexo(2), zoo.build_mq(3, 1), zoo.build_mq(3, -1), zoo.build_mpart(3)
        ] + lamplighter_specs()
        for spec in specs:
            assert verify_closure(spec) == closure_over_basis(spec), spec.label

    def test_invariance_matches_the_whole_basis(self):
        wreath = enumerate_group("wreath", 3)
        cases = [
            (zoo.build_mexo(2), affine_conjugators(2)),
            (zoo.build_mq(3, 1), wreath),
            (zoo.build_mq(3, -1), wreath),
            (zoo.build_mpart(3), wreath),
        ] + [
            (spec, [c])
            for spec in lamplighter_specs()
            for c in (Lamplighter.shift(4, 1), Lamplighter.lamp(4, 0))
        ]
        verdicts = []
        for spec, conj in cases:
            verdict = verify_invariance(spec, conj)
            assert verdict == invariance_over_basis(spec, conj), spec.label
            verdicts.append(verdict)
        # some lamplighter spans are not lamp-invariant
        assert True in verdicts and False in verdicts

    def test_broken_mexo_fails_both_ways(self):
        spec = without_matrix(zoo.build_mexo(2), F2Matrix.swap(1, 2))
        conj = affine_conjugators(2)
        assert not verify_closure(spec) and not closure_over_basis(spec)
        assert not verify_invariance(spec, conj) and not invariance_over_basis(spec, conj)

    def test_broken_mq_fails_both_ways(self):
        # basis[1] is u_v for v = e1: no other vector meets the identity
        # coset there, yet u_{e2} u_{e1+e2} = u_{e1}
        full = zoo.build_mq(3)
        spec = SubalgebraSpec("mq-broken", full.basis[:1] + full.basis[2:], full.window)
        assert len(spec._orthogonal_basis()) == len(full._orthogonal_basis()) - 1
        assert not verify_closure(spec) and not closure_over_basis(spec)

    def test_broken_mexo3_fails(self):
        # 332 pivots against 1,336 basis vectors: only the pivot form runs
        spec = without_matrix(zoo.build_mexo(3), gl_elements(3)[1])
        assert not verify_closure(spec)


# (builder, len(spec.basis), its exact-distinct count) on the project
# workload's specs; spec._distinct further drops the sign twins of mq:4−
REPEATING_SPECS = [
    (lambda: zoo.MODELS["mexo"].build(3), 1344, 336),
    (lambda: zoo.MODELS["mq"].build(4, sign=1), 384, 65),
    (lambda: zoo.MODELS["mq"].build(4, sign=-1), 384, 114),
    (lambda: zoo.MODELS["mpart"].build(4), 73, 73),
]


class TestRepeatsSkipped:
    """The spec orthogonalizes only the vectors distinct up to sign; a
    repeat or a negated repeat lies in the span already, so the
    Gram–Schmidt over the whole basis (kept here as the reference) ends
    the same."""

    @pytest.mark.parametrize("build,size,distinct", REPEATING_SPECS)
    def test_same_span_as_the_whole_basis(self, build, size, distinct):
        spec = build()
        span, whole = spec._orthogonal_basis(), _Span(spec.basis)
        assert span.ids == whole.ids
        assert span.rows == whole.rows
        assert span.index == whole.index
        assert len(span.pivots) == len(whole.pivots)
        assert all(a is b for a, b in zip(span.pivots, whole.pivots))

    @pytest.mark.parametrize("build,size,distinct", REPEATING_SPECS)
    def test_basis_keeps_its_repeats(self, build, size, distinct):
        spec = build()
        assert len(spec.basis) == size
        assert len(set(spec.basis)) == distinct
        kept = set(spec._distinct)
        assert len(kept) == len(spec._distinct)
        assert kept <= set(spec.basis) <= kept | {-b for b in kept}
        assert not any(-b in kept for b in kept)

    def test_equal_vectors_are_one_whatever_their_object(self):
        v = Affine.vector(F2Vector.basis(1))
        b = unit(Affine.identity()) + unit(v)
        spec = SubalgebraSpec("twice", [b, unit(v) + unit(Affine.identity()), -b],
                              [Affine.identity(), v])
        # equal (den, ints) is one vector, and so is its negation −b
        assert spec._distinct == (b,)
        assert len(spec._orthogonal_basis()) == 1

    def test_checks_still_raise_past_repeats(self):
        v = Affine.vector(F2Vector.basis(1))
        b = unit(v)
        window = [Affine.identity(), v]
        with pytest.raises(FamilyMismatch):
            SubalgebraSpec("mixed", [b, b, unit(Wreath.identity())], window)
        with pytest.raises(ValueError, match="escapes the window"):
            SubalgebraSpec("wide", [b, b, unit(Affine.vector(F2Vector.basis(2)))], window)


class TestEProperties:
    def test_scalars(self):
        samples = enumerate_group("wreath", 2)
        assert check_E_properties(scalar_spec(), samples)

    def test_vector_subalgebra(self):
        samples = enumerate_group("affine", 2)
        assert check_E_properties(vector_spec(), samples)

    def test_equivariance_can_fail_alone(self):
        # ⟨swap⟩ is a subgroup that is not normal: the expectation onto its
        # group algebra keeps laws (1), (3) and (5) but is not equivariant
        window = enumerate_group("affine", 2)
        swap = Affine.matrix(F2Matrix.swap(1, 2))
        spec = SubalgebraSpec("swap", [unit(Affine.identity()), unit(swap)], window)
        assert any(
            ad(s, spec.expect_unit(g)) != spec.expect_unit(conjugate(s, g))
            for s in window
            for g in window
        )
        assert not check_E_properties(spec, window)


class TestESSubsetS:
    def test_zero_s(self):
        spec = vector_spec()
        a = [unit(Affine.vector(F2Vector(b))) for b in range(4)]
        assert check_ES_subset_S(spec, a, [AlgebraElement({})] or [])

    def test_coset_instance(self):
        # S = (12)-coset of the vector algebra, A = the vector algebra:
        # E kills S termwise, so E(S) ⊆ S
        from isrlab.f2 import F2Matrix

        spec = vector_spec()
        swap = F2Matrix.from_lists([[0, 1], [1, 0]])
        a = [unit(Affine.vector(F2Vector(b))) for b in range(4)]
        s = [unit(Affine(swap, F2Vector(b))) for b in range(4)]
        assert check_ES_subset_S(spec, a, s)

    def test_trace_hypothesis_fails(self):
        spec = vector_spec()
        a = [unit(Affine.vector(F2Vector(b))) for b in range(4)]
        s = [unit(Affine.identity())]  # τ(1·1) = 1 ≠ 0
        with pytest.raises(HypothesisViolated):
            check_ES_subset_S(spec, a, s)


class TestUnitMemo:
    def test_wrong_family_after_a_zero_image(self):
        window = enumerate_group("lamplighter", 4)
        lamps = SubalgebraSpec("scalars", [unit(Lamplighter.identity(4))], window)
        assert lamps.expect_unit(Lamplighter(4, 1, 0)).is_zero()
        affine = vector_spec()
        swap = Affine.matrix(F2Matrix.from_lists([[0, 1], [1, 0]]))
        assert affine.expect_unit(swap).is_zero()
        # Wreath.identity() hashes as Affine.identity(), which the span holds
        for spec, stray in ((lamps, Lamplighter(5, 1, 0)), (lamps, Wreath.identity()),
                            (affine, Wreath.identity()), (affine, Lamplighter(4, 1, 0))):
            for _ in range(2):
                with pytest.raises(FamilyMismatch):
                    spec.expect_unit(stray)

    def test_one_projection_per_row(self, monkeypatch):
        spec = zoo.build_mexo(3)
        calls = []
        project = _Span.project
        monkeypatch.setattr(_Span, "project", lambda self, x: calls.append(1) or project(self, x))
        window = sorted(spec.window, key=lambda g: g.sort_key())
        for _ in range(2):
            for g in window:
                spec.expect_unit(g)
            # every g of the window meets exactly one row
            assert (len(window), len(spec._orthogonal_basis()), len(calls)) == (1344, 336, 336)

    def test_unmet_elements_share_one_zero(self, monkeypatch):
        # half of the mpart:4 window meets no row; those elements are not
        # projected, on the first sweep or later
        spec = zoo.build_mpart(4)
        span = spec._orthogonal_basis()
        unmet = [g for g in spec.window if span.index.get(span.ids.get(g)) is None]
        calls = []
        project = _Span.project
        monkeypatch.setattr(_Span, "project", lambda self, x: calls.append(1) or project(self, x))
        zeros = {id(spec.expect_unit(g)) for g in unmet}
        assert (len(unmet), len(zeros), calls) == (192, 1, [])
        assert spec.expect_unit(unmet[0]) == spec.project(unit(unmet[0])) == AlgebraElement({})


class TestCharacterOf:
    def test_identity(self):
        assert character_of(scalar_spec(), Wreath.identity()) == 1

    def test_vector_spec_is_subgroup_delta(self):
        spec = vector_spec()
        for g in enumerate_group("affine", 2):
            expected = 1 if g.g.is_identity() else 0
            assert character_of(spec, g) == expected


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        spec = vector_spec()
        d = spec_to_dict(spec)
        blob = json.dumps(d, sort_keys=True)
        back = spec_from_dict(json.loads(blob))
        assert back.label == spec.label
        assert set(back.basis) == set(spec.basis)
        assert back.window == spec.window
        path = tmp_path / "spec.json"
        path.write_text(blob)
        assert load_spec(path).window == spec.window

    def test_identity_required(self):
        v = Affine.vector(F2Vector.basis(1))
        with pytest.raises(ValueError):
            SubalgebraSpec("no-e", [unit(v)], [v])
