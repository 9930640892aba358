import inspect
import itertools
import weakref
from fractions import Fraction

import pytest

from isrlab.algebra import AlgebraElement, combine, inner_product, trace, unit
from isrlab.errors import DimensionOutOfRange, ModulusOutOfRange, Overflow
from isrlab.expectation import SubalgebraSpec, verify_closure, verify_invariance
from isrlab.f2 import F2Matrix, F2Vector, mat_inverse, range_subgroup, rank_defect
from isrlab.groups import Affine, Cantor, Wreath, enumerate_group, gl_elements, transposition
from isrlab.projections import CylinderWord, make_f, make_q_power
from isrlab import cli, groups, projections, zoo


@pytest.mark.parametrize("name", zoo.MODELS)
def test_models_refuse_sizes_outside_the_table(name):
    model = zoo.MODELS[name]
    for n in (model.sizes[0] - 1, model.sizes[-1] + 1):
        with pytest.raises(DimensionOutOfRange, match=rf"^{name} truncation {n} not in \[2, 4\]$"):
            model.build(n)


@pytest.mark.parametrize("sign", [0, 2])
def test_build_mq_refuses_a_sign_it_lacks(sign):
    # walsh_sum would file the products of sign 0 under −1 and of sign 2
    # under +1, and the spec would be labelled sign=- or sign=+
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
        zoo.build_mq(3, sign)


class TestMexo:
    def test_dimension_guard(self):
        with pytest.raises(DimensionOutOfRange):
            zoo.build_mexo(1)
        with pytest.raises(DimensionOutOfRange):
            zoo.build_mexo(5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_basis_matches_convolved(self, n):
        # build_mexo writes u_g·f_g·u_v term by term; the products define it
        expected = [
            unit(Affine.matrix(g)) * make_f(g) * unit(Affine.vector(F2Vector(v)))
            for g in gl_elements(n)
            for v in range(1 << n)
        ]
        assert list(zoo.build_mexo(n).basis) == expected

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_vector_per_coset(self, n):
        # head·u_v depends on v only through v + span, up to the sign ε_z
        # of z = u + v in the span: v and v + z are one object when ε_z = +1
        # and negatives of each other when ε_z = −1; outside the span the
        # vectors are not equal.  mexo's head u_g·f_g has the +1 span
        # R(g − I), mq's head u_s·Q^{supp s} the span of the moved e_j
        # with ε_z = sign^|z|
        mexo_signs = [{w.bits: 1 for w in range_subgroup(g)} for g in gl_elements(n)]
        models = [(zoo.build_mexo(n), mexo_signs)]
        for sign in (1, -1):
            signs = []
            for p in itertools.permutations(range(n)):
                moved = sum(1 << i for i in range(n) if p[i] != i)
                signs.append({z: sign ** z.bit_count() for z in range(1 << n) if not z & ~moved})
            models.append((zoo.build_mq(n, sign), signs))
        for spec, signs in models:
            for i, eps in enumerate(signs):
                block = spec.basis[i << n:(i + 1) << n]
                for v in range(1 << n):
                    for u in range(1 << n):
                        if eps.get(u ^ v) == 1:
                            assert block[u] is block[v]
                        elif eps.get(u ^ v) == -1:
                            assert block[u] == -block[v]
                        else:
                            assert block[u] != block[v]

    @pytest.mark.parametrize("build", [zoo.build_mexo, zoo.build_mq], ids=["mexo3", "mq3"])
    def test_basis_terms_are_window_objects(self, build):
        # the builders read each coset off the window instead of making
        # its elements again
        spec = build(3)
        window = {id(g) for g in spec.window}
        assert all(id(g) in window for b in spec.basis for g in b.ints)

    def test_witness_takes_the_suite_spec(self):
        spec = zoo.build_mexo(3)
        assert zoo.mexo_exoticness_witness(3, spec)
        # u_t itself pairs with x, so a span holding it fails the witness
        t = Affine.matrix(F2Matrix.transvection(1, 2))
        wider = SubalgebraSpec("wider", spec.basis + (unit(t),), spec.window)
        assert not zoo.mexo_exoticness_witness(3, wider)

    def test_basis_size_bound(self):
        spec = zoo.build_mexo(2)
        assert len(spec.basis) <= 28

    def test_closure_and_invariance(self):
        spec = zoo.build_mexo(2)
        assert verify_closure(spec)
        conj = [Affine.matrix(g) for g in gl_elements(2)] + [
            Affine.vector(F2Vector(b)) for b in range(4)
        ]
        assert verify_invariance(spec, conj)

    def test_expectation_closed_form(self):
        spec = zoo.build_mexo(2)
        for x in enumerate_group("affine", 2):
            assert spec.expect_unit(x) == zoo.mexo_expected_expectation(x)

    def test_swap_expectation_is_diagonal_cylinders(self):
        # E(u_s) = u_s([0,0] + [1,1]) for the coordinate swap
        spec = zoo.build_mexo(2)
        s = Affine.matrix(F2Matrix.swap(1, 2))
        e = spec.expect_unit(s)
        assert e == unit(s) * make_f(F2Matrix.swap(1, 2))
        assert e.coefficient(s) == Fraction(1, 2)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "span, exotic",
        [("mexo", True), ("L(F2^n)", False), ("scalars", False), ("L(G)", False), ("u_t*f_t", False)],
    )
    def test_exoticness_witness(self, span, exotic, n):
        # the witness tells the mexo span apart from the group algebras of
        # {e}, F2^n and G, each given on the mexo window; span{u_t·f_t}
        # passes every clause but u_{e1} ∈ span
        spec = zoo.build_mexo(n)
        t = F2Matrix.transvection(1, 2)
        basis = {
            "mexo": spec.basis,
            "L(F2^n)": [unit(Affine.vector(F2Vector(b))) for b in range(1 << n)],
            "scalars": [unit(Affine.identity())],
            "L(G)": [unit(g) for g in spec.window],
            "u_t*f_t": [unit(Affine.matrix(t)) * make_f(t)],
        }[span]
        candidate = SubalgebraSpec(span, basis, spec.window)
        assert zoo.mexo_exoticness_witness(n, candidate) is exotic

    def test_witness_fixed_facts(self):
        # the facts the witness's argument reads and does not recompute:
        # ⟨x, u_t⟩ = 1, τ(u_{e1}) = 0, and u_t·f_t has a term off F2^n
        t = F2Matrix.transvection(1, 2)
        ut = unit(Affine.matrix(t))
        ue1 = unit(Affine.vector(F2Vector.basis(1)))
        x = ut * (unit(Affine.vector(F2Vector(0))) - ue1)
        assert inner_product(x, ut) == 1
        assert trace(ue1).is_zero()
        assert any(not g.g.is_identity() for g in (ut * make_f(t)).support())

    def test_suite_samples_50_elements_at_n3(self):
        report = zoo.suite_mexo(n=3)
        assert [c["description"] for c in report["checks"]][:2] == [
            "E(u_g·v) = u_g f_g u_v on 50 elements",
            "expectation character is 2^{-rank(g-I)}",
        ]
        assert all(c["pass"] for c in report["checks"])

    def test_witness_guard(self):
        with pytest.raises(DimensionOutOfRange):
            zoo.mexo_exoticness_witness(1)


class TestFProduct:
    def test_single_transvection(self):
        t = F2Matrix.transvection(1, 2)
        assert zoo.mexo_fproduct_identity(t)

    def test_order_three_element(self):
        t = F2Matrix.from_lists([[0, 1], [1, 1]])
        assert zoo.mexo_fproduct_identity(t)
        # rank(t - I) = 2, so f_t = ¼ Σ_v u_v
        f = make_f(t)
        assert all(
            f.coefficient(Affine.vector(F2Vector(b))) == Fraction(1, 4)
            for b in range(4)
        )

    def test_gl2_exhaustive(self):
        for g in gl_elements(2):
            if not g.is_identity():
                assert zoo.mexo_fproduct_identity(g)


class TestMq:
    def test_dimension_guard(self):
        with pytest.raises(DimensionOutOfRange):
            zoo.build_mq(5)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_basis_matches_convolved(self, n, sign):
        # build_mq writes u_s·Q^{supp s}·u_v term by term; the products define it
        expected = [
            unit(Wreath.perm(p))
            * make_q_power(sign, {i + 1 for i in range(n) if p[i] != i})
            * unit(Wreath.vector(F2Vector(v)))
            for p in itertools.permutations(range(n))
            for v in range(1 << n)
        ]
        assert list(zoo.build_mq(n, sign).basis) == expected

    def test_swap_expectation(self):
        for sign in (1, -1):
            spec = zoo.build_mq(3, sign)
            s12 = Wreath.perm(transposition(0, 1))
            assert spec.expect_unit(s12) == unit(s12) * make_q_power(sign, {1, 2})

    def test_closure(self):
        assert verify_closure(zoo.build_mq(2))

    def test_contains_vector_algebra(self):
        spec = zoo.build_mq(2)
        for b in range(4):
            assert spec.contains(unit(Wreath.vector(F2Vector(b))))


class TestMpart:
    def test_swap_expectation_vanishes(self):
        spec = zoo.build_mpart(3)
        s12 = Wreath.perm(transposition(0, 1))
        assert spec.expect_unit(s12) == AlgebraElement({})

    def test_center_witness_commutes(self):
        spec = zoo.build_mpart(3)
        w = make_q_power(1, {1, 2}) + make_q_power(-1, {1, 2})
        for b in spec.basis:
            assert w * b == b * w

    def test_closure(self):
        assert verify_closure(zoo.build_mpart(3))

    def test_does_not_contain_single_lamp(self):
        # the partition span is strictly smaller than L(Z2^n)
        spec = zoo.build_mpart(3)
        assert not spec.contains(unit(Wreath.vector(F2Vector.basis(1))))


def test_wreath4_specs_share_one_enumeration(monkeypatch):
    # mq+:4, mq−:4 and mpart:4 read one truncation while a spec holds it;
    # a map of this test's own, so no spec held elsewhere serves it
    monkeypatch.setattr(groups, "_TRUNCATIONS", weakref.WeakValueDictionary())
    calls = []
    elements = Wreath.elements
    monkeypatch.setattr(Wreath, "elements", staticmethod(lambda n: calls.append(n) or elements(n)))
    specs = [zoo.build_mq(4, 1), zoo.build_mq(4, -1), zoo.build_mpart(4)]
    assert calls == [4]
    assert specs[0].window is specs[1].window is specs[2].window


class TestWitnesses:
    def test_cantor_case3(self):
        assert zoo.cantor_case3_witness()

    @pytest.mark.parametrize("sgn", [1, -1])
    def test_cantor_case3_closed_forms_differ(self, sgn):
        # the witness matches E(g)·f̃_A and f̃_A·E(g) to these two forms;
        # that they differ is what makes the two products differ
        def ind(*pts):
            return unit(Cantor.indicator(3, set(pts)))

        ug = unit(Cantor.perm(2, (0, 3, 2, 1)))
        half = Fraction(1, 2)
        left = ug * combine(half, ind(0, 1), sgn * half, ind(0, 3, 5, 7))
        right = ug * combine(half, ind(0, 3), sgn * half, ind(0, 1, 5, 7))
        assert left != right

    def test_e12_vanishing(self):
        assert zoo.affine_e12_vanishing_check()

    def test_e12_vanishing_can_fail(self, monkeypatch):
        # move the c_00² monomial of the first case from [0,0,0] to [1,1,1]
        (rows, transform, monomials), *rest = zoo.E12_CASES
        (a, b, word), *others = monomials
        assert word == (0, 0, 0)
        broken = ((rows, transform, [(a, b, (1, 1, 1))] + others), *rest)
        monkeypatch.setattr(zoo, "E12_CASES", broken)
        assert zoo.affine_e12_vanishing_check() is False


class TestMemosCannotHideFailures:
    """fcalculus checks each law once per distinct subspace key and
    ``make_cylinder`` is memoized; a broken input must still fail the
    check that uses it.  The dominance and conjugation laws each fail
    on their own; the wrong projection breaks all three laws."""

    @pytest.fixture
    def cold_cylinders(self):
        projections.make_cylinder.cache_clear()
        yield
        projections.make_cylinder.cache_clear()

    def test_fcalculus_laws_fail_on_a_wrong_projection(self, monkeypatch):
        # the projection of R = {0, e1} becomes ½(1 + u_swap), which does
        # not commute with f_h for R(h − I) = {0, e2}
        e1_line = frozenset({F2Vector(0), F2Vector.basis(1)})
        swap = unit(Affine.matrix(F2Matrix.swap(1, 2)))
        wrong = (unit(Affine.identity()) + swap).scale(Fraction(1, 2))

        def broken_make_f(g):
            return wrong if range_subgroup(g) == e1_line else make_f(g)

        assert zoo.report_passed(zoo.f_calculus_report(n=2))
        monkeypatch.setattr(zoo, "make_f", broken_make_f)
        laws = zoo.f_calculus_report(n=2)["checks"][0]
        assert laws["description"].startswith("f_g f_h = f_h f_g")
        assert laws["pass"] is False

    def test_fcalculus_laws_fail_on_a_wrong_conjugate(self, monkeypatch):
        # with h⁻¹ read as h, f_g u_h = u_h f_(hgh) fails for an h of
        # order 3; the commutation and dominance laws take no inverse
        gl = gl_elements(2)
        assert not all(
            make_f(g) * unit(Affine.matrix(h)) == unit(Affine.matrix(h)) * make_f(h * g * h)
            for g in gl
            for h in gl
        )
        assert zoo.report_passed(zoo.f_calculus_report(n=2))
        monkeypatch.setattr(zoo, "mat_inverse", lambda h: h)
        assert zoo.f_calculus_report(n=2)["checks"][0]["pass"] is False

    def test_fcalculus_laws_fail_on_a_vanishing_projection(self, monkeypatch):
        # f_g = 0 when rank(g − I) = 2 still commutes with every f_h, and
        # rank(h⁻¹gh − I) = rank(g − I) keeps f_g u_h = u_h f_(h^-1 gh);
        # only f_g f_h ≤ f_gh fails, for two transvections whose product
        # has rank 2
        def broken_make_f(g):
            return AlgebraElement({}) if rank_defect(g) == 2 else make_f(g)

        gl = gl_elements(2)
        f = {g: broken_make_f(g) for g in gl}
        assert all(f[g] * f[h] == f[h] * f[g] for g in gl for h in gl)
        assert all(
            f[g] * unit(Affine.matrix(h)) == unit(Affine.matrix(h)) * f[mat_inverse(h) * g * h]
            for g in gl
            for h in gl
        )
        assert not all(f[g] * f[h] * f[g * h] == f[g] * f[h] for g in gl for h in gl)
        monkeypatch.setattr(zoo, "make_f", broken_make_f)
        assert zoo.f_calculus_report(n=2)["checks"][0]["pass"] is False

    def test_signed_sum_row_fails_on_one_wrong_word(self, monkeypatch, cold_cylinders):
        # [101] written as [100]: the suite's first row compares every
        # word up to length 4 against its product of ½(1 ± u_{e_i})
        make_cylinder = projections.make_cylinder
        wrong = {(1, 0, 1): make_cylinder(CylinderWord((1, 0, 0)))}
        assert zoo.report_passed(zoo.suite_cylinder(n=2))
        monkeypatch.setattr(
            zoo, "make_cylinder", lambda w: wrong.get(w.letters) or make_cylinder(w)
        )
        rows = zoo.suite_cylinder(n=2)["checks"]
        assert rows[0]["description"].startswith("[w] equals its signed-sum expansion")
        assert rows[0]["pass"] is False and rows[1]["pass"] is True

    def test_cylinder_check_fails_on_a_wrong_word(self, monkeypatch, cold_cylinders):
        # [1, ⋆] under the swap moves to [⋆, 1]; a word map that returns
        # w unchanged must make the in-hypothesis check fail
        w, swap = CylinderWord((1,)), F2Matrix.swap(1, 2)
        assert projections.word_times_matrix(w, swap) != w
        assert projections.cylinder_conjugation_check(w, swap)
        monkeypatch.setattr(projections, "word_times_matrix", lambda word, ginv: word)
        assert projections.cylinder_conjugation_check(w, swap) is False

    def test_cylinder_suite_fails_on_a_wrong_word(self, monkeypatch, cold_cylinders):
        # the suite's pair loop reads the word map at call time too
        assert zoo.report_passed(zoo.suite_cylinder(n=2))
        monkeypatch.setattr(zoo, "word_times_matrix", lambda word, ginv: word)
        rows = zoo.suite_cylinder(n=2)["checks"]
        assert rows[1]["description"].startswith("u_g[w]u_g* = [w·g^-1]")
        assert rows[0]["pass"] is True and rows[1]["pass"] is False


class TestFCalculusKeys:
    """The packed-row pair loop against F2Matrix products."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_matrix_products(self, n):
        gl = gl_elements(n)
        r, dom, conj = zoo._f_calculus_keys(gl, n)
        assert r == {g: range_subgroup(g) for g in gl}
        assert dom == {(r[g], r[h], r[g * h]) for g in gl for h in gl}
        first = {}
        for g in gl:
            for h in gl:
                first.setdefault((r[g], h), g)
        assert conj == {(a, h): r[mat_inverse(h) * g * h] for (a, h), g in first.items()}

    def test_every_corrupt_subset_sum_fails_the_laws(self, monkeypatch):
        # entry 0 is never read (no row of an invertible matrix is 0);
        # changing any other entry of any table to any other value breaks
        # the law row at n = 2
        real = zoo._subset_sums
        assert zoo.report_passed(zoo.f_calculus_report(n=2))
        corrupted = 0
        for h in gl_elements(2):
            target = h.rows + tuple(1 << i for i in range(h.n, 2))
            for x in range(1, 4):
                for value in set(range(4)) - {real(target)[x]}:

                    def corrupt(rows, target=target, x=x, value=value):
                        sums = real(rows)
                        if tuple(rows) == target:
                            sums[x] = value
                        return sums

                    monkeypatch.setattr(zoo, "_subset_sums", corrupt)
                    rep = zoo.f_calculus_report(n=2)
                    assert rep["checks"][0]["pass"] is False, (target, x, value)
                    assert all(c["pass"] for c in rep["checks"][1:])
                    corrupted += 1
        assert corrupted == 54


class TestLamplighter:
    def test_modulus_guard(self):
        with pytest.raises(ModulusOutOfRange):
            zoo.lamplighter_scenarios(2)
        with pytest.raises(ModulusOutOfRange):
            zoo.lamplighter_scenarios(9)

    def test_report_shape(self):
        rep = zoo.lamplighter_scenarios(3)
        assert rep["name"] == "lamplighter:m=3"
        assert {"description", "expected", "actual", "pass"} <= set(rep["checks"][0])
        assert zoo.report_passed(rep)

    def test_every_span_at_m4_gets_the_exact_closure_check(self, monkeypatch):
        calls = []

        def record(spec):
            calls.append(spec.label)
            return verify_closure(spec)

        monkeypatch.setattr(zoo, "verify_closure", record)
        zoo.lamplighter_scenarios(4)
        assert "lamp:full,k=1" in calls
        assert len(calls) == 9

    def test_every_span_at_m5_gets_the_exact_closure_check(self, monkeypatch):
        # (m·2^m)² = 25,600 basis pairs for Y = full, k = 1: the largest
        # span under the default cap is checked on every pivot pair
        calls = []

        def record(spec):
            closed = verify_closure(spec)
            calls.append((spec.label, len(spec._orthogonal_basis()), closed))
            return closed

        monkeypatch.setattr(zoo, "verify_closure", record)
        rep = zoo.lamplighter_scenarios(5)
        assert zoo.report_passed(rep)
        assert [label for label, _, _ in calls] == [
            f"lamp:{y},k={k}" for y in ("scalars", "full", "shift-orbit-sums") for k in (1, 5)
        ]
        assert ("lamp:full,k=1", 160, True) in calls

    def test_span_ranks_at_m4(self, monkeypatch):
        # span(Y ∪ u_{s^k}·Y) has rank |Y|·m/k: the m/k shifts of Y are
        # independent, and |Y| is 1, 2^m, and the 6 shift orbits of 4-bit
        # lamp words
        ranks = {}

        def record(spec):
            ranks[spec.label] = len(spec._orthogonal_basis())
            return verify_closure(spec)

        monkeypatch.setattr(zoo, "verify_closure", record)
        zoo.lamplighter_scenarios(4)
        sizes = {"scalars": 1, "full": 16, "shift-orbit-sums": 6}
        assert ranks == {
            f"lamp:{y},k={k}": size * 4 // k for y, size in sizes.items() for k in (1, 2, 4)
        }
        assert list(ranks.values()) == [4, 2, 1, 64, 32, 16, 24, 12, 6]

    def test_closure_observations(self):
        rep = zoo.lamplighter_scenarios(4)
        obs = rep["observations"]
        assert obs["closure_size"] >= 1
        assert isinstance(obs["cap_a_equals_even_support"], bool)


@pytest.fixture(scope="module")
def fpc_report():
    return zoo.fpc_growth_suite()


class TestFpcGrowth:
    def test_suite(self, fpc_report):
        rep = fpc_report
        assert zoo.report_passed(rep)

    def test_member_rows_are_constant(self, fpc_report):
        rep = fpc_report
        members = [c for c in rep["checks"] if "member" in c["description"] and "non-member" not in c["description"]]
        assert members
        for c in members:
            sizes = c["actual"]
            assert len(set(sizes)) == 1 and sizes[0] <= 2

    def test_nonmember_rows_grow(self, fpc_report):
        rep = fpc_report
        growing = [c for c in rep["checks"] if "non-member" in c["description"]]
        assert len(growing) == 6
        for c in growing:
            sizes = c["actual"]
            assert all(a < b for a, b in zip(sizes, sizes[1:]))


class TestClosureTables:
    def test_affine_shadow(self):
        table = zoo.closure_table("affine", 3)
        assert [size for _, size in table] == [1, 8, 1344]

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            zoo.closure_table("lamplighter", 3)


class TestSuites:
    def test_registry_names(self):
        assert set(zoo.SUITES) == {
            "fcalculus",
            "cylinder",
            "mexo",
            "mq",
            "mpart",
            "cantor",
            "e12",
            "closures",
            "fpc",
            "lamplighter",
            "characters",
            "properties",
        }

    def test_suites_take_only_cli_parameters(self):
        # a suite parameter the CLI cannot pass is an option no caller sets
        args = cli.build_parser().parse_args(
            ["run", "--n", "2", "--m", "3", "--seed", "1", "--cap", "5"]
        )
        passed = set(cli._suite_kwargs(args))
        assert passed == {"n", "m", "seed", "cap"}
        for name, fn in zoo.SUITES.items():
            params = inspect.signature(fn).parameters.values()
            named = {p.name for p in params if p.kind is not p.VAR_KEYWORD}
            assert named <= passed, (name, named - passed)
            assert not any(p.kind is p.VAR_KEYWORD for p in params), name

    def test_report_schema(self):
        rep = zoo.suite_cantor()
        assert set(rep) >= {"name", "anchor", "parameters", "checks"}
        for c in rep["checks"]:
            assert set(c) == {"description", "expected", "actual", "pass"}

    def test_characters_deterministic(self):
        assert zoo.suite_characters(seed=7) == zoo.suite_characters(seed=7)

    def test_mexo_suite_passes(self):
        assert zoo.report_passed(zoo.suite_mexo(n=2))

    def test_no_floats_in_reports(self):
        def scan(v):
            assert not isinstance(v, float)
            if isinstance(v, dict):
                for x in v.values():
                    scan(x)
            elif isinstance(v, (list, tuple)):
                for x in v:
                    scan(x)

        for name in ("cantor", "e12", "mpart", "closures"):
            scan(zoo.SUITES[name]())

    def test_registry_holds_the_module_functions(self):
        # perfbench/tracer.py wraps the module's functions, skipping
        # generator functions, and then swaps each registry entry for the
        # wrapper of the same object
        for name, fn in zoo.SUITES.items():
            assert fn is getattr(zoo, fn.__name__), name
            assert not inspect.isgeneratorfunction(fn), name

    def test_predicate_row_fails_on_its_verdict(self):
        row = zoo.check("agreeing but refuted", "reported", "reported", passed=False)
        assert row == {
            "description": "agreeing but refuted",
            "expected": "reported",
            "actual": "reported",
            "pass": False,
        }
        assert zoo.check("rendered alike", Fraction(1, 2), "1/2")["pass"]
        assert not zoo.check("rendered apart", True, False)["pass"]

    def test_refused_input_raises_from_the_call(self):
        with pytest.raises(ModulusOutOfRange):
            zoo.lamplighter_scenarios(9)
        with pytest.raises(Overflow):
            zoo.fpc_growth_suite(cap=10)

    def test_driver_builds_the_report_in_row_order(self):
        computed = []

        def row(i):
            computed.append(i)
            return i

        @zoo.suite
        def toy(k: int = 2, **_):
            """A toy suite."""
            for i in range(k):
                # each row is computed only after the rows above it are built
                yield f"row {i}", len(computed), row(i)
            return "toy", "an anchor", {"k": k, "half": Fraction(1, 2)}, {"tables": {"t": [True]}}

        assert toy.__name__ == "toy" and toy.__doc__ == "A toy suite."
        assert list(inspect.signature(toy).parameters) == ["k", "_"]
        rep = toy(k=3)
        assert computed == [0, 1, 2]
        assert rep == {
            "name": "toy",
            "anchor": "an anchor",
            "parameters": {"k": 3, "half": "1/2"},
            "checks": [
                {"description": f"row {i}", "expected": i, "actual": i, "pass": True}
                for i in range(3)
            ],
            "tables": {"t": [True]},
        }
        assert zoo.report_passed(rep)
