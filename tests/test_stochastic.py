from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qfock.suites import shipped_experiments, three_point_model
from qfock.errors import CutoffExceededError, ResourceBudgetError, UsageError
from qfock.fock import FockOperator, FockVector, apply, innerq
from qfock.kspoly import (MAX_KS_LEN, MAX_OP_DEGREE, MAX_ROW_N, ks_poly,
                          ks_row_formula, q_charlier, q_hermite)
from qfock.model import MomentSequence, ProcessModel, TimeGrid
from qfock.partitions import (MAX_ENUM_N, SetPartition, enumerate_partitions,
                              index_tuples, rc)
from qfock.qscalar import EXACT, ONE, ZERO, QScalar, ScalarRing, const, q_fact, q_pow
from qfock.stochastic import (AdaptedProcess, BiProcess, biprocess_inner,
                              biprocess_integral, chaos_decompose,
                              conditional_expectation, delta_process,
                              MAX_POWER_N, l2q_inner, multiple_integral,
                              power_decomposition, psi_closed, st_pi_closed,
                              st_pi_convergence, st_pi_corollary_form,
                              st_pi_discrete, step_rectangle,
                              two_sided_closed, two_sided_defect_vector,
                              two_sided_discrete, x_process, yhat_process)
from qfock.wick import WickElement, vacuum_vector, wick_operator
from sn_oracle import inversions, sym_group
from stpi_forms import kernel_of, st_pi_free_form, st_pi_gaussian_form

F = Fraction

# the squared L2 distance between St_pi(1; grid) and its closed form, as
# {power of delta: coefficient in Q[q]}, delta = 1/N on the uniform N-grid
SQUARED_ERROR = {
    "pair_free": {1: "1 + q"},
    "pair_q_half": {1: "1 + q"},
    "split_q_half": {1: "1 + q"},
    "triple_ones": {1: "4 + 8*q + 5*q^2 + q^3", 2: "5 + 6*q + 3*q^2 + q^3"},
    "mixed_ones": {1: "2 + 2*q", 2: "-q"},
}


def three_point(n_atoms=4, cutoff=5, depth=6, ring=EXACT):
    atoms = [(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))]
    moments = MomentSequence.from_measure(atoms, 2 * cutoff)
    return ProcessModel(ring, moments, TimeGrid.uniform(1, n_atoms), cutoff, depth)


def two_point(n_atoms=4, cutoff=2, depth=6, ring=EXACT):
    moments = MomentSequence.from_measure(
        [(-1, F(1, 2)), (1, F(1, 2))], 2 * cutoff)
    return ProcessModel(ring, moments, TimeGrid.uniform(1, n_atoms), cutoff, depth)


def gaussian(n_atoms=4, cutoff=4, depth=6, ring=EXACT, r2=1):
    """The q-Gaussian of variance r2 per unit time: nu = r2 delta_0."""
    moments = MomentSequence([0, r2] + [0] * (2 * cutoff - 2))
    return ProcessModel(ring, moments, TimeGrid.uniform(1, n_atoms), cutoff, depth)


@pytest.fixture(scope="module")
def model():
    return three_point()


@pytest.fixture(scope="module")
def chaos_model():
    """Cutoff 3, the most the three-point measure's polynomials allow."""
    return three_point(n_atoms=2, cutoff=3)


@pytest.fixture(scope="module")
def wide():
    """Two atoms at cutoff 7: products of power-2 letters on vectors of
    powers up to 3 stay under the cutoff."""
    return three_point(n_atoms=2, cutoff=7)


def step(model, arity, values) -> FockVector:
    """The step function of arity `arity` on the model's grid with the given
    values on tuples of atoms."""
    return FockVector(model.grid.space, arity, values)


def l2q_inner_oracle(grid: TimeGrid, f: FockVector, g: FockVector) -> QScalar:
    """Σ_u F(u) |u| Σ_σ q^{inv(σ)} G(u∘σ⁻¹), by a sum over S_n on the
    values of the step functions and the widths of the grid's atoms, with
    no inner product of the Fock space."""
    n = f.depth
    total = ZERO
    perms = [(s, inversions(s)) for s in sym_group(n)]
    for u, cf in f.terms.items():
        weight = Fraction(1)
        for a in u:
            weight *= grid.width(a)
        for sigma, inv in perms:
            v = [0] * n
            for i in range(n):
                v[sigma[i] - 1] = u[i]
            cg = g.terms.get(tuple(v))
            if cg is not None:
                total = total + cf * cg * q_pow(inv) * const(weight)
    return total


@st.composite
def step_function_pairs(draw):
    """A random grid and two step functions of one arity <= 4 on it, with
    small rational values and supports that often overlap up to
    permutation."""
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    bounds = [F(0)]
    for w in widths:
        bounds.append(bounds[-1] + F(w, 4))
    q = draw(st.sampled_from(["exact", F(3, 10)]))
    ring = EXACT if q == "exact" else ScalarRing(q)
    model = ProcessModel(ring, MomentSequence([0, 1]), TimeGrid(bounds), 1, 4)
    arity = draw(st.integers(0, 4))
    atoms = st.tuples(*[st.integers(0, len(widths) - 1)] * arity)
    values = st.dictionaries(atoms, st.fractions(-3, 3, max_denominator=3),
                             max_size=4)
    f, g = draw(values), draw(values)
    # a permuted copy of each support tuple makes the q-terms show up
    for tup in list(f)[:2]:
        g[tuple(reversed(tup))] = F(1)
    return (model.grid, *(step(model, arity, {t: const(c) for t, c in h.items()})
                          for h in (f, g)))


class TestStepFunctions:
    def test_rectangle_support(self, model):
        f = step_rectangle(model, [(0, F(1, 2)), (F(1, 2), 1)])
        assert f.space is model.grid.space and f.depth == 2
        assert f.terms == {(a, b): ONE for a in (0, 1) for b in (2, 3)}

    def test_arity_validated(self, model):
        # a tuple shorter than the arity is refused where it is used
        f = step(model, 2, {(0,): ONE})
        with pytest.raises(UsageError, match="does not have arity 2"):
            l2q_inner(f, f)
        with pytest.raises(UsageError, match="does not have arity 2"):
            multiple_integral(f, [x_process(model)] * 2)

    def test_l2q_off_diagonal_pair(self, model):
        f = step(model, 2, {(0, 1): ONE})
        assert l2q_inner(f, f) == const(F(1, 16))

    def test_l2q_diagonal_pair_gets_q(self, model):
        f = step(model, 2, {(0, 0): ONE})
        assert l2q_inner(f, f) == (ONE + q_pow(1)) * const(F(1, 16))

    def test_l2q_arity_cap(self, model):
        f = step(model, 9, {(0,) * 9: ONE})
        assert l2q_inner(f, f) == q_fact(9) * const(F(1, 4) ** 9)
        # arity 10 is the first one refused, with or without a q0
        model_at_q0 = three_point(ring=ScalarRing(F(3, 10)))
        for m in (model, model_at_q0):
            f = step(m, 10, {tuple(range(4)) * 2 + (0, 1): ONE})
            with pytest.raises(ResourceBudgetError):
                l2q_inner(f, f)

    @given(step_function_pairs())
    @settings(max_examples=60, deadline=None)
    def test_l2q_matches_permutation_sum(self, drawn):
        grid, f, g = drawn
        assert l2q_inner(f, g) == l2q_inner_oracle(grid, f, g)

    def test_l2q_checks_model_and_arity(self, model):
        f = step(model, 1, {(0,): ONE})
        with pytest.raises(UsageError, match="arity mismatch"):
            l2q_inner(f, step(model, 2, {(0, 1): ONE}))
        with pytest.raises(UsageError, match="different grids"):
            l2q_inner(f, step(three_point(), 1, {(0,): ONE}))


class TestProcessFamilies:
    def test_delta_operator_adds_drift(self, model):
        # Delta_k(I) Omega = Y_k(I) Omega + |I| r_k Omega, Y_k(I) the field of
        # the letter sum_{A in I} x_A^k
        interval = (F(1, 4), F(3, 4))
        om = vacuum_vector(model)
        for k in range(1, model.degree_cutoff + 1):
            y_k = model.letter({(1, k): 1, (2, k): 1}).field()
            want = apply(y_k, om) + om.scale(
                const(F(1, 2) * model.moments.r_at(k)))
            assert apply(delta_process(model, k).operator(interval), om) == want

    def test_operator_keeps_the_letter_field_shared(self, model):
        interval = (F(1, 4), F(3, 4))
        proc = delta_process(model, 2)
        op = proc.operator(interval)
        assert op.kind == "sum" and len(op.operands) == 2
        assert op.operands[0] is proc.interval_letter(interval).field()

    def test_prefix_letter_is_interval_letter(self, model):
        proc = delta_process(model, 2)
        assert proc.prefix_letter(F(1, 2)) == proc.interval_letter((0, F(1, 2)))
        assert proc.interval_letter((0, F(1, 2))) == model.interval_letter(
            (0, F(1, 2)), 2)


def random_vector(model, max_power, max_len):
    """Fock vectors over the basis vectors P_k, k < max_power, in words of
    length <= max_len, with small rational coefficients."""
    b = model.rank  # P_k on atom A sits at A b + k
    index = st.sampled_from([i for i in range(model.space.dim) if i % b < max_power])
    words = st.lists(index, max_size=max_len).map(tuple)
    return st.dictionaries(words, st.fractions(-3, 3, max_denominator=3).filter(bool),
                           min_size=1, max_size=4).map(
        lambda terms: FockVector(model.space, model.fock_depth,
                                 {w: const(c) for w, c in terms.items()}))


# (label, the integrator processes) of the off-diagonal check, on the
# three-point model at cutoff 5: Yhat_3 has powers up to 3
OFF_DIAGONAL_PROCS = {
    "X,X": lambda m: [x_process(m)] * 2,
    "Yhat1,Yhat2": lambda m: [yhat_process(m, 1), yhat_process(m, 2)],
    "Delta2,X": lambda m: [delta_process(m, 2), x_process(m)],
    "Yhat3,Yhat3": lambda m: [yhat_process(m, 3)] * 2,
    "Delta3": lambda m: [delta_process(m, 3)],
}


class TestMultipleIntegrals:
    def test_diagonal_support_gives_the_word_vector(self, model):
        # on the diagonal the integral is the Wick product, W(v) Omega = v,
        # not the field product, which adds the contraction of the pair
        x = x_process(model)
        integral = multiple_integral(step(model, 2, {(1, 1): const(2)}), [x] * 2)
        word = (x.letter(1),) * 2
        assert integral.terms == {word: const(2)}
        om = vacuum_vector(model)
        want = WickElement.from_word(model, word).vector().scale(const(2))
        assert integral.vector() == want
        assert apply(integral.operator(), om) == want
        product = FockOperator.compose([x.letter(1).field()] * 2)
        assert apply(product, om).scale(const(2)) != want

    def test_arity_zero_refused(self, model):
        with pytest.raises(UsageError, match="arity >= 1"):
            multiple_integral(step(model, 0, {(): ONE}), [])

    def test_processes_of_different_models_refused(self, model):
        f = step(model, 2, {(0, 1): ONE})
        other = three_point(n_atoms=4)
        with pytest.raises(UsageError, match="different models"):
            multiple_integral(f, [x_process(model), x_process(other)])

    def test_psi_of_processes_of_different_models_refused(self, model):
        other = three_point(n_atoms=4)
        with pytest.raises(UsageError, match="different models"):
            psi_closed([x_process(model), x_process(other)], 1)

    def test_diagonal_word_operator_needs_the_summed_cutoff(self):
        # x_A0^2 ⊗ x_A0^2 is the chaos component of u = (2, 2) on (A0, A0),
        # and x_A0^3 ⊗ x_A0 ⊗ x_A0^2 has the component u = (1, 1, 2), since
        # x^2 = P_2 + P_0 / 2.  Their operators multiply letters on A0 past
        # the cutoff 3: the model with moments through r_8 closes, and each
        # operator takes Ω to the vector; with moments through r_6 only, the
        # first is refused
        m = three_point_model(n_atoms=2, cutoff=3)
        assert m.closes
        om = vacuum_vector(m)
        for powers, u in (((2, 2), (2, 2)), ((3, 1, 2), (1, 1, 2))):
            v = WickElement.from_word(m, [m.atom_letter(0, k) for k in powers]).vector()
            integral = multiple_integral(chaos_decompose(v, m)[u],
                                         [yhat_process(m, k) for k in u])
            assert not integral.vector().is_zero
            assert apply(integral.operator(), om) == integral.vector()
        m = three_point(n_atoms=2, cutoff=3)
        assert not m.closes
        v = WickElement.from_word(m, (m.atom_letter(0, 2),) * 2).vector()
        comps = chaos_decompose(v, m)
        assert set(comps) == {(2, 2)}
        integral = multiple_integral(comps[2, 2], [yhat_process(m, 2)] * 2)
        assert integral.vector() == v
        with pytest.raises(CutoffExceededError, match="degree 4 exceeds cutoff 3"):
            integral.operator()

    @pytest.mark.parametrize("label", sorted(OFF_DIAGONAL_PROCS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_off_diagonal_operator_is_the_field_product(self, model, label, data):
        # letters on distinct atoms pair and multiply to zero and have mean
        # 0, so the Wick product of their word is the product of their fields
        procs = OFF_DIAGONAL_PROCS[label](model)
        n = len(procs)
        tuples = st.permutations(range(model.grid.n_atoms)).map(lambda p: tuple(p[:n]))
        values = data.draw(st.dictionaries(
            tuples, st.fractions(-3, 3, max_denominator=3).filter(bool),
            min_size=1, max_size=3))
        f = step(model, n, {t: const(c) for t, c in values.items()})
        product = FockOperator.opsum(
            FockOperator.compose([p.letter(a).field() for p, a in zip(procs, t)])
            .scale(c) for t, c in f.terms.items())
        v = data.draw(random_vector(model, 2, 3))
        assert apply(multiple_integral(f, procs).operator(), v) == apply(product, v)

    def test_step_function_on_another_grid_rejected(self, model):
        f = step(three_point(), 2, {(0, 1): ONE})
        with pytest.raises(UsageError, match="different grids"):
            multiple_integral(f, [x_process(model)] * 2)

    @pytest.mark.parametrize("ivs", [
        [(0, F(1, 4)), (F(1, 4), F(3, 4))],
        [(0, F(1, 2)), (F(1, 2), 1)],
        [(F(1, 4), F(1, 2)), (F(1, 2), 1)],
    ])
    def test_isometry_on_rectangles(self, model, ivs):
        procs = [x_process(model)] * 2
        f = step_rectangle(model, ivs)
        g = step_rectangle(model, list(reversed(ivs)))
        om = vacuum_vector(model)
        for h1, h2 in ((f, f), (f, g), (g, g)):
            lhs = innerq(apply(multiple_integral(h1, procs).operator(), om),
                         apply(multiple_integral(h2, procs).operator(), om))
            assert lhs == l2q_inner(h1, h2)


class TestStochasticMeasures:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_power_decomposition(self, model, n):
        assert power_decomposition(n, 1, model).is_zero

    def test_power_decomposition_partial_time(self, model):
        assert power_decomposition(3, F(1, 2), model).is_zero

    def test_power_decomposition_builds_each_prefix_letter_once(self, monkeypatch):
        # every closed form goes through the module name st_pi_closed, and
        # each (interval, power) letter is built once per model, counted
        # where a letter reads its power's row (ProcessModel._power): the
        # model keeps its interval letters, so a second decomposition at the
        # same t builds none
        from qfock import stochastic
        model = three_point()
        closed, built = [], []
        real_closed, real_power = stochastic.st_pi_closed, model._power

        def st_pi_closed(pi, t, m):
            closed.append(pi)
            return real_closed(pi, t, m)

        monkeypatch.setattr(stochastic, "st_pi_closed", st_pi_closed)
        monkeypatch.setattr(model, "_power", lambda k: built.append(k) or real_power(k))
        for _ in range(2):
            assert power_decomposition(4, 1, model).is_zero
        assert len(closed) == 2 * len(list(enumerate_partitions(4)))
        # power 1 for X(t) itself and the singletons, then block sizes 2..4
        assert sorted(built) == [1, 2, 3, 4]

    @pytest.mark.parametrize("measure", [
        lambda m: psi_closed([delta_process(m, 2), x_process(m), x_process(m)], 1),
        lambda m: st_pi_discrete(SetPartition.of([[1, 2]]), 1, m),
    ], ids=["psi_delta2_x_x", "st_pi_discrete_pair"])
    def test_process_letters_built_once_per_model(self, monkeypatch, measure):
        # the processes' letters are the model's interval letters, counted
        # where the model builds one, reading its power's row: psi builds
        # powers 2 and 1 on [0, 1), the discrete St_pi power 1 on each of
        # the two atoms, and a model asked three times builds them once
        model = three_point_model()
        built, real_power = [], model._power
        monkeypatch.setattr(model, "_power", lambda k: built.append(k) or real_power(k))
        for _ in range(3):
            measure(model)
        assert len(built) == 2

    @pytest.mark.parametrize("n_atoms", range(1, 6))
    def test_discrete_trie_equals_flat_sum(self, n_atoms):
        """The prefix trie of st_pi_discrete applies to Omega as the sum,
        over each index tuple, of its own product of fields."""
        m = two_point(n_atoms=n_atoms, cutoff=4, depth=4)
        om = vacuum_vector(m)
        atoms = m.grid.prefix(1)
        for n in range(1, 5):
            for pi in enumerate_partitions(n):
                flat = FockVector(m.space, m.fock_depth)
                for tup in index_tuples(n_atoms, pi):
                    word = [m.atom_letter(atoms[v - 1], 1).field() for v in tup]
                    flat = flat + apply(FockOperator.compose(word), om)
                assert apply(st_pi_discrete(pi, 1, m), om) == flat, str(pi)

    @pytest.mark.parametrize("factory", [partial(two_point, cutoff=4), three_point],
                             ids=["two_point", "three_point"])
    def test_discrete_equals_flat_sum_on_a_prefix(self, factory):
        """St_pi(t; grid) Ω equals the flat sum, over the tuples of N prefix
        atoms whose kernel is exactly pi, of each tuple's product of atom
        fields, tuples from itertools.product: at t = 1/2 on 2N atoms, where
        X(t) is the field of a proper prefix letter, and at t = 1 on N.
        Where N < |pi| no tuple is left, and the sum cancels to zero."""
        for n_atoms in range(1, 5):
            for t, m in ((F(1, 2), factory(n_atoms=2 * n_atoms, depth=4)),
                         (1, factory(n_atoms=n_atoms, depth=4))):
                om = vacuum_vector(m)
                fields = [m.atom_letter(a, 1).field() for a in range(n_atoms)]
                assert m.grid.prefix(t) == tuple(range(n_atoms))
                for n in range(1, 5):
                    flat = {pi: FockVector(m.space, m.fock_depth)
                            for pi in enumerate_partitions(n)}
                    for u in product(range(n_atoms), repeat=n):
                        kernel = kernel_of(u)
                        flat[kernel] = flat[kernel] + apply(
                            FockOperator.compose([fields[v] for v in u]), om)
                    for pi, want in flat.items():
                        got = apply(st_pi_discrete(pi, t, m), om)
                        assert got == want, (str(pi), t, n_atoms)
                        if n_atoms < pi.size:
                            assert got.is_zero, (str(pi), t, n_atoms)

    @pytest.mark.parametrize("blocks, most", [([[1], [2]], 16), ([[1, 2], [3]], 32)])
    def test_discrete_reads_at_most_two_tuples_per_atom(self, monkeypatch, blocks, most):
        # a singleton is one prefix field, not a branch per atom: the
        # exact-kernel tuples number 16 * 15 = 240 on 16 atoms
        from qfock import stochastic
        read, real = [], stochastic.index_tuples

        def index_tuples(n_atoms, pi):
            for tup in real(n_atoms, pi):
                read.append(tup)
                yield tup

        monkeypatch.setattr(stochastic, "index_tuples", index_tuples)
        st_pi_discrete(SetPartition.of(blocks), 1, two_point(n_atoms=16))
        assert 0 < len(read) <= most

    def test_gaussian_specialization(self):
        m = gaussian()
        om = vacuum_vector(m)
        for pi in enumerate_partitions(4):
            # blocks of size > 2 leave null-vector words behind, so compare
            # in the q-seminorm rather than termwise
            diff = (apply(st_pi_closed(pi, 1, m).operator(), om)
                    - apply(st_pi_gaussian_form(pi, 1, m).operator(), om))
            assert innerq(diff, diff).is_zero, str(pi)

    def test_free_specialization_at_q_zero(self, model):
        om = vacuum_vector(model)
        for pi in enumerate_partitions(3):
            diff = (apply(st_pi_closed(pi, 1, model).operator(), om)
                    - apply(st_pi_free_form(pi, 1, model).operator(), om))
            for c in diff.terms.values():
                assert c.subs(0) == 0, str(pi)

    @pytest.mark.parametrize("blocks", [
        [[1, 4], [2], [3]],
        [[1, 2, 4], [3]],
        [[1, 2, 3, 4]],
    ])
    def test_corollary_form(self, model, blocks):
        pi = SetPartition.of(blocks)
        om = vacuum_vector(model)
        lhs = apply(st_pi_closed(pi, 1, model).operator(), om)
        rhs = apply(st_pi_corollary_form(pi, 1, model).operator(), om)
        assert (lhs - rhs).is_zero

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_closed_form_merges_equal_words(self, wide, data):
        # the subsets {1,2} and {3,4} of pi = {1,2}{3,4} leave the same word,
        # one prefix letter of power 2: one term, and the same operator as
        # the sum over subsets built term by term from wick_operator
        pi = SetPartition.of([[1, 2], [3, 4]])
        closed = st_pi_closed(pi, F(1, 2), wide)
        x2 = wide.prefix_letter(F(1, 2), 2)
        r2 = F(1, 2) * wide.moments.r_at(2)
        assert closed.terms == {(): const(r2 * r2), (x2,): const(2 * r2),
                                (x2, x2): ONE}
        per_subset = FockOperator.opsum(
            wick_operator(wide, (x2,) * len(s)).scale(
                q_pow(rc(pi, s))
                * const(r2 ** (2 - len(s))))
            for s in ((), (0,), (1,), (0, 1)))
        v = data.draw(random_vector(wide, 3, 2))
        assert apply(closed.operator(), v) == apply(per_subset, v)

    def test_discrete_converges(self):
        pi = SetPartition.of([[1, 2]])
        table = st_pi_convergence(
            pi, 1, lambda n: two_point(n_atoms=n, ring=ScalarRing(F(1, 2))),
            (4, 8, 16), label="pair")
        errs = [r.l2_error for r in table.rows]
        assert errs[0] > errs[1] > errs[2] > 0
        assert table.slope() > 0.8

    def test_convergence_requires_float(self, model):
        # the float l2_error is read at the model's q0: a model without one
        # is refused
        with pytest.raises(UsageError, match="with a q0"):
            st_pi_convergence(SetPartition.of([[1, 2]]), 1,
                              lambda n: three_point(n_atoms=n), (2, 4, 8))

    @pytest.mark.parametrize("label", sorted(SQUARED_ERROR))
    def test_squared_error_closed_forms(self, label):
        # the squared L2 error at t = 1 is a polynomial in delta = 1/N with
        # Q[q] coefficients; l2_error is it evaluated at the experiment's q
        experiments = {e[0]: e for e in shipped_experiments()}
        _, pi, factory, q0 = experiments[label]
        table = st_pi_convergence(pi, 1, factory, (1, 2, 3, 4, 8, 16, 64), label)
        for row in table.rows:
            delta = F(1, row.n_atoms)
            want = sum((QScalar.parse(c) * const(delta ** k)
                        for k, c in SQUARED_ERROR[label].items()), ZERO)
            assert row.error == want, row.n_atoms
            assert row.l2_error == abs(float(want.subs(q0)))

    @pytest.mark.parametrize("label", sorted(SQUARED_ERROR))
    def test_error_of_one_apply_equals_error_of_two(self, label):
        # st_pi_convergence applies discrete - closed to Omega once; its
        # error is the squared q-norm of the two images taken apart
        experiments = {e[0]: e for e in shipped_experiments()}
        _, pi, factory, _ = experiments[label]
        table = st_pi_convergence(pi, 1, factory, (1, 2, 3, 4), label)
        assert [row.n_atoms for row in table.rows] == [1, 2, 3, 4]
        for row in table.rows:
            model = factory(row.n_atoms)
            om = vacuum_vector(model)
            d = (apply(st_pi_discrete(pi, 1, model), om)
                 - apply(st_pi_closed(pi, 1, model).operator(), om))
            assert row.error == innerq(d, d), row.n_atoms


def chaos_rebuild(model, comps):
    """The vacuum coefficient times Omega plus Σ_u the vector of the
    multiple integral of F_u against Yhat_{u(1)}, ..., Yhat_{u(n)}."""
    out = FockVector(model.space, model.fock_depth)
    for u, f in comps.items():
        out = out + (multiple_integral(f, [yhat_process(model, k) for k in u]).vector()
                     if u else vacuum_vector(model).scale(f.vacuum_coefficient()))
    return out


class TestChaosDecomposition:
    # the three-point measure carries orthogonal polynomials through degree
    # 2 only, so these tests run at cutoff 3
    def test_reconstruction_and_orthogonality(self):
        model = three_point(cutoff=3)
        l1 = model.atom_letter(0, 2)
        l2 = model.atom_letter(1, 1)
        v = (WickElement.from_word(model, (l1, l2)).vector()
             + WickElement.from_word(model, (l2,)).vector().scale(const(3)))
        comps = chaos_decompose(v, model)
        assert chaos_rebuild(model, comps) == v
        vecs = {u: multiple_integral(f, [yhat_process(model, k) for k in u]).vector()
                for u, f in comps.items() if u}
        keys = list(vecs)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                if sorted(keys[i]) != sorted(keys[j]):
                    assert innerq(vecs[keys[i]], vecs[keys[j]]).is_zero

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_with_diagonal_words(self, chaos_model, data):
        # words that repeat an atom give components on the diagonal, which
        # the multiple integrals take as Wick products
        v = data.draw(random_vector(chaos_model, 3, 3))
        v = v + FockVector(chaos_model.space, chaos_model.fock_depth,
                           {(0, 1): ONE, (2, 0, 1): const(F(-1, 2))})
        assert chaos_rebuild(chaos_model, chaos_decompose(v, chaos_model)) == v

    def test_vacuum_component(self):
        model = three_point(cutoff=3)
        om = vacuum_vector(model)
        comps = chaos_decompose(om, model)
        assert set(comps) == {()}


class TestItoCalculus:
    half, threeq = F(1, 2), F(3, 4)

    def make_processes(self, model):
        u_val = WickElement.from_word(model, (model.atom_letter(0),))
        v_val = (WickElement.from_word(model, (model.atom_letter(0),
                                               model.atom_letter(1)))
                 + WickElement.one(model).scale(const(2)))
        u = AdaptedProcess(model, [((self.half, self.threeq), u_val),
                                   ((self.threeq, 1), v_val)])
        v = AdaptedProcess(model, [((self.half, self.threeq), v_val),
                                   ((self.threeq, 1), u_val)])
        return u_val, v_val, u, v

    def test_adaptedness_enforced(self):
        m = two_point()
        future = WickElement.from_word(m, (m.atom_letter(3),))
        with pytest.raises(UsageError):
            AdaptedProcess(m, [((self.half, self.threeq), future)])

    def test_overlap_rejected(self):
        m = two_point()
        val = WickElement.one(m)
        with pytest.raises(UsageError):
            AdaptedProcess(m, [((self.half, 1), val), ((self.threeq, 1), val)])

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_ito_isometry(self, side):
        # the Itô closed form r_2 Σ|I_i| <U_i Ω, V_i Ω> against both sides of
        # the bi-process isometry of U⊗1 (left) or 1⊗U (right), at r_2 = 1
        # and at r_2 = 2
        for m in (two_point(), gaussian(r2=2)):
            _, _, u, v = self.make_processes(m)
            r2 = m.moments.r_at(2)
            oracle = sum((const(r2 * (b - a)) * innerq(uval.vector(), vval.vector())
                          for ((a, b), uval), (_, vval) in zip(u.pieces, v.pieces)),
                         ZERO)
            bu, bv = u.bi(side), v.bi(side)
            om = vacuum_vector(m)
            lhs = innerq(apply(biprocess_integral(bu), om),
                         apply(biprocess_integral(bv), om))
            assert lhs == oracle
            assert biprocess_inner(bu, bv) == oracle

    def test_bad_side_rejected(self):
        m = two_point()
        _, _, u, _ = self.make_processes(m)
        with pytest.raises(UsageError, match="side"):
            u.bi("middle")

    def test_conditional_expectation_is_idempotent_and_mean_preserving(self):
        m = two_point()
        _, v_val, _, _ = self.make_processes(m)
        el = conditional_expectation(v_val, self.half)
        again = conditional_expectation(el, self.half)
        assert (el.vector() - again.vector()).is_zero
        # compatible conditioning times compose
        smaller = conditional_expectation(v_val, F(1, 4))
        via = conditional_expectation(el, F(1, 4))
        assert (smaller.vector() - via.vector()).is_zero

    def test_conditional_sandwich(self):
        # E_s[X([s,t)) Z X([s,t))] = (t-s) r_2 Gamma_q(q)(Z)
        m = two_point()
        u_val, v_val, _, _ = self.make_processes(m)
        om = vacuum_vector(m)
        s, t = self.half, self.threeq
        x_st = m.interval_letter((s, t)).field()
        for z in (u_val, v_val):
            sandwich = FockOperator.compose([x_st, z.operator(), x_st])
            lhs = conditional_expectation(
                WickElement.from_vector(m, apply(sandwich, om)), s)
            rhs = z.gamma().scale(const((t - s) * m.moments.r_at(2)))
            assert (lhs.vector() - rhs.vector()).is_zero

    def test_two_sided_defect_identity(self):
        m = two_point()
        u_val, _, _, _ = self.make_processes(m)
        adapted = AdaptedProcess(m, [((self.half, 1), u_val)])
        om = vacuum_vector(m)
        disc = apply(two_sided_discrete(adapted), om)
        closed = apply(two_sided_closed(adapted), om)
        assert (disc - closed - two_sided_defect_vector(adapted)).is_zero

    def test_biprocess_isometry_gaussian(self):
        m = gaussian()
        u_val = WickElement.from_word(m, (m.atom_letter(0),))
        v_val = (WickElement.from_word(m, (m.atom_letter(0), m.atom_letter(1)))
                 + WickElement.one(m).scale(const(2)))
        bi_u = BiProcess(m, [((self.half, self.threeq), [(u_val, v_val)])])
        bi_v = BiProcess(m, [((self.half, self.threeq), [(v_val, u_val)])])
        om = vacuum_vector(m)
        for a, b in ((bi_u, bi_u), (bi_u, bi_v), (bi_v, bi_v)):
            lhs = innerq(apply(biprocess_integral(a), om),
                         apply(biprocess_integral(b), om))
            assert lhs == biprocess_inner(a, b)

    def test_biprocess_isometry_carries_r2(self):
        # nu = 2 delta_0: without the factor r_2 the inner product is half
        # the squared norm, 17/32 + q^2/32 + q^3/32
        m = gaussian(r2=2)
        u_val = WickElement.from_word(m, (m.atom_letter(0),))
        v_val = (WickElement.from_word(m, (m.atom_letter(0), m.atom_letter(1)))
                 + WickElement.one(m).scale(const(2)))
        bi = BiProcess(m, [((self.half, self.threeq), [(u_val, v_val)])])
        w = apply(biprocess_integral(bi), vacuum_vector(m))
        want = QScalar.parse("17/16 + 1/16*q^2 + 1/16*q^3")
        assert innerq(w, w) == want
        assert biprocess_inner(bi, bi) == want

    def test_biprocess_adaptedness(self):
        m = two_point()
        future = WickElement.from_word(m, (m.atom_letter(3),))
        with pytest.raises(UsageError):
            BiProcess(m, [((self.half, self.threeq),
                           [(future, WickElement.one(m))])])

    @pytest.mark.parametrize("interval,message", [
        ((F(3, 4), F(1, 2)), "empty interval"),
        ((F(1, 2), F(5, 8)), "not aligned"),
    ], ids=["empty", "off_grid"])
    def test_interval_off_the_grid_rejected(self, interval, message):
        m = two_point()
        one = WickElement.one(m)
        with pytest.raises(UsageError, match=message):
            BiProcess(m, [(interval, [(one, one)])])
        with pytest.raises(UsageError, match=message):
            AdaptedProcess(m, [(interval, one)])

    def test_biprocess_overlap_rejected(self):
        m = two_point()
        one = WickElement.one(m)
        with pytest.raises(UsageError, match="overlap"):
            BiProcess(m, [((F(1, 4), self.threeq), [(one, one)]),
                          ((self.half, 1), [(one, one)])])

    @pytest.mark.parametrize("foreign", [
        lambda m, other: WickElement.one(other),
        lambda m, other: WickElement.from_word(m, (other.atom_letter(0),)),
    ], ids=["element", "letter"])
    def test_values_of_another_model_rejected(self, foreign):
        # an element of an equal model built apart, or one of this model
        # holding such a model's letter
        m, other = two_point(), two_point()
        val, one = foreign(m, other), WickElement.one(m)
        for pair in ((val, one), (one, val)):
            with pytest.raises(UsageError, match="different model"):
                BiProcess(m, [((self.half, 1), [pair])])
        with pytest.raises(UsageError, match="different model"):
            AdaptedProcess(m, [((self.half, 1), val)])

    def test_one_sided_is_a_special_biprocess(self):
        # U⊗1 integrates to U X(I), and 1⊗U to X(I) U
        m = gaussian()
        val = WickElement.from_word(m, (m.atom_letter(0),))
        adapted = AdaptedProcess(m, [((self.half, 1), val)])
        x = m.interval_letter((self.half, 1)).field()
        om = vacuum_vector(m)
        for side, ito in (("left", [val.operator(), x]),
                          ("right", [x, val.operator()])):
            assert (apply(biprocess_integral(adapted.bi(side)), om)
                    == apply(FockOperator.compose(ito), om))


# each budgeted function at one past its limit, with that size and the limit
OVER_BUDGET = [
    ("ks_poly", lambda m: ks_poly((1,) * 9, m.moments), 9, MAX_KS_LEN),
    ("ks_row_formula", lambda m: ks_row_formula(1, 7, m.moments), 7, MAX_ROW_N),
    ("q_hermite", lambda m: q_hermite(21), 21, MAX_OP_DEGREE),
    ("q_charlier", lambda m: q_charlier(21), 21, MAX_OP_DEGREE),
    ("enumerate_partitions", lambda m: next(enumerate_partitions(13)), 13, MAX_ENUM_N),
    ("power_decomposition", lambda m: power_decomposition(7, 1, m), 7, MAX_POWER_N),
]


@pytest.mark.parametrize("name, call, size, limit", OVER_BUDGET,
                         ids=[case[0] for case in OVER_BUDGET])
def test_budget_refusal_names_size_and_limit(name, call, size, limit):
    """One past its limit, each budgeted function raises ResourceBudgetError
    naming the size asked for and the limit, before any work."""
    assert size == limit + 1
    with pytest.raises(ResourceBudgetError,
                       match=rf"^{name}\b.* {size}, over the limit of {limit}$"):
        call(three_point())


@pytest.mark.parametrize("call", [
    lambda m: next(enumerate_partitions(0)),
    lambda m: power_decomposition(0, 1, m),
    lambda m: q_hermite(-1),
    lambda m: q_charlier(-1),
    lambda m: ks_row_formula(1, -1, m.moments)],
    ids=["enumerate_partitions", "power_decomposition", "q_hermite",
         "q_charlier", "ks_row_formula"])
def test_size_below_its_least_is_a_usage_error(call):
    with pytest.raises(UsageError, match="below the least of"):
        call(three_point())
