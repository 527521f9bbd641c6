"""Operator-order certificates against the definition.

`operator_order_check` tests tuples of the algebra's generating words only,
evaluates their commutators through tables shared along each prefix, and
skips every tuple under a prefix whose commutator vanishes on that prefix's
window.  `_order_check_oracle` is the definition it shortcuts: every tuple
of augmentation-ideal words under the same length budget, each pair
evaluated on its own by `iterated_commutator_apply`.  Restricted to the
generating words, the same loop is the exact reference for the shared
tables.  `_unpruned_scan` is the shared-table scan without the pruning, the
exact reference for the pruning, errors included.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastereq import operators
from mastereq.bv import BVAlgebra
from mastereq.coalgebra import Coderivation
from mastereq.constructions import ce_bv_from_dg_lie
from mastereq.diagnostics import CheckResult, InternalError, PreconditionError
from mastereq.graded import GradedVectorSpace
from mastereq.linalg import solve_linear
from mastereq.linfty import DgLieAlgebra
from mastereq.operators import (Operator, iterated_commutator_apply, operator_order_check,
                                prefix_commutators)
from mastereq.words import (SymmetricWordAlgebra, TensorWordAlgebra, TruncationOverflow,
                            vec_add_into, word_tuples_within)


def _order_check_oracle(algebra, op, n, vectors=None):
    """Order <= n tested on every (n+1)-tuple of `vectors` (default: the
    augmentation-ideal words), one `iterated_commutator_apply` per pair."""
    budget = algebra.max_len - max(0, op.max_raise)
    if vectors is None:
        vectors = algebra.augmentation_ideal_words()
    vectors = [w for w in vectors if len(w) <= budget]
    checked = 0
    for vs in itertools.combinations_with_replacement(vectors, n + 1):
        used = sum(len(v) for v in vs)
        if used > budget:
            continue
        for w in algebra.words:
            if used + len(w) > budget:
                continue
            checked += 1
            result = iterated_commutator_apply(algebra, op, list(vs), w)
            if any(result.values()):
                witness = {
                    "test_vectors": [algebra.label(v) for v in vs],
                    "word": algebra.label(w),
                    "value": {algebra.label(u): str(c) for u, c in sorted(result.items()) if c},
                }
                return CheckResult(f"order<={n}", False, witness=witness,
                                   bound={"word_length": algebra.max_len, "checked": checked})
    return CheckResult(f"order<={n}", True,
                       bound={"word_length": algebra.max_len, "checked": checked})


def _unpruned_scan(algebra, op, n):
    """`operator_order_check` without the pruning: every (generator tuple,
    target) pair inside the budget through the shared prefix tables."""
    budget = algebra.max_len - max(0, op.max_raise)
    gens = [w for w in algebra.generator_words() if len(w) <= budget]

    def apply_op(x):
        try:
            return op.apply_word(x)
        except TruncationOverflow:
            raise PreconditionError(
                f"order check: {op.name or 'the operator'} is undefined on "
                f"{algebra.label(x)}, a word inside the length budget "
                f"N - max_raise = {algebra.max_len} - {op.max_raise}") from None

    commutators = prefix_commutators(algebra, op.degree, n + 1, apply_op, algebra.mul_words)
    checked = 0
    for vs in word_tuples_within(gens, n + 1, budget):
        used = sum(len(v) for v in vs)
        commutator = commutators(vs)
        for w in algebra.words:
            if used + len(w) > budget:
                continue
            checked += 1
            value = commutator(w)
            if not value:
                continue
            result = iterated_commutator_apply(algebra, op, list(vs), w)
            if result != value:
                raise InternalError("shared tables and the definition disagree")
            witness = {
                "test_vectors": [algebra.label(v) for v in vs],
                "word": algebra.label(w),
                "value": {algebra.label(u): str(c) for u, c in sorted(result.items()) if c},
            }
            return CheckResult(f"order<={n}", False, witness=witness,
                               bound={"word_length": algebra.max_len, "checked": checked})
    return CheckResult(f"order<={n}", True,
                       bound={"word_length": algebra.max_len, "checked": checked})


def _assert_witness_reproduces(algebra, op, witness):
    vs = [algebra.word_of_label(label) for label in witness["test_vectors"]]
    value = iterated_commutator_apply(algebra, op, vs, algebra.word_of_label(witness["word"]))
    assert any(value.values())
    assert {algebra.label(u): str(c) for u, c in sorted(value.items()) if c} == witness["value"]


# -- letters-only vs all words on random free graded-commutative algebras ------

coefficients = st.integers(-2, 2).filter(bool).map(Fraction)


def _homogeneous_pairs(A, sources, degree):
    # raising length by at most one leaves a budget for every n the algebra admits
    return [(w, u) for w in sources for u in A.words
            if A.degree(u) == A.degree(w) + degree and len(u) <= len(w) + 1]


def _perturbed(draw, A, op):
    """`op`, or `op` with one entry changed in a random homogeneous place."""
    perturbable = _homogeneous_pairs(A, sorted(op.defined), op.degree)
    if not (perturbable and draw(st.booleans())):
        return op
    w, u = draw(st.sampled_from(perturbable))
    entries = {k: dict(v) for k, v in op.entries.items()}
    image = entries.setdefault(w, {})
    image[u] = image.get(u, 0) + draw(coefficients)
    return Operator(A, op.degree, entries, op.defined)


def _extension(draw, A, degree, pairs):
    """The coderivation of a table of at most three (key, value) words
    drawn from `pairs`."""
    table: dict = {}
    for key, value in draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []:
        table.setdefault(key, {})[value] = draw(coefficients)
    return Operator.from_function(A, degree, Coderivation(A, degree, table).expand)


@st.composite
def order_cases(draw, max_len=4, max_n=2):
    """(algebra, operator, n, order of the unperturbed operator or None)."""
    degrees = draw(st.lists(st.sampled_from((-1, 0, 1, 2)), min_size=1, max_size=3))
    A = SymmetricWordAlgebra(GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees)),
                             draw(st.integers(2, max_len)))
    letters = A.generator_words()
    kind = draw(st.sampled_from(("sparse", "multiplication", "derivation", "ce-delta")))
    if kind == "sparse":
        degree = draw(st.integers(-1, 1))
        pairs = _homogeneous_pairs(A, A.words, degree)
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
        entries = {}
        for w, u in chosen:
            entries.setdefault(w, {})[u] = draw(coefficients)
        op, order = Operator(A, degree, entries), None
    elif kind == "multiplication":
        a = draw(st.sampled_from(((),) + letters))
        op = Operator.from_function(A, A.degree(a), lambda w: A.mul_words(a, w), name="L")
        order = 0
    elif kind == "derivation":
        degree = draw(st.integers(-1, 1))
        op = _extension(draw, A, degree, _homogeneous_pairs(A, letters, degree))
        order = 1
    else:
        # a bracket of degree -1 on the desuspended letters, read on sorted pairs
        pairs = [(a + b, t) for a, b in itertools.combinations_with_replacement(letters, 2)
                 for t in letters if A.degree(t) == A.degree(a) + A.degree(b) - 1]
        op, order = _extension(draw, A, -1, pairs), 2
    perturbed = _perturbed(draw, A, op)
    if perturbed is not op:
        op, order = perturbed, None
    budget = A.max_len - max(0, op.max_raise)
    return A, op, draw(st.integers(0, min(max_n, budget - 1))), order


@settings(max_examples=150, deadline=None, derandomize=True)
@given(order_cases())
def test_generator_tuples_agree_with_all_words(case):
    A, op, n, order = case
    expected = _order_check_oracle(A, op, n)
    got = operator_order_check(A, op, n)
    if order is not None and order <= n:
        assert expected.ok
    assert got.ok == expected.ok
    if not got.ok:
        assert all(len(A.word_of_label(v)) == 1 for v in got.witness["test_vectors"])
        _assert_witness_reproduces(A, op, got.witness)


# -- shared prefix tables against one definition call per pair ------------------


@st.composite
def tensor_cases(draw):
    """(shuffle algebra, operator, n): sparse operators, left multiplications
    and their products, letter-level derivation extensions, maybe perturbed."""
    degrees = draw(st.lists(st.sampled_from((-1, 0, 1, 2)), min_size=1, max_size=2))
    A = TensorWordAlgebra(GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees)),
                          draw(st.integers(2, 4)))
    letters = [w for w in A.words if len(w) == 1]
    kind = draw(st.sampled_from(("sparse", "multiplication", "derivation")))
    if kind == "sparse":
        degree = draw(st.integers(-1, 1))
        pairs = _homogeneous_pairs(A, A.words, degree)
        entries: dict = {}
        for w, u in draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []:
            entries.setdefault(w, {})[u] = draw(coefficients)
        op = Operator(A, degree, entries)
    elif kind == "multiplication":
        factors = draw(st.lists(st.sampled_from([()] + letters), min_size=1, max_size=2))
        op = Operator.from_function(A, A.degree(factors[0]), lambda w: A.mul_words(factors[0], w))
        for a in factors[1:]:
            op = Operator.from_function(A, A.degree(a), lambda w: A.mul_words(a, w)).compose(op)
        if not op.entries:
            # x ш x = 0 for odd x: state the product as zero on every word
            op = Operator.zero(A, op.degree)
    else:
        degree = draw(st.integers(-1, 1))
        pairs = _homogeneous_pairs(A, letters, degree)
        values: dict = {}
        for (x,), u in draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []:
            values.setdefault(x, {})[u] = draw(coefficients)

        def derivation(word):
            # each letter's value multiplied back in place, past the prefix
            out: dict = {}
            for i, x in enumerate(word):
                sign = -1 if (degree * A.degree(word[:i])) % 2 else 1
                for w, c in A.mul(A.mul({word[:i]: 1}, values.get(x, {})), {word[i + 1:]: 1}).items():
                    vec_add_into(out, w, sign * c)
            return out

        op = Operator.from_function(A, degree, derivation)
    op = _perturbed(draw, A, op)
    budget = A.max_len - max(0, op.max_raise)
    return A, op, draw(st.integers(0, max(0, min(3, budget - 1))))


def _assert_same_as_generator_loop(A, op, n):
    expected = _order_check_oracle(A, op, n, A.generator_words())
    got = operator_order_check(A, op, n)
    assert (got.ok, got.witness, got.bound["checked"]) == \
        (expected.ok, expected.witness, expected.bound["checked"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(order_cases(max_len=5, max_n=3))
def test_shared_tables_equal_the_definition_on_symmetric_words(case):
    A, op, n, _ = case
    _assert_same_as_generator_loop(A, op, n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tensor_cases())
def test_shared_tables_equal_the_definition_on_tensor_words(case):
    _assert_same_as_generator_loop(*case)


# -- pruning against the unpruned scan ---------------------------------------------


def _outcome(check, A, op, n):
    """(ok, witness, bound) of `check`, or the message of the error it raised."""
    try:
        result = check(A, op, n)
    except PreconditionError as err:
        return str(err)
    return result.ok, result.witness, result.bound


def _assert_same_as_unpruned(A, op, n):
    expected = _outcome(_unpruned_scan, A, op, n)
    assert _outcome(operator_order_check, A, op, n) == expected
    return expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(order_cases(max_len=5, max_n=3).map(lambda case: case[:3]), tensor_cases()))
def test_pruning_equals_the_unpruned_scan(case):
    _assert_same_as_unpruned(*case)


@st.composite
def lone_entry_cases(draw):
    """The zero operator plus one entry on a word of length N, the longest
    inside the budget; and whether that entry must break order <= n."""
    degrees = draw(st.lists(st.sampled_from((-1, 0, 1, 2)), min_size=1, max_size=3))
    space = GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees))
    A = draw(st.sampled_from((SymmetricWordAlgebra, TensorWordAlgebra)))(space, draw(st.integers(1, 5)))
    longest = [w for w in A.words if len(w) == A.max_len]
    if not longest:
        # an odd letter twice is no symmetric word: the longest words are shorter
        longest = [w for w in A.words if len(w) == max(map(len, A.words))]
    w, u = draw(st.sampled_from(longest)), draw(st.sampled_from(A.words))
    op = Operator(A, A.degree(u) - A.degree(w), {w: {u: draw(coefficients)}})
    n = draw(st.integers(0, min(3, len(w) - 1)))
    # some split of w into n + 1 generators and a target multiplies back to
    # a nonzero multiple of w: always for symmetric words, and for shuffles
    # of even letters, whose coefficients are positive
    return A, op, n, A.symmetric or all(A.space.degree(x) % 2 == 0 for x in w)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lone_entry_cases())
def test_pruning_does_not_hide_a_lone_entry_at_the_top_of_the_budget(case):
    A, op, n, must_fail = case
    expected = _assert_same_as_unpruned(A, op, n)
    if must_fail and op.max_raise == 0:
        ok, witness, _ = expected
        assert not ok
        _assert_witness_reproduces(A, op, witness)


@st.composite
def undefined_word_cases(draw):
    """A drawn case with one word inside its budget taken out of the defined set."""
    A, op, n = draw(st.one_of(order_cases(max_len=5, max_n=3).map(lambda case: case[:3]),
                              tensor_cases()))
    budget = A.max_len - max(0, op.max_raise)
    w = draw(st.sampled_from([u for u in A.words if len(u) <= budget]))
    entries = {k: v for k, v in op.entries.items() if k != w}
    return A, Operator(A, op.degree, entries, op.defined - {w}, op.name), n


@settings(max_examples=150, deadline=None, derandomize=True)
@given(undefined_word_cases())
def test_an_undefined_word_raises_or_passes_as_the_unpruned_scan(case):
    _assert_same_as_unpruned(*case)


def test_undefined_word_is_not_pruned_away():
    # the zero operator is zero on its stored entries, but undefined on x0·x1
    A = SymmetricWordAlgebra(GradedVectorSpace([("x0", 0), ("x1", 0)]), 3)
    op = Operator(A, 0, {}, set(A.words) - {("x0", "x1")})
    for n in (0, 1, 2):
        with pytest.raises(PreconditionError, match="undefined on x0·x1"):
            operator_order_check(A, op, n)
        _assert_same_as_unpruned(A, op, n)


def _counting_top_level(monkeypatch):
    """Count the top-level commutator evaluations of the order checks."""
    calls = []

    def counted(*args):
        at = prefix_commutators(*args)

        def spy(vs):
            top = at(vs)
            return lambda x: calls.append(x) or top(x)

        spy.level = at.level
        return spy

    monkeypatch.setattr(operators, "prefix_commutators", counted)
    return calls


def test_a_zero_differential_is_never_applied(monkeypatch):
    bv = _even_letter_ce(4, 5)
    applied = []
    apply_word = Operator.apply_word
    monkeypatch.setattr(Operator, "apply_word",
                        lambda self, w: applied.append(w) or apply_word(self, w))
    tops = _counting_top_level(monkeypatch)
    cert = operator_order_check(bv.algebra, bv.d, 1, name="d order<=1")
    assert cert.ok and cert.bound["checked"] == 750
    assert applied == [] and tops == []


def test_delta_skips_the_prefixes_whose_commutator_vanishes(monkeypatch):
    # [x_i, x_j] = 0 for i != j and w is central, so C_1(x_i, x_j) and
    # C_0(w) vanish on their windows; only the tuples (x_i, x_i, v) are scanned
    bv = _even_letter_ce(4, 5)
    tops = _counting_top_level(monkeypatch)
    cert = operator_order_check(bv.algebra, bv.delta, 2, name="delta order<=2")
    assert cert.ok and cert.bound["checked"] == 700
    assert 0 < len(tops) < 700
    assert cert.bound == _unpruned_scan(bv.algebra, bv.delta, 2).bound


def test_shared_tables_reset_with_their_prefix():
    # on the CE algebra of [x1, x1] = [x2, x2] = w, Delta has order 2: n = 2
    # and n = 3 run through every prefix.  A defect on x2^4 is first seen
    # after the prefix (x1, x1) gave way to (x1, x2), one on x2^5 after the
    # prefix (x1) gave way to (x2)
    bv = _even_letter_ce(2, 5)
    A = bv.algebra
    for n in (0, 1, 2, 3):
        _assert_same_as_generator_loop(A, bv.delta, n)
    for w, first in ((("x2",) * 4, ["x1", "x2"]), (("x2",) * 5, ["x2", "x2"])):
        entries = {k: dict(v) for k, v in bv.delta.entries.items()}
        u = next(u for u in A.words if A.degree(u) == A.degree(w) - 1)
        entries.setdefault(w, {})[u] = Fraction(1)
        delta = Operator(A, bv.delta.degree, entries, bv.delta.defined)
        for n in (2, 3):
            _assert_same_as_generator_loop(A, delta, n)
            assert operator_order_check(A, delta, n).witness["test_vectors"][:2] == first


# -- why tensor words keep every word ------------------------------------------


def _lyndon_derivation():
    """On the shuffle algebra of a, b (degree 0) cut at length 3: the derivation
    taking the Lyndon generator a⊗b to 1 and killing a, b, a⊗a⊗b, a⊗b⊗b."""
    A = TensorWordAlgebra(GradedVectorSpace([("a", 0), ("b", 0)]), 3)
    derivative = {("a",): {}, ("b",): {}, ("a", "b"): {(): Fraction(1)},
                  ("a", "a", "b"): {}, ("a", "b", "b"): {}}
    # the shuffle monomials in the Lyndon words form a basis of the 15 words
    monomials = [m for k in range(4) for m in itertools.combinations_with_replacement(derivative, k)
                 if sum(map(len, m)) <= 3]
    assert len(monomials) == len(A.words)

    def product(factors):
        out = {(): Fraction(1)}
        for g in factors:
            out = A.mul(out, {g: Fraction(1)})
        return out

    expansions = [product(m) for m in monomials]
    images = []
    for m in monomials:
        image: dict = {}
        for i, g in enumerate(m):
            for u, c in A.mul(derivative[g], product(m[:i] + m[i + 1:])).items():
                image[u] = image.get(u, 0) + c
        images.append(image)
    rows = [[e.get(w, Fraction(0)) for w in A.words] for e in expansions]
    entries: dict = {}
    for u in A.words:
        column = solve_linear(rows, [image.get(u, Fraction(0)) for image in images])
        for w, c in zip(A.words, column):
            if c:
                entries.setdefault(w, {})[u] = c
    return A, Operator(A, 0, entries, name="d_L")


def test_tensor_words_need_more_than_letters(monkeypatch):
    A, op = _lyndon_derivation()
    assert op.apply_word(("a", "b")) == {(): 1}
    assert op.apply_word(("a",)) == {} and op.apply_word(("a", "a", "b")) == {}
    low = operator_order_check(A, op, 0)
    assert not low.ok
    assert low.witness["test_vectors"] == ["a⊗b"]
    _assert_witness_reproduces(A, op, low.witness)
    assert operator_order_check(A, op, 1).ok
    assert low.ok == _order_check_oracle(A, op, 0).ok
    # letters alone do not generate the shuffle algebra and miss the defect
    monkeypatch.setattr(A, "generator_words", lambda: (("a",), ("b",)))
    assert operator_order_check(A, op, 0).ok


# -- the even-letter CE family ---------------------------------------------------


def _even_letter_ce(d, N):
    """x_1..x_d of degree 1, w of degree 2, [x_i, x_i] = w."""
    letters = [f"x{i}" for i in range(1, d + 1)]
    space = GradedVectorSpace([(x, 1) for x in letters] + [("w", 2)])
    return ce_bv_from_dg_lie(DgLieAlgebra(space, {}, {(x, x): {"w": 1} for x in letters}), N)


def _generator_pairs(A, op, n):
    budget = A.max_len - max(0, op.max_raise)
    return sum(1 for vs in itertools.combinations_with_replacement(A.generator_words(), n + 1)
               for w in A.words if n + 1 + len(w) <= budget)


def test_even_letter_ce_family_order_certificates():
    bv = _even_letter_ce(3, 5)
    A = bv.algebra
    certs = {c.name: c for c in bv.certify()}
    assert all(c.ok for c in certs.values())
    assert certs["d order<=1"].bound["checked"] == _generator_pairs(A, bv.d, 1)
    assert certs["delta order<=2"].bound["checked"] == _generator_pairs(A, bv.delta, 2)
    assert certs["delta order<=2"].bound["checked"] < _order_check_oracle(A, bv.delta, 2).bound["checked"]

    # Delta has degree -1: only length-3 words holding w have a word one degree lower
    corruptions = [(w, next(u for u in A.words if A.degree(u) == A.degree(w) - 1))
                   for w in A.words if len(w) == 3 and "w" in w]
    assert len(corruptions) == 6
    for w, u in corruptions:
        entries = {k: dict(v) for k, v in bv.delta.entries.items()}
        image = entries.setdefault(w, {})
        image[u] = image.get(u, 0) + 1
        delta = Operator(A, bv.delta.degree, entries, bv.delta.defined, bv.delta.name)
        cert = next(c for c in BVAlgebra(A, bv.d, delta).certify() if c.name == "delta order<=2")
        assert not cert.ok
        assert all(v in {"x1", "x2", "x3", "w"} for v in cert.witness["test_vectors"])
        _assert_witness_reproduces(A, delta, cert.witness)


def test_undefined_word_inside_the_budget_is_a_precondition_error():
    # L_x on the shuffle algebra of one odd letter, N = 3: x ш x = 0, and
    # L_x is undefined on x⊗x⊗x.  L_x∘L_x is zero where it is defined, so its
    # max_raise reads 0, but it is undefined on x⊗x and x⊗x⊗x; the order
    # check reaches x⊗x⊗x as x ш (x⊗x) inside the budget N - max_raise = 3.
    A = TensorWordAlgebra(GradedVectorSpace([("x", 1)]), 3)
    L = Operator.from_function(A, 1, lambda w: A.mul({("x",): 1}, {w: 1}), name="L_x")
    op = L.compose(L)
    assert op.entries == {} and op.defined == {(), ("x",)} and op.max_raise == 0
    with pytest.raises(PreconditionError, match=r"undefined on x⊗x⊗x.*N - max_raise = 3 - 0"):
        operator_order_check(A, op, 0)
    # L_x raises length by one and is defined on every word within N - 1
    assert operator_order_check(A, L, 0) == _order_check_oracle(A, L, 0, A.generator_words())
    assert operator_order_check(A, L, 0).ok
