"""Operator composition and sums keep what they build uncopied.

`Operator.compose` and `add` hand their freshly built entries and
defined set to the operator they return instead of passing them through the
public constructor, which copies both and drops zero coefficients and empty
images.  The oracles below build the same data naively, zeros and empty
images included, and pass it through the public constructor: the results
must agree exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from mastereq.graded import GradedVectorSpace
from mastereq.operators import Operator
from mastereq.words import SymmetricWordAlgebra

# small coefficients of both signs, so sums and products often cancel
coefficients = st.sampled_from((-2, -1, 1, 2))


@st.composite
def algebras(draw):
    degrees = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=3))
    space = GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees))
    return SymmetricWordAlgebra(space, draw(st.integers(1, 3)))


def operators(A, degree):
    """Sparse degree-homogeneous operators, defined on a random set of words."""

    @st.composite
    def build(draw):
        words = list(A.words)
        defined = {w for w in words if draw(st.booleans())}
        entries = {}
        for w in sorted(defined):
            targets = [u for u in words if A.degree(u) == A.degree(w) + degree]
            for u in draw(st.lists(st.sampled_from(targets), max_size=2)) if targets else []:
                entries.setdefault(w, {})[u] = draw(coefficients)
        return Operator(A, degree, entries, defined, name=draw(st.sampled_from(("a", "b"))))

    return build()


def _compose_oracle(outer, inner):
    entries, defined = {}, set()
    for w in inner.defined:
        img = inner.apply_word(w)
        if any(u not in outer.defined for u in img):
            continue
        targets = {t for u in img for t in outer.apply_word(u)}
        entries[w] = {t: sum(c * outer.apply_word(u).get(t, 0) for u, c in img.items())
                      for t in targets}
        defined.add(w)
    return Operator(outer.algebra, outer.degree + inner.degree, entries, defined,
                    f"{outer.name}∘{inner.name}")


def _add_oracle(a, b):
    defined = a.defined & b.defined
    entries = {w: {u: a.entries.get(w, {}).get(u, 0) + b.entries.get(w, {}).get(u, 0)
                   for u in {*a.entries.get(w, {}), *b.entries.get(w, {})}}
               for w in defined}
    return Operator(a.algebra, a.degree, entries, defined, f"{a.name}+{b.name}")


def _scale_oracle(a, c):
    return Operator(a.algebra, a.degree,
                    {w: {u: c * v for u, v in img.items()} for w, img in a.entries.items()},
                    a.defined, a.name)


def _assert_same(got, want):
    assert got.degree == want.degree and got.name == want.name
    assert got.entries == want.entries
    assert got.defined == want.defined


@st.composite
def operator_pairs(draw):
    """(a, b) on one algebra, with b often a multiple of a plus noise, so a + b cancels."""
    A = draw(algebras())
    a = draw(operators(A, draw(st.integers(-1, 1))))
    if draw(st.booleans()):
        b = draw(operators(A, a.degree))
    else:
        b = _scale_oracle(a, draw(st.sampled_from((-1, -2)))).add(_scale_oracle(
            draw(operators(A, a.degree)), draw(st.sampled_from((0, 1)))))
    return a, b, draw(operators(A, draw(st.integers(-1, 1))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(operator_pairs())
def test_compose_add_match_the_public_constructor(pair):
    a, b, other = pair
    _assert_same(a.compose(other), _compose_oracle(a, other))
    _assert_same(other.compose(a), _compose_oracle(other, a))
    _assert_same(a.compose(a), _compose_oracle(a, a))
    _assert_same(a.add(b), _add_oracle(a, b))
    _assert_same(a.compose(other).add(other.compose(a)),
                 _add_oracle(_compose_oracle(a, other), _compose_oracle(other, a)))


def _is_zero_oracle(op):
    """The full scan: every defined word in (length, word) order."""
    for w in sorted(op.defined, key=lambda u: (len(u), u)):
        img = op.entries.get(w)
        if img:
            return False, {"word": op.algebra.label(w),
                           "value": {op.algebra.label(u): str(c) for u, c in sorted(img.items())}}
    return True, None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(operator_pairs(), st.data())
def test_is_zero_on_defined_matches_the_full_scan(pair, data):
    a, b, other = pair
    # entries on words outside the defined set too: they are no witnesses
    A = a.algebra
    stray = Operator(A, a.degree, a.entries, {w for w in A.words if data.draw(st.booleans())}, "s")
    for op in (a, a.add(b), a.compose(other), a.compose(other).add(other.compose(a)), stray):
        got = op.is_zero_on_defined()
        assert (got.ok, got.witness) == _is_zero_oracle(op)
