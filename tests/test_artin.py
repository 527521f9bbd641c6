import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastereq.artin import ArtinLocalAlgebra, power_ring, quotient, square_zero_ring
from mastereq.diagnostics import PreconditionError, StructureError
from mastereq.linalg import rref, solve_linear

from alg_fixtures import monomial_ring


def test_power_ring_nilpotency():
    for n in range(2, 6):
        R = power_ring(n)
        assert R.nilpotency == n
        assert R.order("t") == 1
        if n > 2:
            assert R.order("t^2") == 2
        assert R.adapted


def test_power_ring_below_order_one_names_the_window():
    with pytest.raises(PreconditionError, match=r"nilpotency order M = 0 of k\[t\]/\(t\^M\)"):
        power_ring(0)


def test_power_ring_multiplication():
    R = power_ring(4)
    assert R.mul_labels("t", "t^2") == {"t^3": 1}
    assert R.mul_labels("t^2", "t^3") == {}
    assert R.mul_labels("1", "t") == {"t": 1}


def test_square_zero_ring():
    R = square_zero_ring()
    assert R.nilpotency == 2
    assert R.mul_labels("s", "t") == {}
    assert R.adapted


def test_nonassociative_rejected():
    with pytest.raises(StructureError):
        ArtinLocalAlgebra(["1", "a", "b"], {("a", "a"): {"b": 1}, ("a", "b"): {"a": 1}})


def test_non_nilpotent_rejected():
    with pytest.raises(StructureError):
        ArtinLocalAlgebra(["1", "a"], {("a", "a"): {"a": 1}})


def test_dual_coalgebra_counit_and_coproduct():
    R = power_ring(3)
    dual = R.dual_coalgebra()
    assert dual.counit_key("1") == 1
    assert dual.counit_key("t") == 0
    cop = {(a, b): c for a, b, c in dual.coproduct("t^2")}
    assert cop == {("1", "t^2"): 1, ("t^2", "1"): 1, ("t", "t"): 1}


def test_dual_algebra_square_zero():
    R = power_ring(3)
    dual = R.dual_algebra()
    assert dual.mul_words("1", "t") == {"t": 1}
    assert dual.mul_words("t", "t") == {}
    assert dual.mul_words("t", "t^2") == {}


def rebased_power_ring(M: int, basis: list[list[int]]) -> ArtinLocalAlgebra:
    """k[t]/t^M on the basis 1, u_1..u_{M-1}, u_i = sum_j basis[i-1][j-1] t^j."""
    n = M - 1
    labels = [f"u{i}" for i in range(1, M)]
    columns = [[basis[c][j] for c in range(n)] for j in range(n)]
    products = {}
    for a in range(n):
        for b in range(n):
            t_coords = [0] * n  # t_coords[k-1] is the coefficient of t^k
            for i in range(n):
                for j in range(n):
                    if i + j + 2 < M:
                        t_coords[i + j + 1] += basis[a][i] * basis[b][j]
            u_coords = solve_linear(columns, t_coords)
            products[(labels[a], labels[b])] = {u: c for u, c in zip(labels, u_coords) if c}
    return ArtinLocalAlgebra(["1", *labels], products, name=f"rebased k[t]/t^{M}")


@st.composite
def rings(draw):
    kind = draw(st.sampled_from(["power", "square-zero", "rebased"]))
    if kind == "power":
        return power_ring(draw(st.integers(1, 8)))
    if kind == "square-zero":
        return square_zero_ring([f"x{i}" for i in range(draw(st.integers(1, 4)))])
    # basis = lower unitriangular times upper unitriangular: invertible over Z
    M = draw(st.integers(2, 6))
    n = M - 1
    entry = st.integers(-2, 2)
    lower = [[1 if i == j else (draw(entry) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (draw(entry) if j > i else 0) for j in range(n)] for i in range(n)]
    basis = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return rebased_power_ring(M, basis)


def _filtration_by_rank(ring):
    """(nilpotency, orders, adapted) by the two-rank span test: v lies in the
    span of `rows` when appending it leaves the rank unchanged."""
    labels = ring.ideal_labels

    def rank(rows):
        return len(rref(rows)[0])

    def coords(elt):
        return [elt.get(x, 0) for x in labels]

    def in_span(rows, v):
        return rank(rows + [v]) == rank(rows)

    powers = []  # powers[k-1] is a basis of m^k
    span = [coords({x: 1}) for x in labels]
    while span:
        powers.append(span)
        span = []
        for a in labels:
            for row in powers[-1]:
                v = coords(ring.mul({a: 1}, dict(zip(labels, row))))
                if not in_span(span, v):
                    span.append(v)
    units = {x: coords({x: 1}) for x in labels}
    orders = {x: max(k for k, rows in enumerate(powers, 1) if in_span(rows, units[x]))
              for x in labels}
    adapted = all(len(rows) == sum(1 for x in labels if orders[x] >= k)
                  for k, rows in enumerate(powers, 1))
    return len(powers) + 1, orders, adapted


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rings())
def test_filtration_matches_the_rank_oracle(ring):
    nilpotency, orders, adapted = _filtration_by_rank(ring)
    assert ring.nilpotency == nilpotency
    assert {x: ring.order(x) for x in ring.ideal_labels} == orders
    assert ring.adapted == adapted


def test_filtration_on_rebased_power_rings():
    # k[t]/t^4 on 1, t+t^2, t^2, t^3: adapted, orders 1, 2, 3
    R = rebased_power_ring(4, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert [R.order(x) for x in R.ideal_labels] == [1, 2, 3] and R.adapted
    # on 1, t, t+t^2, t^3: m^2 = <t^2, t^3> holds neither t nor t+t^2, so it is
    # not spanned by basis labels
    R = rebased_power_ring(4, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    assert [R.order(x) for x in R.ideal_labels] == [1, 1, 3] and not R.adapted
    assert R.nilpotency == 4
    assert _filtration_by_rank(R) == (4, {"u1": 1, "u2": 1, "u3": 3}, False)


def test_quotient_keeps_the_low_orders_and_is_built_once():
    R = power_ring(6)
    Q = quotient(R, 2)
    assert Q.labels == ("1", "t", "t^2") and Q.nilpotency == 3
    assert Q.mul_labels("t", "t") == {"t^2": 1} and Q.mul_labels("t", "t^2") == {}
    assert quotient(R, 2) is Q and quotient(R, 5) is R and quotient(R, 9) is R
    R = monomial_ring("k[s,t]/(s^2,t^3)", lambda a, b: a < 2 and b < 3)
    Q = quotient(R, 2)
    assert Q.labels == ("1", "s", "t", "st", "t^2") and Q.nilpotency == 3 and Q.adapted
    assert [Q.order(x) for x in Q.labels] == [R.order(x) for x in Q.labels]
    assert Q.mul_labels("s", "t") == {"st": 1} and Q.mul_labels("s", "t^2") == {}
    assert quotient(R, 3) is R
    # on 1, t, t+t^2, t^3 no set of basis labels spans m^2: no quotient is formed
    with pytest.raises(PreconditionError, match="not adapted"):
        quotient(rebased_power_ring(4, [[1, 0, 0], [1, 1, 0], [0, 0, 1]]), 1)
