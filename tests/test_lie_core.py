from fractions import Fraction

import pytest

from contactpath.errors import InvalidParabolicError, InvalidRankError
from contactpath.lie_core import Weight, WeylWord, build_root_system


def brute_force_roots(rs):
    """Orbit of the simple roots under repeated simple reflections."""
    def reflect_vec(vec, alpha):
        num = 2 * sum(a * b for a, b in zip(vec, alpha))
        den = sum(a * a for a in alpha)
        coef = Fraction(num, den)
        return tuple(v - coef * a for v, a in zip(vec, alpha))

    roots = set(rs.simple_roots)
    frontier = set(roots)
    while frontier:
        new = set()
        for beta in frontier:
            for alpha in rs.simple_roots:
                img = reflect_vec(beta, alpha)
                if img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    return roots


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cartan_shape(n):
    rs = build_root_system(n)
    twos = 0
    for i in range(n):
        assert rs.cartan[i][i] == 2
        for j in range(n):
            if i != j:
                assert rs.cartan[i][j] in (0, -1, -2)
                if rs.cartan[i][j] == -2:
                    twos += 1
                    assert {i + 1, j + 1} == {n - 1, n}
    assert twos == 1


def test_cartan_n2_rows():
    rs = build_root_system(2)
    assert rs.cartan == [[2, -1], [-2, 2]]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_positive_root_count_brute_force(n):
    rs = build_root_system(n)
    roots = brute_force_roots(rs)
    positives = {r for r in roots if rs.vec_positive(r)}
    assert len(positives) == n * n
    assert len(roots) == 2 * n * n
    assert set(rs.positive_roots()) == positives
    # dim sp(n) = 2 * #positive + rank
    assert 2 * len(positives) + n == n * (2 * n + 1)


def test_invalid_rank():
    with pytest.raises(InvalidRankError):
        build_root_system(1)


def test_reflect_involution(rng):
    rs = build_root_system(4)
    for _ in range(100):
        w = Weight(tuple(rng.randint(-6, 6) for _ in range(4)))
        i = rng.randint(1, 4)
        assert rs.reflect(rs.reflect(w, i), i) == w


@pytest.mark.parametrize("n", [2, 3, 5])
def test_reflect_rho_drops_simple_root(n):
    rs = build_root_system(n)
    for i in range(1, n + 1):
        got = rs.to_epsilon(rs.reflect(rs.rho, i))
        want = tuple(
            a - b for a, b in zip(rs.to_epsilon(rs.rho), rs.simple_roots[i - 1])
        )
        assert got == want


def test_reflect_fixes_zero():
    rs = build_root_system(3)
    zero = Weight((0, 0, 0))
    for i in (1, 2, 3):
        assert rs.reflect(zero, i) == zero


def test_reflect_index_range():
    rs = build_root_system(3)
    with pytest.raises(InvalidRankError):
        rs.reflect(rs.rho, 4)


def test_epsilon_round_trip(rng):
    rs = build_root_system(5)
    for _ in range(50):
        w = Weight(tuple(rng.randint(-9, 9) for _ in range(5)))
        assert rs.from_epsilon(rs.to_epsilon(w)) == w


def test_affine_identity_word():
    rs = build_root_system(3)
    lam = Weight((2, -1, 3))
    assert rs.affine_action(WeylWord(()), lam) == lam


@pytest.mark.parametrize("n", [2, 3, 4])
def test_affine_single_reflection_on_zero(n):
    # s_i . 0 = s_i(rho) - rho = -alpha_i, verified in the epsilon basis
    rs = build_root_system(n)
    zero = Weight((0,) * n)
    for i in range(1, n + 1):
        got = rs.to_epsilon(rs.affine_action(WeylWord((i,)), zero))
        want = tuple(-a for a in rs.simple_roots[i - 1])
        assert got == want


def test_affine_group_action_property():
    # (w1 w2) . lam = w1 . (w2 . lam), brute force over words of length <= 3
    rs = build_root_system(3)
    lam = Weight((1, -2, 2))
    words = [()]
    for _ in range(3):
        words = [w + (i,) for w in words for i in (1, 2, 3)] + words
    words = {tuple(w) for w in words}
    for w1 in list(words)[:40]:
        for w2 in list(words)[:10]:
            combined = rs.affine_action(WeylWord(w1 + w2), lam)
            nested = rs.affine_action(WeylWord(w1), rs.affine_action(WeylWord(w2), lam))
            assert combined == nested


def test_affine_preserves_shifted_norm(rng):
    rs = build_root_system(4)
    words = rs.hasse_words({1, 2}, 3)
    for _ in range(30):
        lam = Weight(tuple(rng.randint(-4, 4) for _ in range(4)))
        base = rs.to_epsilon(lam + rs.rho)
        norm = sum(x * x for x in base)
        w = words[rng.randrange(len(words))]
        moved = rs.to_epsilon(rs.affine_action(w, lam) + rs.rho)
        assert sum(x * x for x in moved) == norm


def test_hasse_words_identity_at_zero_length():
    rs = build_root_system(4)
    out = rs.hasse_words({1, 2}, 0)
    assert [w.letters for w in out] == [()]


def test_hasse_counts_match_component_tables():
    rs4 = build_root_system(4)
    out = [w for w in rs4.hasse_words({1, 2}, 2) if w.length == 2]
    assert len(out) == 3
    rs3 = build_root_system(3)
    out = [w for w in rs3.hasse_words({1}, 2) if w.length == 2]
    assert len(out) == 1


def test_hasse_rejects_empty_parabolic():
    rs = build_root_system(3)
    with pytest.raises(InvalidParabolicError):
        rs.hasse_words(set(), 2)


@pytest.mark.parametrize("n,crossed", [(3, {1}), (3, {2}), (4, {1, 2}), (4, {2})])
def test_hasse_words_are_reduced_and_distinct_cosets(n, crossed):
    rs = build_root_system(n)
    words = rs.hasse_words(crossed, 3)

    # BFS distance in the Cayley graph is the reduced length
    dist = {rs.identity_perm(): 0}
    frontier = [rs.identity_perm()]
    depth = 0
    while frontier and depth < 3:
        depth += 1
        nxt = []
        for p in frontier:
            for i in range(1, n + 1):
                q = rs.compose(p, rs.simple_perm(i))
                if q not in dist:
                    dist[q] = depth
                    nxt.append(q)
        frontier = nxt
    for w in words:
        assert dist[rs.word_to_perm(w)] == w.length

    # Levi subgroup by brute force closure
    levi_gens = [rs.simple_perm(i) for i in range(1, n + 1) if i not in crossed]
    levi = {rs.identity_perm()}
    frontier = [rs.identity_perm()]
    while frontier:
        nxt = []
        for p in frontier:
            for g in levi_gens:
                q = rs.compose(p, g)
                if q not in levi:
                    levi.add(q)
                    nxt.append(q)
        frontier = nxt
    perms = [rs.word_to_perm(w) for w in words]
    for a in range(len(perms)):
        for b in range(a + 1, len(perms)):
            # same right coset iff w_a w_b^{-1} lies in the Levi subgroup
            rel = rs.compose(perms[a], rs.inverse_perm(perms[b]))
            assert rel not in levi
