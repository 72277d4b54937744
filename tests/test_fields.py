"""Finite-field arithmetic tables."""

from hb.fields import FF, embedding, get_field, smallest_irreducible


def test_gf4_multiplication():
    F = FF(2, 2)
    # [TRIVIAL] u * u = u + 1 for the standard modulus u^2 + u + 1
    u = 2
    assert F.mul(u, u) == 3
    assert F.mul(u, 3) == 1
    for a in F.elements():
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_frobenius_fixes_prime_field():
    for q in (2, 3, 4, 5, 8, 9):
        F = get_field(q)
        for a in F.elements():
            x = a
            for _ in range(F.n):
                x = F.frobenius(1)[x]
            assert x == a


def test_pow_matches_repeated_mul():
    F = get_field(9)
    for a in range(1, 9):
        acc = 1
        for k in range(1, 6):
            acc = F.mul(acc, a)
            assert F.pow(a, k) == acc


def test_trace_is_additive_and_onto():
    F = FF(2, 2)
    traces = [F.trace_to_prime(a) for a in F.elements()]
    assert set(traces) == {0, 1}
    for a in F.elements():
        for b in F.elements():
            assert F.trace_to_prime(F.add(a, b)) \
                == (F.trace_to_prime(a) + F.trace_to_prime(b)) % 2


def test_embedding_is_a_ring_map():
    for small, big in ((2, 4), (2, 16), (3, 9), (4, 16)):
        emb = embedding(small, big)
        S, B = get_field(small), get_field(big)
        for a in S.elements():
            for b in S.elements():
                assert emb[S.mul(a, b)] == B.mul(emb[a], emb[b])
                assert emb[S.add(a, b)] == B.add(emb[a], emb[b])


def test_multiplicative_generator_order():
    for q in (4, 8, 9):
        F = get_field(q)
        g = F.multiplicative_generator()
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = F.mul(x, g)
            seen.add(x)
        assert len(seen) == q - 1


def test_smallest_irreducible_is_deterministic():
    assert smallest_irreducible(2, 2) == smallest_irreducible(2, 2)
    # [DERIVED] x^2 + x + 1 is the unique degree-2 irreducible over F_2
    assert tuple(smallest_irreducible(2, 2)) == (1, 1, 1)
