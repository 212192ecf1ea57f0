import pytest

from bethe.indices import IndexSet
from bethe.rationals import Q, binomial
from bethe.tensor import (TensorElement, antisymmetrizer,
                          antisymmetrizer_oracle, flip, h_k_orientation,
                          perm_operator, perm_sign, q_tensor,
                          verify_antisymmetrizers, verify_mixed_yang_baxter,
                          verify_r_identities, verify_yang_baxter, yang_r)


def _all_ok(rows):
    bad = [item for item, ok in rows if not ok]
    assert not bad, bad


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((3, 1, 2)) == 1


def test_flip_squares_to_identity():
    iset = IndexSet.plain(3)
    p = flip(iset)
    assert p * p == TensorElement.identity(2, iset)


def test_q_tensor_is_rank_one_multiple():
    # Q^2 = N Q for the one-sided prime transpose of the flip
    iset = IndexSet.signed(2, "sp")
    q = q_tensor(iset)
    assert q * q == q.scale_rat(Q(iset.N))


def test_r_identities_all_sizes():
    for N in (2, 3, 4):
        _all_ok(verify_r_identities(IndexSet.plain(N)))
    for form, N in (("so", 3), ("so", 4), ("sp", 2), ("sp", 4)):
        _all_ok(verify_r_identities(IndexSet.signed(N, form)))


def test_yang_baxter():
    for N in (2, 3):
        _all_ok(verify_yang_baxter(IndexSet.plain(N)))


def test_mixed_yang_baxter():
    for form, N in (("so", 3), ("sp", 2)):
        _all_ok(verify_mixed_yang_baxter(IndexSet.signed(N, form)))
    with pytest.raises(ValueError):
        verify_mixed_yang_baxter(IndexSet.plain(2))


def test_antisymmetrizer_matches_oracle_and_projects():
    for N in (2, 3):
        iset = IndexSet.plain(N)
        for k in range(1, N + 1):
            h = antisymmetrizer(k, iset)
            assert h == antisymmetrizer_oracle(k, iset)
            assert h * h == h
            assert h.partial_trace_all() == binomial(N, k)


def test_top_antisymmetrizer_alternates():
    iset = IndexSet.plain(2)
    h = antisymmetrizer(2, iset)
    expect = (TensorElement.identity(2, iset)
              - perm_operator((2, 1), iset)).scale_rat(Q(1, 2))
    assert h == expect


def test_orientation_string_is_reported():
    s = h_k_orientation(2, IndexSet.plain(3))
    assert "outer=" in s and "inner=" in s


def test_h3_orientation_does_not_depend_on_the_index_set():
    # S_3 acts faithfully on V^{(x)3} once N >= 3, so the CLI may read the
    # orientation off the smallest such space
    ref = h_k_orientation(3, IndexSet.plain(3))
    for iset in (IndexSet.plain(4), IndexSet.plain(5),
                 IndexSet.signed(5, "so"), IndexSet.signed(6, "so"),
                 IndexSet.signed(4, "sp")):
        assert h_k_orientation(3, iset) == ref


def test_antisymmetrizer_suite():
    _all_ok(verify_antisymmetrizers(IndexSet.plain(4)))
