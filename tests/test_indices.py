import pytest

from bethe.indices import IndexSet, ZMatrix, parse_z_spec
from bethe.rationals import Q


def test_plain_indices():
    iset = IndexSet.plain(3)
    assert iset.indices() == (1, 2, 3)
    assert 2 in iset and 0 not in iset


def test_signed_indices_even_and_odd():
    assert IndexSet.signed(4, "so").indices() == (-2, -1, 1, 2)
    assert IndexSet.signed(3, "so").indices() == (-1, 0, 1)
    with pytest.raises(ValueError):
        IndexSet.signed(3, "sp")


def test_eps_values():
    sp = IndexSet.signed(2, "sp")
    so = IndexSet.signed(3, "so")
    assert sp.eps(1, 1) == 1 and sp.eps(1, -1) == -1 and sp.eps(-1, -1) == 1
    assert all(so.eps(i, j) == 1 for i in so.indices() for j in so.indices())
    with pytest.raises(ValueError):
        IndexSet.plain(2).eps(1, 1)


def test_diagonal_z_and_simple_spectrum():
    iset = IndexSet.plain(3)
    z = parse_z_spec("diag:1,2,3", iset)
    assert z.entry(2, 2) == 2 and z.entry(1, 3) == 0
    assert z.simple_spectrum
    assert not parse_z_spec("diag:1,1,3", iset).simple_spectrum


def test_signed_diag_fill_skew_and_symmetric():
    sp = IndexSet.signed(2, "sp")
    z = parse_z_spec("diag:5", sp, "prime_skew")
    assert z.entry(-1, -1) == -5 and z.entry(1, 1) == 5
    so3 = IndexSet.signed(3, "so")
    zs = parse_z_spec("diag:2", so3, "prime_symmetric")
    assert zs.entry(-1, -1) == 2
    zk = parse_z_spec("diag:2", so3, "prime_skew")
    assert zk.entry(0, 0) == 0 and zk.entry(-1, -1) == -2


def test_symmetry_tag_is_checked():
    sp = IndexSet.signed(2, "sp")
    with pytest.raises(ValueError):
        ZMatrix.diagonal(sp, [Q(1), Q(1)], "prime_skew")
    ZMatrix.diagonal(sp, [Q(-1), Q(1)], "prime_skew")  # fine


def test_json_z_spec(tmp_path):
    path = tmp_path / "z.json"
    path.write_text('[[1, 1, "1/2"], [1, 2, "3"]]')
    z = parse_z_spec(f"json:{path}", IndexSet.plain(2))
    assert z.entry(1, 1) == Q(1, 2) and z.entry(1, 2) == 3


def test_unknown_spec_rejected():
    with pytest.raises(ValueError):
        parse_z_spec("nope:1", IndexSet.plain(2))
