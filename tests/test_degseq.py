from collections import Counter
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from treeirr import (
    DegreeSequence,
    NotTreeGraphical,
    Tree,
    caterpillar,
    compute_indices,
    degrees,
    path,
    prufer_decode,
    prufer_encode,
    star,
    validate_tree_sequence,
)
from treeirr.degseq import caterpillar_sigma, parse_degree_sequence

from _brute import caterpillar_sigma_per_slot, degree_sequence_of, tree_graphical


class TestValidation:
    @pytest.mark.parametrize("values", [(3, 1, 1, 1), (2, 2, 1, 1), (0,), (1, 1)])
    def test_accepts(self, values):
        seq = validate_tree_sequence(values)
        assert tree_graphical(seq.values)

    def test_sorts_input(self):
        assert validate_tree_sequence([1, 3, 1, 1]).values == (3, 1, 1, 1)

    def test_rejects_bad_sum(self):
        with pytest.raises(NotTreeGraphical, match="sum"):
            validate_tree_sequence((2, 2, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(NotTreeGraphical, match="zero or negative"):
            validate_tree_sequence((2, 1, 1, 0))

    def test_rejects_empty(self):
        with pytest.raises(NotTreeGraphical, match="empty"):
            validate_tree_sequence(())

    def test_rejects_lone_nonzero(self):
        with pytest.raises(NotTreeGraphical):
            validate_tree_sequence((1,))

    def test_multiset_notation(self):
        seq = validate_tree_sequence((3, 2, 2, 1, 1, 1))
        assert Counter(seq.values) == {3: 1, 2: 2, 1: 3}

    def test_unsorted_rejected_by_type(self):
        with pytest.raises(ValueError, match="non-increasing"):
            DegreeSequence((1, 2))

    def test_parse_line(self):
        assert parse_degree_sequence(" 1 3 1 1 ").values == (3, 1, 1, 1)
        with pytest.raises(NotTreeGraphical, match="non-integer"):
            parse_degree_sequence("1 x 1")


class TestPrufer:
    def test_encode_path(self):
        assert prufer_encode(path(4)) == (1, 2)

    def test_decode_star(self):
        assert prufer_decode((0, 0), 4) == star(3)

    def test_two_vertex_roundtrip(self):
        assert prufer_encode(path(2)) == ()
        assert prufer_decode((), 2) == path(2)

    def test_code_multiplicity_matches_degree(self):
        t = caterpillar((3, 5))
        code = prufer_encode(t)
        for v in range(t.n):
            assert code.count(v) == len(t.adjacency[v]) - 1

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            prufer_decode((4,), 3)

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            prufer_decode((0,), 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_roundtrip_and_cayley_count(self, n):
        seen = set()
        for code in product(range(n), repeat=n - 2):
            t = prufer_decode(code, n)
            assert prufer_encode(t) == code
            assert_rebuilds_validated(t)
            seen.add(t.edges)
        assert len(seen) == n ** (n - 2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_roundtrip_random(self, data):
        n = data.draw(st.integers(2, 9))
        code = tuple(
            data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        )
        assert prufer_encode(prufer_decode(code, n)) == code

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_decode_rebuilds_validated(self, data):
        n = data.draw(st.integers(2, 300))
        rng = data.draw(st.randoms(use_true_random=True))
        code = [rng.randrange(n) for _ in range(n - 2)]
        assert_rebuilds_validated(prufer_decode(code, n))


def assert_rebuilds_validated(t):
    # The builders skip Tree validation; a validated rebuild must agree.
    rebuilt = Tree(t.n, t.edges)
    assert t == rebuilt
    assert t.edges == rebuilt.edges
    assert t.adjacency == rebuilt.adjacency


class TestBuilders:
    def test_star_degrees(self):
        t = star(4)
        assert degree_sequence_of(t.n, t.edges) == (4, 1, 1, 1, 1)

    def test_path_order_one(self):
        assert path(1) == Tree(1, [])

    def test_caterpillar_two_spine(self):
        t = caterpillar((3, 5))
        assert t.n == 8
        assert sum(degrees(t)) == 14
        assert degrees(t)[:2] == (3, 5)

    def test_caterpillar_odd_spine_family(self):
        # Spine degrees 3, 5, ..., 2m+1 give order m^2 + m + 2.
        for m in range(1, 8):
            spine = [2 * k + 1 for k in range(1, m + 1)]
            t = caterpillar(spine)
            assert t.n == m * m + m + 2
            assert sum(spine) == m * (m + 2)

    def test_caterpillar_prescribes_spine_degrees(self):
        spine = (4, 2, 3, 5)
        t = caterpillar(spine)
        for i, s in enumerate(spine):
            assert len(t.adjacency[i]) == s

    def test_caterpillar_rejects_internal_low_degree(self):
        with pytest.raises(ValueError, match="infeasible"):
            caterpillar((3, 1, 3))

    def test_caterpillar_single_slot(self):
        assert caterpillar((3,)) == star(3)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_caterpillar_rebuilds_validated(self, data):
        # caterpillar skips Tree validation; a validated rebuild must agree.
        k = data.draw(st.integers(1, 8))
        floors = [1 if k == 1 or i in (0, k - 1) else 2 for i in range(k)]
        spine = [data.draw(st.integers(f, f + 5)) for f in floors]
        t = caterpillar(spine)
        assert_rebuilds_validated(t)
        deg = degrees(t)
        assert list(deg[:k]) == spine
        assert all(d == 1 for d in deg[k:])
        slot = data.draw(st.integers(0, k - 1))
        spine[slot] = data.draw(st.integers(-2, floors[slot] - 1))
        with pytest.raises(ValueError, match="infeasible"):
            caterpillar(spine)

    def test_star_and_path_rebuild_validated(self):
        for order in range(1, 201):
            assert_rebuilds_validated(path(order))
            if order > 1:
                assert_rebuilds_validated(star(order - 1))

    def test_builder_outputs_validate(self):
        for t in (star(5), path(6), caterpillar((2, 3, 4))):
            values = degree_sequence_of(t.n, t.edges)
            assert validate_tree_sequence(values).values == values


def assert_spine_sum(spine):
    # The oracle is the built caterpillar's full index bundle; the ordered
    # closed form the catalog tests is never used here.
    t = caterpillar(spine)
    assert caterpillar_sigma(spine) == (compute_indices(t).sigma, t.n), spine


class TestCaterpillarSigma:
    def test_sigma_ordered_default_space(self):
        # Every non-decreasing spine of length 2..8 with degrees 2..7: the
        # default parameter space of the sigma-ordered claim.
        spines = [
            spine
            for k in range(2, 9)
            for spine in combinations_with_replacement(range(2, 8), k)
        ]
        assert len(spines) == 2996
        for spine in spines:
            assert_spine_sum(spine)

    def test_every_ordering_of_the_reference_tuple(self):
        orderings = list(permutations((4, 8, 10, 14, 18, 20)))
        assert len(orderings) == 720
        for spine in orderings:
            assert_spine_sum(spine)

    def test_small_spines_by_hand(self):
        # A lone slot is a star; (2, 2) is the path on four vertices.
        assert caterpillar_sigma((3,)) == (12, 4)
        assert caterpillar_sigma((1,)) == (0, 2)
        assert caterpillar_sigma((2, 2)) == (2, 4)
        assert caterpillar_sigma((2, 2, 3)) == (10, 6)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-2, 30), min_size=1, max_size=12))
    def test_random_spines(self, spine):
        # Infeasible spines raise the same error as the builder.
        try:
            t = caterpillar(spine)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                caterpillar_sigma(spine)
            assert str(info.value) == str(exc)
            return
        assert caterpillar_sigma(spine) == (compute_indices(t).sigma, t.n)

    @pytest.mark.parametrize(
        "spine, slot, needs",
        [
            ((0,), 0, 1),
            ((-1,), 0, 1),
            ((1, 2), None, None),
            ((0, 2), 0, 1),
            ((-1, 3, 2), 0, 1),
            ((2, 1, 2), 1, 2),
            ((2, 0, 2), 1, 2),
            ((2, 3, -1, 2), 2, 2),
            ((2, 1, 0), 1, 2),
            ((2, 2, 1), None, None),
            ((2, 2, 0), 2, 1),
            ((3, -1), 1, 1),
        ],
    )
    def test_infeasible_slot_message(self, spine, slot, needs):
        # A lone slot and the two ends need degree >= 1, an interior slot
        # >= 2; both builders name the first infeasible slot alike.
        if slot is None:
            t = caterpillar(spine)
            assert caterpillar_sigma(spine) == (compute_indices(t).sigma, t.n)
            return
        message = f"infeasible spine degree {spine[slot]} at slot {slot} (needs >= {needs})"
        for build in (caterpillar, caterpillar_sigma):
            with pytest.raises(ValueError) as info:
                build(spine)
            assert str(info.value) == message

    def test_matches_per_slot_walk(self):
        # Every spine of length 0-6 over 0-5, feasible or not: the same
        # (sigma, order) as the walk with one backbone degree per slot, or the
        # same error from the same slot.
        for k in range(7):
            for spine in product(range(6), repeat=k):
                try:
                    want = caterpillar_sigma_per_slot(spine)
                except ValueError as exc:
                    with pytest.raises(ValueError) as info:
                        caterpillar_sigma(spine)
                    assert str(info.value) == str(exc), spine
                else:
                    assert caterpillar_sigma(spine) == want, spine

    def test_empty_spine_rejected(self):
        for build in (caterpillar, caterpillar_sigma):
            with pytest.raises(ValueError, match="empty spine"):
                build(())
