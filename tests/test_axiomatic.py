import functools
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasifit.axiomatic import (
    INF,
    ConvexityFamily,
    FunctionTable,
    GroundSet,
    SizeGuardError,
    caratheodory_number,
    convexity_extension,
    family_over_rows,
    hull,
    indicator_lift,
    is_closure_space,
    is_convexity_structure,
    l_convex_envelope,
    l_convex_sets,
    parse_family_text,
    parse_function_table_csv,
    sorted_members,
    strict_support_set,
    sup_of_rows,
    support_set,
)
from quasifit.axiomatic import _sets

from printers import family_to_text, function_table_to_csv


def fam(n, members):
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))
    return ConvexityFamily(ground, frozenset(frozenset(m) for m in members))


def power_family(n):
    ground = list(range(n))
    members = []
    for k in range(n + 1):
        members.extend(frozenset(c) for c in combinations(ground, k))
    return fam(n, members)


def interval_family(n):
    """Order convexity on a chain: all intervals [i..j] plus the empty set."""
    members = [frozenset()]
    for i in range(n):
        for j in range(i, n):
            members.append(frozenset(range(i, j + 1)))
    return fam(n, members)


# --- closure space and convexity structure axioms ----------------------------


def test_power_set_is_closure_space():
    assert is_closure_space(power_family(3))


def test_two_element_intervals_closure_space():
    assert is_closure_space(fam(2, [(), (0,), (1,), (0, 1)]))


def test_missing_intersection_fails():
    assert not is_closure_space(fam(3, [(), (0, 1), (1, 2), (0, 1, 2)]))


def test_missing_empty_or_ground_fails():
    assert not is_closure_space(fam(2, [(0,), (0, 1)]))
    assert not is_closure_space(fam(2, [(), (0,)]))


def test_closure_space_and_hull_past_64_elements():
    # masks wider than any fixed-width integer
    n = 70
    low, high, overlap = frozenset(range(65)), frozenset(range(60, n)), frozenset(range(60, 65))
    family = fam(n, [(), range(n), low, high, overlap, {69}])
    assert is_closure_space(family)
    assert not is_closure_space(fam(n, [(), range(n), low, high]))
    assert not is_closure_space(fam(n, [(), low, high, overlap]))
    assert hull(family, {62, 64}) == overlap
    assert hull(family, {65}) == high
    assert hull(family, {69}) == frozenset({69})
    assert hull(family, {3, 66}) == frozenset(range(n))


def test_convexity_structure_equals_closure_space_on_finite_families():
    families = [power_family(3), interval_family(4), fam(3, [(), (0, 1), (1, 2), (0, 1, 2)])]
    for family in families:
        assert is_convexity_structure(family) == is_closure_space(family)


# --- hulls --------------------------------------------------------------------


def test_hull_interval_convexity():
    family = interval_family(5)
    assert hull(family, {0, 2}) == frozenset({0, 1, 2})


def test_hull_empty_set():
    assert hull(interval_family(5), set()) == frozenset()


def test_hull_power_set_is_identity():
    family = power_family(4)
    for s in [set(), {1}, {0, 3}, {0, 1, 2, 3}]:
        assert hull(family, s) == frozenset(s)


def test_hull_requires_containing_member():
    family = ConvexityFamily(GroundSet(("a", "b")), frozenset({frozenset()}))
    with pytest.raises(ValueError):
        hull(family, {0})


# --- support sets and envelopes ------------------------------------------------


def _constants_table():
    # three constant functions 0, 1, 2 on a single point
    return FunctionTable(GroundSet(("p",)), ((0.0,), (1.0,), (2.0,)))


def test_support_set_of_midvalue():
    assert support_set(_constants_table(), (1.5,)) == frozenset({0, 1})


def test_support_set_of_top():
    assert support_set(_constants_table(), (INF,)) == frozenset({0, 1, 2})


def test_support_set_below_everything():
    assert support_set(_constants_table(), (-1.0,)) == frozenset()


def test_strict_support_excludes_equal_row():
    assert strict_support_set(_constants_table(), (1.5,)) == frozenset({0, 1})
    assert strict_support_set(_constants_table(), (1.0,)) == frozenset({0})


def test_strict_support_vacuous_on_empty_domain():
    assert strict_support_set(_constants_table(), (INF,)) == frozenset({0, 1, 2})


def test_envelope_of_member_is_itself():
    table = FunctionTable(GroundSet(("p", "q")), ((0.0, 1.0), (2.0, -1.0)))
    for row in table.rows:
        assert l_convex_envelope(table, row) == row


def test_envelope_above_all_rows_is_pointwise_max():
    table = FunctionTable(GroundSet(("p", "q")), ((0.0, 1.0), (2.0, -1.0)))
    assert l_convex_envelope(table, (5.0, 5.0)) == (2.0, 1.0)


def test_envelope_empty_table_is_bottom():
    table = FunctionTable(GroundSet(("p",)), ())
    assert l_convex_envelope(table, (0.0,)) == (-INF,)


def test_support_set_equals_support_of_envelope():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        table = FunctionTable(
            GroundSet(tuple(f"e{i}" for i in range(n))),
            tuple(tuple(float(v) for v in rng.integers(-3, 4, n)) for _ in range(k)),
        )
        f = tuple(float(v) for v in rng.integers(-3, 4, n))
        assert support_set(table, f) == support_set(table, l_convex_envelope(table, f))


# --- indicator lift and generated families --------------------------------------


def test_indicator_lift_rows():
    family = fam(2, [(), (0,), (0, 1)])
    table = indicator_lift(family)
    assert table.rows == ((INF, INF), (0.0, INF), (0.0, 0.0))


def test_indicator_lift_ground_and_empty_rows():
    family = fam(2, [(), (0, 1)])
    table = indicator_lift(family)
    assert table.rows[0] == (INF, INF)  # empty member
    assert table.rows[1] == (0.0, 0.0)  # ground member


def test_l_convex_sets_single_row():
    table = FunctionTable(GroundSet(("p",)), ((1.0,),))
    assert l_convex_sets(table) == frozenset({frozenset(), frozenset({0})})


def test_l_convex_sets_duplicate_rows_move_together():
    table = FunctionTable(GroundSet(("p", "q")), ((1.0, 0.0), (1.0, 0.0), (2.0, 2.0)))
    for s in l_convex_sets(table):
        assert (0 in s) == (1 in s)


def test_l_convex_sets_at_the_row_guard():
    # a chain of 20 constants: the empty set and the 20 prefixes
    table = FunctionTable(GroundSet(("p",)), tuple((float(i),) for i in range(20)))
    assert l_convex_sets(table) == frozenset(frozenset(range(j)) for j in range(21))


def test_l_convex_sets_guard():
    table = FunctionTable(GroundSet(("p",)), tuple((float(i),) for i in range(21)))
    with pytest.raises(SizeGuardError):
        l_convex_sets(table)


def _upset_oracle(family):
    """Independent computation of the generated support-set family of the
    indicator lift: row i_A lies below i_S exactly when A contains S, and a
    pointwise sup of indicator rows is the indicator of the intersection, so
    the generated sets are the up-sets of members plus the empty set from the
    empty supremum."""
    members = sorted_members(family)
    index = {m: i for i, m in enumerate(members)}
    upsets = set()
    for s in members:
        upsets.add(frozenset(index[a] for a in members if s <= a))
    upsets.add(frozenset())
    return upsets


def _check_indicator_isomorphism(family):
    members = sorted_members(family)
    table = indicator_lift(family)
    generated = l_convex_sets(table)
    assert generated == _upset_oracle(family)
    # member -> support set of its indicator row is a bijection onto the
    # generated family minus the bottom, and it reverses inclusion
    image = {}
    for i, m in enumerate(members):
        image[m] = support_set(table, table.rows[i])
    assert set(image.values()) == set(generated) - {frozenset()}
    assert len(set(image.values())) == len(members)
    for a in members:
        for b in members:
            assert (a <= b) == (image[b] <= image[a])


def test_indicator_isomorphism_specific_families():
    for family in [power_family(3), interval_family(4), fam(2, [(), (0,), (0, 1)]), fam(1, [(), (0,)])]:
        _check_indicator_isomorphism(family)


def test_generated_families_are_intersection_stable():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 7))
        rows = []
        for _ in range(k):
            row = [float(v) for v in rng.integers(-2, 3, n)]
            for j in range(n):
                if rng.random() < 0.15:
                    row[j] = INF
            rows.append(tuple(row))
        table = FunctionTable(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(rows))
        generated = l_convex_sets(table)
        full = frozenset(range(k))
        family = family_over_rows(table, set(generated) | {frozenset(), full})
        assert is_closure_space(family)
        # pairwise intersections of generated sets are themselves generated
        gen = list(generated)
        for a in gen:
            for b in gen:
                assert (a & b) in generated


# --- convexity extension --------------------------------------------------------


def test_extension_single_row():
    table = FunctionTable(GroundSet(("p",)), ((1.0,),))
    ext = convexity_extension(table)
    assert frozenset() in ext
    assert frozenset({0}) in ext


def test_extension_contains_generated_sets():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        table = FunctionTable(
            GroundSet(tuple(f"e{i}" for i in range(n))),
            tuple(tuple(float(v) for v in rng.integers(-2, 3, n)) for _ in range(k)),
        )
        assert l_convex_sets(table) <= convexity_extension(table)


def test_extension_is_convexity_structure():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        table = FunctionTable(
            GroundSet(tuple(f"e{i}" for i in range(n))),
            tuple(tuple(float(v) for v in rng.integers(-2, 3, n)) for _ in range(k)),
        )
        ext = convexity_extension(table)
        assert is_convexity_structure(family_over_rows(table, ext))


def test_extension_guard():
    table = FunctionTable(GroundSet(("p",)), tuple((float(i),) for i in range(13)))
    with pytest.raises(SizeGuardError):
        convexity_extension(table)


# --- exact equality with the 2^k subset definitions --------------------------------


def _reference_l_convex_sets(table):
    """Support set of the supremum of each of the 2^k row subsets."""
    k = len(table)
    return frozenset(
        support_set(table, sup_of_rows(table, [i for i in range(k) if mask >> i & 1]))
        for mask in range(1 << k)
    )


def _reference_closure_enumeration(table):
    """Closed sets of cl(S) = support_set(sup_of_rows(S)) as frozensets: close
    each set found with one more row until no new set appears."""
    k = len(table)

    def closure(rows):
        return support_set(table, sup_of_rows(table, rows))

    closed = {closure(())}
    pending = list(closed)
    while pending:
        c = pending.pop()
        for i in range(k):
            if i not in c:
                d = closure(c | {i})
                if d not in closed:
                    closed.add(d)
                    pending.append(d)
    return frozenset(closed)


def _reference_convexity_extension(table):
    """Every set between the strict and ordinary support sets of the supremum
    of each of the 2^k row subsets."""
    k = len(table)
    out = set()
    for mask in range(1 << k):
        f = sup_of_rows(table, [i for i in range(k) if mask >> i & 1])
        strict = strict_support_set(table, f)
        gap = sorted(support_set(table, f) - strict)
        for sub_mask in range(1 << len(gap)):
            out.add(strict | frozenset(gap[j] for j in range(len(gap)) if sub_mask >> j & 1))
    return frozenset(out)


def _reference_tables():
    """Edge cases, then seeded random tables of up to 8 rows with tied values,
    duplicate rows and both infinities."""
    pq = GroundSet(("p", "q"))
    yield FunctionTable(pq, ())
    yield FunctionTable(pq, ((-INF, -INF),))
    yield FunctionTable(pq, ((-INF, -INF), (0.0, 1.0), (-INF, -INF)))
    yield FunctionTable(pq, ((INF, INF), (-INF, -INF), (1.0, INF)))
    yield FunctionTable(pq, ((1.0, 1.0),) * 4)
    values = (-INF, 0.0, 1.0, 2.0, INF)
    rng = np.random.default_rng(43)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, 9))
        rows = [tuple(values[j] for j in rng.integers(0, len(values), n)) for _ in range(k)]
        if k > 1 and rng.random() < 0.3:
            rows[int(rng.integers(0, k))] = rows[int(rng.integers(0, k))]
        yield FunctionTable(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(rows))


def test_l_convex_sets_equal_subset_definition():
    for table in _reference_tables():
        generated = l_convex_sets(table)
        assert generated == _reference_l_convex_sets(table), table
        assert generated == _reference_closure_enumeration(table), table
        assert type(generated) is frozenset
        assert all(type(m) is frozenset for m in generated)


def test_convexity_extension_equals_subset_definition():
    for table in _reference_tables():
        ext = convexity_extension(table)
        assert ext == _reference_convexity_extension(table), table
        assert type(ext) is frozenset
        assert all(type(m) is frozenset for m in ext)


def _wide_tables(rows, count, seed):
    """Seeded tables of the given row counts (9 or more, so masks reach a
    second byte) on 1-3 points: values from -inf, 0, 1, 2 and +inf, a row
    repeated in most tables, and a constant row of each infinity in some."""
    values = (-INF, 0.0, 1.0, 2.0, INF)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.choice(rows))
        n = int(rng.integers(1, 4))
        table = [tuple(values[j] for j in rng.integers(0, len(values), n)) for _ in range(k)]
        if rng.random() < 0.7:
            table[int(rng.integers(0, k))] = table[int(rng.integers(0, k))]
        for inf in (INF, -INF):
            if rng.random() < 0.3:
                table[int(rng.integers(0, k))] = (inf,) * n
        yield FunctionTable(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(table))


def test_l_convex_sets_past_one_byte_of_rows():
    for table in _wide_tables(range(9, 17), 40, 53):
        assert l_convex_sets(table) == _reference_closure_enumeration(table), table


def test_convexity_extension_past_one_byte_of_rows():
    for table in _wide_tables(range(9, 13), 8, 59):
        assert convexity_extension(table) == _reference_convexity_extension(table), table


def test_convexity_extension_past_one_block_of_sandwiches():
    # a bump of 1 at each of 5 points, 6 rows of 0 and a row of 2: the closed
    # sets A | zeros (A a nonempty set of bumps, not all 5) have every row of
    # A and of the zeros in their gap, over 13,000 sandwiches in all; the
    # family is every set without all 5 bumps or the 2, then the two largest
    bumps = [tuple(float(x == i) for x in range(5)) for i in range(5)]
    table = FunctionTable(GroundSet(tuple("abcde")), tuple(bumps + [(0.0,) * 5] * 6 + [(2.0,) * 5]))
    ext = convexity_extension(table)
    assert ext == _reference_convexity_extension(table)
    assert len(ext) == (2**5 - 1) * 2**6 + 2


@pytest.mark.parametrize("width", [0, 1, 8, 9, 16, 20])
def test_masks_to_sets_round_trip(width):
    full = (1 << width) - 1
    masks = [0, full] + np.random.default_rng(width).integers(0, full + 1, 200).tolist()
    sets = _sets(np.array(masks, dtype=np.int64), width)
    assert type(sets) is frozenset and all(type(s) is frozenset for s in sets)
    assert sorted(sum(1 << i for i in s) for s in sets) == sorted(set(masks))
    assert all(all(0 <= i < width for i in s) for s in sets)


_VALUES = (-INF, 0.0, 1.0, 2.0, INF)


@st.composite
def _small_tables(draw):
    """Up to 8 rows on up to 4 points, values from _VALUES, with rows repeated."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(_VALUES)] * n), max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=8 - len(rows)))
    rows = draw(st.permutations(rows))
    return FunctionTable(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(rows))


@settings(derandomize=True, deadline=None)
@given(_small_tables())
def test_enumerations_equal_subset_definitions_property(table):
    assert l_convex_sets(table) == _reference_l_convex_sets(table)
    assert convexity_extension(table) == _reference_convexity_extension(table)


# --- Caratheodory numbers --------------------------------------------------------


def test_caratheodory_interval_chain():
    # brute force over the chain: pairs {a, b} generate [a, b], any third
    # point in between is covered after deleting it, so 2 is the maximum
    assert caratheodory_number(interval_family(5)) == 2


def test_caratheodory_power_set():
    # hulls are identity, so every pair is dependent and singletons are not
    assert caratheodory_number(power_family(3)) == 1


def test_caratheodory_single_point():
    assert caratheodory_number(fam(1, [(), (0,)])) == 1


def test_caratheodory_requires_closure_space():
    with pytest.raises(ValueError):
        caratheodory_number(fam(2, [(0,), (0, 1)]))


def test_caratheodory_guard():
    with pytest.raises(SizeGuardError):
        caratheodory_number(power_family(11))


def test_caratheodory_covering_property_small():
    # every element of every member is generated by at most c points of it
    for family in [interval_family(5), power_family(4)]:
        c = caratheodory_number(family)
        for member in family.members:
            for x in member:
                found = False
                for size in range(1, c + 1):
                    for combo in combinations(sorted(member), size):
                        if x in hull(family, combo):
                            found = True
                            break
                    if found:
                        break
                assert found


# --- exact equality with the frozenset definitions --------------------------------


def _reference_is_closure_space(family):
    """Empty set and ground present, every pairwise intersection a member."""
    members = family.members
    if frozenset() not in members or family.ground.full() not in members:
        return False
    mem_list = list(members)
    for i, a in enumerate(mem_list):
        for b in mem_list[i + 1 :]:
            if a & b not in members:
                return False
    return True


def _reference_caratheodory_number(family):
    """Largest subset whose hull is not covered by the hulls of its one-smaller
    subsets, each hull a scan over all members."""
    n = family.ground.size
    if not _reference_is_closure_space(family):
        raise ValueError("caratheodory_number requires a closure space")

    @functools.cache
    def cached_hull(s):
        return hull(family, s)

    def independent(s):
        covered = frozenset().union(*(cached_hull(s - {a}) for a in s))
        return not cached_hull(s) <= covered

    best = 0
    for size in range(1, n + 1):
        if any(independent(frozenset(combo)) for combo in combinations(range(n), size)):
            best = size
    return best


def _random_closure_spaces():
    """Seeded closure spaces on up to 8 elements: the ground and the empty set,
    then a few random sets together with their intersections with every member."""
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        members = {frozenset(), frozenset(range(n))}
        for _ in range(int(rng.integers(0, 6))):
            c = frozenset(np.flatnonzero(rng.random(n) < 0.5).tolist())
            members |= {c & m for m in members}
        yield fam(n, members)


def _assert_matches_references(family):
    closure_space = _reference_is_closure_space(family)
    assert is_closure_space(family) == closure_space, family
    if closure_space:
        assert caratheodory_number(family) == _reference_caratheodory_number(family), family
    else:
        with pytest.raises(ValueError, match="requires a closure space"):
            caratheodory_number(family)


def test_closure_space_and_caratheodory_equal_references():
    verdicts = set()
    for family in _random_closure_spaces():
        _assert_matches_references(family)
        for member in family.members:  # one-member deletions, mostly not closure spaces
            smaller = ConvexityFamily(family.ground, family.members - {member})
            _assert_matches_references(smaller)
            verdicts.add(is_closure_space(smaller))
    assert verdicts == {True, False}
    for family in (interval_family(10), power_family(10)):
        assert is_closure_space(family)
        assert caratheodory_number(family) == _reference_caratheodory_number(family)


# --- sup_of_rows edge cases ------------------------------------------------------


def test_sup_of_rows_empty_is_bottom():
    table = FunctionTable(GroundSet(("p", "q")), ((1.0, 2.0),))
    assert sup_of_rows(table, []) == (-INF, -INF)


def test_sup_of_rows_pointwise_max():
    table = FunctionTable(GroundSet(("p", "q")), ((1.0, 5.0), (3.0, 2.0)))
    assert sup_of_rows(table, [0, 1]) == (3.0, 5.0)


# --- text formats -----------------------------------------------------------------


def test_family_text_roundtrip():
    family = interval_family(4)
    text = family_to_text(family)
    parsed = parse_family_text(text)
    assert parsed.ground.labels == family.ground.labels
    assert parsed.members == family.members


def test_family_text_empty_member_and_comments():
    text = "# order convexity\nground: a,b,c\n{}\na\na,b\na,b,c\n"
    family = parse_family_text(text)
    assert frozenset() in family.members
    assert frozenset({0, 1, 2}) in family.members
    assert len(family.members) == 4


def test_family_text_ground_inferred_from_members():
    family = parse_family_text("a\nb\na,b\n{}\n")
    assert family.ground.labels == ("a", "b")


def test_function_table_csv_roundtrip():
    table = FunctionTable(
        GroundSet(("u", "v")), ((0.0, INF), (1.5, -2.0), (-INF, 0.25))
    )
    parsed = parse_function_table_csv(function_table_to_csv(table))
    assert parsed.ground.labels == table.ground.labels
    assert parsed.rows == table.rows


def test_function_table_csv_reads_infinity_spellings():
    table = parse_function_table_csv("a,b,c,d,e\ninf,+inf, INF ,-Infinity,infinity\n")
    assert table.rows == ((INF, INF, INF, -INF, INF),)
    text = function_table_to_csv(table)
    assert text == "a,b,c,d,e\ninf,inf,inf,-inf,inf\n"
    assert parse_function_table_csv(text).rows == table.rows


def test_function_table_rejects_nan():
    with pytest.raises(ValueError):
        FunctionTable(GroundSet(("p",)), ((math.nan,),))
