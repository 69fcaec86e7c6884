import math
from itertools import combinations

import numpy as np
import pytest

from quasifit.axiomatic import (
    INF,
    ConvexityFamily,
    FunctionTable,
    GroundSet,
    SizeGuardError,
    caratheodory_number,
    convexity_extension,
    family_over_rows,
    family_to_text,
    function_table_to_csv,
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
        assert type(generated) is frozenset
        assert all(type(m) is frozenset for m in generated)


def test_convexity_extension_equals_subset_definition():
    for table in _reference_tables():
        ext = convexity_extension(table)
        assert ext == _reference_convexity_extension(table), table
        assert type(ext) is frozenset
        assert all(type(m) is frozenset for m in ext)


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


def test_function_table_rejects_nan():
    with pytest.raises(ValueError):
        FunctionTable(GroundSet(("p",)), ((math.nan,),))
