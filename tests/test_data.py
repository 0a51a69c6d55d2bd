import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierflow.data import _BLOCK_LINES as BLOCK_LINES
from tierflow.data import (
    GATHER_ROWS,
    DataContext,
    FeatureStore,
    InteractionTable,
    SynthConfig,
    SynthTier,
    TierSpec,
    index_of,
    load_bitvectors,
    load_interactions,
    load_latents,
    open_for_read,
    percentile_cutoff,
    sample_negatives,
    save_bitvectors,
    save_interactions,
    save_latents,
    save_oracle,
    synth_generate,
    tier_filter,
    _line_blocks,
)
from tierflow.errors import ConfigError, DataError
from tierflow.ftl import tier_keys
from tierflow.rng import RngStream
from conftest import bit_store, id_columns, latent_store, tiny_synth_config


def table_of(scores, prefix="x"):
    ids = range(len(scores))
    return InteractionTable(
        [f"c{prefix}{i}" for i in ids], [f"p{prefix}{i}" for i in ids], scores
    )


def pairs_of(table, mask=slice(None)):
    """The (compound, protein) pairs of the table's rows, in row order."""
    compounds, proteins = id_columns(table)
    return list(zip(compounds[mask].tolist(), proteins[mask].tolist()))


def truth_of(data, pairs):
    """The synthetic ground truth (0/1) of each (compound, protein) pair."""
    ci = {c: i for i, c in enumerate(data.compounds.ids)}
    pi = {p: j for j, p in enumerate(data.proteins.ids)}
    return [int(data.truth[ci[c], pi[p]]) for c, p in pairs]


def same_table(a, b):
    return pairs_of(a) == pairs_of(b) and np.array_equal(a.scores, b.scores)


def keys_of(pairs, compounds, proteins):
    """Pair keys of the (compound, protein) pairs whose ids both lie in the universe."""
    ci = {c: i for i, c in enumerate(compounds)}
    pi = {p: j for j, p in enumerate(proteins)}
    return np.array(
        sorted(ci[c] * len(proteins) + pi[p] for c, p in pairs if c in ci and p in pi),
        dtype=np.int64,
    )


def decode(keys, compounds, proteins):
    return [(compounds[k // len(proteins)], proteins[k % len(proteins)]) for k in keys]


def reference_sample_negatives(compounds, proteins, positives, count, rng):
    """The per-draw sampler over id lists and a set of pairs that the vectorized
    ``sample_negatives`` must match draw for draw."""
    n_grid = len(compounds) * len(proteins)
    cset, pset = set(compounds), set(proteins)
    n_blocked = sum(1 for c, p in positives if c in cset and p in pset)
    complement = n_grid - n_blocked
    if count > complement:
        raise DataError(f"cannot draw {count} negatives")
    if count > complement // 2:
        free = [(c, p) for c in compounds for p in proteins if (c, p) not in positives]
        return [free[i] for i in rng.permutation(len(free))[:count]]
    chosen, seen = [], set()
    while len(chosen) < count:
        batch = max(64, 2 * (count - len(chosen)))
        ci = rng.integers(len(compounds), size=batch)
        pi = rng.integers(len(proteins), size=batch)
        for a, b in zip(ci, pi):
            pair = (compounds[a], proteins[b])
            if pair in positives or pair in seen:
                continue
            seen.add(pair)
            chosen.append(pair)
            if len(chosen) == count:
                break
    return chosen


# ---------------------------------------------------------------- bit vectors


def test_bitvector_round_trip(tmp_path):
    store = bit_store(4, {"b": [1, 0, 1, 1], "a": [0, 0, 0, 0], "c": [1, 1, 1, 1]})
    path = tmp_path / "vecs.bits"
    save_bitvectors(store, path)
    loaded = load_bitvectors(path)
    assert loaded.width == 4
    assert loaded.ids == ["b", "a", "c"]
    assert loaded.matrix.dtype == np.uint8
    assert np.array_equal(loaded.matrix, store.matrix)


def test_bitvector_writer_marks_every_nonzero_byte(tmp_path):
    vec = np.arange(256, dtype=np.uint8)
    path = tmp_path / "vecs.bits"
    save_bitvectors(FeatureStore(["a"], vec[None]), path)
    assert path.read_text(encoding="ascii") == "#width=256\na\t0" + "1" * 255 + "\n"


def test_bitvector_wrong_width_names_line(tmp_path):
    path = tmp_path / "bad.bits"
    path.write_text("#width=4\nok\t1010\nbad\t10101\n", encoding="utf-8")
    with pytest.raises(DataError, match=":3"):
        load_bitvectors(path)


def test_bitvector_empty_body(tmp_path):
    path = tmp_path / "empty.bits"
    path.write_text("#width=7\n", encoding="utf-8")
    store = load_bitvectors(path)
    assert store.width == 7
    assert len(store) == 0


@pytest.mark.parametrize(
    "body",
    [
        "#width=3\na\t102\n",  # non-01 character
        "#width=3\na\t101\na\t111\n",  # duplicate id
        "#width=3\na 101\n",  # missing tab
        "width=3\n",  # bad header
        "#width=0\n",  # width below 1
        "#width=3\n\t101\n",  # empty id
    ],
)
def test_bitvector_parse_errors(tmp_path, body):
    path = tmp_path / "bad.bits"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataError):
        load_bitvectors(path)


# ---------------------------------------------------------------- interactions


def test_interactions_round_trip(tmp_path):
    table = InteractionTable(["c1", "c1", "c2"], ["p1", "p2", "p1"], [0, 1000, 451])
    path = tmp_path / "table.tsv"
    save_interactions(table, path)
    assert same_table(load_interactions(path), table)


def test_interactions_duplicate_pair_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        InteractionTable(["c", "c"], ["p", "p"], [10, 20])


def long_id_columns():
    """Every pair of a 500 x 400 grid, shuffled, as two lists of 40-character
    ids; a NumPy unicode column of them is 160 bytes a record."""
    keys = np.random.default_rng(7).permutation(500 * 400).tolist()
    pad = "x" * 32
    return [f"{pad}c{k // 400:06d}" for k in keys], [f"{pad}p{k % 400:06d}" for k in keys]


def raising_peak(fn, error, message):
    """tracemalloc's peak above its start over ``fn()``, which must raise
    ``error`` matching ``message``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(error, match=message):
            fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_duplicate_pair_message_builds_no_id_column():
    compounds, proteins = long_id_columns()
    column = np.array(compounds, dtype=str).nbytes
    # the last record repeats the sixth
    peak = raising_peak(
        lambda: InteractionTable(compounds + [compounds[5]], proteins + [proteins[5]],
                                 [500] * (len(compounds) + 1)),
        ValueError, rf"^duplicate pair \('{compounds[5]}', '{proteins[5]}'\)$",
    )
    assert peak < column


def test_load_interactions_holds_one_pair_key_column(tmp_path):
    # every pair of a 500 x 400 grid, shuffled
    n = 500 * 400
    keys = np.random.default_rng(7).permutation(n).tolist()
    path = tmp_path / "table.tsv"
    path.write_text("".join(f"c{k // 400}\tp{k % 400}\t{k % 1001}\n" for k in keys))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = load_interactions(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    held = table.compound_codes.nbytes + table.protein_codes.nbytes + table.scores.nbytes
    # beyond the table's 16 bytes a record: the joined code columns (8), one
    # int64 pair key column sorted in place (8) and its adjacent-equal mask
    # (1); a sorted copy of the keys would be 8 more
    assert peak <= held + 24 * n


@pytest.mark.parametrize("unknown", ["compound", "protein"])
def test_unknown_id_message_builds_no_id_column(unknown):
    compounds, proteins = long_id_columns()
    n = len(compounds)
    # one validation-tier record, whose compound or protein has no features
    table = InteractionTable(
        compounds + ["GHOST" if unknown == "compound" else compounds[0]],
        proteins + ["GHOST" if unknown == "protein" else proteins[0]],
        [500] * n + [950],
    )
    ctx = DataContext(
        table,
        FeatureStore(sorted(set(compounds)), np.zeros((500, 1))),
        FeatureStore(sorted(set(proteins)), np.zeros((400, 1))),
    )
    peak = raising_peak(lambda: tier_keys(ctx, TierSpec(900, 1000), "validation"),
                        DataError, f"^unknown {unknown} id 'GHOST'$")
    # the tier mask and its temporaries, a few bytes a record; one id column
    # would be 160
    assert peak < 8 * n


def test_interaction_score_range():
    with pytest.raises(ValueError):
        InteractionTable(["c"], ["p"], [1001])


@pytest.mark.parametrize("compounds, proteins", [
    (["C1\x00"], ["P"]),  # NumPy's str dtype would build the table with 'C1'
    (["C1", "C1\x00"], ["P", "P"]),  # ... and report a duplicate pair never given
    (["C1"], ["P\x00"]),
])
def test_interactions_nul_in_id_rejected(compounds, proteins):
    with pytest.raises(ValueError, match=r"^NUL in id '[CP]1?\\x00'$"):
        InteractionTable(compounds, proteins, [950] * len(compounds))


def test_interactions_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("c\tp\t100\nc2\tp2\tnope\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2"):
        load_interactions(path)


# ---------------------------------------------------------------- tiers


def test_tier_spec_validation():
    with pytest.raises(ValueError):
        TierSpec(700, 700)
    with pytest.raises(ValueError):
        TierSpec(-1, 500)
    with pytest.raises(ValueError):
        TierSpec(0, 1001)


def test_tier_filter_half_open():
    table = table_of([319, 389, 700, 900, 950])
    kept = tier_filter(table, TierSpec(700, 900))
    assert table.scores[kept].tolist() == [700]


def test_tier_filter_identity():
    table = table_of([5, 300, 999])
    assert tier_filter(table, TierSpec(0, 1000)).all()


def test_tier_filter_preserves_order():
    table = table_of([500, 100, 700, 200, 650])
    kept = tier_filter(table, TierSpec(100, 700))
    assert table.scores[kept].tolist() == [500, 100, 200, 650]


@settings(max_examples=60)
@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=300),
    st.lists(st.integers(min_value=0, max_value=999), min_size=2, max_size=2, unique=True),
)
def test_tier_filter_union_property(scores, bounds):
    a, b = sorted(bounds)
    c = 1000
    table = table_of(scores)
    low = pairs_of(table, tier_filter(table, TierSpec(a, b))) if a < b else []
    mid = pairs_of(table, tier_filter(table, TierSpec(b, c)))
    full = pairs_of(table, tier_filter(table, TierSpec(a, c)))
    combined = low + mid
    assert sorted(combined) == sorted(full)
    assert len(set(combined)) == len(combined)


# ---------------------------------------------------------------- percentiles


def brute_force_cutoff(scores, p):
    ordered = sorted(scores)
    k = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[k - 1]


def test_percentile_uniform_scores():
    table = table_of(range(1, 101))
    assert percentile_cutoff(table, 50) == brute_force_cutoff(range(1, 101), 50)


def test_percentile_single_record():
    assert percentile_cutoff(table_of([431]), 0) == 431


def test_percentile_empty_rejected():
    with pytest.raises(ValueError):
        percentile_cutoff(table_of([]), 50)
    with pytest.raises(ValueError):
        percentile_cutoff(table_of([5]), 100)


@settings(max_examples=100)
@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200),
    st.floats(min_value=0, max_value=99.999),
)
def test_percentile_matches_brute_force(scores, p):
    assert percentile_cutoff(table_of(scores), p) == brute_force_cutoff(scores, p)


def test_percentile_reference_mapping():
    # 1000 records built so the 82nd/90th/98th percentile cutoffs land on
    # the documented 319/389/700 score boundaries
    rng = RngStream(2024)
    scores = (
        [int(s) for s in rng.uniform(0, 319, size=819)]
        + [319] + [int(s) for s in rng.uniform(320, 389, size=79)]
        + [389] + [int(s) for s in rng.uniform(390, 700, size=79)]
        + [700] + [int(s) for s in rng.uniform(701, 1000, size=20)]
    )
    order = rng.permutation(len(scores))
    table = table_of([scores[i] for i in order])
    assert len(table) == 1000
    assert percentile_cutoff(table, 82) == 319
    assert percentile_cutoff(table, 90) == 389
    assert percentile_cutoff(table, 98) == 700


# ---------------------------------------------------------------- negatives


def test_sample_negatives_exact_complement():
    # keys on a 2x2 grid: (c0,p0)=0, (c0,p1)=1, (c1,p0)=2, (c1,p1)=3
    negs = sample_negatives(2, 2, np.array([0, 3]), 2, RngStream(1))
    assert set(negs.tolist()) == {1, 2}
    assert negs.dtype == np.int64


def test_sample_negatives_full_grid_rejected():
    with pytest.raises(ValueError):
        sample_negatives(1, 2, np.array([0, 1]), 1, RngStream(1))


def test_sample_negatives_deterministic():
    positives = np.array([1 * 10 + 1, 2 * 10 + 7])
    a = sample_negatives(10, 10, positives, 30, RngStream(5))
    b = sample_negatives(10, 10, positives, 30, RngStream(5))
    assert a.tolist() == b.tolist()


def test_sample_negatives_distinct_and_clean():
    positives = np.array([i * 15 + i for i in range(15)])
    negs = sample_negatives(20, 15, positives, 200, RngStream(3))
    assert len(set(negs.tolist())) == 200
    assert not set(negs.tolist()) & set(positives.tolist())


def test_sample_negatives_dense_regime():
    # request more than half the complement: exercises the enumeration path
    negs = sample_negatives(4, 4, np.array([0]), 14, RngStream(9))
    assert len(set(negs.tolist())) == 14
    assert 0 not in negs


def check_against_reference(n_c, n_p, positives, count, seed):
    """The vectorized sampler decodes to the reference's pairs, from the same draws."""
    compounds = [f"c{i}" for i in range(n_c)]
    proteins = [f"p{j}" for j in range(n_p)]
    reference_rng, rng = RngStream(seed), RngStream(seed)
    expected = reference_sample_negatives(compounds, proteins, positives, count, reference_rng)
    got = sample_negatives(n_c, n_p, keys_of(positives, compounds, proteins), count, rng)
    assert decode(got.tolist(), compounds, proteins) == expected
    assert rng.counter == reference_rng.counter
    return rng.counter


@settings(max_examples=150, deadline=None)
@given(
    n_c=st.integers(min_value=1, max_value=12),
    n_p=st.integers(min_value=1, max_value=12),
    forbidden=st.sets(
        st.tuples(st.integers(min_value=0, max_value=13), st.integers(min_value=0, max_value=13)),
        max_size=120,
    ),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_sample_negatives_matches_reference(n_c, n_p, forbidden, fraction, seed):
    # ids run past the grid, so some forbidden pairs lie outside the universe
    positives = {(f"c{i}", f"p{j}") for i, j in forbidden}
    blocked = sum(1 for i, j in forbidden if i < n_c and j < n_p)
    # a fraction above one half takes the dense path, at most one half the rejection path
    count = round(fraction * (n_c * n_p - blocked))
    check_against_reference(n_c, n_p, positives, count, seed)


def test_sample_negatives_matches_reference_over_rounds():
    # half the grid forbidden: the first round of 64 draws leaves the request short
    positives = {(f"c{i}", f"p{j}") for i in range(10) for j in range(10) if (i + j) % 2}
    draws = check_against_reference(10, 10, positives, 25, seed=3)
    assert draws > 2 * 64


def previous_sample_negatives(n_compounds, n_proteins, forbidden_keys, count, rng):
    """The rejection path of ``sample_negatives`` as it was when it tested every
    draw, in draw order, against the forbidden and chosen keys."""
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < count:
        batch = max(64, 2 * (count - len(chosen)))
        ci = rng.integers(n_compounds, size=batch)
        pi = rng.integers(n_proteins, size=batch)
        keys = ci * n_proteins + pi
        fresh = (index_of(forbidden_keys, keys) < 0) & (index_of(np.sort(chosen), keys) < 0)
        keys = keys[fresh]
        _, first = np.unique(keys, return_index=True)
        chosen = np.concatenate([chosen, keys[np.sort(first)][:count - len(chosen)]])
    return chosen


@settings(max_examples=80, deadline=None)
@given(
    n_c=st.integers(1, 400),
    n_p=st.integers(1, 400),
    density=st.sampled_from([0.0, 0.001, 0.05, 0.45, 0.5]),  # sparse to near half full
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
def test_sample_negatives_matches_previous_vectorized_sampler(n_c, n_p, density, fraction,
                                                              seed):
    n_grid = n_c * n_p
    picks = np.random.default_rng(seed).choice(n_grid, round(density * n_grid), replace=False)
    forbidden = np.sort(picks).astype(np.int64)
    # at most half the complement, so that both take the rejection path
    count = round(fraction * ((n_grid - len(forbidden)) // 2))
    rng, previous_rng = RngStream(seed), RngStream(seed)
    got = sample_negatives(n_c, n_p, forbidden, count, rng)
    expected = previous_sample_negatives(n_c, n_p, forbidden, count, previous_rng)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert rng.counter == previous_rng.counter


# ---------------------------------------------------------------- features


def context_of(compounds, proteins, interactions=None):
    """A DataContext over float feature stores, with no positives unless given."""
    return DataContext(
        interactions=interactions or InteractionTable([], [], []),
        compound_features=latent_store(compounds),
        protein_features=latent_store(proteins),
    )


def test_feature_matrix_concatenation_order():
    ctx = context_of({"c": np.array([3.0])}, {"p": np.array([1.0, 2.0])})
    x, y = ctx.feature_matrix(np.array([0]), np.array([0]))
    assert np.array_equal(x, np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
    assert y.tolist() == [1.0, 0.0]


def test_feature_matrix_width():
    ctx = context_of({"c": np.zeros(64)}, {"p": np.zeros(128)})
    x, _ = ctx.feature_matrix(np.array([], dtype=np.int64), np.array([0]))
    assert x.shape == (1, 192)


def test_tier_keys_unknown_id_named():
    table = InteractionTable(["c", "ghost"], ["p", "p"], [950, 960])
    ctx = context_of({"c": np.zeros(2)}, {"p": np.zeros(2)}, table)
    with pytest.raises(DataError, match="unknown compound id 'ghost'"):
        tier_keys(ctx, TierSpec(900, 1000), "validation")


COMPOUND_POOL = [f"c{i}" for i in range(12)]  # "c10" sorts between "c1" and "c2"
PROTEIN_POOL = [f"p{i}" for i in range(12)]
KEY_TIERS = [TierSpec(0, 1000), TierSpec(0, 300), TierSpec(300, 700), TierSpec(700, 1000),
             TierSpec(999, 1000)]


def dict_reference(records, compound_ids, protein_ids):
    """Row keys, sorted positive keys and every ``KEY_TIERS`` tier's keys (or
    its DataError message), resolving each record through Python dicts."""
    c_row = {c: i for i, c in enumerate(sorted(compound_ids))}
    p_row = {p: j for j, p in enumerate(sorted(protein_ids))}
    row_keys = [c_row[c] * len(p_row) + p_row[p] if c in c_row and p in p_row else -1
                for c, p, _ in records]
    tiers = []
    for tier in KEY_TIERS:
        rows = [i for i, (_, _, score) in enumerate(records) if tier.lo <= score < tier.hi]
        unknown = next((i for i in rows if row_keys[i] < 0), None)
        if not rows:
            tiers.append(f"DataError: step 1 tier {tier} has no positives")
        elif unknown is None:
            tiers.append([row_keys[i] for i in rows])
        elif records[unknown][1] not in p_row:
            tiers.append(f"DataError: unknown protein id {records[unknown][1]!r}")
        else:
            tiers.append(f"DataError: unknown compound id {records[unknown][0]!r}")
    return row_keys, sorted(k for k in row_keys if k >= 0), tiers


@settings(max_examples=150, deadline=None)
@given(
    records=st.lists(
        st.tuples(st.sampled_from(COMPOUND_POOL), st.sampled_from(PROTEIN_POOL),
                  st.integers(0, 1000)),
        max_size=40, unique_by=lambda record: record[:2],
    ),
    compound_ids=st.sets(st.sampled_from(COMPOUND_POOL)),
    protein_ids=st.sets(st.sampled_from(PROTEIN_POOL)),
    seed=st.integers(0, 2**32 - 1),
)
def test_context_keys_match_dict_reference(records, compound_ids, protein_ids, seed):
    # the stores list their ids in shuffled order, and some ids of the table
    # have no features
    rng = np.random.default_rng(seed)
    compound_ids, protein_ids = (list(rng.permutation(sorted(ids)).astype(str))
                                 for ids in (compound_ids, protein_ids))
    ctx = DataContext(
        InteractionTable(*zip(*records)) if records else InteractionTable([], [], []),
        FeatureStore(compound_ids, rng.standard_normal((len(compound_ids), 2))),
        FeatureStore(protein_ids, rng.standard_normal((len(protein_ids), 3))),
    )

    def tier_outcome(tier):
        try:
            return tier_keys(ctx, tier, "step 1").tolist()
        except DataError as exc:
            return f"DataError: {exc}"

    row_keys, positive_keys, tiers = dict_reference(records, compound_ids, protein_ids)
    assert ctx.row_keys.tolist() == row_keys
    assert ctx.positive_keys.tolist() == positive_keys
    assert [tier_outcome(tier) for tier in KEY_TIERS] == tiers


def test_store_with_nul_in_id_rejected():
    # NumPy's str dtype drops a trailing NUL, so the context would hold 'C1' twice
    with pytest.raises(ValueError, match=r"^NUL in id 'C1\\x00'$"):
        DataContext(
            InteractionTable(["C1"], ["P"], [950]),
            FeatureStore(["C1", "C1\x00"], np.zeros((2, 2))),
            FeatureStore(["P"], np.zeros((1, 2))),
        )


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(
        st.tuples(st.sampled_from(COMPOUND_POOL), st.sampled_from(PROTEIN_POOL),
                  st.integers(0, 1000)),
        max_size=40, unique_by=lambda record: record[:2],
    ),
    n_compounds=st.integers(1, len(COMPOUND_POOL)),
    n_proteins=st.integers(1, len(PROTEIN_POOL)),
    wc=st.integers(1, 9),
    wp=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_context_from_bit_stores_equals_context_from_float_stores(
    records, n_compounds, n_proteins, wc, wp, seed
):
    rng = np.random.default_rng(seed)
    compound_ids = list(rng.permutation(COMPOUND_POOL)[:n_compounds])
    protein_ids = list(rng.permutation(PROTEIN_POOL)[:n_proteins])
    cbits = rng.integers(0, 2, (n_compounds, wc), dtype=np.uint8)
    pbits = rng.integers(0, 2, (n_proteins, wp), dtype=np.uint8)
    table = InteractionTable(*zip(*records)) if records else InteractionTable([], [], [])

    def context(dtype):
        return DataContext(table, FeatureStore(compound_ids, cbits.astype(dtype)),
                           FeatureStore(protein_ids, pbits.astype(dtype)))

    bits, floats = context(np.uint8), context(np.float64)
    assert bits.row_keys.dtype == floats.row_keys.dtype
    assert bits.row_keys.tobytes() == floats.row_keys.tobytes()
    # every pair of the grid, so every feature row of either side
    keys = np.arange(n_compounds * n_proteins)
    out_bits, out_floats = (np.empty((len(keys), wp + wc)) for _ in range(2))
    assert bits.rows(keys, out_bits).tobytes() == floats.rows(keys, out_floats).tobytes()


def random_context(rng, n_compounds, n_proteins, wc, wp):
    """A context over latent stores of the given sizes and widths, with -0.0,
    inf and nan among the values so that a gather has to copy bits, not just
    values; and the protein and compound rows in sorted-id order."""
    specials = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324])

    def store(prefix, count, width):
        values = rng.standard_normal((count, width))
        hit = rng.random(values.shape) < 0.1
        values[hit] = rng.choice(specials, size=hit.sum())
        return {f"{prefix}{i}": values[i] for i in rng.permutation(count)}

    compounds, proteins = store("c", n_compounds, wc), store("p", n_proteins, wp)
    return (context_of(compounds, proteins), sorted_reference(proteins),
            sorted_reference(compounds))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.sampled_from([0, 1, GATHER_ROWS - 1, GATHER_ROWS, GATHER_ROWS + 1,
                          2 * GATHER_ROWS + 7]),
    negatives=st.sampled_from([0, 1, GATHER_ROWS - 1, GATHER_ROWS + 1]),
    wc=st.integers(1, 6),
    wp=st.integers(1, 6),
)
def test_feature_matrix_equals_hstack_reference(seed, rows, negatives, wc, wp):
    rng = np.random.default_rng(seed)
    ctx, P, C = random_context(rng, 30, 20, wc, wp)
    grid = len(ctx.compounds) * len(ctx.proteins)
    pos = rng.integers(0, grid, rows)
    neg = rng.integers(0, grid, negatives)
    x, y = ctx.feature_matrix(pos, neg)
    ci, pi = np.divmod(np.concatenate([pos, neg]), len(ctx.proteins))
    reference = np.hstack([P[pi], C[ci]])
    assert x.dtype == reference.dtype and x.shape == reference.shape == (
        rows + negatives, wp + wc)
    assert x.tobytes() == reference.tobytes()
    assert x.flags.c_contiguous
    assert y.tolist() == [1.0] * rows + [0.0] * negatives


def test_feature_matrix_allocates_only_its_outputs():
    # 48k rows x 96 columns: x is 37 MB, a full-size temporary would be 12 MB
    # or more, and a block's temporaries stay under 3 MB
    rng = np.random.default_rng(4)
    ctx, _, _ = random_context(rng, 400, 300, 32, 64)
    pos = rng.integers(0, 400 * 300, 30_000)
    neg = rng.integers(0, 400 * 300, 18_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        x, y = ctx.feature_matrix(pos, neg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= x.nbytes + y.nbytes + 4_000_000


def sorted_reference(rows):
    """The ``{id: vector}`` rows as one matrix in sorted-id order."""
    return np.array([rows[i] for i in sorted(rows)]).reshape(len(rows), -1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    widths=st.one_of(
        st.sampled_from([(64, 64), (128, 64), (64, 128), (3, 5), (7, 4), (1, 1)]),
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
    ),
    count=st.sampled_from([0, 1, 2, 37]),
    last=st.booleans(),
    spare=st.integers(0, 3),
)
def test_rows_equal_hstack_of_the_store_rows(seed, widths, count, last, spare):
    rng = np.random.default_rng(seed)
    wp, wc = widths
    proteins = {f"p{i}": rng.standard_normal(wp) for i in rng.permutation(7)}
    compounds = {f"c{i}": rng.standard_normal(wc) for i in rng.permutation(11)}
    for rows in (proteins, compounds):  # bits, not just values, must be copied
        for vector in rows.values():
            vector[rng.random(len(vector)) < 0.2] = rng.choice([-0.0, np.nan, np.inf, 5e-324])
    ctx = context_of(compounds, proteins)
    P, C = sorted_reference(proteins), sorted_reference(compounds)
    grid = len(compounds) * len(proteins)
    # every pair of the grid: the stacked table holds every store row
    ci, pi = np.divmod(np.arange(grid), len(proteins))
    everything = ctx.rows(np.arange(grid), np.empty((grid, wp + wc)))
    assert everything.tobytes() == np.hstack([P[pi], C[ci]]).tobytes()
    keys = rng.integers(0, grid, count)
    if last and count:
        keys[-1] = grid - 1
    out = np.full((count + spare, wp + wc), 7.5)
    block = ctx.rows(keys, out)
    ci, pi = np.divmod(keys, len(proteins))
    reference = np.hstack([P[pi], C[ci]])
    assert block.base is out and block.shape == reference.shape == (count, wp + wc)
    assert block.tobytes() == reference.tobytes()
    assert (out[count:] == 7.5).all()


def test_rows_reject_keys_outside_the_grid():
    ctx = context_of({"c0": np.zeros(2), "c1": np.ones(2)}, {"p": np.zeros(3)})
    out = np.full((2, 5), 7.5)
    for bad in ([-1], [0, 2], [1, 5]):
        with pytest.raises(ValueError, match=r"pair keys must lie in \[0, 2\)"):
            ctx.rows(np.array(bad), out)
    assert (out == 7.5).all()
    with pytest.raises(ValueError, match="C-contiguous"):
        ctx.rows(np.array([0]), np.empty((2, 10))[:, ::2])
    assert ctx.rows(np.array([1, 0]), out).tolist() == [[0, 0, 0, 1, 1], [0, 0, 0, 0, 0]]


# ---------------------------------------------------------------- latent store io


def test_latents_round_trip(tmp_path):
    store = latent_store({"b": np.array([1 / 3, -2.5]), "a": np.array([0.0, 1e-17])})
    path = tmp_path / "latents.tsv"
    save_latents(store, path)
    loaded = load_latents(path)
    assert loaded.ids == ["b", "a"]
    assert loaded.matrix.tobytes() == store.matrix.tobytes()


@pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
def test_latents_non_finite_value_names_line(tmp_path, value):
    path = tmp_path / "latents.tsv"
    path.write_text(f"a\t0.5,1\nb\t0.5,{value}\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"latents\.tsv:2: non-finite value"):
        load_latents(path)


def test_latents_width_consistency():
    with pytest.raises(ValueError):
        FeatureStore(["a", "b"], [np.zeros(2), np.zeros(3)])
    with pytest.raises(ValueError, match="2 ids for 3 rows"):
        FeatureStore(["a", "b"], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="duplicate id 'a'"):
        FeatureStore(["a", "b", "a"], np.zeros((3, 2)))


# the writers as they were when each built its whole text before writing it
def joined_bitvectors(store):
    lines = [f"#width={store.width}"]
    for key, vec in zip(store.ids, store.matrix):
        lines.append(key + "\t" + ((vec != 0).view(np.uint8) + ord("0")).tobytes().decode())
    return "\n".join(lines) + "\n"


def joined_latents(store):
    lines = [key + "\t" + ",".join(format(float(x), ".17g") for x in vec)
             for key, vec in zip(store.ids, store.matrix)]
    return "\n".join(lines) + ("\n" if lines else "")


def joined_interactions(table):
    compounds, proteins = id_columns(table)
    rows = zip(compounds.tolist(), proteins.tolist(), table.scores.astype(str))
    return "\n".join(map("\t".join, rows)) + ("\n" if len(table) else "")


def writer_case(kind, size):
    rng = np.random.default_rng(8)
    if kind == "bits":
        ids = [f"id{i}" for i in rng.permutation(size)]
        return save_bitvectors, joined_bitvectors, FeatureStore(
            ids, rng.integers(0, 2, (size, 1024), dtype=np.uint8))
    if kind == "latents":
        ids = [f"id{i}" for i in rng.permutation(size)]
        return save_latents, joined_latents, FeatureStore(ids, rng.standard_normal((size, 16)))
    keys = rng.permutation(500 * 400)[:size].tolist()
    return save_interactions, joined_interactions, InteractionTable(
        [f"c{k // 400}" for k in keys], [f"p{k % 400}" for k in keys],
        rng.integers(0, 1001, size))


@pytest.mark.parametrize("kind, size", [("bits", 3000), ("latents", 5000),
                                        ("interactions", 200_000)])
def test_writers_stream_their_lines(tmp_path, kind, size):
    # a writer holds a line (or a block of codes) at a time, not the file's
    # text: the join-based writers peaked at 3 to 20 times the file's size
    save, joined, data = writer_case(kind, size)
    path = tmp_path / "out"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save(data, path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    text = path.read_text(encoding="utf-8")
    assert text == joined(data)
    assert peak < len(text) / 4


@pytest.mark.parametrize("kind", ["bits", "latents", "interactions"])
@pytest.mark.parametrize("size", [0, 1])
def test_small_writes_equal_joined_text(tmp_path, kind, size):
    save, joined, data = writer_case(kind, size)
    save(data, tmp_path / "out")
    assert (tmp_path / "out").read_text(encoding="utf-8") == joined(data)


# ---------------------------------------------------------------- block loaders


def rows_of(path) -> list[int]:
    """Line numbers of the non-blank lines of a file."""
    with open(path, encoding="utf-8") as fh:
        return [n for n, line in enumerate(fh, start=1) if line.rstrip("\n")]


def reference_bitvectors(path):
    """The per-line bit-vector parser the block loader replaced, as ids in file
    order and row bytes.  It raised a ValueError for an empty id, which the
    loader now reports as a DataError naming the line."""
    with open_for_read(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("#width="):
            raise DataError(f"{path}:1: expected '#width=<int>' header, got {header!r}")
        try:
            width = int(header[len("#width="):])
        except ValueError as exc:
            raise DataError(f"{path}:1: bad width in header {header!r}") from exc
        entries = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'id<TAB>bits'")
            key, bits = parts
            if len(bits) != width:
                raise DataError(
                    f"{path}:{lineno}: vector width {len(bits)} != header width {width}"
                )
            if bits.strip("01"):
                raise DataError(f"{path}:{lineno}: non-01 character in bit vector")
            if key in entries:
                raise DataError(f"{path}:{lineno}: duplicate id {key!r}")
            if not key:
                raise DataError(f"{path}:{lineno}: empty id in bit-vector store")
            if "\x00" in key:
                raise DataError(f"{path}:{lineno}: NUL in id {key!r}")
            entries[key] = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    return list(entries), [v.tobytes() for v in entries.values()]


def reference_latents(path):
    """The per-line latent parser the block loader replaced, as ids in file
    order and row bytes."""
    entries = {}
    with open_for_read(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'id<TAB>v1,v2,...'")
            key, values = parts
            if key in entries:
                raise DataError(f"{path}:{lineno}: duplicate id {key!r}")
            if "\x00" in key:
                raise DataError(f"{path}:{lineno}: NUL in id {key!r}")
            try:
                vec = list(map(float, values.split(",")))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad float: {exc}") from exc
            if not math.isfinite(sum(vec)) and not all(map(math.isfinite, vec)):
                raise DataError(f"{path}:{lineno}: non-finite value in vector for {key!r}")
            entries[key] = np.array(vec)
    widths = {v.shape for v in entries.values()}
    if len(widths) > 1:
        raise DataError(f"{path}: inconsistent vector widths in latent store: {widths}")
    return list(entries), [v.tobytes() for v in entries.values()]


def reference_interactions(path):
    """The per-line interaction parser the block loader replaced, as its columns."""
    compounds, proteins, scores = [], [], []
    with open_for_read(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                scores.append(int(parts[2]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            for key in parts[:2]:
                if "\x00" in key:
                    raise DataError(f"{path}:{lineno}: NUL in id {key!r}")
            compounds.append(parts[0])
            proteins.append(parts[1])
    try:
        table = InteractionTable(compounds, proteins, scores)
    except (ValueError, OverflowError) as exc:
        row = next((i for i, s in enumerate(scores) if not 0 <= s <= 1000), None)
        if row is None:
            raise DataError(f"{path}: {exc}") from exc
        raise DataError(
            f"{path}:{rows_of(path)[row]}: score {scores[row]} outside [0, 1000]"
        ) from exc
    return columns_of(table)


def columns_of(table):
    compounds, proteins = id_columns(table)
    return (str(compounds.dtype), compounds.tolist(), proteins.tolist(),
            table.scores.tobytes())


def outcome(load, path):
    """What a loader makes of a file: its data, or its DataError's message."""
    try:
        return load(path)
    except DataError as exc:
        return f"DataError: {exc}"


def rows_of_store(store):
    return store.ids, [row.tobytes() for row in store.matrix]


# each format's block loader and its per-line reference, giving like results
LOADERS = {
    "bits": (lambda path: rows_of_store(load_bitvectors(path)), reference_bitvectors),
    "latents": (lambda path: rows_of_store(load_latents(path)), reference_latents),
    "interactions": (lambda path: columns_of(load_interactions(path)),
                     reference_interactions),
}

# -0.0, subnormals, the smallest normal and 17-digit values
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1 / 3,
                  -1.2345678901234567e-300, 1.7976931348623157e308, 0.1]


def data_lines(fmt: str, n: int, rng) -> tuple[list[str], str]:
    """``n`` well-formed data lines of a format with ids in shuffled order, and
    the header line (empty when the format has none)."""
    order = rng.permutation(n)
    if fmt == "bits":
        width = int(rng.integers(1, 6))
        bits = rng.integers(0, 2, (n, width))
        return [f"b{order[i]}\t" + "".join(map(str, bits[i])) for i in range(n)], \
            f"#width={width}"
    if fmt == "latents":
        width = int(rng.integers(1, 4))
        values = rng.choice(SPECIAL_VALUES, (n, width)) * rng.choice([1.0, -1.0], (n, width))
        return [f"z{order[i]}\t" + ",".join(format(v, ".17g") for v in values[i])
                for i in range(n)], ""
    scores = rng.integers(0, 1001, n)
    return [f"c{order[i] // 7}\tp{order[i] % 7}\t{scores[i]}" for i in range(n)], ""


def corrupt_line(fmt: str, kind: str, line: str, other_id: str) -> str:
    """``line`` damaged as ``kind`` says; ``other_id`` is the id of another line.

    A line that earlier faults left without a tab is damaged further too."""
    key, _, rest = line.partition("\t")
    if kind == "duplicate id":
        return other_id + "\t" + rest
    if kind == "blank line after":
        return line + "\n"
    if kind == "extra field":
        return line + "\tx"
    if kind == "empty id":
        return "\t" + rest
    if kind == "NUL in id":  # a trailing NUL, which NumPy's str dtype would drop
        return key + "\x00\t" + rest
    if kind == "bad byte":  # written as the byte 0xff, which is not UTF-8
        return line[:1] + "\udcff" + line[1:]
    if fmt == "interactions":
        head = line.rsplit("\t", 1)[0]
        return {"missing field": head, "bad int": head + "\tx", "underscore": head + "\t1_0",
                "above range": head + "\t1001", "below range": head + "\t-1",
                "huge": head + "\t" + "9" * 30, "space": head + "\t 12"}[kind]
    if fmt == "bits":
        return key + "\t" + {"longer": rest + "1", "shorter": rest[:-1],
                             "non-01": "2" + rest[1:], "unicode digit": "١" + rest[1:],
                             "space": " " + rest[1:]}[kind]
    if kind == "width change":
        return line + ",0.5"
    if kind == "empty values":
        return key + "\t"
    # the other faults replace the first value only, so that the width holds
    first, _, others = rest.partition(",")
    first = {"bad float": "1.2.3", "hash": first + "#1", "nan": "nan", "inf": "-inf",
             "overflow": "1e999", "underscore": "1_0", "unicode digit": "١",
             "file separator": "\x1c" + first, "empty field": ""}[kind]
    return key + "\t" + first + ("," + others if others else "")


KINDS = {
    "bits": ["longer", "shorter", "non-01", "unicode digit", "space"],
    "latents": ["bad float", "hash", "nan", "inf", "overflow", "width change",
                "underscore", "unicode digit", "file separator", "empty values",
                "empty field"],
    "interactions": ["missing field", "bad int", "underscore", "above range",
                     "below range", "huge", "space"],
}
COMMON_KINDS = ["duplicate id", "blank line after", "extra field", "empty id", "bad byte",
                "NUL in id"]


def write_lines(path, header: str, lines: list[str], crlf: bool) -> None:
    text = "".join(line + "\n" for line in ([header] if header else []) + lines)
    text = text.replace("\n", "\r\n" if crlf else "\n")
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


@settings(max_examples=30, deadline=None)
@given(
    fmt=st.sampled_from(sorted(LOADERS)),
    n=st.sampled_from([0, 1, BLOCK_LINES - 1, BLOCK_LINES, BLOCK_LINES + 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_loaders_match_per_line_reference(tmp_path_factory, fmt, n, seed):
    lines, header = data_lines(fmt, n, np.random.default_rng(seed))
    path = tmp_path_factory.mktemp("blocks") / "data.txt"
    write_lines(path, header, lines, crlf=False)
    load, reference = LOADERS[fmt]
    got = load(path)
    assert got == reference(path)
    if fmt != "interactions":
        assert got[0] == [line.split("\t")[0] for line in lines]  # file order


@pytest.mark.parametrize("fmt, kind", [
    (fmt, kind) for fmt in sorted(LOADERS) for kind in KINDS[fmt] + COMMON_KINDS
])
@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
def test_corrupt_second_block_gives_the_per_line_error(tmp_path, fmt, kind, crlf):
    lines, header = data_lines(fmt, BLOCK_LINES + 20, np.random.default_rng(3))
    row = BLOCK_LINES + 3
    lines[row] = corrupt_line(fmt, kind, lines[row], lines[0].split("\t")[0])
    path = tmp_path / "data.txt"
    write_lines(path, header, lines, crlf)
    load, reference = LOADERS[fmt]
    assert outcome(load, path) == outcome(reference, path)


@settings(max_examples=60, deadline=None)
@given(
    fmt=st.sampled_from(sorted(LOADERS)),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    crlf=st.booleans(),
)
def test_corrupt_blocks_give_the_per_line_error(tmp_path_factory, fmt, data, seed, crlf):
    n = BLOCK_LINES + 20
    lines, header = data_lines(fmt, n, np.random.default_rng(seed))
    kinds = st.sampled_from(KINDS[fmt] + COMMON_KINDS)
    # one fault in the second block, up to two more anywhere
    faults = [data.draw(st.tuples(kinds, st.integers(BLOCK_LINES - 1, n - 1)))]
    faults += data.draw(st.lists(st.tuples(kinds, st.integers(0, n - 1)), max_size=2))
    for kind, row in faults:
        other = lines[0 if row else 1].split("\t")[0]
        lines[row] = corrupt_line(fmt, kind, lines[row].split("\n")[0], other)
    path = tmp_path_factory.mktemp("corrupt") / "data.txt"
    write_lines(path, header, lines, crlf)
    load, reference = LOADERS[fmt]
    assert outcome(load, path) == outcome(reference, path)


@pytest.mark.parametrize("fmt, kind", [
    (fmt, kind) for fmt in sorted(LOADERS) for kind in [None] + KINDS[fmt] + COMMON_KINDS
])
def test_character_capped_blocks_give_the_per_line_result(tmp_path, monkeypatch, fmt, kind):
    # a 64-character cap makes blocks of one to a few lines, where the line
    # cap alone would make one block of the whole file
    monkeypatch.setattr("tierflow.data._BLOCK_CHARS", 64)
    lines, header = data_lines(fmt, 40, np.random.default_rng(5))
    if kind is not None:
        lines[25] = corrupt_line(fmt, kind, lines[25], lines[0].split("\t")[0])
    path = tmp_path / "data.txt"
    write_lines(path, header, lines, crlf=False)
    with path.open(encoding="utf-8", errors="replace") as fh:
        blocks = [(start, len(block)) for start, block in _line_blocks(fh, 1)]
    assert len(blocks) > 2
    assert [start for start, _ in blocks] == [1] + [a + n for a, n in blocks[:-1]]
    load, reference = LOADERS[fmt]
    assert outcome(load, path) == outcome(reference, path)


# fields that the fast block parses must read as int() or float() do, or leave
# to the per-line parsers: fields those read though they are not plain ASCII
# digits or floats, and fields they reject; "5," makes a trailing ','
ODD_FIELDS = {
    "interactions": ["+5", " 5", "5 ", "1_0", "\u0661", "0005", "1001", "-1", "9" * 20, "",
                     "x"],
    "latents": ["+5", " 5", "1_0", "\u0661", "nan", "1e999", "", "0x10", "-0.0", "\x1c1",
                "5,", "5,5"],
}


def odd_line(fmt: str, fault: str, line: str, other: str) -> str:
    """``line`` with its score, or its last value, replaced by the field
    ``fault``, or damaged as ``corrupt_line`` does for a kind it names, or
    given the ids of ``other``, another line."""
    if fault in COMMON_KINDS:
        return corrupt_line(fmt, fault, line, other.split("\t")[0])
    if fault == "duplicate pair":
        return other.rsplit("\t", 1)[0] + "\t" + line.rsplit("\t", 1)[-1]
    sep = "," if fmt == "latents" and "," in line.partition("\t")[2] else "\t"
    return line.rpartition(sep)[0] + sep + fault


def interned_columns(path):
    table = load_interactions(path)
    return (table.compound_vocab.tolist(), table.protein_vocab.tolist(),
            table.compound_codes.tobytes(), table.protein_codes.tobytes(), columns_of(table))


def latent_rows(path):
    store = load_latents(path)
    return rows_of_store(store), store.matrix.shape


FAST_LOADERS = {"interactions": interned_columns, "latents": latent_rows}


@settings(max_examples=200, deadline=None)
@given(
    fmt=st.sampled_from(sorted(FAST_LOADERS)),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    crlf=st.booleans(),
    block_chars=st.sampled_from([16, 64, 256, 1 << 20]),
)
def test_fast_block_parses_match_the_per_line_parsers(tmp_path_factory, fmt, data, seed, crlf,
                                                      block_chars):
    lines, _ = data_lines(fmt, data.draw(st.integers(1, 40)), np.random.default_rng(seed))
    faults = st.tuples(st.sampled_from(ODD_FIELDS[fmt] + COMMON_KINDS + ["duplicate pair"]),
                       st.integers(0, len(lines) - 1))
    for fault, row in data.draw(st.lists(faults, max_size=3)):
        lines[row] = odd_line(fmt, fault, lines[row], lines[row - 1])
    path = tmp_path_factory.mktemp("odd") / "data.txt"
    write_lines(path, "", lines, crlf)
    load = FAST_LOADERS[fmt]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("tierflow.data._BLOCK_CHARS", block_chars)
        fast = outcome(load, path)
        # no block passes the column check, so every line is parsed on its own
        patch.setattr("tierflow.data._columns", lambda lines, width: None)
        assert fast == outcome(load, path)


# ---------------------------------------------------------------- synth


def test_synth_counts_and_validation_clean():
    config = tiny_synth_config(seed=21)
    data = synth_generate(config)
    for synth_tier in config.tiers:
        got = tier_filter(data.interactions, synth_tier.tier)
        assert got.sum() == synth_tier.count
    val = tier_filter(data.interactions, config.validation_tier)
    assert all(truth_of(data, pairs_of(data.interactions, val)))


def test_synth_exact_flip_counts():
    config = tiny_synth_config(seed=22)
    data = synth_generate(config)
    for synth_tier in config.tiers:
        pairs = pairs_of(data.interactions, tier_filter(data.interactions, synth_tier.tier))
        false_positives = len(pairs) - sum(truth_of(data, pairs))
        assert false_positives == round(synth_tier.flip_rate * synth_tier.count)


def test_synth_zero_flip_everywhere_means_all_true():
    config = SynthConfig(
        n_compounds=30, n_proteins=30, compound_bits=8, protein_bits=8,
        tiers=[SynthTier(TierSpec(0, 900), 100, 0.0), SynthTier(TierSpec(900, 1000), 50, 0.0)],
        validation_tier=TierSpec(900, 1000), seed=4,
    )
    data = synth_generate(config)
    assert all(truth_of(data, pairs_of(data.interactions)))


def reference_save_oracle(oracle: dict, path) -> None:
    """The writer of the per-pair oracle dict that the truth matrix replaced."""
    lines = [f"{c}\t{p}\t{label}" for (c, p), label in sorted(oracle.items())]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def check_oracle_bytes(tmp_path, compounds, proteins, truth):
    oracle = {(c, p): int(truth[i, j])
              for i, c in enumerate(compounds) for j, p in enumerate(proteins)}
    reference_save_oracle(oracle, tmp_path / "reference.tsv")
    save_oracle(compounds, proteins, truth, tmp_path / "oracle.tsv")
    assert (tmp_path / "oracle.tsv").read_bytes() == (tmp_path / "reference.tsv").read_bytes()


def test_oracle_file_equals_the_dict_writer(tmp_path):
    data = synth_generate(tiny_synth_config(seed=9))
    check_oracle_bytes(tmp_path, data.compounds.ids, data.proteins.ids, data.truth)
    # ids whose string order is not their index order, as past C999999
    compounds = ["C1000000", "C999999", "C100000", "C10", "C2", "B"]
    proteins = ["P10", "P9", "P1", "P100"]
    truth = np.random.default_rng(2).random((6, 4)) < 0.5
    check_oracle_bytes(tmp_path, compounds, proteins, truth)
    check_oracle_bytes(tmp_path, compounds, [], truth[:, :0])


def test_synth_deterministic():
    a = synth_generate(tiny_synth_config(seed=7))
    b = synth_generate(tiny_synth_config(seed=7))
    assert same_table(a.interactions, b.interactions)
    assert a.compounds.ids == b.compounds.ids and a.proteins.ids == b.proteins.ids
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.compounds.matrix, b.compounds.matrix)
    assert np.array_equal(a.proteins.matrix, b.proteins.matrix)


def test_synth_scores_stay_in_tier():
    data = synth_generate(tiny_synth_config(seed=8))
    config = tiny_synth_config(seed=8)
    for synth_tier in config.tiers:
        for score in data.interactions.scores[tier_filter(data.interactions, synth_tier.tier)]:
            assert synth_tier.tier.lo <= score < synth_tier.tier.hi


def test_synth_config_rejects_overlapping_tiers():
    with pytest.raises(ConfigError, match="overlap"):
        SynthConfig(
            n_compounds=10, n_proteins=10, compound_bits=8, protein_bits=8,
            tiers=[SynthTier(TierSpec(0, 500), 10, 0.0), SynthTier(TierSpec(400, 1000), 10, 0.0)],
            validation_tier=TierSpec(400, 1000), seed=1,
        )


def test_synth_config_rejects_noisy_validation():
    with pytest.raises(ConfigError, match="validation"):
        SynthConfig(
            n_compounds=10, n_proteins=10, compound_bits=8, protein_bits=8,
            tiers=[SynthTier(TierSpec(900, 1000), 10, 0.5)],
            validation_tier=TierSpec(900, 1000), seed=1,
        )


def test_synth_rejects_oversized_request():
    with pytest.raises(ConfigError, match="true"):
        synth_generate(
            SynthConfig(
                n_compounds=5, n_proteins=5, compound_bits=8, protein_bits=8,
                tiers=[SynthTier(TierSpec(900, 1000), 1000, 0.0)],
                validation_tier=TierSpec(900, 1000), seed=1,
            )
        )
