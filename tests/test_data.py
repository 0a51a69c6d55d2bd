import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierflow.data import (
    BitVectorStore,
    InteractionTable,
    LatentStore,
    SynthConfig,
    SynthTier,
    TierSpec,
    load_bitvectors,
    load_interactions,
    load_latents,
    percentile_cutoff,
    sample_negatives,
    save_bitvectors,
    save_interactions,
    save_latents,
    synth_generate,
    tier_filter,
)
from tierflow.errors import ConfigError, DataError
from tierflow.ftl import _GATHER_ROWS as GATHER_ROWS
from tierflow.ftl import DataContext
from tierflow.rng import RngStream
from conftest import tiny_synth_config


def table_of(scores, prefix="x"):
    ids = range(len(scores))
    return InteractionTable(
        [f"c{prefix}{i}" for i in ids], [f"p{prefix}{i}" for i in ids], scores
    )


def pairs_of(table, mask=slice(None)):
    """The (compound, protein) pairs of the table's rows, in row order."""
    return list(zip(table.compound_ids[mask].tolist(), table.protein_ids[mask].tolist()))


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
    store = BitVectorStore(4)
    store.add("a", np.array([1, 0, 1, 1]))
    store.add("b", np.array([0, 0, 0, 0]))
    store.add("c", np.array([1, 1, 1, 1]))
    path = tmp_path / "vecs.bits"
    save_bitvectors(store, path)
    loaded = load_bitvectors(path)
    assert loaded.width == 4
    assert set(loaded.entries) == {"a", "b", "c"}
    for key in store.entries:
        assert np.array_equal(loaded.entries[key], store.entries[key])


def test_bitvector_writer_marks_every_nonzero_byte(tmp_path):
    vec = np.arange(256, dtype=np.uint8)
    path = tmp_path / "vecs.bits"
    save_bitvectors(BitVectorStore(256, {"a": vec}), path)
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


def test_interaction_score_range():
    with pytest.raises(ValueError):
        InteractionTable(["c"], ["p"], [1001])


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


# ---------------------------------------------------------------- features


def context_of(compounds, proteins, interactions=None):
    """A DataContext over float feature stores, with no positives unless given."""
    return DataContext(
        interactions=interactions or InteractionTable([], [], []),
        compound_features=LatentStore(compounds),
        protein_features=LatentStore(proteins),
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


def test_feature_matrix_unknown_id_named():
    table = InteractionTable(["c", "ghost"], ["p", "p"], [950, 960])
    ctx = context_of({"c": np.zeros(2)}, {"p": np.zeros(2)}, table)
    keys = ctx.tier_keys(TierSpec(900, 1000), "validation")
    with pytest.raises(DataError, match="unknown compound id 'ghost'"):
        ctx.feature_matrix(keys, np.array([], dtype=np.int64))


def random_context(rng, n_compounds, n_proteins, wc, wp):
    """Latent stores of the given sizes and widths, with -0.0, inf and nan among
    the values so that a gather has to copy bits, not just values."""
    specials = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324])

    def store(prefix, count, width):
        values = rng.standard_normal((count, width))
        hit = rng.random(values.shape) < 0.1
        values[hit] = rng.choice(specials, size=hit.sum())
        return {f"{prefix}{i}": values[i] for i in rng.permutation(count)}

    return context_of(store("c", n_compounds, wc), store("p", n_proteins, wp))


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
    ctx = random_context(rng, 30, 20, wc, wp)
    grid = len(ctx.compounds) * len(ctx.proteins)
    pos = rng.integers(0, grid, rows)
    neg = rng.integers(0, grid, negatives)
    x, y = ctx.feature_matrix(pos, neg)
    ci, pi = np.divmod(np.concatenate([pos, neg]), len(ctx.proteins))
    reference = np.hstack([ctx.protein_matrix[pi], ctx.compound_matrix[ci]])
    assert x.dtype == reference.dtype and x.shape == reference.shape == (
        rows + negatives, wp + wc)
    assert x.tobytes() == reference.tobytes()
    assert x.flags.c_contiguous
    assert y.tolist() == [1.0] * rows + [0.0] * negatives


def test_feature_matrix_allocates_only_its_outputs():
    # 48k rows x 96 columns: x is 37 MB, a full-size temporary would be 12 MB
    # or more, and a block's temporaries stay under 3 MB
    rng = np.random.default_rng(4)
    ctx = random_context(rng, 400, 300, 32, 64)
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


# ---------------------------------------------------------------- latent store io


def test_latents_round_trip(tmp_path):
    store = LatentStore({"a": np.array([1 / 3, -2.5]), "b": np.array([0.0, 1e-17])})
    path = tmp_path / "latents.tsv"
    save_latents(store, path)
    loaded = load_latents(path)
    for key in store.entries:
        assert np.array_equal(loaded.entries[key], store.entries[key])


@pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
def test_latents_non_finite_value_names_line(tmp_path, value):
    path = tmp_path / "latents.tsv"
    path.write_text(f"a\t0.5,1\nb\t0.5,{value}\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"latents\.tsv:2: non-finite value"):
        load_latents(path)


def test_latents_width_consistency():
    with pytest.raises(ValueError):
        LatentStore({"a": np.zeros(2), "b": np.zeros(3)})


# ---------------------------------------------------------------- synth


def test_synth_counts_and_validation_clean():
    config = tiny_synth_config(seed=21)
    data = synth_generate(config)
    for synth_tier in config.tiers:
        got = tier_filter(data.interactions, synth_tier.tier)
        assert got.sum() == synth_tier.count
    val = tier_filter(data.interactions, config.validation_tier)
    assert all(data.oracle[pair] == 1 for pair in pairs_of(data.interactions, val))


def test_synth_exact_flip_counts():
    config = tiny_synth_config(seed=22)
    data = synth_generate(config)
    for synth_tier in config.tiers:
        pairs = pairs_of(data.interactions, tier_filter(data.interactions, synth_tier.tier))
        false_positives = sum(1 - data.oracle[pair] for pair in pairs)
        assert false_positives == round(synth_tier.flip_rate * synth_tier.count)


def test_synth_zero_flip_everywhere_means_all_true():
    config = SynthConfig(
        n_compounds=30, n_proteins=30, compound_bits=8, protein_bits=8,
        tiers=[SynthTier(TierSpec(0, 900), 100, 0.0), SynthTier(TierSpec(900, 1000), 50, 0.0)],
        validation_tier=TierSpec(900, 1000), seed=4,
    )
    data = synth_generate(config)
    assert all(data.oracle[pair] == 1 for pair in pairs_of(data.interactions))


def test_synth_deterministic():
    a = synth_generate(tiny_synth_config(seed=7))
    b = synth_generate(tiny_synth_config(seed=7))
    assert same_table(a.interactions, b.interactions)
    assert a.oracle == b.oracle


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
