import numpy as np
import pytest

from tierflow.data import (
    FeatureStore,
    SynthConfig,
    SynthTier,
    DataContext,
    TierSpec,
    synth_generate,
)


def latent_store(rows: dict) -> FeatureStore:
    """A latent store holding the ``{id: vector}`` rows in their order."""
    matrix = np.array(list(rows.values()), dtype=np.float64)
    return FeatureStore(list(rows), matrix.reshape(len(rows), -1) if rows else np.empty((0, 0)))


def bit_store(width: int, rows: dict) -> FeatureStore:
    """A bit-vector store holding the ``{id: bits}`` rows in their order."""
    matrix = np.array(list(rows.values()), dtype=np.uint8).reshape(len(rows), width)
    return FeatureStore(list(rows), matrix)


def tiny_synth_config(seed: int = 5) -> SynthConfig:
    return SynthConfig(
        n_compounds=80,
        n_proteins=50,
        compound_bits=16,
        protein_bits=16,
        tiers=[
            SynthTier(TierSpec(300, 700), 400, 0.30),
            SynthTier(TierSpec(700, 900), 200, 0.05),
            SynthTier(TierSpec(900, 1000), 150, 0.0),
        ],
        validation_tier=TierSpec(900, 1000),
        seed=seed,
    )


@pytest.fixture(scope="session")
def tiny_ctx() -> DataContext:
    data = synth_generate(tiny_synth_config())
    return DataContext(
        interactions=data.interactions,
        compound_features=data.compounds,
        protein_features=data.proteins,
    )
