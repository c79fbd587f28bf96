from prosodia.features.corpus import (
    ManifestEntry,
    NonParallelSplit,
    load_corpus,
    load_manifest,
    make_nonparallel_split,
)
from prosodia.features.uff import (
    MCEP_DIM,
    UFF_MAGIC,
    UFF_VERSION,
    UtteranceFeatures,
    read_feature_file,
    write_feature_file,
)

__all__ = [
    "ManifestEntry",
    "MCEP_DIM",
    "NonParallelSplit",
    "UFF_MAGIC",
    "UFF_VERSION",
    "UtteranceFeatures",
    "load_corpus",
    "load_manifest",
    "make_nonparallel_split",
    "read_feature_file",
    "write_feature_file",
]
