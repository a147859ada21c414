"""pdf_extractor_ray — a Ray-Data-native main-content extraction engine.

A from-scratch rebuild of the per-document extraction semantics of the
reference repo ``grahama1970/pdf_extractor`` (HTML boilerplate stripping,
markdown element extraction, PDF-layout table cell-grid parsing,
multi-page table merging, section hierarchy reconstruction, text
normalization, token counting), re-expressed as streaming
``ray.data.Dataset`` pipelines over zero-copy Arrow batches.

Layout:
    kernel/     pure-Python per-document extraction kernel (no Ray imports);
                doubles as the correctness oracle for the pipelines
    stages/     Ray Data map_batches stages (stateless tasks)
    sources/    corpus synthesis + parquet readers
    functions/  corpus-level operators (dedup, similarity, text analysis)
    pipelines/  end-to-end pipelines (read -> extract -> finalize -> write)
    state/      lineage / resume checkpointing helpers
"""

__version__ = "0.1.0"
