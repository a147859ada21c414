"""Per-document extraction kernel (Python; numpy for the token counter).

No Ray imports anywhere under ``kernel/``: these functions are the body
of the Ray ``map_batches`` UDFs *and* the single-document oracle that
the golden tests compare the distributed pipeline against. Determinism
rules (no wall clock, no uuid4, positional ids) are enforced here so the
per-url byte-identity invariant is testable.
"""

from pdf_extractor_ray.kernel.extract import extract_document  # noqa: F401
