"""Corpus scrubbing operators: PII redaction and paragraph-level dedup.

Both are standard steps of web-scale training pipelines (C4/CCNet
lineage): redact emails/phones/IPs before anything persists, and count
cross-document repeated paragraphs (boilerplate: footers, cookie
banners, license blocks) so they can be stripped or down-weighted.

PII redaction is a pure per-row regexp pass (shuffle-free, the same
RE2-compatible patterns run in the DuckDB oracle). Paragraph dedup is
the bucket discipline applied one level below documents: paragraphs
hash inside the batch, counts pre-aggregate per batch, and ONE coarse
hash-bucket exchange merges them — never a group per distinct
paragraph.
"""

from __future__ import annotations

import hashlib
import re

import pyarrow as pa

import ray.data

from pdf_extractor_ray.functions.exchange import cogroup

__all__ = [
    "redact_pii_batch",
    "redact_pii",
    "redact_cards_batch",
    "redact_cards",
    "luhn_valid",
    "paragraph_hash_counts",
    "strip_boilerplate",
]

# RE2-compatible (no lookbehind/lookahead) so the oracle can run the
# SAME patterns via DuckDB regexp_replace/extract_all.
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\+?[0-9]{1,3}[-. ][0-9]{3}[-. ][0-9]{3,4}[-. ]?[0-9]{0,4}"
IP_RE = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"

_EMAIL = re.compile(EMAIL_RE)
_PHONE = re.compile(PHONE_RE)
_IP = re.compile(IP_RE)


def redact_pii_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Replace emails/phones/IPv4s with typed placeholders; emit the
    redacted text plus per-kind counts. Order matters (emails first:
    an address must not be half-eaten by the phone pattern; IPs last:
    phone fragments with dots must not re-match)."""
    texts, n_em, n_ph, n_ip = [], [], [], []
    for t in batch[text_col].to_pylist():
        t = t or ""
        t, e = _EMAIL.subn("<EMAIL>", t)
        t, p = _PHONE.subn("<PHONE>", t)
        t, i = _IP.subn("<IP>", t)
        texts.append(t)
        n_em.append(e)
        n_ph.append(p)
        n_ip.append(i)
    cols = {
        name: batch[name] for name in batch.column_names if name != text_col
    }
    cols.update(
        {
            text_col: pa.array(texts, pa.string()),
            "n_emails": pa.array(n_em, pa.int64()),
            "n_phones": pa.array(n_ph, pa.int64()),
            "n_ips": pa.array(n_ip, pa.int64()),
        }
    )
    return pa.table(cols)


def redact_pii(
    ds: ray.data.Dataset, text_col: str = "text"
) -> ray.data.Dataset:
    return ds.map_batches(
        lambda b: redact_pii_batch(b, text_col), batch_format="pyarrow"
    )


def paragraph_hash_counts(
    ds: ray.data.Dataset,
    text_col: str = "text",
    min_count: int = 2,
    n_buckets: int = 1024,
    max_inventory: int | None = None,
) -> ray.data.Dataset:
    """Cross-document repeated paragraphs: md5 per non-empty paragraph
    (split on blank lines), per-batch partial counts, one coarse
    hash-bucket exchange, in-bucket vectorized merge, filtered to
    ``count >= min_count``. Output: (para_hash, n_docs) — the
    boilerplate inventory a cleaning pass subtracts.

    ``max_inventory`` bounds the inventory to EXACTLY the N
    most-repeated paragraphs, ranked (n_docs DESC, md5-salted hash
    ASC, para_hash ASC) — the same contract as
    :func:`..selection.select_top_k_global`, which does the global
    selection with O(distinct_counts x 256) driver state. Each bucket
    first prunes to its own top N (a global top-N member is always in
    its bucket's top-N, so pruning is exactness-preserving) to bound
    the exchange. At web scale the set of paragraphs repeated >=
    min_count times is NOT meaningfully bounded (navboxes, footers,
    licence blocks across millions of sites), so
    :func:`strip_boilerplate` callers should always set this."""

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for t in batch[text_col].to_pylist():
            for para in (t or "").split("\n\n"):
                if not para.strip():
                    continue
                h = hashlib.md5(para.encode("utf-8", "replace")).hexdigest()
                counts[h] = counts.get(h, 0) + 1
        hashes = list(counts.keys())
        return pa.table(
            {
                "para_hash": pa.array(hashes, pa.string()),
                "n_docs": pa.array(list(counts.values()), pa.int64()),
            }
        )

    def merge(group: pa.Table):
        g = group.to_pandas().groupby("para_hash", as_index=False).agg(
            n_docs=("n_docs", "sum")
        )
        g = g[g["n_docs"] >= min_count]
        if max_inventory is not None and len(g) > max_inventory:
            # per-bucket prune; final exact global top-N below. MUST
            # use the SAME tie-break as select_top_k_global —
            # (n_docs DESC, md5(id) ASC, id ASC) — or a boundary-tied
            # row the global salted order would keep can be pruned
            # here (boilerplate counts cluster at n_docs == min_count,
            # so boundary ties are the common case, not the corner).
            g = g.assign(
                _salt=[
                    hashlib.md5(str(h).encode()).hexdigest()
                    for h in g["para_hash"]
                ]
            )
            g = g.sort_values(
                ["n_docs", "_salt", "para_hash"],
                ascending=[False, True, True],
            ).head(max_inventory)
        return g

    inv = cogroup(
        {"group": (ds.map_batches(partial, batch_format="pyarrow"), "para_hash")},
        merge,
        pa.schema([("para_hash", pa.string()), ("n_docs", pa.int64())]),
        n_buckets=n_buckets,
        coalesce=True,
    )
    if max_inventory is not None:
        from pdf_extractor_ray.functions.selection import select_top_k_global

        # materialize: the selector scans its input twice (histogram +
        # filter); post-prune the inventory is bounded per bucket, so
        # it lives in the object store, never on the driver
        inv = select_top_k_global(
            inv.materialize(), max_inventory,
            score_col="n_docs", id_col="para_hash",
        )
    return inv


def strip_boilerplate(
    ds: ray.data.Dataset,
    inventory: ray.data.Dataset,
    text_col: str = "text",
) -> ray.data.Dataset:
    """Remove the paragraphs listed in a boilerplate ``inventory``
    (the output of :func:`paragraph_hash_counts`) from every document.

    The inventory is BOUNDED (min-count-filtered repeated paragraphs,
    not the corpus), so it broadcasts as a frozen hash set via one
    ``ray.put``; the strip itself is a shuffle-free per-row pass.
    Output replaces ``text_col`` with the cleaned text and adds
    ``n_removed``.
    """
    inv_df = inventory.to_pandas()
    # an empty Ray dataset can surface without its schema columns
    hashes = (
        frozenset(inv_df["para_hash"])
        if "para_hash" in inv_df.columns
        else frozenset()
    )
    ref = ray.put(hashes)

    def clean(batch: pa.Table) -> pa.Table:
        bl = ray.get(ref)
        texts, removed = [], []
        for t in batch[text_col].to_pylist():
            paras = (t or "").split("\n\n")
            kept = [
                p
                for p in paras
                if hashlib.md5(p.encode("utf-8", "replace")).hexdigest()
                not in bl
            ]
            texts.append("\n\n".join(kept))
            removed.append(len(paras) - len(kept))
        cols = {
            name: batch[name]
            for name in batch.column_names
            if name != text_col
        }
        cols[text_col] = pa.array(texts, pa.string())
        cols["n_removed"] = pa.array(removed, pa.int64())
        return pa.table(cols)

    return ds.map_batches(clean, batch_format="pyarrow")


# -- payment-card redaction (Luhn-gated) ------------------------------
#
# Digit-run patterns alone over-redact (order numbers, timestamps,
# ISBNs all look like cards); production PII scrubbers gate the
# pattern on the ISO/IEC 7812 Luhn check digit, which real card
# numbers carry by construction. The candidate pattern is RE2-free of
# lookarounds; the Luhn gate is what the SQL oracle CANNOT replay
# symbolically, so the gate query plants known-valid and check-digit-
# broken numbers and asserts only the valid ones were redacted.

CARD_RE = r"\b\d(?:[ -]?\d){12,18}\b"
_CARD = re.compile(CARD_RE)
_CARD_SEP = re.compile(r"[ -]")


def luhn_valid(digits: str) -> bool:
    """ISO/IEC 7812 check: doubled-every-second-from-the-right digit
    sum divisible by 10. ``digits`` must be numerals only."""
    total = 0
    for i, ch in enumerate(reversed(digits)):
        d = ord(ch) - 48
        if i & 1:
            d += d
            if d > 9:
                d -= 9
        total += d
    return total % 10 == 0


def redact_cards_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Replace Luhn-valid 13-19-digit runs (optionally space/hyphen
    grouped) with ``<CARD>``; leave check-digit-broken runs alone.
    Emits the redacted text plus ``n_cards`` per row."""
    texts, n_cards = [], []
    for t in batch[text_col].to_pylist():
        t = t or ""
        count = 0

        def gate(m: re.Match) -> str:
            nonlocal count
            digits = _CARD_SEP.sub("", m.group())
            if 13 <= len(digits) <= 19 and luhn_valid(digits):
                count += 1
                return "<CARD>"
            return m.group()

        texts.append(_CARD.sub(gate, t))
        n_cards.append(count)
    cols = {
        name: batch[name] for name in batch.column_names if name != text_col
    }
    cols[text_col] = pa.array(texts, pa.string())
    cols["n_cards"] = pa.array(n_cards, pa.int64())
    return pa.table(cols)


def redact_cards(
    ds: ray.data.Dataset, text_col: str = "text"
) -> ray.data.Dataset:
    return ds.map_batches(
        lambda b: redact_cards_batch(b, text_col), batch_format="pyarrow"
    )


def pii_spans(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Span-level PII ANNOTATION (offsets, not redaction): one row per
    detected span, ``(doc_id, span_idx, kind, start_cp, end_cp)`` in
    original-text codepoint offsets — the export a PII-classifier
    training set or an audit overlay needs, where redact_pii's
    in-place replacement loses positions.

    Same three detectors and the same precedence as
    :func:`redact_pii_batch` (emails claim first, phones next, IPv4
    last), but overlaps are resolved by SPAN OWNERSHIP on the original
    text (a later-kind match overlapping an owned span is dropped)
    instead of by re-scanning redacted text — positions therefore
    refer to the input the annotations will be applied to.
    ``span_idx`` orders spans by (start, kind-priority). Pure map
    pass, no exchange."""

    def spans(batch: pa.Table) -> pa.Table:
        ids, idxs, kinds, starts, ends = [], [], [], [], []
        for i, text in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            if not text:
                continue
            found: list[tuple[int, int, str]] = []

            def claim(rx, kind):
                for m in rx.finditer(text):
                    s, e = m.span()
                    if any(s < oe and os_ < e for os_, oe, _ in found):
                        continue  # overlaps an owned span
                    found.append((s, e, kind))

            claim(_EMAIL, "email")
            claim(_PHONE, "phone")
            claim(_IP, "ip")
            found.sort()
            for k, (s, e, kind) in enumerate(found):
                ids.append(i)
                idxs.append(k)
                kinds.append(kind)
                starts.append(s)
                ends.append(e)
        return pa.table(
            {
                id_col: pa.array(ids),
                "span_idx": pa.array(idxs, pa.int64()),
                "kind": pa.array(kinds, pa.string()),
                "start_cp": pa.array(starts, pa.int64()),
                "end_cp": pa.array(ends, pa.int64()),
            }
        )

    return ds.map_batches(spans, batch_format="pyarrow")
