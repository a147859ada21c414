"""Gate queries for PII redaction, boilerplate stripping and the clean
export chain."""

from __future__ import annotations

import hashlib

import pyarrow as pa
import ray.data

from pdf_extractor_ray.functions.scrub import EMAIL_RE, IP_RE, PHONE_RE
from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import _t


# Publicly documented test PANs (Visa / Mastercard / Amex) — Luhn-valid
# by construction; the "broken" variant bumps the check digit by one,
# which always fails Luhn (the check digit is unique given the rest).
_CARD_BASES = (
    "4532015112830366",
    "5425233430109903",
    "374245455400126",
)


def _fmt_card(digits: str, fmt: int) -> str:
    if fmt % 2 == 0:
        return digits
    groups = (
        [digits[0:4], digits[4:10], digits[10:]]
        if len(digits) == 15
        else [digits[i : i + 4] for i in range(0, len(digits), 4)]
    )
    return (" " if fmt == 1 else "-").join(groups)


def _broken_card_case(expr: str) -> str:
    """SQL CASE over ``expr % 12`` yielding the check-digit-broken PAN
    literal for each odd (brand, grouping) combo — shared by every
    oracle that plants cards via the (id%3 brand, id%4 format, odd =
    broken) rule."""
    return (
        f"CASE {expr} % 12 "
        + " ".join(
            "WHEN {r} THEN '{lit}'".format(
                r=r,
                lit=_fmt_card(
                    _CARD_BASES[r % 3][:-1]
                    + str((int(_CARD_BASES[r % 3][-1]) + 1) % 10),
                    r % 4,
                ),
            )
            for r in (1, 3, 5, 7, 9, 11)
        )
        + " END"
    )


# Oracle for pii_cards: odd docs keep their broken number verbatim;
# the 6 odd (brand, grouping) combos are spelled out as literals.
_PII_CARDS_SQL = (
    "SELECT doc_id, "
    "CAST(CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END AS BIGINT)"
    " AS n_cards, "
    "md5(text || ' pay ' || "
    "CASE WHEN doc_id % 2 = 0 THEN '<CARD>' ELSE "
    + _broken_card_case("doc_id")
    + " END || ' ok') AS redacted_md5 FROM documents"
)


# L/M = decimal widths of doc_id and doc_id%256; offsets are
# CODEPOINTS (the 'café' before the IP shifts bytes, not cps).
@register("pii_spans", oracle="""
            WITH d AS (
                SELECT doc_id,
                       length(CAST(doc_id AS VARCHAR)) AS l,
                       length(CAST(doc_id % 256 AS VARCHAR)) AS m
                FROM documents)
            SELECT doc_id, CAST(0 AS BIGINT) AS span_idx,
                   'email' AS kind,
                   CAST(9 + l AS BIGINT) AS start_cp,
                   CAST(20 + 2 * l AS BIGINT) AS end_cp
            FROM d
            UNION ALL
            SELECT doc_id, 1, 'phone', 25 + 2 * l, 38 + 2 * l FROM d
            UNION ALL
            SELECT doc_id, 2, 'ip', 48 + 2 * l, 55 + 2 * l + m FROM d
        """)
def _q_pii_spans(sf_dir: str):
    """Span-level PII annotation with original-text codepoint offsets
    (email/phone/IPv4, ownership-resolved overlaps). The plant mixes
    variable-width ids and a non-ASCII 'café' before the IP so a green
    hash proves CODEPOINT (not byte) offset arithmetic; the phone
    regex's trailing-space capture is part of the replayed contract."""
    from pdf_extractor_ray.functions.scrub import pii_spans

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def mk(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(
                    [
                        f"id {d} mail user{d}@ex.org tel 555-123-4"
                        f"{d % 10}00 note café 10.0.{d % 256}.7 end"
                        for d in ids
                    ],
                    pa.string(),
                ),
            }
        )

    return pii_spans(docs.map_batches(mk, batch_format="pyarrow"))


def _card_texts(sf_dir: str) -> ray.data.Dataset:
    """Documents with one planted payment-card mention each: doc_id%3
    picks the brand (16/16/15 digits), doc_id%4 the grouping (plain /
    space / hyphen / plain), and doc_id%2 whether the number is the
    genuine test PAN (even: must be redacted) or its check-digit-broken
    variant (odd: must survive untouched)."""
    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def plant(batch: pa.Table) -> pa.Table:
        ids, texts = [], []
        for d, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            base = _CARD_BASES[d % 3]
            if d % 2:
                base = base[:-1] + str((int(base[-1]) + 1) % 10)
            ids.append(d)
            texts.append(f"{t} pay {_fmt_card(base, d % 4)} ok")
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    return docs.map_batches(plant, batch_format="pyarrow")


@register("pii_cards", oracle=_PII_CARDS_SQL)
def _q_pii_cards(sf_dir: str):
    """Luhn-gated payment-card redaction. The oracle replays the
    plant rule: even docs end '<CARD> ok' with n_cards=1, odd docs
    keep their broken number verbatim with n_cards=0 — so a green
    hash proves the regex found every grouping AND the Luhn gate
    separated valid from check-digit-broken numbers."""
    from pdf_extractor_ray.functions.scrub import redact_cards

    out = redact_cards(_card_texts(sf_dir))

    def fp(batch: pa.Table) -> pa.Table:
        import hashlib

        md5s = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_cards": batch["n_cards"],
                "redacted_md5": pa.array(md5s, pa.string()),
            }
        )

    return out.map_batches(fp, batch_format="pyarrow")


# Dedup runs on REDACTED text, so groups whose only difference
# was the (redacted) email/card legitimately merge — the
# oracle's GROUP BY red replays exactly that (found at the
# sf0.1 gate: 633 survivors = 211 even residue classes + 422
# odd (g%211, g%12) CRT pairs, not 1667 leaders).
@register(
    "clean_export_chain",
    oracle=(
        "WITH lead AS (SELECT DISTINCT doc_id - doc_id % 3 AS g"
        " FROM documents), "
        "t AS (SELECT g, 'corpus body ' || (g % 211)"
        " || ' café contact <EMAIL> pay ' || "
        "CASE WHEN g % 2 = 0 THEN '<CARD>' ELSE "
        + _broken_card_case("g")
        + " END || ' end' AS red FROM lead), "
        "dd AS (SELECT red, min(g) AS doc_id FROM t GROUP BY red) "
        "SELECT doc_id, 'utf-8' AS charset, "
        "CAST(len(string_split(red, ' ')) AS BIGINT) AS n_words, "
        "md5(red) AS red_md5 FROM dd"
    ),
)
def _q_clean_export(sf_dir: str):
    """The dump-processing tail as ONE streaming chain: raw bytes ->
    charset sniff + decode (three encodings of the SAME logical text
    per 3-doc dup group: plain utf-8 / BOM utf-8 / BOM utf-16-le) ->
    Luhn card redaction -> email/phone/IP redaction -> exact dedup
    (min doc_id survives) -> per-survivor word count + fingerprint.
    The oracle rebuilds each group's redacted text (broken cards
    survive verbatim via the shared literal CASE) and replays the
    dedup rule — a green hash proves all three decode lanes converged
    byte-identically BEFORE hashing, both redactors fired exactly
    once, and the survivor rule picked the minimum doc over each
    distinct REDACTED text (groups differing only in their redacted
    email/card merge — the privacy-preserving dedup semantics; at
    sf0.1 that is 633 survivors, not 1667 groups)."""
    from pdf_extractor_ray.functions.dedup import exact_dedup
    from pdf_extractor_ray.functions.scrub import redact_cards, redact_pii
    from pdf_extractor_ray.functions.webclean import sniff_bodies

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_bodies(batch: pa.Table) -> pa.Table:
        ids, bodies = [], []
        for d in batch["doc_id"].to_pylist():
            g = d - d % 3
            base = _CARD_BASES[g % 3]
            if g % 2:
                base = base[:-1] + str((int(base[-1]) + 1) % 10)
            t = (
                f"corpus body {g % 211} café contact "
                f"u{g}@mail.example.org pay {_fmt_card(base, g % 4)} end"
            )
            branch = d % 3
            if branch == 0:
                body = t.encode("utf-8")
            elif branch == 1:
                body = b"\xef\xbb\xbf" + t.encode("utf-8")
            else:
                body = b"\xff\xfe" + t.encode("utf-16-le")
            ids.append(d)
            bodies.append(body)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "html": pa.array(bodies, pa.binary()),
            }
        )

    bodies = docs.map_batches(to_bodies, batch_format="pyarrow")
    decoded = sniff_bodies(bodies, emit_text=True)
    redacted = redact_pii(redact_cards(decoded))
    survivors = exact_dedup(redacted, text_col="text", id_col="doc_id")

    def project(batch: pa.Table) -> pa.Table:
        import hashlib

        texts = batch["text"].to_pylist()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "charset": batch["charset"],
                "n_words": pa.array(
                    [len(t.split(" ")) for t in texts], pa.int64()
                ),
                "red_md5": pa.array(
                    [
                        hashlib.md5(t.encode("utf-8")).hexdigest()
                        for t in texts
                    ],
                    pa.string(),
                ),
            }
        )

    return survivors.map_batches(project, batch_format="pyarrow")


# PII redaction: same RE2 patterns, same replacement order as
# functions/scrub.py (emails -> phones -> IPs); counts taken on
# each stage's pre-replacement string exactly like subn.
@register("pii_redact", oracle=f"""
            WITH t AS (
              SELECT doc_id,
                     text || ' Contact user' || CAST(doc_id AS VARCHAR)
                       || '@example.com or call +1 555 '
                       || CAST(1000 + doc_id % 9000 AS VARCHAR)
                       || '. Server 10.0.' || CAST(doc_id % 256 AS VARCHAR)
                       || '.' || CAST((doc_id * 7) % 256 AS VARCHAR) || '.'
                       AS body
              FROM documents
            ),
            r1 AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(body, '{EMAIL_RE}')) AS BIGINT)
                         AS n_emails,
                     regexp_replace(body, '{EMAIL_RE}', '<EMAIL>', 'g') AS b
              FROM t
            ),
            r2 AS (
              SELECT doc_id, n_emails,
                     CAST(len(regexp_extract_all(b, '{PHONE_RE}')) AS BIGINT)
                         AS n_phones,
                     regexp_replace(b, '{PHONE_RE}', '<PHONE>', 'g') AS b
              FROM r1
            ),
            r3 AS (
              SELECT doc_id, n_emails, n_phones,
                     CAST(len(regexp_extract_all(b, '{IP_RE}')) AS BIGINT)
                         AS n_ips,
                     regexp_replace(b, '{IP_RE}', '<IP>', 'g') AS b
              FROM r2
            )
            SELECT doc_id, n_emails, n_phones, n_ips, md5(b) AS redacted_fp
            FROM r3
        """)
def _q_pii_redact(sf_dir: str):
    """PII redaction (C4/CCNet-style scrub): emails, phones, IPv4s
    replaced with typed placeholders; deterministic PII is appended to
    every document so the oracle can rebuild the exact redacted text
    (md5 fingerprint) and per-kind counts."""
    from pdf_extractor_ray.functions.scrub import redact_pii_batch

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def with_pii(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            body = (
                f"{text} Contact user{doc_id}@example.com or call "
                f"+1 555 {1000 + doc_id % 9000}. Server "
                f"10.0.{doc_id % 256}.{(doc_id * 7) % 256}."
            )
            rows.append({"doc_id": doc_id, "text": body})
        return pa.Table.from_pylist(rows)

    def finish(batch: pa.Table) -> pa.Table:
        import hashlib

        fps = [
            hashlib.md5(t.encode("utf-8", "replace")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_emails": batch["n_emails"],
                "n_phones": batch["n_phones"],
                "n_ips": batch["n_ips"],
                "redacted_fp": pa.array(fps, pa.string()),
            }
        )

    return (
        docs.map_batches(with_pii, batch_format="pyarrow")
        .map_batches(redact_pii_batch, batch_format="pyarrow")
        .map_batches(finish, batch_format="pyarrow")
    )


def _docs_with_footer(sf_dir: str) -> ray.data.Dataset:
    """documents with one shared footer paragraph appended to every 4th
    doc: the boilerplate the paragraph inventory must find."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def with_footer(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            body = text
            if doc_id % 4 == 0:
                body += "\n\nStandard footer boilerplate text for the corpus"
            rows.append({"doc_id": doc_id, "text": body})
        return pa.Table.from_pylist(rows)

    return docs.map_batches(with_footer, batch_format="pyarrow")


@register("paragraph_dedup", oracle="""
            WITH built AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 4 = 0
                          THEN text || chr(10) || chr(10)
                               || 'Standard footer boilerplate text for the corpus'
                          ELSE text END AS body
              FROM documents
            ),
            p AS (
              SELECT unnest(string_split(body, chr(10) || chr(10))) AS para
              FROM built
            )
            SELECT md5(para) AS para_hash,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM p
            WHERE regexp_matches(para, '\\S')
            GROUP BY 1 HAVING count(*) >= 2
        """)
def _q_paragraph_dedup(sf_dir: str):
    """Cross-document repeated-paragraph inventory (boilerplate
    detection): every 4th document carries a shared footer paragraph;
    the operator finds exactly that hash with its document count."""
    from pdf_extractor_ray.functions.scrub import paragraph_hash_counts

    return paragraph_hash_counts(_docs_with_footer(sf_dir), min_count=2)


@register("strip_boilerplate", oracle="""
            -- boilerplate = the injected footer PLUS any document body
            -- that repeats verbatim across docs (the sf0.1 table has 8
            -- such dup groups; their single-paragraph bodies hit
            -- min_count=2 and are legitimately stripped to '')
            WITH dup AS (
                SELECT text FROM documents
                GROUP BY text HAVING count(*) >= 2)
            SELECT doc_id,
                   CAST(CASE WHEN doc_id % 4 = 0 THEN 1 ELSE 0 END
                        + CASE WHEN text IN (SELECT text FROM dup)
                               THEN 1 ELSE 0 END AS BIGINT) AS n_removed,
                   md5(CASE WHEN text IN (SELECT text FROM dup)
                            THEN '' ELSE text END) AS cleaned_fp
            FROM documents
        """)
def _q_strip_boilerplate(sf_dir: str):
    """Detect-then-strip loop: the repeated-footer inventory from
    paragraph_hash_counts broadcasts (bounded) and every document loses
    exactly its boilerplate paragraphs; per-doc cleaned fingerprint +
    removal count, value-checked."""
    from pdf_extractor_ray.functions.scrub import (
        paragraph_hash_counts,
        strip_boilerplate,
    )

    # max_inventory exercises the bounded-broadcast path at the gate
    # (10k never binds at sf scale, so the oracle is unchanged)
    inv = paragraph_hash_counts(
        _docs_with_footer(sf_dir), min_count=2, max_inventory=10_000
    )
    cleaned = strip_boilerplate(_docs_with_footer(sf_dir), inv)

    def finish(batch: pa.Table) -> pa.Table:
        import hashlib

        fps = [
            hashlib.md5(t.encode("utf-8", "replace")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_removed": batch["n_removed"],
                "cleaned_fp": pa.array(fps, pa.string()),
            }
        )

    return cleaned.map_batches(finish, batch_format="pyarrow")
