"""Gate queries for the image, audio and video lanes."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from pdf_extractor_ray.functions.exchange import cogroup
from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import _t


# Shared CTE stack recomputing the dHash pipeline in SQL for the
# _dhash_images corpus: box-filter means on the 9x8 grid (with the
# planted single-pixel perturbation), integer luma, gradient bits,
# MSB-first byte packing. Ends with sigs(media_id, dhash, u).
_DHASH_SQL_CTE = """
    m AS (SELECT doc_id AS media_id, doc_id // 5 AS b,
                 24 + ((doc_id // 5) * 7) % 16 AS w,
                 24 + ((doc_id // 5) * 5) % 16 AS h,
                 doc_id % 5 AS v
          FROM documents),
    p AS (SELECT media_id,
                 CASE WHEN v = 3 THEN (b*3) % h
                      WHEN v = 4 THEN (b*5+1) % h END AS py,
                 CASE WHEN v = 3 THEN (b*2) % w
                      WHEN v = 4 THEN (b*3+1) % w END AS px
          FROM m),
    grid AS (SELECT m.media_id, m.b, m.w, m.h, p.py, p.px, i.i, j.j,
                    (i.i * m.h) // 8 AS y0, ((i.i+1) * m.h) // 8 AS y1,
                    (j.j * m.w) // 9 AS x0, ((j.j+1) * m.w) // 9 AS x1
             FROM m JOIN p USING (media_id)
             CROSS JOIN (SELECT unnest(range(8)) AS i) i
             CROSS JOIN (SELECT unnest(range(9)) AS j) j),
    bx AS (SELECT g.media_id, g.i, g.j,
                  CAST(sum(CASE WHEN g.py = y.y AND g.px = x.x THEN 255
                           ELSE (3*x.x + 7*y.y + g.b
                                 + (x.x*y.y + g.b*x.x*x.x) % 251) % 256
                           END)
                       // ((g.y1-g.y0)*(g.x1-g.x0)) AS BIGINT) AS r,
                  CAST(sum(CASE WHEN g.py = y.y AND g.px = x.x THEN 255
                           ELSE (3*x.x + 7*y.y + 11 + g.b
                                 + (x.x*y.y + g.b*x.x*x.x) % 251) % 256
                           END)
                       // ((g.y1-g.y0)*(g.x1-g.x0)) AS BIGINT) AS gc,
                  CAST(sum(CASE WHEN g.py = y.y AND g.px = x.x THEN 255
                           ELSE (3*x.x + 7*y.y + 22 + g.b
                                 + (x.x*y.y + g.b*x.x*x.x) % 251) % 256
                           END)
                       // ((g.y1-g.y0)*(g.x1-g.x0)) AS BIGINT) AS bc
           FROM grid g
           JOIN (SELECT unnest(range(40)) AS x) x
                ON x.x >= g.x0 AND x.x < g.x1
           JOIN (SELECT unnest(range(40)) AS y) y
                ON y.y >= g.y0 AND y.y < g.y1
           GROUP BY g.media_id, g.i, g.j, g.y0, g.y1, g.x0, g.x1),
    lum AS (SELECT media_id, i, j,
                   (299*r + 587*gc + 114*bc) // 1000 AS l
            FROM bx),
    bits AS (SELECT a.media_id, a.i, a.j,
                    CASE WHEN b.l > a.l THEN 1 ELSE 0 END AS bit
             FROM lum a JOIN lum b
                  ON a.media_id = b.media_id AND a.i = b.i
                 AND b.j = a.j + 1
             WHERE a.j < 8),
    bytes AS (SELECT media_id, i,
                     CAST(sum(bit * (1 << (7 - j))) AS BIGINT) AS byte
              FROM bits GROUP BY media_id, i),
    sigs AS (SELECT media_id,
                    string_agg(printf('%02x', byte), '' ORDER BY i)
                        AS dhash,
                    CAST(sum(CAST(byte AS UBIGINT)
                             * (CAST(1 AS UBIGINT) << (8 * (7 - i))))
                         AS UBIGINT) AS u
             FROM bytes GROUP BY media_id)
"""


@register("media_features", oracle="""
            SELECT doc_id AS media_id,
                   octet_length(encode(text)) AS n_bytes,
                   greatest(1, CAST(ceil(octet_length(encode(text))/65536.0) AS INT)) AS n_chunks
            FROM documents
        """)
def _q_media_features(sf_dir: str):
    from pdf_extractor_ray.functions.multimodal import media_features

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "media_id": batch["doc_id"],
                "payload": pc.cast(batch["text"], pa.binary()),
            }
        )

    media = docs.map_batches(to_media, batch_format="pyarrow")
    out = media_features(media, decoder="fake")
    return out.select_columns(["media_id", "n_bytes", "n_chunks"])


def _media_ds(sf_dir: str) -> ray.data.Dataset:
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "media_id": batch["doc_id"],
                "payload": pc.cast(batch["text"], pa.binary()),
            }
        )

    return docs.map_batches(to_media, batch_format="pyarrow")


def _image_ds(sf_dir: str) -> ray.data.Dataset:
    """Genuine image payloads: deterministic RGB gradient
    (pixel[y,x,c] = (3x + 7y + 11c + id) % 256) at formula-derived
    dims (w = 16 + 37*id % 48, h = 16 + 53*id % 48), encoded as REAL
    P6 PPM (even ids) / 24-bit BMP (odd ids) bytes — both decoders
    exercised, one SQL-replayable pixel truth."""
    from pdf_extractor_ray.kernel.imagecodec import (
        encode_bmp,
        encode_ppm,
        gradient_image,
    )

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_images(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            px = gradient_image(i, 16 + (i * 37) % 48, 16 + (i * 53) % 48)
            payloads.append(
                encode_ppm(px) if i % 2 == 0 else encode_bmp(px)
            )
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return docs.map_batches(to_images, batch_format="pyarrow")


# REAL pixel decode: the payloads are genuine PPM/BMP bytes of
# the gradient pixel[y,x,c] = (3x + 7y + 11c + id) % 256 at
# formula-derived dims; the oracle rebuilds every pixel from
# the FORMULA (never the binary), so a green hash proves the
# pure-Python decoders parse real image bytes correctly.
@register("image_decode", bench=True, oracle="""
            WITH m AS (SELECT doc_id AS media_id,
                              16 + (doc_id * 37) % 48 AS w,
                              16 + (doc_id * 53) % 48 AS h
                       FROM documents),
            px AS (SELECT m.media_id, m.w, m.h, x.x, y.y, c.c,
                          (3*x.x + 7*y.y + 11*c.c + m.media_id) % 256 AS v
                   FROM m
                   CROSS JOIN (SELECT unnest(range(64)) AS x) x
                   CROSS JOIN (SELECT unnest(range(64)) AS y) y
                   CROSS JOIN (SELECT unnest(range(3)) AS c) c
                   WHERE x.x < m.w AND y.y < m.h)
            SELECT media_id,
                   CAST(w AS BIGINT) AS width,
                   CAST(h AS BIGINT) AS height,
                   CAST(sum(v * (1 + x + y*w + c*w*h)) AS BIGINT)
                       AS checksum,
                   CAST(sum(CASE WHEN c = 0 THEN v END) // (w*h) AS BIGINT)
                       AS mean_r,
                   CAST(sum(CASE WHEN c = 1 THEN v END) // (w*h) AS BIGINT)
                       AS mean_g,
                   CAST(sum(CASE WHEN c = 2 THEN v END) // (w*h) AS BIGINT)
                       AS mean_b
            FROM px GROUP BY media_id, w, h
        """)
def _q_image_decode(sf_dir: str):
    """REAL pixel decode of PPM/BMP payloads (pure-Python codecs —
    public formats, no PIL needed): width/height from the actual
    binary headers, order-sensitive pixel checksum, integer channel
    means. The oracle rebuilds every pixel from the gradient formula,
    never touching the binary — so a green hash proves the decoders
    parse real bytes correctly."""
    from pdf_extractor_ray.functions.multimodal import image_decode

    return image_decode(_image_ds(sf_dir))


# Real decode -> integer box-filter resize to an 8-box (aspect
# preserved by integer arithmetic) -> checksum of the RESIZED
# pixels. The oracle replays box boundaries (i*sh//th ..),
# box sums and floor divisions from the gradient formula.
@register("media_resize", oracle="""
            WITH m AS (SELECT doc_id AS media_id,
                              16 + (doc_id * 37) % 48 AS w,
                              16 + (doc_id * 53) % 48 AS h
                       FROM documents),
            d AS (SELECT media_id, w AS sw, h AS sh,
                         greatest(1, (w * 8) // greatest(w, h)) AS tw,
                         greatest(1, (h * 8) // greatest(w, h)) AS th
                  FROM m),
            b AS (SELECT d.media_id, d.sw, d.sh, d.tw, d.th,
                         i.i AS oy, j.j AS ox, c.c AS c,
                         (i.i * d.sh) // d.th AS y0,
                         ((i.i + 1) * d.sh) // d.th AS y1,
                         (j.j * d.sw) // d.tw AS x0,
                         ((j.j + 1) * d.sw) // d.tw AS x1
                  FROM d
                  CROSS JOIN (SELECT unnest(range(8)) AS i) i
                  CROSS JOIN (SELECT unnest(range(8)) AS j) j
                  CROSS JOIN (SELECT unnest(range(3)) AS c) c
                  WHERE i.i < d.th AND j.j < d.tw),
            v AS (SELECT b.media_id, b.tw, b.th, b.oy, b.ox, b.c,
                         CAST(sum((3*x.x + 7*y.y + 11*b.c + b.media_id)
                                  % 256)
                              // ((b.y1 - b.y0) * (b.x1 - b.x0))
                              AS BIGINT) AS val
                  FROM b
                  JOIN (SELECT unnest(range(64)) AS x) x
                       ON x.x >= b.x0 AND x.x < b.x1
                  JOIN (SELECT unnest(range(64)) AS y) y
                       ON y.y >= b.y0 AND y.y < b.y1
                  GROUP BY b.media_id, b.tw, b.th, b.oy, b.ox, b.c,
                           b.y0, b.y1, b.x0, b.x1),
            o AS (SELECT media_id, tw, th,
                         CAST(sum(val * (1 + ox + oy*tw + c*tw*th))
                              AS BIGINT) AS checksum
                  FROM v GROUP BY media_id, tw, th)
            SELECT media_id,
                   CAST(tw AS BIGINT) AS width,
                   CAST(th AS BIGINT) AS height,
                   checksum
            FROM o
        """)
def _q_media_resize(sf_dir: str):
    """Real decode -> exact integer box-filter resize (aspect
    preserved by integer arithmetic, target box 8) -> PPM re-encode.
    Output (media_id, width, height, checksum of resized pixels); the
    oracle replays the box sums and floor divisions from the gradient
    formula."""
    from pdf_extractor_ray.functions.multimodal import media_resize

    out = media_resize(_image_ds(sf_dir), target=8, decoder="real")
    return out.select_columns(["media_id", "width", "height", "checksum"])


def _audio_ds(sf_dir: str) -> ray.data.Dataset:
    """Genuine audio payloads: deterministic int16 waveform
    (s[i] = ((13i + 17*id) % 65536) - 32768, mono) of formula-derived
    length (n = 1000 + 31*id % 1000) encoded as REAL RIFF/WAVE 16-bit
    PCM bytes at 8 kHz — the decoder reads actual chunk headers, the
    oracle rebuilds every sample from the formula."""
    from pdf_extractor_ray.kernel.audiocodec import encode_wav, synth_wave

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_audio(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = [
            encode_wav(synth_wave(i, 1000 + (i * 31) % 1000), 8000)
            for i in ids
        ]
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return docs.map_batches(to_audio, batch_format="pyarrow")


# REAL PCM decode: payloads are genuine RIFF/WAVE 16-bit PCM of
# the waveform s[i] = ((13i + 17*id) % 65536) - 32768 (mono,
# 8 kHz, n = 1000 + 31*id % 1000); the oracle rebuilds every
# sample from the FORMULA — a green hash proves the chunk
# walker parses real WAV bytes correctly. Zero crossings =
# channel-0 sign-bit transitions via a lag window.
@register("audio_features", bench=True, oracle="""
            WITH m AS (SELECT doc_id AS media_id,
                              1000 + (doc_id * 31) % 1000 AS n
                       FROM documents),
            s AS (SELECT m.media_id, m.n, i.i,
                         ((13*i.i + 17*m.media_id) % 65536) - 32768 AS v
                  FROM m
                  CROSS JOIN (SELECT unnest(range(2000)) AS i) i
                  WHERE i.i < m.n),
            s2 AS (SELECT media_id, n, i, v,
                          lag(v) OVER (PARTITION BY media_id ORDER BY i)
                              AS pv
                   FROM s)
            SELECT media_id,
                   CAST(8000 AS BIGINT) AS sample_rate,
                   CAST(n AS BIGINT) AS n_samples,
                   CAST((n * 1000) // 8000 AS BIGINT) AS duration_ms,
                   CAST(max(abs(v)) AS BIGINT) AS peak,
                   CAST(sum(v * v) AS BIGINT) AS energy,
                   CAST(sum(CASE WHEN pv IS NOT NULL
                                  AND ((v >= 0) <> (pv >= 0))
                            THEN 1 ELSE 0 END) AS BIGINT)
                       AS zero_crossings,
                   CAST(sum(v * (1 + i)) AS BIGINT) AS checksum
            FROM s2 GROUP BY media_id, n
        """)
def _q_audio_features(sf_dir: str):
    """REAL PCM decode of WAV payloads (pure-Python RIFF chunk walker —
    public format, no librosa/ffmpeg needed): sample rate and count
    from the actual chunks, integer duration/peak/energy/
    zero-crossings/checksum. The oracle rebuilds every sample from the
    waveform formula, never touching the binary."""
    from pdf_extractor_ray.functions.multimodal import audio_features

    return audio_features(_audio_ds(sf_dir))


# Real WAV decode -> integer 1-D box resample 8 kHz -> 2 kHz
# (m = n * 2000 // 8000) -> checksum of the RESAMPLED samples.
# Box sums can be negative and the kernel FLOORS; DuckDB //
# truncates toward zero, so floor division is spelled out.
@register("audio_resample", oracle="""
            WITH m AS (SELECT doc_id AS media_id,
                              1000 + (doc_id * 31) % 1000 AS n
                       FROM documents),
            d AS (SELECT media_id, n,
                         greatest(1, (n * 2000) // 8000) AS m
                  FROM m),
            b AS (SELECT d.media_id, d.n, d.m, j.j,
                         (j.j * d.n) // d.m AS lo,
                         ((j.j + 1) * d.n) // d.m AS hi
                  FROM d
                  CROSS JOIN (SELECT unnest(range(500)) AS j) j
                  WHERE j.j < d.m),
            v AS (SELECT b.media_id, b.m, b.j,
                         sum(((13*i.i + 17*b.media_id) % 65536) - 32768)
                             AS s,
                         b.hi - b.lo AS l
                  FROM b
                  JOIN (SELECT unnest(range(2000)) AS i) i
                       ON i.i >= b.lo AND i.i < b.hi
                  GROUP BY b.media_id, b.m, b.j, b.hi, b.lo),
            o AS (SELECT media_id, m, j,
                         CASE WHEN s >= 0 THEN s // l
                              ELSE -((-s + l - 1) // l) END AS val
                  FROM v)
            SELECT media_id,
                   CAST(2000 AS BIGINT) AS out_rate,
                   CAST(m AS BIGINT) AS n_out,
                   CAST(sum(val * (1 + j)) AS BIGINT) AS checksum
            FROM o GROUP BY media_id, m
        """)
def _q_audio_resample(sf_dir: str):
    """Real WAV decode -> exact integer 1-D box-filter resample
    8 kHz -> 2 kHz -> WAV re-encode. Output (media_id, out_rate, n_out,
    checksum of resampled samples); the oracle replays box boundaries
    and FLOOR divisions (negative box sums floor toward -inf, spelled
    out explicitly since DuckDB ``//`` truncates)."""
    from pdf_extractor_ray.functions.multimodal import audio_resample

    out = audio_resample(_audio_ds(sf_dir), target_rate=2000)
    return out.select_columns(["media_id", "out_rate", "n_out", "checksum"])


def _video_ds(sf_dir: str) -> ray.data.Dataset:
    """Genuine video payloads: deterministic gradient frames
    (pixel[f][y,x,c] = (3x + 7y + 11c + 19f + id) % 256) at
    formula-derived dims (w = 8 + 5*id % 9, h = 8 + 3*id % 9,
    n_frames = 2 + id % 7) in a REAL YUV4MPEG2 C444 container — the
    sampler parses actual FRAME markers and planes."""
    from pdf_extractor_ray.kernel.videocodec import encode_y4m

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_videos(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            w, h, nf = 8 + (i * 5) % 9, 8 + (i * 3) % 9, 2 + i % 7
            x = np.arange(w, dtype=np.int64)[None, None, :, None]
            y = np.arange(h, dtype=np.int64)[None, :, None, None]
            c = np.arange(3, dtype=np.int64)[None, None, None, :]
            f = np.arange(nf, dtype=np.int64)[:, None, None, None]
            frames = ((3 * x + 7 * y + 11 * c + 19 * f + i) % 256).astype(
                np.uint8
            )
            payloads.append(encode_y4m(frames))
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return docs.map_batches(to_videos, batch_format="pyarrow")


# REAL Y4M frame sampling: payloads are genuine YUV4MPEG2 C444
# containers of gradient frames pixel[f][y,x,c] =
# (3x + 7y + 11c + 19f + id) % 256 (w = 8 + 5*id % 9,
# h = 8 + 3*id % 9, nf = 2 + id % 7); every 2nd frame is
# sampled. The oracle rebuilds each sampled frame's pixels from
# the FORMULA — a green hash proves the container parser reads
# real FRAME markers and planes.
@register("video_frames", bench=True, oracle="""
            WITH m AS (SELECT doc_id AS media_id,
                              8 + (doc_id * 5) % 9 AS w,
                              8 + (doc_id * 3) % 9 AS h,
                              2 + doc_id % 7 AS nf
                       FROM documents),
            fr AS (SELECT m.media_id, m.w, m.h, f.f
                   FROM m
                   CROSS JOIN (SELECT unnest(range(8)) AS f) f
                   WHERE f.f < m.nf AND f.f % 2 = 0),
            px AS (SELECT fr.media_id, fr.w, fr.h, fr.f, x.x, y.y, c.c,
                          (3*x.x + 7*y.y + 11*c.c + 19*fr.f
                           + fr.media_id) % 256 AS v
                   FROM fr
                   CROSS JOIN (SELECT unnest(range(16)) AS x) x
                   CROSS JOIN (SELECT unnest(range(16)) AS y) y
                   CROSS JOIN (SELECT unnest(range(3)) AS c) c
                   WHERE x.x < fr.w AND y.y < fr.h)
            SELECT media_id,
                   CAST(f AS BIGINT) AS frame_idx,
                   CAST(sum(v * (1 + x + y*w + c*w*h)) AS BIGINT)
                       AS frame_crc
            FROM px GROUP BY media_id, f, w, h
        """)
def _q_video_frames(sf_dir: str):
    """REAL frame sampling from Y4M containers (pure-Python parser —
    public format, no ffmpeg needed): every 2nd frame decoded from
    actual container bytes, order-sensitive pixel checksum per frame.
    The oracle rebuilds every sampled frame's pixels from the gradient
    formula, never touching the binary."""
    from pdf_extractor_ray.functions.multimodal import frame_sample

    frames = frame_sample(_video_ds(sf_dir), every_n=2, decoder="real")

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "media_id": batch["media_id"],
                "frame_idx": pc.cast(batch["frame_idx"], pa.int64()),
                "frame_crc": batch["frame_crc"],
            }
        )

    return frames.map_batches(project, batch_format="pyarrow")


def _dhash_images(sf_dir: str) -> ray.data.Dataset:
    """Image corpus with PLANTED near-duplicates for perceptual-hash
    dedup: every 5 consecutive docs share a base image (b = d // 5,
    nonlinear pixel formula (3x + 7y + 11c + b + (xy + b*x^2) % 251)
    % 256 at dims w = 24 + 7b % 16, h = 24 + 5b % 16 — measured: 1000
    bases -> 1000 distinct dhashes, worst 16-bit band multiplicity 5,
    zero cross-base collisions); copies d%5 in {0,1,2} are exact,
    {3,4} get one pixel blasted to 255 at a base-derived position
    (a near-dup). PPM for even d, BMP for odd."""
    from pdf_extractor_ray.kernel.imagecodec import encode_bmp, encode_ppm

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_images(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for d in ids:
            b = d // 5
            w, h = 24 + (b * 7) % 16, 24 + (b * 5) % 16
            x = np.arange(w, dtype=np.int64)[None, :, None]
            y = np.arange(h, dtype=np.int64)[:, None, None]
            c = np.arange(3, dtype=np.int64)[None, None, :]
            px = (
                (3 * x + 7 * y + 11 * c + b + (x * y + b * x * x) % 251)
                % 256
            ).astype(np.uint8)
            v = d % 5
            if v == 3:
                px[(b * 3) % h, (b * 2) % w, :] = 255
            elif v == 4:
                px[(b * 5 + 1) % h, (b * 3 + 1) % w, :] = 255
            payloads.append(encode_ppm(px) if d % 2 == 0 else encode_bmp(px))
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return docs.map_batches(to_images, batch_format="pyarrow")


# Perceptual dHash over real decoded pixels: the oracle
# recomputes box means, integer luma, gradient bits, byte
# packing and hex formatting from the pixel formula.
@register("image_dhash", oracle=f"""
            WITH {_DHASH_SQL_CTE}
            SELECT media_id, dhash FROM sigs
        """)
def _q_image_dhash(sf_dir: str):
    """Perceptual dHash over REAL decoded pixels (box-resize to 9x8,
    integer grayscale, 64 gradient bits, hex-packed). The oracle
    recomputes the full pipeline — box means, luma, bit comparisons,
    byte packing, hex formatting — from the pixel formula."""
    from pdf_extractor_ray.functions.multimodal import image_dhash

    return image_dhash(_dhash_images(sf_dir)).select_columns(
        ["media_id", "dhash"]
    )


# Image near-dup pairs: self-join the SQL-recomputed hashes on
# 16-bit band equality (the operator's exact blocking) and keep
# bit_count(xor) <= 3.
@register("image_neardup_dhash", oracle=f"""
            WITH {_DHASH_SQL_CTE}
            SELECT a.media_id AS doc_a, b.media_id AS doc_b,
                   CAST(bit_count(xor(a.u, b.u)) AS BIGINT) AS hamming
            FROM sigs a JOIN sigs b ON a.media_id < b.media_id
            WHERE bit_count(xor(a.u, b.u)) <= 3
              AND ((a.u >> 0) & 65535 = (b.u >> 0) & 65535
                OR (a.u >> 16) & 65535 = (b.u >> 16) & 65535
                OR (a.u >> 32) & 65535 = (b.u >> 32) & 65535
                OR (a.u >> 48) & 65535 = (b.u >> 48) & 65535)
        """)
def _q_image_neardup(sf_dir: str):
    """Image near-dup pairs: real decode -> dHash signature -> the
    generic 64-bit banded Hamming pair machinery (shared with SimHash).
    Planted near-dups (one blasted pixel) land within distance 3 of
    their base; the oracle self-joins the SQL-recomputed hashes on
    band equality + bit_count(xor) <= 3 — the operator's exact
    contract."""
    from pdf_extractor_ray.functions.dedup import hash64_pairs
    from pdf_extractor_ray.functions.multimodal import image_dhash

    sigs = image_dhash(_dhash_images(sf_dir))
    pairs = hash64_pairs(sigs, id_col="media_id", sig_col="sig")

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": pc.cast(batch["doc_a"], pa.int64()),
                "doc_b": pc.cast(batch["doc_b"], pa.int64()),
                "hamming": pc.cast(batch["hamming"], pa.int64()),
            }
        )

    return pairs.map_batches(project, batch_format="pyarrow")


@register("frame_sample", oracle="""
            SELECT doc_id AS media_id,
                   (greatest(1, octet_length(encode(text)) // 4096) + 1) // 2
                       AS n_frames
            FROM documents
        """)
def _q_frame_sample(sf_dir: str):
    """Frame-sampling explode (one media row -> sampled frames),
    rolled up to frames per media row. Per-batch partial counts are
    merged through a coarse media-bucket exchange — Ray Data's dynamic
    block splitting may split an oversized FrameSampler output block
    mid-media, so per-block counts alone are NOT guaranteed exact; the
    (tiny) bucketed merge makes the rollup correct under any block
    layout."""
    from pdf_extractor_ray.functions.multimodal import frame_sample

    frames = frame_sample(_media_ds(sf_dir), every_n=2)

    def count_in_batch(batch: pa.Table) -> pa.Table:
        df = pa.table({"media_id": batch["media_id"]}).to_pandas()
        g = df.groupby("media_id", as_index=False).agg(
            n_frames=("media_id", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("media_id", as_index=False).agg(
            n_frames=("n_frames", "sum")
        )

    return cogroup(
        {
            "group": (
                frames.map_batches(count_in_batch, batch_format="pyarrow", batch_size=None),
                "media_id",
            )
        },
        lambda group: merge(group.to_pandas()),
        lambda group: group,
        n_buckets=256,
        coalesce=True,
    )
