"""Multimodal columns: opaque binary payloads with typed metadata, decoded /
feature-extracted / resized by actor-pool ``map_batches`` stages.

The interleaved `documents` table carries media as (kind='media', media_ref)
spans; this module gives those refs a payload pipeline:

- ``media_payload_batch``: resolve media_ref → binary payload.  The sandbox
  has no network, so payloads come from the deterministic synthetic store
  below — the "FAKEIMG" format plus REAL PNGs (``synth_png_payload``,
  identical pixels per ref) decoded by the pure-stdlib codec
  (``functions/png.py``) in every environment.  Non-PNG real formats
  (JPEG/WebP/audio) stay behind a Pillow/soundfile import-try that raises
  ``NotImplementedError`` with a clear message when absent — the Ray-side
  plumbing (schema, batch size, actor signature, output layout) is real
  and tested either way.
- ``MediaDecodeStage`` (actor pool): decode header → width/height/channel
  stats. Decoding state (codec tables in real life) is built once per actor.
- ``resize_stage`` / ``frame_sample_stage``: size-changing transforms on the
  fake format, keeping small batches for large binary rows
  (SURVEY.md §7.5.6 memory note).

Exchanges: ``media_dup_pairs`` runs two, its banding (``dedup.banded_pairs``)
and one ``io.exchange`` that drops pairs proposed by several bands.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

_MAGIC = b"FAKEIMG1"


def _synth_pixels(digest: bytes) -> np.ndarray:
    """The shared deterministic pixel recipe: sha1 digest → (h, w) gray
    array.  Both payload formats draw from this, so a ref's pixels — and
    hence its perceptual hash — are identical whichever format ships."""
    w, ht = 8 + digest[0] % 24, 8 + digest[1] % 24
    rng = np.random.default_rng(int.from_bytes(digest[:4], "big"))
    return rng.integers(0, 256, size=(ht, w), dtype=np.uint8)


def _fake_from_digest(digest: bytes) -> bytes:
    px = _synth_pixels(digest)
    ht, w = px.shape
    return _MAGIC + struct.pack("<HH", w, ht) + px.tobytes()


def _png_from_digest(digest: bytes) -> bytes:
    from ..functions.png import encode_png

    return encode_png(_synth_pixels(digest), filters=4)


def synth_payload(media_ref: str) -> bytes:
    """Deterministic fake image payload: magic + w + h + w*h gray bytes."""
    return _fake_from_digest(hashlib.sha1(media_ref.encode()).digest())


def synth_png_payload(media_ref: str) -> bytes:
    """Deterministic REAL PNG payload (same pixel recipe as
    :func:`synth_payload`, encoded through the stdlib codec with the
    Paeth filter) — lets pipelines exercise the real-pixels decode path
    without any optional wheel."""
    return _png_from_digest(hashlib.sha1(media_ref.encode()).digest())


def media_payload_batch(batch: pa.Table, ref_col: str = "media_ref",
                        png_mod: int = 0) -> pa.Table:
    """media_ref → payload.  ``png_mod`` > 0 emits a real PNG for every
    ``png_mod``-th ref (by stable ref hash) and FAKEIMG for the rest, so
    a pipeline sees a MIX of codec paths — the realistic shape of a
    crawled corpus.  One sha1 per ref: the format decision and the pixel
    draw share the digest."""
    refs = batch[ref_col].to_pylist()
    digests = [hashlib.sha1(r.encode()).digest() for r in refs]
    payloads = [
        _png_from_digest(d) if png_mod and d[-1] % png_mod == 0
        else _fake_from_digest(d)
        for d in digests]
    kinds = ["image"] * len(refs)
    return pa.table({
        "media_ref": pa.array(refs, type=pa.string()),
        "kind": pa.array(kinds, type=pa.string()),
        "payload": pa.array(payloads, type=pa.binary()),
    })


def _decode_fake(payload: bytes) -> tuple[int, int, np.ndarray]:
    if not payload.startswith(_MAGIC):
        raise ValueError("not a FAKEIMG payload")
    w, h = struct.unpack("<HH", payload[8:12])
    px = np.frombuffer(payload[12:12 + w * h], dtype=np.uint8).reshape(h, w)
    return w, h, px


class MediaDecodeStage:
    """Actor-pool decode: payload → (width, height, mean/std pixel stats).

    Three codec tiers, probed in payload order:

    - FAKEIMG (deterministic synthetic payloads) — always;
    - PNG via the pure-stdlib decoder (``functions/png.py``) — always:
      real pixels with no optional wheel, so the real-pixels branch is
      exercised in every environment;
    - anything else via Pillow when ``allow_real_codecs=True`` and the
      wheel exists; absent Pillow the ctor still refuses loudly so a
      caller asking for JPEG/WebP/… knows the coverage boundary."""

    def __init__(self, allow_real_codecs: bool = False):
        self.real = None
        if allow_real_codecs:
            try:  # pragma: no cover — not present in this sandbox
                from PIL import Image  # noqa: F401

                self.real = Image
            except ImportError as e:
                raise NotImplementedError(
                    "non-PNG image decoding requires Pillow, which is not "
                    "installed in this environment; PNG payloads decode "
                    "via the stdlib codec and FAKEIMG payloads via the "
                    "deterministic path (allow_real_codecs=False)"
                ) from e

    def _decode(self, payload: bytes) -> tuple[int, int, np.ndarray]:
        if payload.startswith(_MAGIC):
            return _decode_fake(payload)
        from ..functions.png import decode_png, is_png, to_gray

        if is_png(payload):
            # real pixels, pure stdlib — identical result with or
            # without Pillow installed
            px = to_gray(decode_png(payload))
            return px.shape[1], px.shape[0], px
        if self.real is not None:
            # Pillow branch (exercised by the `optional` contract tests
            # in an env with the wheel): grayscale decode of any format
            import io as _io

            img = self.real.open(_io.BytesIO(payload)).convert("L")
            px = np.asarray(img, dtype=np.uint8)
            return img.width, img.height, px
        return _decode_fake(payload)   # raises ValueError with context

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, means, stds = [], [], [], []
        for payload in batch["payload"].to_pylist():
            w, h, px = self._decode(payload)
            widths.append(w)
            heights.append(h)
            means.append(round(float(px.mean()), 4))
            stds.append(round(float(px.std()), 4))
        return pa.table({
            "media_ref": batch["media_ref"],
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "pix_mean": pa.array(means, type=pa.float64()),
            "pix_std": pa.array(stds, type=pa.float64()),
        })


def resize_batch(batch: pa.Table, target: int = 8) -> pa.Table:
    """Nearest-neighbor resize to target×target on the fake format."""
    out = []
    for payload in batch["payload"].to_pylist():
        w, h, px = _decode_fake(payload)
        yi = (np.arange(target) * h // target)
        xi = (np.arange(target) * w // target)
        small = px[np.ix_(yi, xi)]
        out.append(_MAGIC + struct.pack("<HH", target, target) + small.tobytes())
    return pa.table({
        "media_ref": batch["media_ref"],
        "payload": pa.array(out, type=pa.binary()),
    })


# ---------------------------------------------------------------------------
# perceptual hash + media near-dup
# ---------------------------------------------------------------------------


def perturb_payload(payload: bytes, n_pixels: int = 3, seed: int = 0) -> bytes:
    """Flip a few pixels — a deterministic 'near-duplicate' image for
    tests/queries (real-world analog: recompression artifacts)."""
    w, h, px = _decode_fake(payload)
    px = px.copy()
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, px.size, size=n_pixels)
    px.flat[idx] = (px.flat[idx].astype(np.int32) + 64) % 256
    return _MAGIC + struct.pack("<HH", w, h) + px.tobytes()


def dhash64(px: np.ndarray) -> int:
    """Difference hash (dHash): nearest-neighbor resample to 9×8, one bit
    per horizontal gradient sign — the standard perceptual image hash."""
    h, w = px.shape
    yi = (np.arange(8) * h // 8)
    xi = (np.arange(9) * w // 9)
    small = px[np.ix_(yi, xi)].astype(np.int16)
    bits = (small[:, 1:] > small[:, :-1]).astype(np.uint8).ravel()
    return int.from_bytes(np.packbits(bits).tobytes(), "big")


def decode_gray(payload: bytes) -> np.ndarray:
    """Format-agnostic grayscale decode: FAKEIMG or real PNG (stdlib
    codec).  Both synthetic generators draw the same pixel stream per
    ref, so a ref's grayscale — and hence its perceptual hash — is
    identical whichever format carried it."""
    if payload.startswith(_MAGIC):
        return _decode_fake(payload)[2]
    from ..functions.png import decode_png, is_png, to_gray

    if is_png(payload):
        return to_gray(decode_png(payload))
    raise ValueError("decode_gray: neither FAKEIMG nor PNG payload")


def phash_batch(batch: pa.Table) -> pa.Table:
    hashes = []
    for payload in batch["payload"].to_pylist():
        px = decode_gray(payload)
        hashes.append(dhash64(px))
    return pa.table({
        "media_ref": batch["media_ref"],
        "phash": pa.array(hashes, type=pa.uint64()),
    })


def media_dup_pairs(ds, max_hamming: int = 6):
    """Near-duplicate media via banded perceptual hash: 4×16-bit chunks
    (pigeonhole: hamming ≤ 6 over 64 bits shares ≥ 1 exact chunk when the
    flips spread; multi-chunk banding keeps recall high), exact hamming
    verify inside buckets — the simhash-banding shape over pHash values."""
    import pandas as pd

    from ..functions.simhash import hamming_popcount
    from ..io import exchange, hash_bucket

    sigs = ds.map_batches(phash_batch, batch_format="pyarrow")

    def explode(t: pa.Table) -> pa.Table:
        ref, band, chunk, ph = [], [], [], []
        for r, h in zip(t["media_ref"].to_pylist(), t["phash"].to_pylist()):
            for bandi in range(4):
                ref.append(r)
                band.append(bandi)
                chunk.append((h >> (16 * bandi)) & 0xFFFF)
                ph.append(h)
        return pa.table({
            "media_ref": pa.array(ref, type=pa.string()),
            "band": pa.array(band, type=pa.int32()),
            "chunk": pa.array(chunk, type=pa.int32()),
            "phash": pa.array(ph, type=pa.uint64()),
        })

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("media_ref").drop_duplicates("media_ref")
        refs = g["media_ref"].tolist()
        hs = g["phash"].to_numpy().astype(np.uint64)
        a_out, b_out, d_out = [], [], []
        for i in range(len(refs)):
            d = hamming_popcount(hs[i] ^ hs[i + 1:])
            for j in np.nonzero(d <= max_hamming)[0]:
                a_out.append(refs[i])
                b_out.append(refs[i + 1 + j])
                d_out.append(int(d[j]))
        return pd.DataFrame({
            "ref_a": pd.Series(a_out, dtype="object").astype("string"),
            "ref_b": pd.Series(b_out, dtype="object").astype("string"),
            "hamming": pd.Series(d_out, dtype="int64"),
        })

    from .dedup import banded_pairs

    cand = banded_pairs(
        sigs.map_batches(explode, batch_format="pyarrow"),
        ["band", "chunk"], group_fn=bucket_pairs, id_col="media_ref",
    )

    # pair-level dedup, fat-bucketed on a pair hash (a raw
    # (ref_a, ref_b) groupby would be one near-singleton group per pair);
    # the salt is pandas' default hash key
    return exchange(
        cand, lambda t: hash_bucket(t.select(["ref_a", "ref_b"]), 64,
                                    "0123456789123456"),
        lambda g: g.drop_duplicates(["ref_a", "ref_b"]))


# ---------------------------------------------------------------------------
# video: frame sampling
# ---------------------------------------------------------------------------

_VMAGIC = b"FAKEVID1"


def synth_video_payload(media_ref: str, n_frames: int = 12) -> bytes:
    """Deterministic fake video: magic + n + n equal-size FAKEIMG frames."""
    frames = [synth_payload(f"{media_ref}#f{i}") for i in range(n_frames)]
    return _VMAGIC + struct.pack("<H", n_frames) + b"".join(
        struct.pack("<I", len(f)) + f for f in frames)


def frame_sample_batch(batch: pa.Table, every_k: int = 4) -> pa.Table:
    """Video payload → one row per SAMPLED frame (every k-th, always incl.
    frame 0) — the size-changing fan-out stage; output frames are plain
    FAKEIMG payloads feeding the image pipeline above."""
    refs_out, idx_out, frames_out = [], [], []
    for ref, payload in zip(batch["media_ref"].to_pylist(),
                            batch["payload"].to_pylist()):
        if not payload.startswith(_VMAGIC):
            raise ValueError("not a FAKEVID payload")
        (n,) = struct.unpack("<H", payload[8:10])
        off = 10
        for i in range(n):
            (sz,) = struct.unpack("<I", payload[off:off + 4])
            off += 4
            if i % every_k == 0:
                refs_out.append(ref)
                idx_out.append(i)
                frames_out.append(payload[off:off + sz])
            off += sz
    return pa.table({
        "media_ref": pa.array(refs_out, type=pa.string()),
        "frame_idx": pa.array(idx_out, type=pa.int32()),
        "payload": pa.array(frames_out, type=pa.binary()),
    })


# ---------------------------------------------------------------------------
# audio: deterministic PCM + real DSP features
# ---------------------------------------------------------------------------

_AMAGIC = b"FAKEAUD1"
_SR = 8000


def synth_audio_payload(media_ref: str, seconds: float = 0.5) -> bytes:
    """Deterministic fake audio: magic + sample-rate + int16 PCM (sum of two
    seeded sine tones + noise).  The FEATURES below are real DSP."""
    h = hashlib.sha1(media_ref.encode()).digest()
    f1, f2 = 100 + h[0] * 4, 150 + h[1] * 6
    n = int(_SR * seconds)
    t = np.arange(n) / _SR
    rng = np.random.default_rng(int.from_bytes(h[:4], "big"))
    wave = (0.5 * np.sin(2 * np.pi * f1 * t)
            + 0.3 * np.sin(2 * np.pi * f2 * t)
            + 0.05 * rng.standard_normal(n))
    pcm = np.clip(wave * 32767, -32768, 32767).astype("<i2")
    return _AMAGIC + struct.pack("<I", _SR) + pcm.tobytes()


def audio_features_batch(batch: pa.Table) -> pa.Table:
    """payload → (duration_s, rms, zero-crossing rate, dominant-freq bin):
    vectorized numpy DSP; only the codec (here the FAKEAUD header) is fake."""
    durs, rmss, zcrs, peaks = [], [], [], []
    for payload in batch["payload"].to_pylist():
        if not payload.startswith(_AMAGIC):
            raise ValueError("not a FAKEAUD payload")
        (sr,) = struct.unpack("<I", payload[8:12])
        pcm = np.frombuffer(payload[12:], dtype="<i2").astype(np.float64) / 32768
        durs.append(round(len(pcm) / sr, 4))
        rmss.append(round(float(np.sqrt(np.mean(pcm ** 2))), 4))
        zcrs.append(round(float(np.mean(np.abs(np.diff(np.signbit(pcm)))) ), 4))
        spec = np.abs(np.fft.rfft(pcm))
        peaks.append(int(np.argmax(spec[1:]) + 1))
    return pa.table({
        "media_ref": batch["media_ref"],
        "duration_s": pa.array(durs, type=pa.float64()),
        "rms": pa.array(rmss, type=pa.float64()),
        "zcr": pa.array(zcrs, type=pa.float64()),
        "peak_bin": pa.array(peaks, type=pa.int64()),
    })


def media_feature_pipeline(refs_ds, decode_concurrency: int = 2,
                           batch_size: int = 64, png_mod: int = 3):
    """media_ref rows → decoded feature rows (the canonical multimodal
    pipeline shape: resolve → actor-pool decode, small batches).  With
    the default ``png_mod=3`` roughly a third of the payloads arrive as
    REAL PNGs (stdlib-decoded pixels), the rest FAKEIMG — both codec
    tiers exercised in one stream."""
    return (
        refs_ds
        .map_batches(media_payload_batch, batch_format="pyarrow",
                     fn_kwargs={"png_mod": png_mod},
                     batch_size=batch_size)
        .map_batches(
            MediaDecodeStage, batch_format="pyarrow",
            batch_size=batch_size, concurrency=decode_concurrency,
            num_cpus=0.5,
        )
    )
