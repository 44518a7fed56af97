"""Binary PPM (P6) / PGM (P5) image IO, 8-bit, bit-exact round trips."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np


def write_ppm(path, image: np.ndarray) -> None:
    """Write a non-empty (H, W, 3) float image in [0, 1] as binary 8-bit P6;
    values outside are clipped, and NaN or infinite pixels raise ValueError."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.size == 0:
        raise ValueError(f"expected a non-empty (H, W, 3) image, got {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("PPM pixels must be finite")
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def write_pgm(path, image: np.ndarray) -> None:
    """Write a non-empty (H, W) array of integers in 0..255 (e.g. class ids)
    as binary P5; any other value raises ValueError."""
    data = np.asarray(image)
    if data.ndim != 2 or data.size == 0:
        raise ValueError(f"expected a non-empty (H, W) image, got {data.shape}")
    if not np.all((data >= 0) & (data <= 255) & (data == np.round(data))):
        raise ValueError("PGM values must be integers in 0..255")
    data = data.astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def _read_header(f, magic: bytes) -> tuple[int, int, int]:
    if f.read(2) != magic:
        raise ValueError(f"not a {magic.decode()} file")
    fields = []
    while len(fields) < 3:
        tok = b""
        ch = f.read(1)
        while ch.isspace():
            ch = f.read(1)
        if ch == b"#":  # comment line
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        while ch and not ch.isspace():
            tok += ch
            ch = f.read(1)
        if not tok:
            raise ValueError("truncated header")
        fields.append(int(tok))
    return fields[0], fields[1], fields[2]


def _read_payload(path, magic: bytes, channels: int) -> np.ndarray:
    """The 8-bit pixels of a binary netpbm file as (H, W, channels) uint8.

    The header is checked against the file before the payload is read, so a
    corrupt size fails with ValueError instead of a huge allocation.
    """
    kind = magic.decode()
    with open(path, "rb") as f:
        w, h, maxval = _read_header(f, magic)
        if w <= 0 or h <= 0:
            raise ValueError(f"{kind} size {w}x{h} in {Path(path).name} is not positive")
        if maxval != 255:
            raise ValueError(f"only 8-bit {kind} supported")
        size = w * h * channels
        if size > os.fstat(f.fileno()).st_size - f.tell():
            raise ValueError(f"truncated {kind} payload in {Path(path).name}")
        raw = f.read(size)
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, channels)


def read_ppm(path) -> np.ndarray:
    """Read binary P6 into an (H, W, 3) float64 image in [0, 1]."""
    return _read_payload(path, b"P6", 3).astype(np.float64) / 255.0


def read_pgm(path) -> np.ndarray:
    """Read binary P5 into an (H, W) uint8 array."""
    return _read_payload(path, b"P5", 1)[:, :, 0].copy()
