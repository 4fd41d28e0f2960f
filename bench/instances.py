"""Seeded instances for the benchmark workloads, and the matrix file format.

Run as a script, this writes one workload's instance into a directory:

    python3 bench/instances.py --workload block-0.7 --seed 1 --out DIR

Instances are correlated-activation layers (condition number 100, the
construction the test suite uses). A transformer block shares its Grams
the way a real one does: q/k/v read the same input, gate/up read the same
input, o and down each read their own.

The file format is written and parsed here, independently of the program
under test, so the benchmark can check the program's files rather than
trust its reader.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
from pathlib import Path

import numpy as np

COND = 100.0
SPARSITY = 0.7

# Block shapes. Weights are stored inputs x outputs.
LIBRARY_BLOCK = {"hidden": 384, "mlp": 1024, "rows": 3072}
CLI_BLOCK = {"hidden": 256, "mlp": 1024, "rows": 8192}

# (layer, input Gram it reads, which dims give n_in, n_out)
BLOCK_LAYERS = [
    ("q", "attn_in", "hidden", "hidden"),
    ("k", "attn_in", "hidden", "hidden"),
    ("v", "attn_in", "hidden", "hidden"),
    ("o", "attn_out", "hidden", "hidden"),
    ("gate", "mlp_in", "hidden", "mlp"),
    ("up", "mlp_in", "hidden", "mlp"),
    ("down", "mlp_act", "mlp", "hidden"),
]
GRAM_WIDTH = {"attn_in": "hidden", "attn_out": "hidden", "mlp_in": "hidden", "mlp_act": "mlp"}

# Both block workloads prune the same instance; only the budget differs.
STREAM = {"block-0.7": 1, "block-nm24": 1, "cli-block": 2}

MAGIC = b"AMTX"
HEADER = struct.Struct("<4sHBBQQ")
DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
CODE_DTYPES = {v: k for k, v in DTYPE_CODES.items()}


def write_amtx(path, m: np.ndarray) -> None:
    """Write a float32 or float64 matrix in the program's binary format."""
    dtype = m.dtype.newbyteorder("<")
    header = HEADER.pack(MAGIC, 1, DTYPE_CODES[dtype], 0, m.shape[0], m.shape[1])
    Path(path).write_bytes(header + np.ascontiguousarray(m, dtype=dtype).tobytes())


def read_amtx(path) -> np.ndarray:
    """Parse a matrix file; raises ValueError on anything malformed."""
    blob = Path(path).read_bytes()
    if len(blob) < HEADER.size:
        raise ValueError(f"{path}: {len(blob)} bytes is shorter than the header")
    magic, version, code, flags, rows, cols = HEADER.unpack_from(blob)
    if magic != MAGIC or version != 1 or flags != 0 or code not in CODE_DTYPES:
        raise ValueError(f"{path}: bad header {magic!r} v{version} code {code}")
    dtype = CODE_DTYPES[code]
    if len(blob) != HEADER.size + rows * cols * dtype.itemsize:
        raise ValueError(f"{path}: payload size does not match {rows}x{cols}")
    return np.frombuffer(blob, dtype=dtype, offset=HEADER.size).reshape(rows, cols)


def correlated_activations(rng, rows: int, width: int) -> np.ndarray:
    """Gaussian rows whose covariance spectrum spans condition number COND."""
    q, _ = np.linalg.qr(rng.standard_normal((width, width)))
    sing = np.logspace(0.0, -0.5 * math.log10(COND), width)
    return rng.standard_normal((rows, width)) @ (q * sing) @ q.T


def gram(x: np.ndarray) -> np.ndarray:
    h = x.T @ x
    return (h + h.T) / 2.0


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the workload's instance and a manifest.json describing it."""
    rng = np.random.default_rng([seed, STREAM[workload]])
    out.mkdir(parents=True, exist_ok=True)
    cli = workload == "cli-block"
    dims = CLI_BLOCK if cli else LIBRARY_BLOCK
    for name, width in GRAM_WIDTH.items():
        x = correlated_activations(rng, dims["rows"], dims[width])
        if cli:
            # The CLI reads float32 activations and widens them; the Gram
            # kept for checking is built from exactly those values.
            x = x.astype(np.float32)
            write_amtx(out / f"x_{name}.mat", x)
            x = x.astype(np.float64)
        np.save(out / f"h_{name}.npy", gram(x))
    layers = []
    for name, gram_name, rows, cols in BLOCK_LAYERS:
        w = rng.standard_normal((dims[rows], dims[cols]))
        np.save(out / f"w_{name}.npy", w)
        if cli:
            write_amtx(out / f"w_{name}.mat", w)
        layers.append({"name": name, "gram": gram_name, "shape": list(w.shape)})
    manifest = {"workload": workload, "seed": seed, "layers": layers}
    (out / "manifest.json").write_text(json.dumps(manifest))


def main() -> None:
    parser = argparse.ArgumentParser(description="write one workload instance")
    parser.add_argument("--workload", required=True, choices=sorted(STREAM))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
