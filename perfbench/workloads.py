"""Workload definitions and their seeded synthetic inputs.

Every source frame is a block texture: a coarse grid of random RGB levels
upsampled into square blocks, drawn from numpy's PCG64 seeded by the
benchmark seed and the workload's position in WORKLOADS. Each workload keeps
its source levels inside a band chosen for the noise model it runs (see
`levels` below), so that the noise statistics checks have an exact answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

OUT_ROWS, OUT_COLS = 144, 176  # QCIF, the program's default resize target
STEM = "seq"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # lumaforge subcommand: "run" or a stage name
    frames: int               # input frames per program run
    source_dims: tuple[int, int]
    block: int                # texture block side in source pixels
    levels: tuple[int, int]   # inclusive band of source sample levels
    mode: str | None = None   # run only: gray, color or both
    noise: str | None = None
    noise_d: float = 0.0
    filter: str | None = None
    jobs: int = 1

    def cli_args(self, seed: int, input_dir: str, output_dir: str, jobs: int | None = None) -> list[str]:
        """The program's argv for one run; paths are passed as given."""
        args = [
            self.command,
            "--input-dir", input_dir,
            "--output-dir", output_dir,
            "--resize", f"{OUT_ROWS}x{OUT_COLS}",
            "--seed", str(seed),
            "--jobs", str(self.jobs if jobs is None else jobs),
        ]
        if self.command == "run":
            args += ["--mode", self.mode, "--noise-kind", self.noise or "none"]
            if self.noise:
                args += ["--noise-d", repr(self.noise_d)]
            args += ["--filter-kind", self.filter or "none"]
            if self.filter:
                args += ["--window", "3x3"]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        # Sources avoid 0 and 255, so every impulse changes its pixel and the
        # corrupted fraction is observable.
        Workload("gray-saltpepper-median3", "run", frames=150, source_dims=(144, 176), block=8,
                 levels=(16, 239), mode="gray", noise="salt_pepper", noise_d=0.05,
                 filter="median"),
        # Mid-band sources: a sample is clipped only past 3.7 sigma, so the
        # residual has the model's mean and variance.
        Workload("both-gaussian-hybrid3-jobs2", "run", frames=50, source_dims=(144, 176), block=8,
                 levels=(96, 159), mode="both", noise="gaussian", noise_d=0.01,
                 filter="hybrid_median", jobs=2),
        # lambda <= 160 keeps P(Poisson > 255) below 1e-12, so the clamp at
        # 255 never fires and the pooled moments are those of the model.
        Workload("gray-poisson", "run", frames=20, source_dims=(144, 176), block=8,
                 levels=(32, 160), mode="gray", noise="poisson"),
        # CIF sources over the full level range, halved by the resize.
        Workload("enhance-stage-cif", "enhance", frames=300, source_dims=(288, 352), block=16,
                 levels=(0, 255)),
    )
}


def program_seed(seed: int) -> int:
    """The benchmark seed folded into the program's unsigned 64-bit range."""
    return seed % (1 << 64)


def source_frame(rng: np.random.Generator, workload: Workload) -> np.ndarray:
    rows, cols = workload.source_dims
    b = workload.block
    lo, hi = workload.levels
    coarse = rng.integers(lo, hi + 1, size=(-(-rows // b), -(-cols // b), 3), dtype=np.uint8)
    return np.repeat(np.repeat(coarse, b, axis=0), b, axis=1)[:rows, :cols]


def frame_name(index: int) -> str:
    return f"{STEM}_{index:03d}.ppm"


def generate_inputs(workload: Workload, seed: int, directory: Path) -> None:
    """Write the workload's binary PPM sources; same seed, same bytes."""
    directory.mkdir(parents=True)
    position = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([program_seed(seed), position])
    rows, cols = workload.source_dims
    header = b"P6\n%d %d\n255\n" % (cols, rows)
    for index in range(workload.frames):
        (directory / frame_name(index)).write_bytes(header + source_frame(rng, workload).tobytes())


def read_ppm(path: Path) -> np.ndarray:
    """Decode a binary PGM/PPM with the canonical header the program writes."""
    data = path.read_bytes()
    magic, dims, maxval, payload = data.split(b"\n", 3)
    if magic not in (b"P5", b"P6") or maxval != b"255":
        raise ValueError(f"{path.name}: unexpected netpbm header")
    cols, rows = (int(v) for v in dims.split())
    shape = (rows, cols) if magic == b"P5" else (rows, cols, 3)
    if len(payload) != rows * cols * (1 if magic == b"P5" else 3):
        raise ValueError(f"{path.name}: payload length does not match its header")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)
