"""Output checks that recompute the program's results apart from it.

Each check takes one output tree and returns a list of problems (empty when
it passes). The references here are the benchmark's own: nearest-neighbour
resize, BT.601 luma, scipy's median filter, a shifted-view hybrid median,
histogram equalization and pooled PSNR. Only the noise is taken from the
program, through the public `apply_noise` and `derive_seed`, because the
noise streams are the program's definition; the noise check then tests
their statistics against each model.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from workloads import OUT_COLS, OUT_ROWS, STEM, Workload, frame_name, read_ppm

N_SIGMA = 5.0  # width of every statistical band, in standard errors
MAX_PROBLEMS = 5  # per check; enough to see a pattern without flooding


@dataclass(frozen=True)
class Tree:
    """One program run's output directory and what produced it."""

    workload: Workload
    seed: int          # the program's --seed, which also seeds the noise
    input_dir: Path
    out_dir: Path

    @property
    def paths(self) -> list[str]:
        """Processing paths the run writes: gray, color or both."""
        if self.workload.command == "run":
            return {"gray": ["gray"], "color": ["color"], "both": ["gray", "color"]}[self.workload.mode]
        return ["color"]  # a stage keeps the PPM sources' kind

    @property
    def tag_width(self) -> int:
        return max(3, len(str(self.workload.frames - 1)))

    def names(self, index: int, path: str) -> tuple[str, str, str]:
        tag = f"{index:0{self.tag_width}d}"
        ext = "pgm" if path == "gray" else "ppm"
        return (f"{STEM}_enhanced_{tag}.{ext}", f"{STEM}_{path}_hist_pre_{tag}.csv",
                f"{STEM}_{path}_hist_post_{tag}.csv")

    def source(self, index: int) -> np.ndarray:
        """The input frame resized to the output dims, by the benchmark's own resize."""
        return resize(read_ppm(self.input_dir / frame_name(index)), OUT_ROWS, OUT_COLS)

    def planes(self, source: np.ndarray, path: str) -> list[tuple[np.ndarray, int]]:
        """A path's clean planes with their noise slots: 0 gray, 1-3 RGB."""
        if path == "gray":
            return [(luma(source), 0)]
        return [(source[..., c], c + 1) for c in range(3)]

    def sample_indices(self) -> list[int]:
        """First, last and two seeded frames: the frames recomputed end to end."""
        n = self.workload.frames
        picks = np.random.default_rng([self.seed, 99]).choice(n, size=min(2, n), replace=False)
        return sorted({0, n - 1, *(int(i) for i in picks)})


# --- references -------------------------------------------------------------

def resize(src: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Nearest neighbour with floor index mapping."""
    r = (np.arange(rows) * src.shape[0]) // rows
    c = (np.arange(cols) * src.shape[1]) // cols
    return src[r[:, None], c[None, :]]


def luma(rgb: np.ndarray) -> np.ndarray:
    """BT.601 weights, rounded half up."""
    f = rgb.astype(np.float64)
    return np.floor(0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2] + 0.5).astype(np.uint8)


def median3(plane: np.ndarray) -> np.ndarray:
    return ndimage.median_filter(plane, size=3, mode="constant", cval=0)


def hybrid_median3(plane: np.ndarray) -> np.ndarray:
    """Median of {median of the plus, median of the X, centre}, zero padded."""
    padded = np.pad(plane, 1)
    rows, cols = plane.shape

    def at(dr, dc):
        return padded[1 + dr:1 + dr + rows, 1 + dc:1 + dc + cols]

    plus = np.median(np.stack([at(0, 0), at(-1, 0), at(1, 0), at(0, -1), at(0, 1)]), axis=0)
    cross = np.median(np.stack([at(0, 0), at(-1, -1), at(-1, 1), at(1, -1), at(1, 1)]), axis=0)
    return np.median(np.stack([plus, cross, plane.astype(np.float64)]), axis=0).astype(np.uint8)


def hist(values: np.ndarray) -> np.ndarray:
    return np.bincount(values.ravel(), minlength=256)


def level_map(counts: np.ndarray) -> np.ndarray:
    """Round-half-up of 255 times the cumulative distribution of the counts.

    The distribution is a float64 running sum of per-level masses, as the
    program documents it. At an exact half, 255 * C / area = k + 1/2 (for
    instance C = 21120 of 25344), that sum can land a hair below k + 1/2 and
    the level maps to k where exact arithmetic gives k + 1. This reference
    follows the program there; CHANGES.md records the difference.
    """
    cdf = np.cumsum(counts / counts.sum())
    return np.minimum(np.floor(255.0 * cdf + 0.5), 255).astype(np.uint8)


def equalize(plane: np.ndarray) -> np.ndarray:
    return level_map(hist(plane))[plane]


def pushed(counts: np.ndarray) -> np.ndarray:
    """The histogram of a plane with these counts after equalization."""
    return np.bincount(level_map(counts), weights=counts, minlength=256).astype(np.int64)


def psnr_db(sse: int, samples: int) -> float:
    mse = sse / samples
    return math.inf if mse == 0 else 10.0 * math.log10(255 ** 2 / mse)


def sse(a: np.ndarray, b: np.ndarray) -> int:
    d = a.astype(np.int64) - b.astype(np.int64)
    return int(np.sum(d * d))


def noisy_plane(tree: Tree, index: int, clean: np.ndarray, slot: int) -> np.ndarray:
    """The program's noise for one plane (slot 0 gray, 1-3 RGB), from its public API."""
    from lumaforge import NoiseSpec, PixelBuffer, apply_noise
    from lumaforge.rng import derive_seed

    w = tree.workload
    spec = NoiseSpec(w.noise, w.noise_d, derive_seed(tree.seed, index, slot))
    return apply_noise(PixelBuffer(clean), spec).data


def tree_digest(out_dir: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# --- checks -----------------------------------------------------------------

def read_csv(path: Path) -> np.ndarray:
    """Counts of a histogram CSV; raises ValueError on any malformed row."""
    lines = path.read_text(encoding="ascii").splitlines()
    if len(lines) != 257 or lines[0] != "level,count,probability":
        raise ValueError(f"{path.name}: not a header plus 256 rows")
    try:
        counts = np.array([int(line.split(",")[1]) for line in lines[1:]], dtype=np.int64)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path.name}: a row has no integer count") from exc
    total = int(counts.sum())
    expected = [f"{level},{int(c)},{int(c) / total:.9e}" for level, c in enumerate(counts)]
    if lines[1:] != expected:
        raise ValueError(f"{path.name}: a row has a wrong level or probability")
    return counts


def check_tree(tree: Tree) -> list[str]:
    """The output tree holds exactly the expected files, of the right kinds."""
    problems = []
    expected = {name for i in range(tree.workload.frames) for p in tree.paths for name in tree.names(i, p)}
    if tree.workload.command == "run":
        expected.add("report.json")
    present = {p.name for p in tree.out_dir.iterdir()}
    for name in sorted(expected - present)[:MAX_PROBLEMS]:
        problems.append(f"missing {name}")
    for name in sorted(present - expected)[:MAX_PROBLEMS]:
        problems.append(f"unexpected {name}")
    for i in range(tree.workload.frames):
        for p in tree.paths:
            name = tree.names(i, p)[0]
            if name not in present:
                continue
            try:
                frame = read_ppm(tree.out_dir / name)
            except ValueError as exc:
                problems.append(str(exc))
                continue
            want = (OUT_ROWS, OUT_COLS) if p == "gray" else (OUT_ROWS, OUT_COLS, 3)
            if frame.shape != want:
                problems.append(f"{name}: shape {frame.shape}, want {want}")
    if tree.workload.command == "run" and "report.json" in present:
        try:
            report = json.loads((tree.out_dir / "report.json").read_text())
        except ValueError as exc:
            return [*problems, f"report.json: {exc}"][:MAX_PROBLEMS]
        if report.get("n_frames") != tree.workload.frames:
            problems.append(f"report n_frames {report.get('n_frames')}, want {tree.workload.frames}")
        if report.get("frame_dims") != [OUT_ROWS, OUT_COLS]:
            problems.append(f"report frame_dims {report.get('frame_dims')}")
    return problems[:MAX_PROBLEMS]


def check_equalization(tree: Tree) -> list[str]:
    """Per frame: post CSV = histogram of the written frame; for gray, also the
    pre CSV pushed through the level map; the top occupied level is 255."""
    problems = []
    for i in range(tree.workload.frames):
        for p in tree.paths:
            out_name, pre_name, post_name = tree.names(i, p)
            try:
                frame = read_ppm(tree.out_dir / out_name)
                pre = read_csv(tree.out_dir / pre_name)
                post = read_csv(tree.out_dir / post_name)
            except (OSError, ValueError) as exc:
                problems.append(f"frame {i} {p}: {exc}")
                continue
            if not np.array_equal(post, hist(frame)):
                problems.append(f"{post_name}: not the histogram of {out_name}")
            if pre.sum() != frame.size:
                problems.append(f"{pre_name}: covers {pre.sum()} samples, want {frame.size}")
            if p == "gray":
                if not np.array_equal(post, pushed(pre)):
                    problems.append(f"{post_name}: not {pre_name} through its level map")
                tops = [int(frame.max())]
            else:
                tops = [int(frame[..., c].max()) for c in range(3)]
            if any(top != 255 for top in tops):
                problems.append(f"{out_name}: top occupied level {tops}, want 255")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems[:MAX_PROBLEMS]


def check_psnr(tree: Tree) -> list[str]:
    """report.json PSNR = pooled PSNR of the written frames against the clean
    references: own BT.601 luma (gray) or the resized input (color)."""
    if tree.workload.command != "run":
        return []
    try:
        report = json.loads((tree.out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"report.json: {exc}"]
    totals = {p: [0, 0] for p in tree.paths}
    try:
        for i in range(tree.workload.frames):
            source = tree.source(i)
            for p in tree.paths:
                frame = read_ppm(tree.out_dir / tree.names(i, p)[0])
                reference = luma(source) if p == "gray" else source
                if frame.shape != reference.shape:
                    return [f"frame {i} {p}: shape {frame.shape}, reference {reference.shape}"]
                totals[p][0] += sse(frame, reference)
                totals[p][1] += frame.size
    except (OSError, ValueError) as exc:
        return [f"cannot recompute PSNR: {exc}"]
    problems = []
    ours = {p: psnr_db(*totals[p]) for p in tree.paths}
    for p, db in ours.items():
        reported = report.get(f"{p}_psnr_db")
        reported = math.inf if reported == "inf" else reported
        if not isinstance(reported, (int, float)) or abs(reported - db) > 1e-9:
            problems.append(f"report {p}_psnr_db {reported!r}, recomputed {db!r}")
    if len(ours) == 2:
        want = (ours["color"] - ours["gray"]) / ours["color"] * 100.0
        got = report.get("improvement_pct")
        if not isinstance(got, (int, float)) or abs(got - want) > 1e-9:
            problems.append(f"report improvement_pct {got!r}, recomputed {want!r}")
    return problems


def recompute(tree: Tree, index: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per path: the expected written frame and its pre-equalization histogram."""
    w = tree.workload
    source = tree.source(index)
    smooth = {None: lambda x: x, "median": median3, "hybrid_median": hybrid_median3}[w.filter]
    out = {}
    for p in tree.paths:
        prepared = [
            smooth(noisy_plane(tree, index, plane, slot) if w.noise else plane)
            for plane, slot in tree.planes(source, p)
        ]
        enhanced = [equalize(plane) for plane in prepared]
        frame = enhanced[0] if p == "gray" else np.stack(enhanced, axis=-1)
        out[p] = (frame, sum(hist(plane) for plane in prepared))
    return out


def check_samples(tree: Tree) -> list[str]:
    """Sampled frames recomputed end to end match byte for byte, pre CSV too."""
    problems = []
    for i in tree.sample_indices():
        for p, (frame, pre) in recompute(tree, i).items():
            out_name, pre_name, _ = tree.names(i, p)
            try:
                if read_ppm(tree.out_dir / out_name).tobytes() != frame.tobytes():
                    problems.append(f"{out_name}: differs from the recomputed frame")
                if not np.array_equal(read_csv(tree.out_dir / pre_name), pre):
                    problems.append(f"{pre_name}: differs from the recomputed histogram")
            except (OSError, ValueError) as exc:
                problems.append(f"frame {i} {p}: {exc}")
    return problems[:MAX_PROBLEMS]


def check_noise(tree: Tree, draw=noisy_plane) -> list[str]:
    """Noise statistics of the sampled frames' planes against the model.

    `draw` makes the noisy plane; the self-test passes a wrong model to show
    that the check rejects it.
    """
    w = tree.workload
    if not w.noise:
        return []
    clean, noisy = [], []
    for i in tree.sample_indices():
        source = tree.source(i)
        for p in tree.paths:
            for plane, slot in tree.planes(source, p):
                clean.append(plane.ravel())
                noisy.append(draw(tree, i, plane, slot).ravel())
    x = np.concatenate(clean).astype(np.float64)
    y = np.concatenate(noisy).astype(np.float64)
    n = x.size
    problems = []

    def band(what: str, got: float, want: float, stderr: float):
        if abs(got - want) > N_SIGMA * stderr:
            problems.append(f"{w.noise} {what} {got:.6g}, want {want:.6g} +- {N_SIGMA * stderr:.3g}")

    if w.noise == "salt_pepper":
        # sources avoid 0 and 255, so a pixel changes iff it was corrupted
        band("corrupted fraction", float(np.mean(x != y)), w.noise_d,
             math.sqrt(w.noise_d * (1 - w.noise_d) / n))
    elif w.noise == "gaussian":
        r = (y - x)[(y > 0) & (y < 255)]
        var = w.noise_d * 255.0 ** 2 + 1.0 / 12.0  # plus round-half-up's quantization
        band("residual mean", float(r.mean()), 0.0, math.sqrt(var / r.size))
        band("residual variance", float(r.var()), var, var * math.sqrt(2.0 / r.size))
    elif w.noise == "poisson":
        band("pooled mean", float(y.mean()), float(x.mean()), math.sqrt(x.sum()) / n)
        dev = x - x.mean()
        stderr = math.sqrt(np.sum(x + 2 * x * x) + 4 * np.sum(dev * dev * x)) / n
        band("pooled variance", float(y.var()), float(x.var() + x.mean()), stderr)
    return problems


CHECKS = {
    "tree": check_tree,
    "equalization": check_equalization,
    "psnr": check_psnr,
    "samples": check_samples,
    "noise": check_noise,
}


def run_checks(tree: Tree) -> dict[str, list[str]]:
    return {name: check(tree) for name, check in CHECKS.items()}
