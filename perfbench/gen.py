"""Seeded input files for the benchmark workloads.

The generators use only ``random.Random(seed).random()``, whose output for
an integer seed is fixed across Python versions, and format numbers with a
fixed number of decimals, so a seed always yields the same bytes. Every
frame carries exactly ``objects`` detections (each object lives in a slot
that is refilled when the object dies), so the amount of work per run does
not depend on the seed; only the geometry does.
"""

from __future__ import annotations

import random
from pathlib import Path

#: Stride the sidecar is keyed for: the CLI's default ``clock.frame_stride``.
SIDECAR_STRIDE = 5


class _Object:
    __slots__ = ("hint", "x0", "y0", "w", "h", "vx", "vy", "conf", "cls", "age", "left")


def _spawn(r, hint, frame_w, frame_h, size, speed, conf_range):
    o = _Object()
    o.hint = hint
    o.w = size[0] + r() * (size[1] - size[0])
    o.h = size[2] + r() * (size[3] - size[2])
    o.x0 = r() * (frame_w - o.w)
    o.y0 = r() * (frame_h - o.h)
    o.vx = (2.0 * r() - 1.0) * speed
    o.vy = (2.0 * r() - 1.0) * speed
    o.conf = conf_range[0] + r() * (conf_range[1] - conf_range[0])
    o.cls = int(r() * 5)
    lifetime = 15 + int(r() * 31)
    o.age = 0
    o.left = lifetime
    return o


def _tracks(seed, n_frames, objects, frame_w, frame_h, size, speed, conf_range):
    """Yield (frame, [(hint, x, y, w, h, conf, cls), ...]) for every frame."""
    rng = random.Random(seed)
    r = rng.random
    next_hint = 0
    slots = []
    for _ in range(objects):
        o = _spawn(r, next_hint, frame_w, frame_h, size, speed, conf_range)
        next_hint += 1
        # Start each slot part-way through its first object's life so that
        # deaths and births are spread over the stream.
        o.age = int(r() * o.left)
        o.left -= o.age
        slots.append(o)
    for frame in range(n_frames):
        rows = []
        for i, o in enumerate(slots):
            if o.left == 0:
                o = slots[i] = _spawn(r, next_hint, frame_w, frame_h, size, speed, conf_range)
                next_hint += 1
            x = min(max(o.x0 + o.vx * o.age, 0.0), frame_w - o.w)
            y = min(max(o.y0 + o.vy * o.age, 0.0), frame_h - o.h)
            conf = min(max(o.conf + (r() - 0.5) * 0.16, 0.0), 1.0)
            rows.append((o.hint, x, y, o.w, o.h, conf, o.cls))
            o.age += 1
            o.left -= 1
        yield frame, rows


def write_generic(
    path: Path, seed: int, n_frames: int, objects: int, sidecar_path: Path | None = None
) -> None:
    """Generic detections CSV (0-based frames, hints = object ids).

    With ``sidecar_path``, also writes a sidecar row for every (processed
    frame, hint). Nine in ten rows carry ``payload_bytes``; the rest use the
    optional 8-column form, so the engine also falls back to its cost model.
    """
    lines = ["# columns: frame,track_hint,x,y,w,h,conf,class"]
    sc_lines = [
        "# columns: frame,track,video_conf,still_conf,video_label,still_label,"
        "video_entropy,still_entropy,payload_bytes"
    ]
    sc = random.Random(seed * 7919 + 17).random
    for frame, rows in _tracks(
        seed, n_frames, objects, 1280.0, 720.0, (8.0, 80.0, 8.0, 60.0), 4.0, (0.4, 0.95)
    ):
        lines.extend(
            f"{frame},{hint},{x:.2f},{y:.2f},{w:.2f},{h:.2f},{conf:.4f},{cls}"
            for hint, x, y, w, h, conf, cls in rows
        )
        if sidecar_path is None or frame % SIDECAR_STRIDE:
            continue
        for hint, _x, _y, w, h, conf, cls in rows:
            video_conf = conf * (0.6 + 0.4 * sc())
            still_conf = min(video_conf + 0.4 * sc(), 1.0)
            still_label = cls if sc() < 0.8 else int(sc() * 5)
            line = (
                f"{frame},{hint},{video_conf:.4f},{still_conf:.4f},{cls},{still_label},"
                f"{0.2 + 1.4 * sc():.4f},{0.1 + 0.8 * sc():.4f}"
            )
            if sc() < 0.9:
                line += f",{int(300 + w * h * (0.3 + 0.4 * sc()))}"
            sc_lines.append(line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if sidecar_path is not None:
        sidecar_path.write_text("\n".join(sc_lines) + "\n", encoding="utf-8")


def write_visdrone(path: Path, seed: int, n_frames: int, objects: int) -> None:
    """VisDrone-MOT layout: 1-based frames, small boxes, crowded 1920x1080."""
    lines = []
    for frame, rows in _tracks(
        seed, n_frames, objects, 1920.0, 1080.0, (6.0, 48.0, 8.0, 40.0), 1.5, (0.05, 1.0)
    ):
        lines.extend(
            f"{frame + 1},{hint},{x:.1f},{y:.1f},{w:.1f},{h:.1f},{conf:.3f},{cls + 1},"
            f"{hint % 3},{(hint // 3) % 3}"
            for hint, x, y, w, h, conf, cls in rows
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
