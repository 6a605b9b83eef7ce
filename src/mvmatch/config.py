"""Pipeline configuration with the shipped defaults.

Defaults: 512 track tokens, cycle threshold eps_p = 3 px, confidence
threshold tau = 0.3, 2-px NMS radius, groups of one source plus four
targets, 672x672 base resolution, stride pyramid {8, 4, 2, 1} with
multi-view fusion at levels {4, 1}.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass


@dataclass
class PipelineConfig:
    # track construction
    track_tokens: int = 512
    matcher_samples: int = 2000
    matcher_noise_sigma: float = 0.5
    matcher_outlier_rate: float = 0.05

    # matcher
    base_resolution: int = 672
    targets_per_group: int = 4
    strides: tuple[int, ...] = (8, 4, 2, 1)
    mvfuse_levels: tuple[int, ...] = (4, 1)
    mvfuse_iters: int = 2
    feature_dim: int = 32
    hidden_dim: int = 48
    sigma: float = 1.0
    global_temperature: float = 0.002
    softargmax_temperature: float = 0.05
    residual_gain: float = 0.0
    upsample_factor: int = 1  # not read: run_group upsamples by strides[-1],
                              # the only value load_config accepts; not saved

    # post-processing
    eps_p: float = 3.0
    tau: float = 0.3
    nms_radius: int = 2
    max_keypoints: int = 0  # 0 = no cap

    # group sampling
    beta: float = 0.75
    group_tau: float = 0.3
    group_tau_conf: float = 0.3
    alpha_src: float = 1.0
    alpha_tgt: float = 0.25
    lam: float = 1.0

    # evaluation
    homography_thresholds: tuple[float, ...] = (1.0, 3.0, 5.0)
    triangulation_thresholds: tuple[float, ...] = (0.01, 0.02, 0.05)
    eval_max_matches: int = 5000
    ransac_threshold: float = 3.0
    ransac_iters: int = 2000

    def to_json(self) -> str:
        payload = asdict(self)
        del payload["upsample_factor"]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def read_json(path):
    """The JSON value in ``path``; a file that does not parse raises a
    ValueError that starts with the path."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _is_scalar_of(kind, value) -> bool:
    """Whether a parsed JSON scalar fits the field type ``kind``; an int
    fits a float field, a bool fits only a bool field."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_value(path, key: str, kind, value) -> None:
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{path}: {key} must be a list, got {value!r}")
        item = typing.get_args(kind)[0]
        if not all(_is_scalar_of(item, v) for v in value):
            raise ValueError(f"{path}: {key} must be a list of {item.__name__}, "
                             f"got {value!r}")
    elif not _is_scalar_of(kind, value):
        raise ValueError(f"{path}: {key} must be {kind.__name__}, got {value!r}")


def positive_finite_list(values) -> bool:
    """Whether ``values`` is a non-empty list of finite numbers > 0."""
    return len(values) > 0 and all(0 < v < math.inf for v in values)


# Track-building, matcher, post-processing, group-sampling and evaluation
# values outside these ranges would run wrongly (a negative temperature picks
# the least similar anchor, tau >= 1 or a negative eps_p keeps no match, fewer
# than 4 evaluation matches fit no homography), do nothing or fail deep inside
# a command without naming the key, so loading rejects them:
# key -> (check, requirement).
_RANGES = {
    "track_tokens": (lambda v: v >= 1, "must be >= 1"),
    "matcher_samples": (lambda v: v >= 1, "must be >= 1"),
    "matcher_noise_sigma": (lambda v: v >= 0, "must be >= 0"),
    "matcher_outlier_rate": (lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    "base_resolution": (lambda v: v >= 1, "must be >= 1"),
    "targets_per_group": (lambda v: v >= 1, "must be >= 1"),
    "strides": (lambda v: len(v) > 0 and all(s >= 1 and s & (s - 1) == 0 for s in v)
                and all(a > b for a, b in zip(v, v[1:])),
                "must be a non-empty, strictly decreasing list of powers of two"),
    "mvfuse_levels": (lambda v: all(lv >= 1 for lv in v), "entries must be >= 1"),
    "mvfuse_iters": (lambda v: v >= 1, "must be >= 1 (mvfuse_levels [] turns fusion off)"),
    "feature_dim": (lambda v: v >= 1, "must be >= 1"),
    "hidden_dim": (lambda v: v >= 1, "must be >= 1"),
    "sigma": (lambda v: 0 < v < math.inf, "must be finite and > 0"),
    "global_temperature": (lambda v: 0 < v < math.inf, "must be finite and > 0"),
    "softargmax_temperature": (lambda v: 0 < v < math.inf, "must be finite and > 0"),
    "eps_p": (lambda v: 0 <= v < math.inf, "must be finite and >= 0"),
    "tau": (lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    "nms_radius": (lambda v: v >= 1, "must be >= 1"),
    "max_keypoints": (lambda v: v >= 0, "must be >= 0 (0 keeps every keypoint)"),
    "homography_thresholds": (positive_finite_list,
                              "must be a non-empty list of finite values > 0"),
    "triangulation_thresholds": (positive_finite_list,
                                 "must be a non-empty list of finite values > 0"),
    "beta": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "lam": (lambda v: 0 <= v < math.inf, "must be finite and >= 0"),
    "eval_max_matches": (lambda v: v >= 4, "must be >= 4"),
    "ransac_threshold": (lambda v: 0 < v < math.inf, "must be finite and > 0"),
    "ransac_iters": (lambda v: v >= 1, "must be >= 1"),
}


def save_config(path, config: PipelineConfig) -> None:
    with open(path, "w") as f:
        f.write(config.to_json())


def load_config(path) -> PipelineConfig:
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a config must be a JSON object")
    kinds = typing.get_type_hints(PipelineConfig)
    unknown = set(payload) - set(kinds)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
    for key, value in payload.items():
        _check_value(path, key, kinds[key], value)
        if key in _RANGES and not _RANGES[key][0](value):
            raise ValueError(f"{path}: {key} {_RANGES[key][1]}, got {value!r}")
        if isinstance(value, list):
            payload[key] = tuple(value)
    cfg = PipelineConfig(**payload)
    if "upsample_factor" in payload and cfg.upsample_factor != cfg.strides[-1]:
        raise ValueError(f"{path}: upsample_factor must equal the last stride "
                         f"{cfg.strides[-1]}, got {cfg.upsample_factor!r}")
    return cfg
