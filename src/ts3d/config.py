"""Run configuration: every hyperparameter, with validation and presets.

Config files are flat UTF-8 key=value text with '#' comments; command-line
--set overrides beat file values, which beat the built-in defaults. Every
run writes its resolved config next to its outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .tensor import ConfigError

DAPE_MODES = ("dape", "sine2d", "onehot", "none")
PYRAMID_VARIANTS = ("spfpn", "topdown_fpn", "bifpn_like")


@dataclass
class RunConfig:
    # input geometry
    width: int = 1280
    height: int = 288
    bins: tuple = (24, 48, 96)          # per-level disparity bins, fine to coarse
    # model widths
    c_bb: int = 32
    blocks_per_stage: int = 2
    c_dec: int = 256
    c_disp: int = 96
    # decoder
    n_dec: int = 4
    heads: int = 8
    points: int = 4
    pyramid_variant: str = "spfpn"
    dape_mode: str = "dape"
    intermediate_supervision: bool = True
    # anchors / assignment
    classes: tuple = ("Car",)
    anchor_scales: int = 2
    anchor_ratios: tuple = (0.5, 1.0, 2.0)
    tau_fg: float = 0.5
    tau_bg: float = 0.4
    ensure_matches: bool = True
    # losses
    focal_alpha: float = 20.0
    focal_gamma: float = 2.0
    smooth_l1_beta: float = 0.04
    sigma: float = 0.5
    # optimization
    lr: float = 2e-4
    weight_decay: float = 1e-4
    batch_size: int = 32
    total_steps: int = 2000
    checkpoint_every: int = 500
    seed: int = 0
    # augmentation
    augment: bool = True
    flip_probability: float = 0.5
    # inference
    score_threshold: float = 0.1
    nms_iou: float = 0.4
    # pseudo ground truth
    bm_max_disp: int = 0                 # 0 -> derived as 4 * c_disp
    bm_window: int = 9
    dtype: str = "float32"

    def resolved_bm_max_disp(self) -> int:
        return self.bm_max_disp if self.bm_max_disp > 0 else 4 * self.c_disp

    def validate(self) -> "RunConfig":
        def fail(msg):
            raise ConfigError(msg)

        if self.width % 16 or self.height % 16:
            fail(f"width/height must be divisible by 16, got {self.width}x{self.height}")
        if len(self.bins) != 3 or any(b < 1 for b in self.bins):
            fail(f"bins needs three positive entries, got {self.bins}")
        if self.c_disp >= self.c_dec:
            fail(f"c_disp must stay below c_dec, got {self.c_disp} >= {self.c_dec}")
        if self.dape_mode not in DAPE_MODES:
            fail(f"dape_mode must be one of {DAPE_MODES}, got '{self.dape_mode}'")
        if self.dape_mode == "dape" and (self.c_dec - self.c_disp) % 4:
            fail(f"dape needs (c_dec - c_disp) divisible by 4, got {self.c_dec - self.c_disp}")
        if self.dape_mode == "sine2d" and self.c_dec % 4:
            fail(f"sine2d needs c_dec divisible by 4, got {self.c_dec}")
        if self.c_dec % self.heads:
            fail(f"c_dec must divide into heads, got {self.c_dec} % {self.heads}")
        if self.pyramid_variant not in PYRAMID_VARIANTS:
            fail(f"pyramid_variant must be one of {PYRAMID_VARIANTS}")
        if not self.tau_bg <= self.tau_fg:
            fail(f"tau_bg must not exceed tau_fg, got {self.tau_bg} > {self.tau_fg}")
        if self.n_dec < 0 or self.points < 1 or self.heads < 1:
            fail("n_dec must be >= 0 and heads/points >= 1")
        if self.anchor_scales < 1 or not self.anchor_ratios:
            fail("anchor_scales >= 1 and at least one aspect ratio required")
        if self.lr <= 0 or self.total_steps < 1 or self.batch_size < 1:
            fail("lr > 0, total_steps >= 1, batch_size >= 1 required")
        if self.bm_window % 2 == 0:
            fail(f"bm_window must be odd, got {self.bm_window}")
        if self.dtype not in ("float32", "float64"):
            fail(f"dtype must be float32 or float64, got '{self.dtype}'")
        return self

    # -- presets ---------------------------------------------------------

    @staticmethod
    def full() -> "RunConfig":
        return RunConfig()

    @staticmethod
    def desk() -> "RunConfig":
        return RunConfig(
            width=256, height=128, bins=(8, 16, 32), c_bb=32, blocks_per_stage=2,
            c_dec=64, c_disp=24, n_dec=2, heads=8, points=4,
            anchor_scales=1, anchor_ratios=(1.0,),
            batch_size=1, total_steps=2000, checkpoint_every=500,
        )

    @staticmethod
    def toy() -> "RunConfig":
        return RunConfig(
            width=64, height=32, bins=(4, 6, 8), c_bb=4, blocks_per_stage=1,
            c_dec=16, c_disp=8, n_dec=1, heads=2, points=2,
            anchor_scales=1, anchor_ratios=(1.0,),
            batch_size=1, total_steps=8, checkpoint_every=4,
        )

    # -- flat text serialization -----------------------------------------

    def to_text(self) -> str:
        lines = ["# resolved run configuration"]
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    def diff(self, other: "RunConfig") -> list:
        out = []
        for f in fields(self):
            if getattr(self, f.name) != getattr(other, f.name):
                out.append(f.name)
        return out


_PRESETS = {"full": RunConfig.full, "desk": RunConfig.desk, "toy": RunConfig.toy}


def _parse_value(key: str, value: str):
    """Parse ``value`` as the type of the key's default: bool, int, float, str,
    or a comma-separated tuple of the type of the default's first element."""
    value = value.strip()
    default = RunConfig.__dataclass_fields__[key].default
    if isinstance(default, tuple):
        kind = type(default[0])
        if kind is str:
            return tuple(x.strip() for x in value.split(",") if x.strip())
        return tuple(kind(x) for x in value.split(","))
    if isinstance(default, bool):
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"boolean key '{key}' got non-boolean value '{value}'")
    return type(default)(value)


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    known = {f.name for f in fields(cfg)}
    for key, value in overrides.items():
        if key not in known:
            raise ConfigError(f"unknown configuration key '{key}'")
        setattr(cfg, key, _parse_value(key, str(value)))
    return cfg


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got '{line}'")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def load_config(path=None, preset: str = "full", overrides: dict | None = None) -> RunConfig:
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset '{preset}' (choose from {sorted(_PRESETS)})")
    cfg = _PRESETS[preset]()
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            apply_overrides(cfg, parse_config_text(fh.read()))
    if overrides:
        apply_overrides(cfg, overrides)
    return cfg.validate()


def config_from_text(text: str) -> RunConfig:
    return apply_overrides(RunConfig.full(), parse_config_text(text)).validate()
