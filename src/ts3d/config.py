"""Run configuration: every hyperparameter, with validation and presets, the
model's strides, and the flat text format of config files, dataset manifests
and eval reports. No library function restates a value of it as a default.

That format is UTF-8 ``key=value`` lines split on the first '=', with keys and
values stripped; text after '#' is a comment and blank lines are skipped. Any
other line is an error naming the file and the line. ``read_pairs`` and
``write_pairs`` are its one reader and writer; each file's owner formats its
values. Command-line --set overrides beat config file values, which beat the
built-in defaults. Every run writes its resolved config next to its outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .tensor import ConfigError

# queries and anchors tile the stride-16 grid; disparity is supervised at stride 4
QUERY_STRIDE = 16
SUPERVISION_STRIDE = 4

DAPE_MODES = ("dape", "sine2d", "onehot", "none")
PYRAMID_VARIANTS = ("spfpn", "topdown_fpn", "bifpn_like")

# The interval each numeric key must lie in; a tuple key's every entry must.
BOUNDS = {
    "[1, inf)": ("width", "height", "bins", "c_bb", "c_dec", "c_disp", "n_dec", "heads",
                 "points", "anchor_scales", "batch_size", "total_steps", "bm_window"),
    "[0, inf)": ("blocks_per_stage", "checkpoint_every", "seed", "weight_decay",
                 "focal_gamma"),
    "(0, inf)": ("anchor_ratios", "focal_alpha", "smooth_l1_beta", "sigma", "lr"),
    "[0, 1]": ("tau_fg", "tau_bg", "flip_probability", "score_threshold"),
    "(0, 1]": ("nms_iou",),
}
CHOICES = {"dape_mode": DAPE_MODES, "pyramid_variant": PYRAMID_VARIANTS,
           "dtype": ("float32", "float64")}


def check_interval(name: str, value, interval: str) -> None:
    """ConfigError naming ``name`` unless ``value`` lies in ``interval``, such as
    "(0, 1]" or "[1, inf)". Each end is tested as lo < x or lo <= x, so NaN fails."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    below = value < hi if interval[-1] == ")" else value <= hi
    if not (above and below):
        raise ConfigError(f"{name} must lie in {interval}, got {value}")


@dataclass
class RunConfig:
    """Every hyperparameter of a run; its bounds live in ``BOUNDS`` and ``CHOICES``."""

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
    bm_window: int = 9
    dtype: str = "float32"

    def resolved_bm_max_disp(self) -> int:
        """Block-matching search range: DAPE reads ``c_disp`` bins at the supervision
        stride, so pseudo-GT beyond ``SUPERVISION_STRIDE * c_disp`` px is unsupervised."""
        return SUPERVISION_STRIDE * self.c_disp

    def validate(self) -> "RunConfig":
        def fail(msg):
            raise ConfigError(msg)

        for interval, keys in BOUNDS.items():
            for key in keys:
                value = getattr(self, key)
                for x in value if isinstance(value, tuple) else (value,):
                    check_interval(key, x, interval)
        for key, options in CHOICES.items():
            if getattr(self, key) not in options:
                fail(f"{key} must be one of {options}, got '{getattr(self, key)}'")
        if len(self.bins) != 3 or not self.anchor_ratios or not self.classes:
            fail(f"bins needs three entries and anchor_ratios and classes at least one, "
                 f"got {self.bins}, {self.anchor_ratios}, {self.classes}")
        for name in self.classes:
            if not name or "#" in name or "," in name or any(c.isspace() for c in name):
                fail(f"classes entries must be non-empty and hold no '#', ',' or whitespace, "
                     f"which config lines and KITTI label types cannot carry, got {name!r}")
        if self.width % QUERY_STRIDE or self.height % QUERY_STRIDE:
            fail(f"width/height must be divisible by {QUERY_STRIDE}, "
                 f"got {self.width}x{self.height}")
        if self.c_disp >= self.c_dec:
            fail(f"c_disp must stay below c_dec, got {self.c_disp} >= {self.c_dec}")
        if self.dape_mode == "dape" and (self.c_dec - self.c_disp) % 4:
            fail(f"dape needs (c_dec - c_disp) divisible by 4, got {self.c_dec - self.c_disp}")
        if self.dape_mode == "sine2d" and self.c_dec % 4:
            fail(f"sine2d needs c_dec divisible by 4, got {self.c_dec}")
        if self.c_dec % self.heads:
            fail(f"c_dec must divide into heads, got {self.c_dec} % {self.heads}")
        if self.tau_bg > self.tau_fg:
            fail(f"tau_bg must not exceed tau_fg, got {self.tau_bg} > {self.tau_fg}")
        if self.bm_window % 2 == 0 or self.bm_window > self.height or self.bm_window >= self.width:
            fail(f"bm_window must be odd with bm_window <= height and bm_window < width, "
                 f"got {self.bm_window} for {self.width}x{self.height}")
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

    def save(self, path) -> None:
        """Write every key for ``load_config``, a tuple as comma-joined entries."""
        pairs = []
        for f in fields(self):
            v = getattr(self, f.name)
            pairs.append((f.name, ",".join(str(x) for x in v) if isinstance(v, tuple) else v))
        write_pairs(path, pairs, header="resolved run configuration")

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
    if isinstance(default, bool):
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"boolean key '{key}' got non-boolean value '{value}'")
    kind = type(default[0]) if isinstance(default, tuple) else type(default)
    try:
        if not isinstance(default, tuple):
            return kind(value)
        if kind is str:
            return tuple(x.strip() for x in value.split(",") if x.strip())
        return tuple(kind(x) for x in value.split(","))
    except ValueError:
        raise ConfigError(f"{kind.__name__} key '{key}' got unparsable value '{value}'") from None


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    known = {f.name for f in fields(cfg)}
    for key, value in overrides.items():
        if key not in known:
            raise ConfigError(f"unknown configuration key '{key}'")
        setattr(cfg, key, _parse_value(key, str(value)))
    return cfg


def read_pairs(path) -> dict:
    """The key=value pairs of a flat text file, in file order."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {lineno}: expected key=value, got '{line}'")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def write_pairs(path, pairs, header: str | None = None) -> None:
    """Write (key, value) pairs as key=value lines, after a '# header' line if given."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(f"# {header}\n")
        fh.writelines(f"{k}={v}\n" for k, v in pairs)


def load_config(path=None, preset: str = "full", overrides: dict | None = None) -> RunConfig:
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset '{preset}' (choose from {sorted(_PRESETS)})")
    cfg = _PRESETS[preset]()
    if path is not None:
        apply_overrides(cfg, read_pairs(path))
    if overrides:
        apply_overrides(cfg, overrides)
    return cfg.validate()
