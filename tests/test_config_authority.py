"""The config is the one place a hyperparameter is written down: no function or
method of ``ts3d`` gives a parameter named after a ``RunConfig`` field, or one
of its aliases, a default. Dataclasses such as ``RunConfig`` and
``SynthParams`` are records, not callers, and are not walked. No field of
``RunConfig`` is ever None, so a None default (``Tensor``'s dtype, taken from
the data) restates no value of it. Nor does any module but the few that take a
config in re-check one: only they raise ``ConfigError``."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import ts3d
from ts3d.config import RunConfig

# parameter names under which a function receives a config value
ALIASES = {"alpha", "gamma", "beta", "window", "iou_threshold", "n_scales", "variant"}
# the benchmark calls these with some arguments left at their defaults
EXEMPT = {"ts3d.train.train_run", "ts3d.evalkit.evaluate_directories",
          "ts3d.config.load_config"}


def _callables():
    """(qualified name, function) for every function defined in a ``ts3d``
    module and every method of a class defined there."""
    for info in pkgutil.iter_modules(ts3d.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"ts3d.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            qual = f"{module.__name__}.{name}"
            if inspect.isfunction(obj):
                yield qual, obj
            elif inspect.isclass(obj) and not dataclasses.is_dataclass(obj):
                yield from ((f"{qual}.{n}", m) for n, m in vars(obj).items()
                            if inspect.isfunction(m))


def test_no_parameter_named_after_a_config_value_has_a_default():
    names = {f.name for f in dataclasses.fields(RunConfig)} | ALIASES
    walked = dict(_callables())
    assert EXEMPT <= set(walked)
    defaults = [f"{qual}({p.name}={p.default!r})" for qual, fn in sorted(walked.items())
                if qual not in EXEMPT for p in inspect.signature(fn).parameters.values()
                if p.name in names and p.default is not p.empty and p.default is not None]
    assert defaults == []


# where a ConfigError may be raised: the config and the places a config meets
# the command line, a dataset or a run directory
CONFIG_GATES = {"config.py", "cli.py", "model.py", "train.py"}


def _raised_names(tree):
    """The name of every exception a ``raise`` statement in ``tree`` raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)


def test_only_the_config_gates_raise_config_errors():
    """``TS3D`` validates its config, so the modules it builds take the config's
    constraints as given: a ConfigError raised elsewhere re-checks a fact."""
    package = pathlib.Path(ts3d.__file__).parent
    raisers = sorted(path.name for path in package.glob("*.py")
                     if "ConfigError" in _raised_names(ast.parse(path.read_text("utf-8"))))
    assert "config.py" in raisers
    assert set(raisers) <= CONFIG_GATES, raisers
