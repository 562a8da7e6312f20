"""The package's public names, and the names the benchmark tracer wraps,
all resolve; removed entry points stay removed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import quadlab

ROOT = Path(__file__).resolve().parent.parent
REMOVED = (
    "sample_vectors",
    "map_from_table",
    "quad_eval",
    "polarize",
    "map_from_callable",
    "PairSample",
)


def _tracer():
    """``benchmark/tracer.py``, loaded from its file as the benchmark runs it."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmark" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", _tracer().TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_tracer_target_resolves(target):
    module_name, attr, _, _ = target
    home = importlib.import_module(f"quadlab.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        # Tracer.install reads the method from the class's own namespace.
        assert callable(vars(getattr(home, cls_name))[method])
    else:
        assert callable(getattr(home, attr))


def test_every_exported_name_resolves():
    assert len(set(quadlab.__all__)) == len(quadlab.__all__)
    for name in quadlab.__all__:
        assert hasattr(quadlab, name), name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in quadlab.__all__
        assert not hasattr(quadlab, name), name
    assert not hasattr(quadlab.Sampler, "ball") and not hasattr(quadlab.Sampler, "annulus")
    assert not hasattr(quadlab.NoiseModel, "describe")
    assert "tabulated" not in quadlab.MapHandle.__dataclass_fields__
    assert "label" not in quadlab.MapHandle.__dataclass_fields__
    assert not hasattr(quadlab.SpaceSpec, "norm")
    assert not hasattr(quadlab.AsymptoticVerdict, "decayed")
    assert not hasattr(quadlab.space, "row_norms") and not hasattr(quadlab.space, "_norms")
    for entry in (
        quadlab.certify,
        quadlab.verify_czerwik,
        quadlab.estimate_delta_restricted,
        quadlab.shell_delta_profile,
    ):
        assert "codomain" not in inspect.signature(entry).parameters, entry.__name__
    assert "scales" not in inspect.signature(quadlab.verify_czerwik).parameters
